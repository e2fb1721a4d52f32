"""Differential suite: streaming sinks vs exact numpy aggregation.

The streaming layer's load-bearing claim has two halves:

* **exact mode** (below the sample threshold) is *bit-identical* to
  the batch helpers — ``StreamingQuantiles.percentile`` ==
  ``np.percentile``, ``.boxplot()`` == ``boxplot_stats``,
  ``TimeBinAggregate.rows()`` == ``time_binned_percentiles`` — for
  every split of the sample stream into add/merge chunks and every
  merge order;
* **compressed mode** matches numpy within a documented rank-error
  tolerance, again across random merge orders and shard
  granularities.

Hypothesis generates the sample sets, the chunkings and the merge
permutations; shrinking hands back a minimal counterexample.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    BottomKReservoir,
    StreamingMoments,
    StreamingQuantiles,
    TimeBinAggregate,
    boxplot_stats,
    time_binned_percentiles,
)
from repro.errors import AnalysisError

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False,
                          width=64)

sample_lists = st.lists(finite_floats, min_size=1, max_size=200)


def _chunked(values, rng_seed, max_chunks=6):
    """Split a list into 1..max_chunks contiguous chunks, seeded."""
    rng = np.random.default_rng(rng_seed)
    n = len(values)
    pieces = int(rng.integers(1, max_chunks + 1))
    cuts = sorted(rng.integers(0, n + 1, size=pieces - 1).tolist())
    bounds = [0, *cuts, n]
    return [values[bounds[i]:bounds[i + 1]]
            for i in range(len(bounds) - 1)]


# ---------------------------------------------------------------- moments


@given(values=sample_lists, chunk_seed=st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_moments_match_numpy(values, chunk_seed):
    arr = np.asarray(values, dtype=float)
    acc = StreamingMoments()
    for chunk in _chunked(values, chunk_seed):
        acc.add(chunk)
    assert acc.count == arr.size
    assert acc.minimum == arr.min()
    assert acc.maximum == arr.max()
    scale = max(1.0, float(np.abs(arr).max()))
    assert math.isclose(acc.mean, float(arr.mean()),
                        rel_tol=1e-9, abs_tol=1e-9 * scale)
    assert math.isclose(acc.variance, float(arr.var()),
                        rel_tol=1e-7, abs_tol=1e-7 * scale * scale)


@given(values=sample_lists, chunk_seed=st.integers(0, 2 ** 16),
       merge_seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_moments_merge_order_invariant_within_tolerance(
        values, chunk_seed, merge_seed):
    arr = np.asarray(values, dtype=float)
    chunks = _chunked(values, chunk_seed)
    sinks = []
    for chunk in chunks:
        s = StreamingMoments()
        s.add(chunk)
        sinks.append(s)
    rng = np.random.default_rng(merge_seed)
    rng.shuffle(sinks)
    first = sinks[0]
    for other in sinks[1:]:
        first.merge(other)
    scale = max(1.0, float(np.abs(arr).max()))
    assert first.count == arr.size
    assert math.isclose(first.mean, float(arr.mean()),
                        rel_tol=1e-9, abs_tol=1e-9 * scale)
    assert math.isclose(first.variance, float(arr.var()),
                        rel_tol=1e-6, abs_tol=1e-6 * scale * scale)


def test_moments_reject_non_finite():
    acc = StreamingMoments()
    with pytest.raises(AnalysisError):
        acc.add([1.0, float("nan")])


# -------------------------------------------------------------- quantiles


@given(values=sample_lists, chunk_seed=st.integers(0, 2 ** 16),
       merge_seed=st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_exact_mode_bit_identical_across_merge_orders(
        values, chunk_seed, merge_seed):
    """Below the threshold: any chunking/merge order == numpy, bitwise."""
    arr = np.asarray(values, dtype=float)
    chunks = _chunked(values, chunk_seed)
    sinks = []
    for chunk in chunks:
        s = StreamingQuantiles(exact_threshold=10 ** 6)
        s.add(chunk)
        sinks.append(s)
    rng = np.random.default_rng(merge_seed)
    rng.shuffle(sinks)
    merged = sinks[0]
    for other in sinks[1:]:
        merged.merge(other)
    assert merged.exact
    for p in (0, 5, 25, 50, 75, 95, 100):
        assert merged.percentile(p) == float(np.percentile(arr, p))
    # The boxplot is pinned against the *sorted* sample: sorting is
    # the canonical summation order that makes the mean merge-order
    # independent (see StreamingQuantiles.boxplot).
    assert merged.boxplot() == boxplot_stats(np.sort(arr))
    assert math.isclose(merged.boxplot().mean, float(arr.mean()),
                        rel_tol=1e-9,
                        abs_tol=1e-9 * max(1.0, float(np.abs(arr).max())))


@given(values=st.lists(finite_floats, min_size=50, max_size=400),
       chunk_seed=st.integers(0, 2 ** 16),
       merge_seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
# Copies of 0.0 blurred into mixed centroids across merges: the
# median interpolated past every zero (rank error 8.3%).
@example(values=([0.0] * 2 + [1.0] * 11 + [0.0625] + [0.0] * 11 + [0.25]
                 + [0.0] * 44 + [1.0] * 30 + [0.00390625] * 3),
         chunk_seed=9000, merge_seed=8999)
def test_compressed_mode_rank_error_bounded(values, chunk_seed,
                                            merge_seed):
    """Compressed sketches stay within the documented rank error.

    Tolerance: with ``max_centroids=64`` the k1 merging digest keeps
    rank error under ~6% mid-distribution (and tighter at the tails);
    we assert 8% to leave headroom for merge-order variation.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    chunks = _chunked(values, chunk_seed)
    sinks = []
    for chunk in chunks:
        s = StreamingQuantiles(exact_threshold=16, max_centroids=64)
        s.add(chunk)
        sinks.append(s)
    rng = np.random.default_rng(merge_seed)
    rng.shuffle(sinks)
    merged = sinks[0]
    for other in sinks[1:]:
        merged.merge(other)
    n = arr.size
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        est = merged.quantile(q)
        # Rank error: where does the estimate land in the exact ECDF?
        lo = np.searchsorted(arr, est, side="left") / n
        hi = np.searchsorted(arr, est, side="right") / n
        rank_err = 0.0 if lo <= q <= hi else min(abs(lo - q),
                                                 abs(hi - q))
        assert rank_err <= 0.08, (q, est, rank_err)
    assert merged.moments.minimum == arr[0]
    assert merged.moments.maximum == arr[-1]


def _rank_error(sorted_values, estimate, q):
    n = sorted_values.size
    lo = np.searchsorted(sorted_values, estimate, side="left") / n
    hi = np.searchsorted(sorted_values, estimate, side="right") / n
    return 0.0 if lo <= q <= hi else min(abs(lo - q), abs(hi - q))


def test_compressed_mode_keeps_repeated_values_whole():
    """Copies of one value stay one point mass through merges, so
    every rank inside the run answers with the value itself."""
    rng = np.random.default_rng(3)
    values = np.concatenate([np.zeros(60), rng.uniform(0.001, 1.0, 60)])
    rng.shuffle(values)
    merged = StreamingQuantiles(exact_threshold=16, max_centroids=64)
    for chunk in np.array_split(values, 4):
        sink = StreamingQuantiles(exact_threshold=16, max_centroids=64)
        sink.add(chunk)
        merged.merge(sink)
    assert not merged.exact
    for q in np.linspace(0.01, 0.49, 49):
        assert merged.quantile(q) == 0.0, q
    assert merged.quantile(0.75) > 0.0


def test_compressed_mode_values_spread_over_many_decades():
    """Merged centroids whose means sit far from most of their samples
    (magnitudes spread over hundreds of decades) keep the documented
    rank error: an estimate stays among the samples near its rank."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        values = (rng.choice([-1.0, 1.0], 160)
                  * 10.0 ** -rng.uniform(1, 300, 160))
        merged = StreamingQuantiles(exact_threshold=16, max_centroids=64)
        for chunk in np.array_split(values, 4):
            sink = StreamingQuantiles(exact_threshold=16,
                                      max_centroids=64)
            sink.add(chunk)
            merged.merge(sink)
        arr = np.sort(values)
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert _rank_error(arr, merged.quantile(q), q) <= 0.08, \
                (seed, q)


def test_forced_compression_keeps_extremes_and_count():
    sink = StreamingQuantiles(exact_threshold=10 ** 6)
    sink.add(np.arange(1000.0))
    assert sink.exact
    sink.compress()
    assert not sink.exact
    assert sink.count == 1000
    assert sink.moments.minimum == 0.0
    assert sink.moments.maximum == 999.0
    assert sink.resident_samples < 1000
    # p50 of 0..999 is 499.5; allow the documented rank tolerance.
    assert abs(sink.percentile(50) - 499.5) <= 1000 * 0.02


def test_empty_sink_raises_on_query():
    sink = StreamingQuantiles()
    with pytest.raises(AnalysisError):
        sink.percentile(50)
    with pytest.raises(AnalysisError):
        sink.boxplot()


# --------------------------------------------------------------- time bins


@given(n=st.integers(1, 150), seed=st.integers(0, 2 ** 16),
       chunk_seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_time_bins_exact_mode_match_batch(n, seed, chunk_seed):
    """Grid-timed samples (the campaign shape): rows == batch, bitwise."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.choice(np.arange(0.0, 4096.0, 16.0), size=n,
                               replace=False))
    values = rng.normal(50.0, 10.0, size=n)
    batch = time_binned_percentiles(times, values, bin_width=256.0)
    agg = TimeBinAggregate(bin_width=256.0, exact_threshold=10 ** 6)
    order = np.arange(n)
    rng2 = np.random.default_rng(chunk_seed)
    rng2.shuffle(order)
    for start in range(0, n, 37):
        sel = order[start:start + 37]
        agg.add(times[sel], values[sel])
    assert agg.rows() == batch


def test_time_bins_merge_matches_single_sink():
    rng = np.random.default_rng(7)
    times = np.arange(0.0, 1000.0, 5.0)
    values = rng.normal(40.0, 5.0, size=times.size)
    whole = TimeBinAggregate(bin_width=100.0, exact_threshold=10 ** 6)
    whole.add(times, values)
    left = TimeBinAggregate(bin_width=100.0, exact_threshold=10 ** 6)
    right = TimeBinAggregate(bin_width=100.0, exact_threshold=10 ** 6)
    left.add(times[:77], values[:77])
    right.add(times[77:], values[77:])
    left.merge(right)
    assert left.rows() == whole.rows()
    with pytest.raises(AnalysisError):
        left.merge(TimeBinAggregate(bin_width=50.0))


# --------------------------------------------------------------- reservoir


@given(n=st.integers(1, 300), k=st.integers(1, 64),
       parts=st.integers(1, 5), merge_seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_reservoir_is_merge_order_independent(n, k, parts, merge_seed):
    times = np.arange(float(n))
    values = times * 2.0
    keys = BottomKReservoir.keys_for(seed=123, tag="blk", count=n)

    def build(split_points):
        reservoirs = []
        bounds = [0, *split_points, n]
        for i in range(len(bounds) - 1):
            r = BottomKReservoir(k=k, seed=123)
            lo, hi = bounds[i], bounds[i + 1]
            r.add(keys[lo:hi], times[lo:hi], values[lo:hi])
            reservoirs.append(r)
        return reservoirs

    rng = np.random.default_rng(merge_seed)
    cuts = sorted(rng.integers(0, n + 1, size=parts - 1).tolist())
    reservoirs = build(cuts)
    rng.shuffle(reservoirs)
    merged = reservoirs[0]
    for other in reservoirs[1:]:
        merged.merge(other)

    reference = BottomKReservoir(k=k, seed=123)
    reference.add(keys, times, values)

    t_a, v_a = merged.sample()
    t_b, v_b = reference.sample()
    assert np.array_equal(t_a, t_b)
    assert np.array_equal(v_a, v_b)
    assert merged.offered == n
    assert len(merged) == min(n, k)


def test_reservoir_keys_are_offset_stable():
    whole = BottomKReservoir.keys_for(seed=9, tag="x", count=100)
    tail = BottomKReservoir.keys_for(seed=9, tag="x", count=60, base=40)
    assert np.array_equal(whole[40:], tail)


def test_reservoir_shrink_is_prefix_of_survivors():
    n = 200
    keys = BottomKReservoir.keys_for(seed=5, tag="s", count=n)
    big = BottomKReservoir(k=64, seed=5)
    big.add(keys, np.arange(float(n)), np.arange(float(n)))
    small = BottomKReservoir(k=64, seed=5)
    small.add(keys, np.arange(float(n)), np.arange(float(n)))
    small.shrink(16)
    assert len(small) == 16
    t_big, _ = big.sample()
    t_small, _ = small.sample()
    assert set(t_small) <= set(t_big)
