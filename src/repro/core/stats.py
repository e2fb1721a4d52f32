"""Statistics helpers used across the analysis pipeline.

Two families live here.  The top half is the exact, batch API the
figures were built on (:func:`boxplot_stats`, :class:`Ecdf`,
:func:`time_binned_percentiles`).  The bottom half is the streaming
counterpart: mergeable, bounded-memory accumulators
(:class:`StreamingMoments`, :class:`StreamingQuantiles`,
:class:`TimeBinAggregate`, :class:`BottomKReservoir`) that month-scale
campaigns aggregate into instead of materialising every sample.  Each
streaming sink stays *exact* — bit-identical to the batch API — until
it crosses a sample threshold, then compresses to a t-digest-style
summary with documented rank-error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AnalysisError
from repro.rng import stable_seed


@dataclass(frozen=True)
class BoxplotStats:
    """The summary Fig. 1 draws: box p25-p75, whiskers p5-p95."""

    count: int
    minimum: float
    p5: float
    p25: float
    median: float
    p75: float
    p95: float
    maximum: float
    mean: float

    @property
    def iqr(self) -> float:
        """Interquartile range."""
        return self.p75 - self.p25


def boxplot_stats(samples) -> BoxplotStats:
    """Compute the Fig.-1-style summary of a sample list.

    Non-finite samples are rejected: callers summarising lossy series
    (e.g. :meth:`PingDataset.rtts`) drop NaN probes first, so a NaN
    here is an upstream bug that would otherwise surface as NaN
    percentiles in a rendered figure.
    """
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise AnalysisError("cannot summarise an empty sample set")
    if not np.isfinite(values).all():
        bad = int((~np.isfinite(values)).sum())
        raise AnalysisError(
            f"samples contain {bad} non-finite value(s); "
            "filter NaN/inf before summarising")
    p5, p25, p50, p75, p95 = np.percentile(values, [5, 25, 50, 75, 95])
    return BoxplotStats(
        count=int(values.size), minimum=float(values.min()),
        p5=float(p5), p25=float(p25), median=float(p50),
        p75=float(p75), p95=float(p95), maximum=float(values.max()),
        mean=float(values.mean()))


@dataclass
class Ecdf:
    """Empirical CDF with evaluation and quantile queries."""

    values: np.ndarray

    def __init__(self, samples):
        values = np.sort(np.asarray(list(samples), dtype=float))
        if values.size == 0:
            raise AnalysisError("cannot build an ECDF from no samples")
        self.values = values

    def at(self, x: float) -> float:
        """P(X <= x)."""
        return float(np.searchsorted(self.values, x, side="right")
                     / self.values.size)

    def quantile(self, q: float) -> float:
        """Inverse CDF: the smallest sample ``x`` with ``F(x) >= q``.

        This is the ``inverted_cdf`` quantile, computed with the same
        ``rank / size`` division :meth:`at` uses so the pair is an
        exact inverse (``quantile(at(x)) == x`` for every sample
        ``x``). Linear interpolation (the old behaviour) returned
        values between samples and broke that round trip; routing
        through ``np.percentile(..., q * 100)`` would break it too,
        one rank off, whenever ``q * 100 / 100 * size`` rounds across
        an integer.
        """
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0,1], got {q}")
        size = self.values.size
        rank = min(max(int(np.ceil(q * size)) - 1, 0), size - 1)
        # Fix up floating rounding of q * size: rank must be the
        # smallest index whose at()-style fraction reaches q.
        while (rank + 1) / size < q:
            rank += 1
        while rank > 0 and rank / size >= q:
            rank -= 1
        return float(self.values[rank])

    def curve(self, points: int = 200) -> list[tuple[float, float]]:
        """(x, F(x)) pairs for plotting/rendering."""
        xs = np.linspace(self.values[0], self.values[-1], points)
        return [(float(x), self.at(float(x))) for x in xs]


def moods_median_test(*groups) -> tuple[float, float]:
    """Mood's median test across groups: (statistic, p-value).

    The paper uses it to show hour-of-day RTT distributions share a
    median (no diurnal pattern).

    scipy is imported here, at its only use: the import costs more
    than building a campaign, and most runs never test medians.
    """
    from scipy import stats as scipy_stats

    cleaned = [np.asarray(list(g), dtype=float) for g in groups]
    if len(cleaned) < 2 or any(g.size == 0 for g in cleaned):
        raise AnalysisError("need at least two non-empty groups")
    stat, p_value, _, _ = scipy_stats.median_test(*cleaned)
    return float(stat), float(p_value)


def time_binned_percentiles(times, values, bin_width: float,
                            percentiles=(5, 25, 50, 75, 95)
                            ) -> list[dict]:
    """Per-bin percentile rows for time-series figures (Fig. 2).

    Returns one dict per non-empty bin: ``{"t": bin_start,
    "count": n, "min": ..., "p50": ..., ...}``.
    """
    times = np.asarray(list(times), dtype=float)
    values = np.asarray(list(values), dtype=float)
    if times.size != values.size:
        raise AnalysisError("times and values must align")
    if times.size == 0:
        return []
    order = np.argsort(times)
    times, values = times[order], values[order]
    rows = []
    start = np.floor(times[0] / bin_width) * bin_width
    edges = np.arange(start, times[-1] + bin_width, bin_width)
    if edges[-1] <= times[-1]:
        # times[-1] sits exactly on a bin edge: without one more edge
        # the final samples fall outside every half-open bin and are
        # silently dropped.
        edges = np.append(edges, edges[-1] + bin_width)
    indices = np.searchsorted(times, edges)
    for i in range(len(edges) - 1):
        chunk = values[indices[i]:indices[i + 1]]
        if chunk.size == 0:
            continue
        row = {"t": float(edges[i]), "count": int(chunk.size),
               "min": float(chunk.min())}
        for p in percentiles:
            row[f"p{p}"] = float(np.percentile(chunk, p))
        rows.append(row)
    return rows


# --------------------------------------------------------------------
# Streaming sinks
# --------------------------------------------------------------------

#: Below this many samples a :class:`StreamingQuantiles` keeps the raw
#: buffer and answers queries exactly (bit-identical to the batch
#: helpers above); beyond it the sink compresses to centroids.
DEFAULT_EXACT_THRESHOLD = 4096

#: Default centroid budget once compressed.  The merging t-digest with
#: the k1 scale function keeps rank error near ``q*(1-q)/delta`` — a
#: few tenths of a percent at the tails and ~0.5/delta near the
#: median for delta=512.  The differential suite pins rank error
#: under 8% at delta=64 for sketches merged from up to six shards.
DEFAULT_MAX_CENTROIDS = 512


@dataclass
class StreamingMoments:
    """Mergeable running mean/variance/min/max (Welford + Chan).

    ``add`` consumes a whole numpy chunk at once: the chunk's exact
    moments are computed vectorised, then Chan-merged into the running
    state, so a single-``add`` sink reproduces ``np.mean``/``np.var``
    bit for bit and multi-chunk sinks agree to floating rounding.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        if not np.isfinite(values).all():
            raise AnalysisError("streaming moments require finite samples")
        n = int(values.size)
        mean = float(values.mean())
        m2 = float(((values - mean) ** 2).sum())
        self._combine(n, mean, m2,
                      float(values.min()), float(values.max()))

    def merge(self, other: "StreamingMoments") -> None:
        if other.count:
            self._combine(other.count, other.mean, other.m2,
                          other.minimum, other.maximum)

    def _combine(self, n: int, mean: float, m2: float,
                 lo: float, hi: float) -> None:
        if self.count == 0:
            self.count, self.mean, self.m2 = n, mean, m2
            self.minimum, self.maximum = lo, hi
            return
        total = self.count + n
        delta = mean - self.mean
        self.m2 += m2 + delta * delta * self.count * n / total
        self.mean += delta * n / total
        self.count = total
        self.minimum = min(self.minimum, lo)
        self.maximum = max(self.maximum, hi)

    @property
    def variance(self) -> float:
        """Population variance (ddof=0), matching ``np.var``."""
        if self.count == 0:
            raise AnalysisError("no samples accumulated")
        return self.m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def _k_scale(q: float, delta: float) -> float:
    return delta / (2.0 * math.pi) * math.asin(2.0 * q - 1.0)


def _k_scale_inv(k: float, delta: float) -> float:
    arg = max(-0.5 * math.pi, min(0.5 * math.pi, 2.0 * math.pi * k / delta))
    return (math.sin(arg) + 1.0) / 2.0


def _merge_centroids(means: np.ndarray, weights: np.ndarray,
                     lows: np.ndarray, highs: np.ndarray,
                     max_centroids: int) -> tuple[np.ndarray, ...]:
    """One pass of the merging t-digest (k1 scale function).

    ``means`` must be sorted ascending.  Deterministic: a pure
    function of the sorted input, so any merge order that feeds the
    same multiset of centroids through the same passes agrees.

    ``lows``/``highs`` are each centroid's smallest and largest
    sample.  Two adjacent centroids that each hold copies of one value
    (``low == high``) and agree on it always coalesce, whatever the
    size limit: a repeated value is one point mass, and keeping it
    whole stops its copies leaking into mixed neighbours, where no
    query could find them again.  A coalesced value heavier than the
    local limit then never absorbs, nor is absorbed by, a different
    value, because the limit check fails on its weight alone.  Without
    repeated values the pass is the plain k1 merge.
    """
    total = float(weights.sum())
    delta = float(max_centroids)
    out_m: list[float] = []
    out_w: list[float] = []
    out_lo: list[float] = []
    out_hi: list[float] = []
    # Python floats: the same arithmetic without a numpy scalar per
    # element.
    rows = zip(means.tolist(), weights.tolist(), lows.tolist(),
               highs.tolist())
    cur_m, cur_w, cur_lo, cur_hi = next(rows)
    w_before = 0.0
    q_limit = _k_scale_inv(_k_scale(0.0, delta) + 1.0, delta)
    for m, w, lo, hi in rows:
        if cur_lo == cur_hi == lo == hi:
            cur_w += w
        elif (w_before + cur_w + w) / total <= q_limit:
            cur_m += (m - cur_m) * (w / (cur_w + w))
            cur_w += w
            cur_lo, cur_hi = min(cur_lo, lo), max(cur_hi, hi)
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            out_lo.append(cur_lo)
            out_hi.append(cur_hi)
            w_before += cur_w
            q_limit = _k_scale_inv(
                _k_scale(w_before / total, delta) + 1.0, delta)
            cur_m, cur_w, cur_lo, cur_hi = m, w, lo, hi
    out_m.append(cur_m)
    out_w.append(cur_w)
    out_lo.append(cur_lo)
    out_hi.append(cur_hi)
    return tuple(np.asarray(out, dtype=float)
                 for out in (out_m, out_w, out_lo, out_hi))


@dataclass
class StreamingQuantiles:
    """Mergeable quantile sketch with an exact-mode fallback.

    Below ``exact_threshold`` samples the sink keeps the raw values
    and every query routes through the same numpy calls the batch
    helpers use — :meth:`quantile` / :meth:`boxplot` are then
    *bit-identical* to :func:`np.percentile` / :func:`boxplot_stats`
    regardless of add/merge order (the buffer is sorted before use).
    Past the threshold the buffer collapses into t-digest centroids
    (k1 scale function) and queries interpolate between centroid
    means; rank error is bounded by the centroid budget (see
    :data:`DEFAULT_MAX_CENTROIDS`).  Each centroid also keeps its
    smallest and largest sample: copies of one value stay a single
    centroid, and an estimate stays inside the sample range of the
    centroids around its rank.
    """

    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    max_centroids: int = DEFAULT_MAX_CENTROIDS
    moments: StreamingMoments = field(default_factory=StreamingMoments)
    _buffer: list[np.ndarray] = field(default_factory=list)
    _means: np.ndarray | None = None
    _weights: np.ndarray | None = None
    #: Per centroid: its smallest and largest sample.
    _lows: np.ndarray | None = None
    _highs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.exact_threshold < 0:
            raise AnalysisError("exact_threshold must be >= 0")
        if self.max_centroids < 8:
            raise AnalysisError("max_centroids must be >= 8")

    # -- ingestion ---------------------------------------------------

    @property
    def count(self) -> int:
        return self.moments.count

    @property
    def exact(self) -> bool:
        """True while queries are answered from the raw buffer."""
        return self._means is None

    @property
    def resident_samples(self) -> int:
        """Raw samples held, for resource governance.

        Counts only residency that grows with campaign duration: the
        exact-mode buffer (plus any pending not-yet-compressed
        chunk). Compressed centroids are bounded by ``max_centroids``
        and deliberately excluded — they are the floor the ladder
        degrades *to*, not something it can shed.
        """
        return sum(int(b.size) for b in self._buffer)

    def add(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        self.moments.add(values)
        self._buffer.append(values.copy())
        if (self._means is not None
                or self.count > self.exact_threshold):
            self._compress_pending()

    def merge(self, other: "StreamingQuantiles") -> None:
        if other.count == 0:
            return
        self.moments.merge(other.moments)
        self._buffer.extend(b.copy() for b in other._buffer)
        if other._means is not None:
            self._merge_centroid_arrays(other._means, other._weights,
                                        other._lows, other._highs)
        if (self._means is not None
                or self.count > self.exact_threshold):
            self._compress_pending()

    def compress(self) -> None:
        """Force compressed mode (the resource-governance ladder)."""
        if self._means is None and self.count == 0:
            # Nothing accumulated: flip to compressed-mode semantics
            # with an empty centroid set.
            self._set_empty_centroids()
            return
        self._compress_pending(force=True)

    def _compress_pending(self, force: bool = False) -> None:
        if not self._buffer and not force:
            return
        if self._buffer:
            pending = np.sort(np.concatenate(self._buffer))
            self._buffer = []
            self._merge_centroid_arrays(pending,
                                        np.ones(pending.size, dtype=float),
                                        pending, pending)
        elif self._means is None:
            self._set_empty_centroids()

    def _set_empty_centroids(self) -> None:
        self._means = np.empty(0, dtype=float)
        self._weights = np.empty(0, dtype=float)
        self._lows = np.empty(0, dtype=float)
        self._highs = np.empty(0, dtype=float)

    def _merge_centroid_arrays(self, means: np.ndarray,
                               weights: np.ndarray, lows: np.ndarray,
                               highs: np.ndarray) -> None:
        if self._means is not None and self._means.size:
            means = np.concatenate([self._means, means])
            weights = np.concatenate([self._weights, weights])
            lows = np.concatenate([self._lows, lows])
            highs = np.concatenate([self._highs, highs])
            order = np.argsort(means, kind="stable")
            means, weights = means[order], weights[order]
            lows, highs = lows[order], highs[order]
        if means.size == 0:
            self._set_empty_centroids()
            return
        (self._means, self._weights,
         self._lows, self._highs) = _merge_centroids(
            means, weights, lows, highs, self.max_centroids)

    # -- queries -----------------------------------------------------

    def _exact_values(self) -> np.ndarray:
        values = (np.concatenate(self._buffer) if self._buffer
                  else np.empty(0, dtype=float))
        return np.sort(values)

    def percentile(self, p: float) -> float:
        """Percentile in [0, 100]; exact mode == ``np.percentile``."""
        if not 0.0 <= p <= 100.0:
            raise AnalysisError(f"percentile must be in [0,100], got {p}")
        if self.count == 0:
            raise AnalysisError("no samples accumulated")
        if self._means is None:
            return float(np.percentile(self._exact_values(), p))
        return self._centroid_quantile(p / 100.0)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0,1], got {q}")
        return self.percentile(q * 100.0)

    def _centroid_quantile(self, q: float) -> float:
        means, weights = self._means, self._weights
        total = float(weights.sum())
        target = q * total
        estimate = self._interpolate(means, weights, total, target)
        # Interpolating between means can overshoot every sample near
        # the target rank when a centroid's mean sits far from most of
        # its samples (a few large values among many tiny ones).  Keep
        # the estimate within the sample range of the centroids that
        # hold the ranks within half a sample of the target; the exact
        # extremes bound the first and last centroid.  The half-sample
        # window lets an estimate near a centroid boundary reach into
        # the neighbour's range, which merged sketches overlap.
        ends = np.cumsum(weights)
        first = min(int(np.searchsorted(ends, target - 0.5, side="right")),
                    weights.size - 1)
        stop = max(int(np.searchsorted(ends - weights, target + 0.5)),
                   first + 1)
        low = (float(self._lows[first:stop].min()) if first > 0
               else self.moments.minimum)
        high = (float(self._highs[first:stop].max()) if stop < weights.size
                else self.moments.maximum)
        return min(max(estimate, low), high)

    def _interpolate(self, means: np.ndarray, weights: np.ndarray,
                     total: float, target: float) -> float:
        # Centroid i covers cumulative weight centred at
        # w_before_i + w_i / 2; interpolate linearly between centres,
        # clamping to the exact extremes.
        centres = np.cumsum(weights) - weights / 2.0
        if target <= centres[0]:
            lo, hi = self.moments.minimum, float(means[0])
            span = centres[0]
            frac = target / span if span > 0 else 1.0
            return float(lo + (hi - lo) * min(max(frac, 0.0), 1.0))
        if target >= centres[-1]:
            lo, hi = float(means[-1]), self.moments.maximum
            span = total - centres[-1]
            frac = (target - centres[-1]) / span if span > 0 else 0.0
            return float(lo + (hi - lo) * min(max(frac, 0.0), 1.0))
        idx = int(np.searchsorted(centres, target, side="right"))
        lo_c, hi_c = centres[idx - 1], centres[idx]
        frac = (target - lo_c) / (hi_c - lo_c)
        return float(means[idx - 1]
                     + (means[idx] - means[idx - 1]) * frac)

    def boxplot(self) -> BoxplotStats:
        """Fig.-1 summary; exact mode == :func:`boxplot_stats` of the
        *sorted* sample.  Sorting fixes a canonical summation order,
        which is what makes the result independent of add/merge order
        down to the last bit (the mean can differ from the raw-order
        ``np.mean`` by one ulp; percentiles cannot differ at all)."""
        if self.count == 0:
            raise AnalysisError("cannot summarise an empty sample set")
        if self._means is None:
            return boxplot_stats(self._exact_values())
        p5, p25, p50, p75, p95 = (self._centroid_quantile(q)
                                  for q in (0.05, 0.25, 0.50, 0.75, 0.95))
        return BoxplotStats(
            count=self.count, minimum=self.moments.minimum,
            p5=p5, p25=p25, median=p50, p75=p75, p95=p95,
            maximum=self.moments.maximum, mean=self.moments.mean)


@dataclass
class TimeBinAggregate:
    """Fixed-width time-bin percentile rows, streaming.

    Bins are half-open ``[k*bin_width, (k+1)*bin_width)`` — the same
    partition :func:`time_binned_percentiles` derives from its
    ``floor(t0/bin_width)`` starting edge — so while every per-bin
    sink is still exact, :meth:`rows` reproduces the batch helper bit
    for bit.
    """

    bin_width: float
    percentiles: tuple = (5, 25, 50, 75, 95)
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD
    max_centroids: int = DEFAULT_MAX_CENTROIDS
    _bins: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.bin_width <= 0:
            raise AnalysisError("bin_width must be positive")

    def add(self, times, values) -> None:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.size != values.size:
            raise AnalysisError("times and values must align")
        if times.size == 0:
            return
        indices = np.floor(times / self.bin_width).astype(np.int64)
        for idx in np.unique(indices):
            sink = self._bins.get(int(idx))
            if sink is None:
                sink = StreamingQuantiles(
                    exact_threshold=self.exact_threshold,
                    max_centroids=self.max_centroids)
                self._bins[int(idx)] = sink
            sink.add(values[indices == idx])

    def merge(self, other: "TimeBinAggregate") -> None:
        if other.bin_width != self.bin_width:
            raise AnalysisError("cannot merge aggregates with "
                                "different bin widths")
        for idx, sink in other._bins.items():
            mine = self._bins.get(idx)
            if mine is None:
                fresh = StreamingQuantiles(
                    exact_threshold=self.exact_threshold,
                    max_centroids=self.max_centroids)
                fresh.merge(sink)
                self._bins[idx] = fresh
            else:
                mine.merge(sink)

    def compress(self) -> None:
        for sink in self._bins.values():
            sink.compress()

    @property
    def resident_samples(self) -> int:
        return sum(s.resident_samples for s in self._bins.values())

    def rows(self) -> list[dict]:
        """Rows shaped like :func:`time_binned_percentiles`."""
        rows = []
        for idx in sorted(self._bins):
            sink = self._bins[idx]
            row = {"t": float(idx * self.bin_width),
                   "count": sink.count,
                   "min": sink.moments.minimum}
            if sink.exact:
                values = sink._exact_values()
                row["min"] = float(values.min())
                for p in self.percentiles:
                    row[f"p{p}"] = float(np.percentile(values, p))
            else:
                for p in self.percentiles:
                    row[f"p{p}"] = sink.percentile(float(p))
            rows.append(row)
        return rows


@dataclass
class BottomKReservoir:
    """Order-independent seeded reservoir: keep the k smallest keys.

    Classic Algorithm R depends on arrival order, which would make
    streaming merges nondeterministic under work stealing.  Here each
    sample carries a key derived from its *identity* (a stable hash of
    seed + tag), and the reservoir keeps the k smallest keys — a pure
    function of the sample set, so any merge order yields the same
    reservoir.  With hash keys uniform in [0, 1), the survivors are a
    uniform random k-subset: a faithful ECDF subsample.
    """

    k: int
    seed: int = 0
    _keys: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.uint64))
    _rows: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=float))
    #: Total samples offered (kept + evicted), for sampling-note
    #: reporting.
    offered: int = 0
    #: Spill file (the SPILLED governance stage); None while resident.
    spill_path: str | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise AnalysisError("reservoir k must be >= 1")

    @staticmethod
    def keys_for(seed: int, tag, count: int, base: int = 0) -> np.ndarray:
        """Deterministic per-sample keys for ``count`` samples of a
        block identified by ``tag``, starting at in-block offset
        ``base``.  Identity-derived: independent of arrival order.
        """
        rng = np.random.default_rng(
            np.random.Philox(key=stable_seed(seed, "reservoir", tag)))
        if base:
            rng.integers(0, 2 ** 63, size=base, dtype=np.uint64)
        return rng.integers(0, 2 ** 63, size=count, dtype=np.uint64)

    def add(self, keys: np.ndarray, times, values) -> None:
        self._ensure_resident()
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        keys = np.asarray(keys, dtype=np.uint64)
        if not (keys.size == times.size == values.size):
            raise AnalysisError("keys, times and values must align")
        if keys.size == 0:
            return
        self.offered += int(keys.size)
        rows = np.column_stack([times, values])
        self._keys = np.concatenate([self._keys, keys])
        self._rows = np.concatenate([self._rows, rows])
        self._prune()

    def merge(self, other: "BottomKReservoir") -> None:
        if other.offered == 0:
            return
        self._ensure_resident()
        other._ensure_resident()
        self.offered += other.offered
        self._keys = np.concatenate([self._keys, other._keys])
        self._rows = np.concatenate([self._rows, other._rows])
        self._prune()

    def shrink(self, new_k: int) -> None:
        """Degrade ladder: halve the retained sample, keep determinism
        (the survivors are still the globally smallest keys)."""
        if new_k < 1:
            raise AnalysisError("reservoir k must be >= 1")
        self.k = min(self.k, new_k)
        self._prune()

    def _prune(self) -> None:
        if self._keys.size > self.k:
            order = np.argsort(self._keys, kind="stable")[:self.k]
            self._keys = self._keys[order]
            self._rows = self._rows[order]

    def __len__(self) -> int:
        if self.spill_path is not None:
            return 0
        return int(self._keys.size)

    def sample(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) of the retained sample, in time order."""
        self._ensure_resident()
        order = np.argsort(self._rows[:, 0], kind="stable")
        rows = self._rows[order]
        return rows[:, 0].copy(), rows[:, 1].copy()

    def spill(self, path: str) -> None:
        """Write the payload to ``path`` and drop it from memory.

        The SPILLED governance stage: cold reservoirs move to disk
        and transparently reload the next time a query (or further
        accumulation) touches them.
        """
        np.savez(path, keys=self._keys, rows=self._rows)
        self.spill_path = path
        self._keys = np.empty(0, dtype=np.uint64)
        self._rows = np.empty((0, 2), dtype=float)

    def _ensure_resident(self) -> None:
        if self.spill_path is None:
            return
        with np.load(self.spill_path) as payload:
            self._keys = payload["keys"]
            self._rows = payload["rows"]
        self.spill_path = None
        # k may have shrunk while the payload was cold.
        self._prune()

    @property
    def nbytes(self) -> int:
        return int(self._keys.nbytes + self._rows.nbytes)
