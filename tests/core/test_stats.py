"""Tests for the statistics helpers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.stats import (
    Ecdf,
    boxplot_stats,
    moods_median_test,
    time_binned_percentiles,
)
from repro.errors import AnalysisError


def test_boxplot_stats_known_values():
    stats = boxplot_stats(range(101))      # 0..100
    assert stats.count == 101
    assert stats.minimum == 0
    assert stats.median == 50
    assert stats.p25 == 25
    assert stats.p75 == 75
    assert stats.maximum == 100
    assert stats.iqr == 50
    assert stats.mean == pytest.approx(50.0)


def test_boxplot_stats_empty_rejected():
    with pytest.raises(AnalysisError):
        boxplot_stats([])


def test_boxplot_stats_rejects_non_finite():
    with pytest.raises(AnalysisError, match="non-finite"):
        boxplot_stats([1.0, float("nan"), 3.0])
    with pytest.raises(AnalysisError, match="non-finite"):
        boxplot_stats([1.0, float("inf")])
    with pytest.raises(AnalysisError, match="non-finite"):
        boxplot_stats([float("-inf"), 1.0])


def test_ecdf_basic():
    ecdf = Ecdf([1, 2, 3, 4])
    assert ecdf.at(0.5) == 0.0
    assert ecdf.at(2) == 0.5
    assert ecdf.at(4) == 1.0
    # Inverse of the step function: smallest x with F(x) >= q.
    assert ecdf.quantile(0.5) == 2.0
    assert ecdf.quantile(0.51) == 3.0
    assert ecdf.quantile(0.0) == 1.0
    assert ecdf.quantile(1.0) == 4.0


def test_ecdf_curve_monotonic():
    ecdf = Ecdf(np.random.default_rng(1).normal(size=200))
    curve = ecdf.curve(50)
    ys = [y for _, y in curve]
    assert ys == sorted(ys)
    assert ys[-1] == 1.0


def test_ecdf_empty_rejected():
    with pytest.raises(AnalysisError):
        Ecdf([])
    with pytest.raises(AnalysisError):
        Ecdf([1.0]).quantile(1.5)


def test_moods_test_same_distribution_accepts():
    rng = np.random.default_rng(2)
    groups = [rng.normal(50, 5, size=300) for _ in range(4)]
    _, p = moods_median_test(*groups)
    assert p > 0.01


def test_moods_test_shifted_medians_reject():
    rng = np.random.default_rng(2)
    a = rng.normal(50, 5, size=300)
    b = rng.normal(60, 5, size=300)
    _, p = moods_median_test(a, b)
    assert p < 0.001


def test_moods_test_needs_two_groups():
    with pytest.raises(AnalysisError):
        moods_median_test([1, 2, 3])


def test_campaign_and_cli_import_without_scipy():
    """scipy serves Mood's test alone and loads only when it runs: a
    fresh interpreter that imports the campaign and the CLI has not
    paid for it."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    code = ("import sys, repro.core.campaign, repro.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "[]"


def test_campaign_cli_and_journal_digest_import_lean():
    """A serial run loads no routing library, no process pool and no
    test harness: importing the campaign, the CLI and the journal's
    digest leaves networkx, multiprocessing and the chaos, fault,
    invariant and scenario modules unloaded."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    code = ("import sys, repro.core.campaign, repro.cli, "
            "repro.testing.digest; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('networkx', 'multiprocessing', 'concurrent.futures.process', "
            "'repro.testing.chaos', 'repro.testing.faults', "
            "'repro.testing.invariants', 'repro.testing.scenarios'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "[]"


def test_time_binned_percentiles():
    times = np.arange(0, 100, 1.0)
    values = times * 2.0
    rows = time_binned_percentiles(times, values, bin_width=25.0)
    assert len(rows) == 4
    assert rows[0]["count"] == 25
    assert rows[0]["p50"] == pytest.approx(24.0)
    assert rows[-1]["t"] == 75.0


def test_time_binned_edge_aligned_final_sample_kept():
    # Regression: when the last sample falls exactly on a bin edge,
    # the final edge used to equal times[-1] and the trailing samples
    # were silently dropped from every Fig.-2-style series.
    times = np.arange(0.0, 101.0, 1.0)      # times[-1] == 100.0
    values = np.ones_like(times)
    rows = time_binned_percentiles(times, values, bin_width=25.0)
    assert sum(row["count"] for row in rows) == times.size
    assert rows[-1]["t"] == 100.0
    assert rows[-1]["count"] == 1


def test_time_binned_single_edge_aligned_sample():
    rows = time_binned_percentiles([50.0], [7.0], bin_width=25.0)
    assert len(rows) == 1
    assert rows[0]["count"] == 1
    assert rows[0]["p50"] == 7.0


def test_time_binned_alignment_error():
    with pytest.raises(AnalysisError):
        time_binned_percentiles([1, 2], [1], bin_width=10)


def test_time_binned_empty():
    assert time_binned_percentiles([], [], bin_width=10) == []


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=200))
def test_property_boxplot_ordering(samples):
    stats = boxplot_stats(samples)
    assert (stats.minimum <= stats.p5 <= stats.p25 <= stats.median
            <= stats.p75 <= stats.p95 <= stats.maximum)
    # Rounding slack: np.mean of identical tiny floats can land one
    # ulp outside [min, max].
    span = max(abs(stats.minimum), abs(stats.maximum), 1e-300)
    assert stats.minimum - 1e-9 * span <= stats.mean \
        <= stats.maximum + 1e-9 * span


@given(st.lists(st.floats(min_value=0, max_value=1000,
                          allow_nan=False), min_size=1, max_size=100))
def test_property_ecdf_bounds(samples):
    ecdf = Ecdf(samples)
    assert ecdf.at(min(samples) - 1) == 0.0
    assert ecdf.at(max(samples)) == 1.0
    assert min(samples) <= ecdf.quantile(0.5) <= max(samples)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=100))
def test_property_ecdf_quantile_inverts_at(samples):
    # quantile must be the exact inverse of the empirical step
    # function: for every sample x, quantile(at(x)) == x, and for
    # every q, at(quantile(q)) >= q.
    ecdf = Ecdf(samples)
    for x in samples:
        assert ecdf.quantile(ecdf.at(x)) == x
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert ecdf.at(ecdf.quantile(q)) >= q
