"""Tests of the benchmark's tracer, run structure and compare command.

    python3 -m pytest perfbench/tests -q

The child-process tests start real benchmark runs (a few seconds
each; ``packet_mix`` about fifteen).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads
from tracer import Patcher, Tracer, is_wrapped

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# -- tracer --------------------------------------------------------------

def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Toy:
    def outer(self):
        _busy(0.002)
        self.middle()
        self.middle()
        _busy(0.001)

    def middle(self):
        _busy(0.001)
        self.inner(2)

    def inner(self, depth):
        _busy(0.0005)
        if depth:
            self.inner(depth - 1)


def test_self_times_of_nested_calls_sum_to_the_root():
    tracer = Tracer()
    patcher = Patcher()
    for attr in ("outer", "middle", "inner"):
        patcher.wrap(tracer, Toy, attr, f"toy.{attr}")
    try:
        with tracer.span("root"):
            Toy().outer()
    finally:
        patcher.restore()
    summary = tracer.summary()
    root = summary["root"]["incl_s"]
    total_self = sum(s["self_s"] for s in summary.values())
    assert math.isclose(total_self, root, rel_tol=1e-9)
    assert summary["toy.outer"]["calls"] == 1
    assert summary["toy.middle"]["calls"] == 2
    assert summary["toy.inner"]["calls"] == 6
    # A recursive call is counted once in the inclusive time.
    assert summary["toy.inner"]["incl_s"] < summary["toy.middle"]["incl_s"]
    assert summary["toy.inner"]["self_s"] == pytest.approx(
        summary["toy.inner"]["incl_s"], rel=1e-9)
    assert all(not is_wrapped(vars(Toy)[a])
               for a in ("outer", "middle", "inner"))


def test_restore_puts_every_original_back():
    originals = {(owner, attr): vars(owner).get(attr)
                 for owner, attr in layers.targets()}
    assert layers.wrapped_targets() == 0
    patcher, _ = layers.install(Tracer())
    try:
        assert layers.wrapped_targets() == len(originals)
    finally:
        patcher.restore()
    assert layers.wrapped_targets() == 0
    for (owner, attr), original in originals.items():
        assert vars(owner).get(attr) is original


# -- runs in a child process ---------------------------------------------

def _child(workload: str, *extra: str) -> dict:
    seed = 0
    config_seed = workloads.WORKLOADS[workload].config_seed(seed)
    return run.spawn(workload, seed, "--config-seed", str(config_seed),
                     *extra)


def test_untraced_runs_never_see_a_wrapper():
    record = _child("drive_canyon")
    assert not record["traced"]
    assert record["problems"] == []
    assert "layers" not in record


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_match_untraced_digests_and_repeat_counters(workload):
    plain = _child(workload)
    first = _child(workload, "--trace")
    second = _child(workload, "--trace")
    assert plain["problems"] == first["problems"] == []
    assert plain["digest"] == first["digest"] == second["digest"]
    for metric in layers.EXACT:
        if metric in first["layers"]:
            assert (first["layers"][metric]["value"]
                    == second["layers"][metric]["value"]), metric


# -- run.py --------------------------------------------------------------

def test_run_fails_without_the_program():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "fleet_t64", "--seed", "0", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {name: unit for name, (unit, _) in layers.METRICS.items()}


# -- compare -------------------------------------------------------------

def _traced(wall: float, units: int, loss_s: float) -> dict:
    metrics = {name: {"value": 0, "unit": unit}
               for name, (unit, _) in layers.METRICS.items()}
    metrics["exec.units"]["value"] = units
    metrics["netsim.loss_s"]["value"] = loss_s
    return {"raw_wall_s": wall, "layers": metrics,
            "spans": {"phase": {"calls": 1, "self_s": wall - loss_s,
                                "incl_s": wall},
                      "netsim.loss": {"calls": 9, "self_s": loss_s,
                                      "incl_s": loss_s}}}


def test_compare_flags_exact_counters_and_shares_times():
    base = _traced(10.0, 13, 8.0)
    assert compare.layer_shares(base) == pytest.approx(
        {"netsim": 0.8, "phase": 0.2})
    lines, mismatches = compare.diff(base, _traced(5.0, 13, 3.0))
    assert mismatches == 0
    assert any("netsim.loss_s" in line and "80.0%" in line
               and "60.0%" in line for line in lines)
    _, mismatches = compare.diff(base, _traced(10.0, 12, 8.0))
    assert mismatches == 1
