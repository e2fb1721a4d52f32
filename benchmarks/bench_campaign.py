"""Campaign executor benchmark: serial vs. parallel wall clock.

Runs the quick campaign once with ``workers=1`` and once with
``--workers N`` (same seed), asserts the dataset digests are
bit-identical, and writes ``BENCH_campaign.json`` with both wall
clocks, the speedup, and a per-unit-kind timing breakdown. This file
starts the perf trajectory for the execution substrate: every later
scaling PR (sharding, batching, bigger epoch counts) should move
these numbers and nothing else. A ``before_after`` section compares
the serial wall clock and dataset digest against the recorded
pre-fast-path reference (see :data:`PRE_FASTPATH_REFERENCE`); a
digest mismatch against that reference fails the run.

The ``shard_sweep`` section benchmarks the work-stealing sharded
executor across granularities: each granularity reruns the campaign
serially (digest-checked against granularity 1), records the
per-shard wall clocks, and models the pool makespan for several
worker counts with an LPT schedule — longest shard first onto the
least-loaded worker, which is exactly what the pool's
largest-remaining stealing converges to. The modeled speedup is the
honest number on single-CPU CI runners, where N processes time-slice
one core and the *measured* parallel wall clock can never beat ~1x;
the per-shard costs feeding the model are real measurements.

The ``cc_matrix`` section crosses congestion controllers with the
adverse-conditions scenarios: every controller runs the same
single-epoch Ookla-style download under ``clear_sky``, ``rain_fade``
and ``sat_outage``, plus a PEP-vs-BBR comparison on the GEO path
(split-TCP proxy with Cubic endpoints against a PEP-less path with
Cubic and with BBR). The hard gate mirrors "Unveiling TCP BBR
Dominance in Starlink Internet": BBR must sustain higher mean
goodput than Cubic under ``rain_fade`` random loss.

The ``longitudinal`` section is the month-scale memory story: the
same budget-governed streaming ping campaign runs at a short and a 4x
longer duration with ``tracemalloc`` around the whole pipeline, and
the gate demands the traced peak grow by less than 2x (plus an exact
streaming == batch digest check and, for the governed runs, that the
assembled dataset's resident samples stay within the configured
budget). A batch row per duration records the linear-growth
counterpoint the streaming path exists to avoid.

The ``fleet_scaling`` section times per-terminal slot compute for
the vectorized :class:`~repro.leo.fleet.FleetScheduler` against T
independent one-terminal schedulers running the full
``visible_from`` scan (``prefilter=False``) at fleet sizes
1/4/16/64, compares every snapshot pair for exact equality, and
gates on the vectorized path being at least 5x faster per
terminal-slot at the largest size — with zero mismatches, so the
speedup is only ever reported over verified bit-identical output.

Not a pytest module on purpose — run it directly::

    PYTHONPATH=src python benchmarks/bench_campaign.py --workers 4

``REPRO_BENCH_SMOKE=1`` trims the campaign further so CI smoke runs
finish in seconds (the cc_matrix keeps only its ``rain_fade`` rows —
the gate — and records which rows were skipped).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
import tracemalloc

from repro.apps.speedtest import run_speedtest
from repro.core.campaign import Campaign, CampaignConfig, quick_config
from repro.exec.runner import (
    ExecOptions,
    UnitTiming,
    default_workers,
    timing_breakdown,
)
from repro.exec.units import OOKLA_BRUSSELS, SpeedtestUnit
from repro.geo.satcom import GeoSatComAccess
from repro.leo.constellation import Constellation
from repro.leo.fleet import (
    FleetScheduler,
    FleetSpec,
    build_fleet_terminals,
    fleet_seeds,
)
from repro.leo.ground import STARLINK_GATEWAYS
from repro.leo.scheduling import SLOT_DURATION
from repro.testing.digest import digest_dataset
from repro.transport.cc import CC_KINDS
from repro.transport.tcp import TcpConfig
from repro.units import minutes

OUTPUT_PATH = pathlib.Path(__file__).parent / "output" \
    / "BENCH_campaign.json"

#: Pre-fast-path reference (seed 0, quick config, serial), measured
#: by running this benchmark's timed path against a git worktree at
#: the commit below, on the same machine and under the same load as
#: the "after" numbers (best of two runs). The BENCH_campaign.json
#: committed with that code recorded 35.673 s under different machine
#: conditions -- the wall clock below is the comparable perf baseline.
#:
#: The dataset digest was re-recorded when work units became
#: splittable: deriving each atom's RNG stream from the unit seed plus
#: the atom index (ping chunks, speedtest connections, bulk segments)
#: is a deliberate byte-level change to the dataset -- the old digest
#: (``6bd854c021a0ab1e...``, threaded per-unit streams) is
#: unreachable by construction. The digest below is what the sharded
#: executor produces serially, deterministically, and is the
#: bit-identical contract: any perf work must reproduce it exactly
#: while cutting the wall clock, so a mismatch fails the run.
#:
#: Re-recorded for the CC-matrix PR's HyStart bugfixes: QUIC now
#: feeds the controller the *latest* RTT sample instead of the
#: smoothed EWMA, and loss/RTO clears stale HyStart round state —
#: both legitimately move slow-start exit timing, so the previous
#: digest (``4f9b48614b4dfe98...``) is unreachable. The default
#: ``cc="cubic"`` plumbing itself is byte-neutral (verified cell by
#: cell in scripts/cc_matrix_smoke.py).
PRE_FASTPATH_REFERENCE = {
    "commit": "9910dfe",
    "serial_wall_s": 72.184,
    "dataset_digest": "055a1e38075fe0b51d71235a8587a9da"
                      "470dbd191f01dcf0eb782502b4e31ac3",
}


def bench_config(seed: int) -> CampaignConfig:
    if os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0"):
        return CampaignConfig(
            seed=seed,
            ping_days=1.0, ping_interval_s=minutes(120),
            speedtest_epochs=1, speedtest_measure_s=1.0,
            speedtest_warmup_s=1.0, satcom_warmup_s=3.0,
            bulk_per_direction=1, bulk_bytes=1_000_000,
            messages_per_direction=1, messages_duration_s=2.0,
            web_sites=6, web_visits_per_site=1)
    return quick_config(seed=seed)


#: Shard-sweep axes: every granularity is run (serially, digest
#: checked); every worker count is modeled from the measured
#: per-shard costs.
SWEEP_GRANULARITIES = (1, 4, 8)
SWEEP_WORKERS = (2, 4)


def timed_run(config: CampaignConfig, workers: int,
              granularity: int = 1) -> tuple[str, float, Campaign]:
    """One full campaign; returns (digest, wall_s, campaign), the
    campaign holding the unit and shard timings."""
    campaign = Campaign(config, ExecOptions(workers=workers,
                                            granularity=granularity))
    began = time.perf_counter()
    data = campaign.run_all()
    wall_s = time.perf_counter() - began
    return digest_dataset(data), wall_s, campaign


def lpt_makespan(costs: list[float], workers: int) -> float:
    """Makespan of the longest-processing-time-first schedule."""
    loads = [0.0] * workers
    for cost in sorted(costs, reverse=True):
        loads[loads.index(min(loads))] += cost
    return max(loads, default=0.0)


def sweep_row(granularity: int, shard_timings: list[UnitTiming],
              wall_s: float, digest: str, serial_digest: str) -> dict:
    costs = [t.elapsed_s for t in shard_timings]
    total = sum(costs)
    row = {
        "granularity": granularity,
        "shards": len(costs),
        "serial_wall_s": round(wall_s, 3),
        "longest_shard_s": round(max(costs, default=0.0), 3),
        "digest_match": digest == serial_digest,
        "modeled": {},
    }
    for workers in SWEEP_WORKERS:
        makespan = lpt_makespan(costs, workers)
        row["modeled"][f"workers={workers}"] = {
            "makespan_s": round(makespan, 3),
            "speedup": (round(total / makespan, 3)
                        if makespan > 0 else None),
        }
    return row


def shard_sweep(config: CampaignConfig, serial_digest: str,
                serial_s: float,
                serial_shards: list[UnitTiming]) -> dict:
    rows = [sweep_row(1, serial_shards, serial_s, serial_digest,
                      serial_digest)]
    for granularity in SWEEP_GRANULARITIES:
        if granularity == 1:
            continue
        digest, wall_s, campaign = timed_run(config, 1,
                                             granularity=granularity)
        rows.append(sweep_row(granularity, campaign.shard_timings,
                              wall_s, digest, serial_digest))
    at4 = [row["modeled"].get("workers=4", {}).get("speedup") or 0.0
           for row in rows]
    return {
        "modeled_workers": list(SWEEP_WORKERS),
        "rows": rows,
        "digest_match": all(row["digest_match"] for row in rows),
        # Whole units cap workers=4 at rows[0]'s number (the long
        # satcom speedtest is the critical path); sharding lifts it.
        "best_modeled_speedup_at_4_workers": round(max(at4), 3),
        "whole_unit_modeled_speedup_at_4_workers": round(at4[0], 3),
    }


def before_after(serial_digest: str, serial_s: float,
                 seed: int) -> dict | None:
    """Compare this run against the recorded pre-fast-path reference.

    Only meaningful for the configuration the reference was recorded
    with (seed 0, full quick campaign, no smoke trim); other
    configurations get no section rather than a bogus comparison.
    """
    if seed != 0 or os.environ.get("REPRO_BENCH_SMOKE", "") \
            not in ("", "0"):
        return None
    ref = PRE_FASTPATH_REFERENCE
    return {
        "before": dict(ref),
        "after_serial_wall_s": round(serial_s, 3),
        "serial_speedup_vs_before": round(
            ref["serial_wall_s"] / serial_s, 3) if serial_s > 0 else None,
        "digest_match_vs_before":
            serial_digest == ref["dataset_digest"],
    }


#: CC x scenario axes. Scenarios come from PR 5's disruption
#: subsystem; controllers from the transport layer's registry.
CC_MATRIX_SCENARIOS = ("clear_sky", "rain_fade", "sat_outage")
CC_MATRIX_SEEDS = (0, 1)
#: Single-epoch download placed mid-campaign; matches the seeds the
#: campaign itself derives for its first speedtest unit.
CC_MATRIX_EPOCH = 3600.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def cc_cell_config(scenario: str, cc: str) -> CampaignConfig:
    """One matrix cell: a micro campaign config for a speedtest unit.

    The smoke trim cuts connections and the measurement window so the
    gate rows finish in well under a second each; the ordering BBR >
    Cubic under rain_fade holds for both shapes (the fade's 18 %
    random loss dominates either way).
    """
    if _smoke():
        connections, measure_s, warmup_s = 2, 4.0, 1.0
    else:
        connections, measure_s, warmup_s = 4, 8.0, 2.0
    return CampaignConfig(
        seed=0, scenario=scenario, cc=cc,
        ping_days=1.0, ping_interval_s=minutes(60),
        speedtest_epochs=1, speedtest_connections=connections,
        speedtest_measure_s=measure_s, speedtest_warmup_s=warmup_s,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1)


def cc_matrix_cell(scenario: str, cc: str) -> dict:
    """Mean download goodput over the fixed seeds (deterministic)."""
    config = cc_cell_config(scenario, cc)
    began = time.perf_counter()
    values = []
    for seed in CC_MATRIX_SEEDS:
        sample = SpeedtestUnit(config, "starlink", "down",
                               CC_MATRIX_EPOCH, 1000 + seed).run()
        values.append(sample.throughput_mbps)
    return {
        "scenario": scenario,
        "cc": cc,
        "seeds": list(CC_MATRIX_SEEDS),
        "throughput_mbps": [round(v, 3) for v in values],
        "mean_mbps": round(sum(values) / len(values), 3),
        "wall_s": round(time.perf_counter() - began, 3),
    }


def geo_pep_cell(pep_enabled: bool, cc: str) -> dict:
    """One GEO download: split-TCP PEP on/off x endpoint controller.

    Full capacity share on purpose — the PEP's space-segment sender
    paces at the provisioned plan rate, so a scaled-down link would
    just measure the proxy overrunning it. One seed, short window:
    the GEO + BBR simulation is the most expensive cell of the bench
    (600 ms RTT keeps a ~5 MB flight in the event loop).
    """
    began = time.perf_counter()
    access = GeoSatComAccess(seed=3000, epoch_t=CC_MATRIX_EPOCH,
                             pep_enabled=pep_enabled)
    server = access.add_remote_host("ookla", "62.4.0.10",
                                    OOKLA_BRUSSELS)
    access.finalize()
    result = run_speedtest(access.client, server, "down",
                           connections=1, warmup_s=5.0, measure_s=8.0,
                           config=TcpConfig(cc=cc))
    return {
        "pep": pep_enabled,
        "cc": cc,
        "throughput_mbps": round(result.throughput_mbps, 3),
        "wall_s": round(time.perf_counter() - began, 3),
    }


def cc_matrix() -> dict:
    """CC x scenario goodput matrix plus the GEO PEP-vs-BBR rows.

    Smoke mode keeps only the rain_fade rows (the gate) and names
    every skipped row — a trimmed matrix must not read as a full one.
    """
    smoke = _smoke()
    scenarios = ("rain_fade",) if smoke else CC_MATRIX_SCENARIOS
    skipped = []
    rows = [cc_matrix_cell(scenario, cc)
            for scenario in scenarios for cc in CC_KINDS]
    if smoke:
        skipped += [f"starlink:{s}:{cc}"
                    for s in CC_MATRIX_SCENARIOS if s not in scenarios
                    for cc in CC_KINDS]

    # GEO PEP interaction: the operator's split-TCP proxy (Cubic
    # endpoints) against a PEP-less path with Cubic and with BBR.
    # The pep+bbr cell is deliberately absent: the proxy terminates
    # the subscriber connection, so the endpoint controller never
    # drives the space segment — it would re-measure the pep+cubic
    # row at ~20x the cost.
    geo_rows = []
    if smoke:
        skipped += ["geo:pep:cubic", "geo:nopep:cubic",
                    "geo:nopep:bbr"]
    else:
        geo_rows = [geo_pep_cell(True, "cubic"),
                    geo_pep_cell(False, "cubic"),
                    geo_pep_cell(False, "bbr")]

    def mean(scenario: str, cc: str) -> float | None:
        for row in rows:
            if row["scenario"] == scenario and row["cc"] == cc:
                return row["mean_mbps"]
        return None

    gate = {
        "criterion": "rain_fade: mean goodput bbr > cubic",
        "bbr_mean_mbps": mean("rain_fade", "bbr"),
        "cubic_mean_mbps": mean("rain_fade", "cubic"),
    }
    gate["passed"] = (gate["bbr_mean_mbps"] or 0.0) \
        > (gate["cubic_mean_mbps"] or 0.0)

    section = {
        "controllers": list(CC_KINDS),
        "rows": rows,
        "geo_pep_rows": geo_rows,
        "skipped_rows": skipped,
        "rain_fade_gate": gate,
    }
    if geo_rows:
        pep_cubic = geo_rows[0]["throughput_mbps"]
        nopep_bbr = geo_rows[2]["throughput_mbps"]
        # How much of the proxy's benefit plain BBR recovers without
        # any middlebox — the paper-adjacent headline number.
        section["bbr_pep_recovery_fraction"] = round(
            nopep_bbr / pep_cubic, 3) if pep_cubic > 0 else None
    return section


#: Longitudinal axes: the streaming ping campaign at a short and a
#: 4x longer duration, one shared memory budget. The gate is peak
#: traced memory growing by < LONGITUDINAL_GATE_FACTOR while the
#: probe count grows 4x — the sublinearity claim of the streaming
#: pipeline, measured rather than asserted.
LONGITUDINAL_BUDGET_MB = 0.25
LONGITUDINAL_GATE_FACTOR = 2.0


def longitudinal_config(days_: float,
                        budget_mb: float | None = None
                        ) -> CampaignConfig:
    return CampaignConfig(
        seed=0, ping_days=days_, ping_interval_s=minutes(30),
        ping_shard_rounds=16, memory_budget_mb=budget_mb,
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1)


def _traced(fn):
    """(result, wall_s, peak_kb) of ``fn()`` under tracemalloc."""
    already = tracemalloc.is_tracing()
    if already:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    began = time.perf_counter()
    try:
        result = fn()
        wall_s = time.perf_counter() - began
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already:
            tracemalloc.stop()
    return result, wall_s, peak / 1024.0


def longitudinal_cell(days_: float) -> dict:
    """One duration: governed streaming run beside the batch run.

    The governed run shards at atom granularity (one
    ``ping_shard_rounds`` window per chunk), so chunk size stays
    constant as the campaign stretches — the transient the governor
    cannot shed is bounded by the chunk, not the month.
    """
    streaming = Campaign(longitudinal_config(
        days_, LONGITUDINAL_BUDGET_MB), ExecOptions(granularity=10 ** 6))
    dataset, stream_wall, stream_peak = _traced(
        streaming.run_pings_streaming)
    batch = Campaign(longitudinal_config(days_))
    _, batch_wall, batch_peak = _traced(batch.run_pings)
    budget = streaming.streaming_budget()
    return {
        "ping_days": days_,
        "total_probes": dataset.total_samples,
        "streaming_peak_kb": round(stream_peak, 1),
        "streaming_wall_s": round(stream_wall, 3),
        "batch_peak_kb": round(batch_peak, 1),
        "batch_wall_s": round(batch_wall, 3),
        "stage": dataset.budget.stage,
        "precision_notes": len(dataset.precision_notes()),
        "resident_samples": dataset.resident_samples,
        "resident_within_budget":
            dataset.resident_samples <= budget.max_resident_samples,
    }


def longitudinal() -> dict:
    """Peak-memory scaling of the streaming ping pipeline.

    Smoke mode shortens both durations but keeps the 4x ratio — the
    gate is about growth, not absolute scale. The digest row reruns
    the short duration ungoverned (sharded, 2 workers) and compares
    against the batch pipeline bit for bit, so the memory numbers are
    only ever reported over verified-identical output.
    """
    short = 1.0 if _smoke() else 2.0
    rows = [longitudinal_cell(short), longitudinal_cell(short * 4)]

    digest_cfg = longitudinal_config(short)
    streamed = Campaign(digest_cfg, ExecOptions(
        workers=2, granularity=3)).run_pings_streaming()
    batch_digest = digest_dataset(Campaign(digest_cfg).run_pings())
    digest_match = digest_dataset(
        streamed.to_ping_dataset()) == batch_digest

    growth = (rows[1]["streaming_peak_kb"]
              / rows[0]["streaming_peak_kb"]
              if rows[0]["streaming_peak_kb"] > 0 else None)
    probe_growth = (rows[1]["total_probes"] / rows[0]["total_probes"]
                    if rows[0]["total_probes"] else None)
    gate = {
        "criterion": f"streaming peak growth < "
                     f"{LONGITUDINAL_GATE_FACTOR}x while probes grow "
                     f"{round(probe_growth or 0.0, 1)}x, digests "
                     "identical, residency within budget",
        "peak_growth_factor": (round(growth, 3)
                               if growth is not None else None),
        "digest_match": digest_match,
        "passed": (growth is not None
                   and growth < LONGITUDINAL_GATE_FACTOR
                   and digest_match
                   and all(r["resident_within_budget"]
                           for r in rows)),
    }
    return {
        "budget_mb": LONGITUDINAL_BUDGET_MB,
        "rows": rows,
        "gate": gate,
    }


#: Fleet-scaling axes: the vectorized FleetScheduler against T
#: independent full-scan one-terminal schedulers, per terminal count.
FLEET_SIZES = (1, 4, 16, 64)
FLEET_GATE_SPEEDUP = 5.0


def fleet_scaling_cell(terminals: int, n_slots: int) -> dict:
    """Scalar-vs-fleet slot compute for one fleet size.

    The scalar baseline is T fully independent one-terminal
    schedulers, each with its own constellation and the full
    ``visible_from`` scan (``prefilter=False``) — exactly what a
    naive fleet campaign would instantiate. Every snapshot pair is
    compared for exact dataclass equality, so the speedup is only
    reported over verified bit-identical output.
    """
    spec = FleetSpec(terminals=terminals, seed=0)
    uts = build_fleet_terminals(spec)
    seeds = fleet_seeds(0, terminals)
    scalars = [FleetScheduler(Constellation(), [uts[i]],
                              STARLINK_GATEWAYS, seeds=[seeds[i]],
                              prefilter=False)
               for i in range(terminals)]
    began = time.perf_counter()
    expected = [[s.snapshot_at(0, slot * SLOT_DURATION)
                 for s in scalars]
                for slot in range(n_slots)]
    scalar_s = time.perf_counter() - began

    fleet = FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                           seeds=seeds)
    began = time.perf_counter()
    got = [[fleet.snapshot_at(i, slot * SLOT_DURATION)
            for i in range(terminals)]
           for slot in range(n_slots)]
    fleet_s = time.perf_counter() - began

    mismatches = sum(
        1 for slot in range(n_slots) for i in range(terminals)
        if got[slot][i] != expected[slot][i])
    per = terminals * n_slots
    return {
        "terminals": terminals,
        "slots": n_slots,
        "scalar_us_per_terminal_slot":
            round(scalar_s / per * 1e6, 1),
        "fleet_us_per_terminal_slot":
            round(fleet_s / per * 1e6, 1),
        "speedup": (round(scalar_s / fleet_s, 2)
                    if fleet_s > 0 else None),
        "mismatches": mismatches,
    }


def fleet_scaling() -> dict:
    """Per-terminal slot-compute scaling of the fleet scheduler.

    Smoke mode trims the slot horizon, not the fleet sizes — the
    gate lives at T=64 and a trimmed size axis would silently gate
    a different (easier) claim.
    """
    n_slots = 40 if _smoke() else 120
    rows = [fleet_scaling_cell(t, n_slots) for t in FLEET_SIZES]
    largest = rows[-1]
    gate = {
        "criterion": f"T={FLEET_SIZES[-1]}: per-terminal slot "
                     f"compute speedup >= {FLEET_GATE_SPEEDUP} with "
                     "zero snapshot mismatches",
        "speedup_at_largest": largest["speedup"],
        "mismatches": sum(row["mismatches"] for row in rows),
    }
    gate["passed"] = (largest["speedup"] or 0.0) \
        >= FLEET_GATE_SPEEDUP and gate["mismatches"] == 0
    return {
        "sizes": list(FLEET_SIZES),
        "rows": rows,
        "gate": gate,
    }


def run_bench(workers: int, seed: int) -> dict:
    config = bench_config(seed)
    serial_digest, serial_s, serial = timed_run(config, 1)
    parallel_digest, parallel_s, _ = timed_run(config, workers)
    return {
        "benchmark": "campaign-executor",
        "seed": seed,
        "workers": workers,
        "cpu_count": default_workers(),
        "units": len(serial.timings),
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3),
        "digest_match": serial_digest == parallel_digest,
        "dataset_digest": serial_digest,
        "before_after": before_after(serial_digest, serial_s, seed),
        "shard_sweep": shard_sweep(config, serial_digest, serial_s,
                                   serial.shard_timings),
        "cc_matrix": cc_matrix(),
        "longitudinal": longitudinal(),
        "fleet_scaling": fleet_scaling(),
        "unit_breakdown": [
            {key: round(val, 4) if isinstance(val, float) else val
             for key, val in row.items()}
            for row in timing_breakdown(serial.timings)
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker count "
                             "(default: min(4, cpus))")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=pathlib.Path,
                        default=OUTPUT_PATH)
    args = parser.parse_args(argv)
    workers = args.workers or min(4, default_workers())

    report = run_bench(workers, args.seed)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if not report["digest_match"]:
        print("FATAL: parallel dataset diverged from serial run",
              file=sys.stderr)
        return 1
    if not report["shard_sweep"]["digest_match"]:
        print("FATAL: a sharded run diverged from the serial dataset",
              file=sys.stderr)
        return 1
    ba = report["before_after"]
    if ba is not None and not ba["digest_match_vs_before"]:
        print("FATAL: dataset digest diverged from the pre-fast-path "
              "reference", file=sys.stderr)
        return 1
    if not report["cc_matrix"]["rain_fade_gate"]["passed"]:
        print("FATAL: BBR did not beat Cubic under rain_fade — the "
              "CC matrix lost the paper's qualitative ordering",
              file=sys.stderr)
        return 1
    if not report["longitudinal"]["gate"]["passed"]:
        print("FATAL: the streaming ping pipeline missed the "
              "longitudinal gate — peak memory grew by >= "
              f"{LONGITUDINAL_GATE_FACTOR}x over a 4x duration, a "
              "digest diverged from the batch pipeline, or governed "
              "residency escaped its budget", file=sys.stderr)
        return 1
    if not report["fleet_scaling"]["gate"]["passed"]:
        print("FATAL: fleet scheduler missed the scaling gate — "
              "either the vectorized path fell under "
              f"{FLEET_GATE_SPEEDUP}x per-terminal slot compute at "
              f"T={FLEET_SIZES[-1]} or a snapshot mismatched the "
              "scalar reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
