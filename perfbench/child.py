"""One benchmark run, in a fresh interpreter.

``run.py`` starts this script once per run and reads the JSON record
it prints as its last line. A run imports the program, builds its
workload's config and ``Campaign(config)`` (the set-up), collects
garbage, times the measured phase, then checks the output. The
reported times are corrected for the host's speed by the
:class:`~speed.SpeedProbe` that runs from the start of the process;
the raw times are recorded beside them. With
``--trace`` the per-layer wrappers of :mod:`layers` are installed
before the set-up and removed before the check; without it the tracer
is never imported before the measured phase has ended.

``--warmup`` makes the discarded warm-up run instead: it compiles the
program's modules, imports them, resolves the workload's config seed
and builds the campaign once, so neither compilation nor a cold file
cache lands in a measured run's set-up time. ``--setup-only`` stops a
run after the set-up, to sample ``setup_s`` once more.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(SRC))

from speed import SpeedProbe  # noqa: E402  (after the path set-up)


def host() -> dict:
    import numpy
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_1m": os.getloadavg()[0]}


def expected_digest(workload: str, seed: int) -> str | None:
    with open(EXPECTED) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def warmup(args) -> dict:
    import compileall
    compileall.compile_dir(str(SRC), quiet=1)
    import workloads
    from repro.core.campaign import Campaign
    workload = workloads.WORKLOADS[args.workload]
    config_seed = workload.config_seed(args.seed)
    Campaign(workload.config(config_seed))
    return {"config_seed": config_seed}


def measure(args, probe) -> dict:
    import workloads
    from repro.core.campaign import Campaign
    from repro.testing.digest import digest_value
    if args.trace:
        import layers
        import tracer
        spans = tracer.Tracer()
    imported_ns = time.monotonic_ns()
    if args.trace:
        patcher, collector = layers.install(spans)
    workload = workloads.WORKLOADS[args.workload]
    config = workload.config(args.config_seed)
    campaign = Campaign(config)
    built_ns = time.monotonic_ns()
    raw_setup_s = (built_ns - args.spawn_ns) / 1e9
    setup = {"workload": args.workload, "seed": args.seed,
             "setup_s": raw_setup_s * probe.correction(0),
             "raw_setup_s": raw_setup_s, "setup_speed": probe.speed(0)}
    if args.setup_only:
        return {**setup, "setup_only": True, "units": 0, "failed": 0,
                "problems": [], **host()}

    gc.collect()
    mark = probe.mark()
    before = resource.getrusage(resource.RUSAGE_SELF)
    began = time.perf_counter()
    if args.trace:
        with spans.span("phase"):
            outcome = workload.run(campaign)
    else:
        outcome = workload.run(campaign)
    raw_wall_s = time.perf_counter() - began
    after = resource.getrusage(resource.RUSAGE_SELF)
    correction = probe.correction(mark)
    raw_cpu_s = (after.ru_utime - before.ru_utime
                 + after.ru_stime - before.ru_stime)

    tracer_loaded = "tracer" in sys.modules
    if args.trace:
        patcher.restore()
        gc.collect()
        collector.finish()
    import layers
    problems = []
    if tracer_loaded and not args.trace:
        problems.append("tracer loaded in an untraced run")
    if layers.wrapped_targets():
        problems.append("tracer wrappers left in place")
    digest = digest_value(outcome.datasets)
    problems += workloads.check(
        workload, config, outcome,
        expected_digest(args.workload, args.seed), digest)
    record = {
        **setup, "config_seed": args.config_seed, "traced": args.trace,
        "wall_s": raw_wall_s * correction,
        "cpu_s": raw_cpu_s * correction,
        "raw_wall_s": raw_wall_s, "raw_cpu_s": raw_cpu_s,
        "phase_speed": probe.speed(mark),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "units": outcome.units,
        "failed": outcome.units if problems else outcome.unit_failures,
        "problems": problems, "digest": digest, **host(),
    }
    if args.trace:
        summary = spans.summary()
        probes = {"import_s": (imported_ns - args.spawn_ns) / 1e9,
                  "build_s": (built_ns - imported_ns) / 1e9,
                  "governor_stage": outcome.governor_stage,
                  "resident_samples": outcome.resident_samples}
        record["layers"] = layers.derive(summary, spans.counters, probes)
        record["spans"] = summary
        OUT.mkdir(exist_ok=True)
        spans.write_spans(
            OUT / f"spans-{args.workload}-s{args.seed}.npz")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config-seed", type=int)
    parser.add_argument("--spawn-ns", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.warmup:
        record = warmup(args)
    else:
        probe = SpeedProbe()
        probe.start()
        try:
            record = measure(args, probe)
        finally:
            probe.stop()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
