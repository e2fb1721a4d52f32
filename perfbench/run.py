"""The repository's benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload packet_mix --seed 0 \\
        --seconds 15 --trace 0

Every run happens in a fresh interpreter (``child.py``), one at a
time, with ``workers=1``, pinned to the CPU that is fastest at its
start, with the numeric libraries pinned to one thread. First comes
one discarded warm-up run; then measured runs follow back to back
while another one fits in ``--seconds`` (at least one), then
set-up-only runs until :data:`MIN_SETUPS` set-ups were timed. The
end-to-end metrics are the medians over the measured runs
(``setup_s`` over every set-up), speed-corrected (see ``speed.py``).

With ``--trace 1`` the first run after the warm-up is traced: the
per-layer wrappers of ``layers.py`` record spans and counters, and
the result reports the per-layer metrics instead. The untraced runs
that follow give the baseline for ``trace.overhead_s``.

Each run checks its own output (see ``workloads.check``). The last
line of standard output is the result; the child records before it,
and the whole record is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("packet_mix", "pings_wet_month", "drive_canyon",
             "fleet_t64")

#: End-to-end metrics and their units.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MiB"}

#: Fewest set-ups timed per invocation (measured runs included).
MIN_SETUPS = 4

#: Seconds one child may take before the invocation is abandoned.
CHILD_TIMEOUT_S = 150

#: Iterations of the CPU probe (about 0.1 s).
PROBE_LOOPS = 1_000_000


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def _probe_s() -> float:
    began = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - began


def fastest_cpu() -> int | None:
    """The CPU on which a short probe loop runs fastest right now.

    Each CPU of this host slows down by up to 2x for seconds to
    minutes at a time, independently of the other, when other tenants
    load it; a run pinned to the currently faster one sees less of
    that. None when the process may use only one CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    timings = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((_probe_s(), cpu))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(timings)[1]


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run ``child.py`` once, on the fastest CPU, and return its
    record."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    cpu = fastest_cpu()
    allowed = os.sched_getaffinity(0)
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        os.sched_setaffinity(0, allowed)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"child exited {proc.returncode}: {cmd}")
    return json.loads(lines[-1])


def median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records if key in r)


def result(records: list[dict], traced: dict | None) -> dict:
    everything = records + ([traced] if traced else [])
    if traced is None:
        metrics = {name: {"value": median(records, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - median(records, "wall_s"),
            "unit": "s"}
    return {"correct": not any(r["problems"] for r in everything),
            "attempted": sum(r["units"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    try:
        warm = spawn(args.workload, args.seed, "--warmup")
        run_args = ("--config-seed", str(warm["config_seed"]))
        traced = (spawn(args.workload, args.seed, *run_args, "--trace")
                  if args.trace else None)
        records: list[dict] = []
        began = time.monotonic()
        while True:
            records.append(spawn(args.workload, args.seed, *run_args))
            elapsed = time.monotonic() - began
            per_run = elapsed / len(records)
            if elapsed + per_run > args.seconds:
                break
        while not args.trace and len(records) < MIN_SETUPS:
            records.append(spawn(args.workload, args.seed, *run_args,
                                 "--setup-only"))
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    out = result(records, traced)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "config_seed":
                   warm["config_seed"], "result": out,
                   "runs": records, "traced": traced}, fh, indent=1)
    for record in records + ([traced] if traced else []):
        print(json.dumps({k: v for k, v in record.items()
                          if k not in ("layers", "spans")}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
