#!/usr/bin/env python
"""CI smoke test: the month-scale streaming campaign under a hard
address-space limit.

Three gates, cheapest first:

1. **Digest identity** — the sharded streaming ping pipeline
   reconstructs the batch pipeline bit for bit across scenarios
   (clear_sky and rain_fade) while it stays exact.
2. **Month under a memory ceiling** — a 30-day ``wet_month``
   availability run through the CLI, inside a child process whose
   address space is capped with ``RLIMIT_AS``. The governed run must
   finish with exit status 0, print the availability report, and
   record the full PARTIAL-PRECISION ladder its 0.5 MiB sample budget
   forces (STREAMING -> SHRUNK_RESERVOIRS -> SPILLED).
3. **Raise policy escalates** — the same month with
   ``--resource-policy raise`` must refuse to degrade and exit with
   status 3.

Run from the repository root (CI job ``longitudinal-smoke``)::

    PYTHONPATH=src python scripts/longitudinal_smoke.py
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys

from repro.core.campaign import Campaign, CampaignConfig
from repro.exec import ExecOptions
from repro.testing.digest import digest_dataset
from repro.units import minutes

#: Address-space cap for the month-scale child. Generous against the
#: interpreter + numpy baseline, tiny against an un-governed 30-day
#: campaign that hoards raw series — the cap catches regressions to
#: unbounded buffering, not ordinary allocator noise.
ADDRESS_SPACE_CAP_BYTES = 2 << 30

MONTH_ARGS = ["availability", "--streaming", "--scenario", "wet_month",
              "--duration-days", "30", "--memory-budget-mb", "0.5"]

LADDER = ("STREAMING", "SHRUNK_RESERVOIRS", "SPILLED")


def smoke_config(scenario: str) -> CampaignConfig:
    return CampaignConfig(
        seed=0, scenario=scenario,
        ping_days=1.0, ping_interval_s=minutes(120),
        ping_shard_rounds=3,
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1)


def _capped_month(extra: list[str]) -> subprocess.CompletedProcess:
    def cap_address_space() -> None:
        resource.setrlimit(resource.RLIMIT_AS,
                           (ADDRESS_SPACE_CAP_BYTES,
                            ADDRESS_SPACE_CAP_BYTES))

    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.run(
        [sys.executable, "-m", "repro", *MONTH_ARGS, *extra],
        capture_output=True, text=True, timeout=600, env=env,
        preexec_fn=cap_address_space)


def main() -> int:
    # Gate 1: streaming == batch, bit for bit, across scenarios.
    for scenario in ("clear_sky", "rain_fade"):
        batch = digest_dataset(
            Campaign(smoke_config(scenario)).run_pings())
        streamed = Campaign(smoke_config(scenario), ExecOptions(
            workers=2, granularity=3)).run_pings_streaming()
        if digest_dataset(streamed.to_ping_dataset()) != batch:
            print(f"FAIL: streaming digest diverged from batch "
                  f"under {scenario!r}")
            return 1

    # Gate 2: a 30-day wet month under the address-space cap.
    month = _capped_month([])
    if month.returncode != 0:
        print(f"FAIL: month-scale run exited "
              f"{month.returncode}, expected 0")
        print(month.stdout[-2000:])
        print(month.stderr[-2000:])
        return 1
    if "Availability report" not in month.stdout:
        print("FAIL: month-scale run printed no availability report")
        print(month.stdout[-2000:])
        return 1
    missing = [stage for stage in LADDER
               if f"entered {stage}" not in month.stdout]
    if missing:
        print(f"FAIL: precision notes missing ladder stages "
              f"{missing}")
        print(month.stdout[-2000:])
        return 1

    # Gate 3: the raise policy refuses to degrade and exits 3.
    raised = _capped_month(["--resource-policy", "raise"])
    if raised.returncode != 3:
        print(f"FAIL: raise-policy run exited {raised.returncode}, "
              f"expected 3")
        print(raised.stdout[-2000:])
        print(raised.stderr[-2000:])
        return 1
    if "memory budget exhausted" not in raised.stderr:
        print("FAIL: raise-policy run did not report the exhausted "
              "budget on stderr")
        print(raised.stderr[-2000:])
        return 1

    print(f"longitudinal-smoke: OK — streaming digest-identical on "
          f"2 scenarios; 30-day wet_month governed under a "
          f"{ADDRESS_SPACE_CAP_BYTES >> 20} MiB address-space cap "
          f"with the full ladder recorded; raise policy exited 3")
    return 0


if __name__ == "__main__":
    sys.exit(main())
