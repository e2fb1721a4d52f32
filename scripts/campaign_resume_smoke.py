#!/usr/bin/env python
"""CI smoke test: SIGKILL a campaign mid-run, resume, compare digests.

The harshest crash the journal must survive is the driver process
itself dying with ``kill -9`` — no exception handlers, no atexit, no
flush. This script spawns a child process that runs the tiny ping
campaign serially with a journal while the chaos harness SIGKILLs the
process partway through, then resumes the campaign in the parent from
the half-written journal directory and asserts the result is
bit-identical to an uninterrupted reference run.

Run from the repository root (CI job ``campaign-resume-smoke``)::

    PYTHONPATH=src python scripts/campaign_resume_smoke.py
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core.campaign import Campaign, CampaignConfig
from repro.exec import ExecOptions, Journal, execute_units
from repro.testing.chaos import ChaosSpec, wrap_units
from repro.testing.digest import digest_value
from repro.units import minutes


def smoke_config() -> CampaignConfig:
    return CampaignConfig(
        seed=0,
        ping_days=0.5, ping_interval_s=minutes(120),
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1)


def child(journal_dir: str, state_dir: str) -> None:
    """Run the campaign serially; chaos SIGKILLs this very process."""
    units = Campaign(smoke_config()).ping_units()
    victim = units[len(units) // 2].label
    wrapped = wrap_units(units, state_dir,
                         {victim: ChaosSpec(kill_on=(1,))})
    execute_units(wrapped, ExecOptions(journal=Journal(journal_dir)))
    raise SystemExit("chaos kill never fired")   # pragma: no cover


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        child(sys.argv[2], sys.argv[3])
        return 0

    units = Campaign(smoke_config()).ping_units()
    reference = digest_value(execute_units(units))

    with tempfile.TemporaryDirectory() as tmp:
        journal_dir = str(Path(tmp) / "journal")
        state_dir = str(Path(tmp) / "chaos")
        proc = subprocess.run(
            [sys.executable, __file__, "--child", journal_dir,
             state_dir],
            timeout=600)
        if proc.returncode != -signal.SIGKILL:
            print(f"FAIL: child exited {proc.returncode}, expected "
                  f"SIGKILL ({-signal.SIGKILL})")
            return 1

        journal = Journal(journal_dir)
        done = len(journal)
        if not 0 < done < len(units):
            print(f"FAIL: expected a partial journal, found {done} of "
                  f"{len(units)} entries")
            return 1

        resumed = digest_value(
            execute_units(units, ExecOptions(journal=journal)))
        if resumed != reference:
            print("FAIL: resumed digest differs from the "
                  "uninterrupted reference")
            print(f"  reference {reference}")
            print(f"  resumed   {resumed}")
            return 1
        if len(journal) != len(units):
            print(f"FAIL: journal incomplete after resume "
                  f"({len(journal)}/{len(units)})")
            return 1

    print(f"campaign-resume-smoke: OK — child SIGKILLed after "
          f"{done}/{len(units)} units, resume digest-identical "
          f"({reference[:16]}...)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
