#!/usr/bin/env python
"""CI gate: sharded pool runs must be digest-identical to serial.

Runs the tiny campaign once serially (workers=1, whole units), writes
the dataset digest to an artifact file, then reruns it with a 4-worker
pool at two shard granularities and asserts every digest matches the
serial one bit for bit. This is the executable form of the sharding
contract ``sharded(N, g) == serial``: any scheduler, merge or RNG
regression that slips past the unit suites fails this gate on the
full campaign path (``Campaign.run_all``) instead of a synthetic unit.

Run from the repository root (CI job ``sharded-digest-gate``)::

    PYTHONPATH=src python scripts/sharded_digest_smoke.py \\
        --artifact serial_digest.txt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.campaign import Campaign, CampaignConfig
from repro.exec import ExecOptions
from repro.testing.digest import digest_dataset
from repro.units import minutes

WORKERS = 4
GRANULARITIES = (3, 8)


def smoke_config() -> CampaignConfig:
    return CampaignConfig(
        seed=0,
        ping_days=1.0, ping_interval_s=minutes(60),
        ping_shard_rounds=4,
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        speedtest_connections=3,
        bulk_per_direction=1, bulk_bytes=900_000,
        bulk_segment_bytes=400_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=4, web_visits_per_site=1)


def campaign_digest(workers: int, granularity: int) -> str:
    options = ExecOptions(workers=workers, granularity=granularity)
    return digest_dataset(Campaign(smoke_config(), options).run_all())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", type=Path, default=None,
                        help="write the serial reference digest here")
    args = parser.parse_args()

    serial = campaign_digest(workers=1, granularity=1)
    if args.artifact is not None:
        args.artifact.write_text(serial + "\n")
    print(f"serial digest: {serial}")

    failed = False
    for granularity in GRANULARITIES:
        sharded = campaign_digest(workers=WORKERS,
                                  granularity=granularity)
        ok = sharded == serial
        print(f"workers={WORKERS} granularity={granularity}: "
              f"{sharded}  {'OK' if ok else 'MISMATCH'}")
        failed |= not ok
    if failed:
        print("FAIL: sharded campaign diverged from the serial "
              "dataset", file=sys.stderr)
        return 1
    print(f"sharded-digest-gate: OK — workers={WORKERS}, "
          f"granularities {GRANULARITIES} all bit-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
