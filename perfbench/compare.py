"""Layer-by-layer view of traced benchmark records.

    python3 perfbench/compare.py RECORD            # one record's shares
    python3 perfbench/compare.py BASE NEW          # diff two records

A record is what ``run.py --trace 1`` writes to ``perfbench/out/``
(``<workload>-s<seed>-trace1.json``); ``perfbench/records/`` holds
the committed baseline of each workload. The diff compares the work
counters that must repeat exactly (``layers.EXACT``) for equality and
shows every time as a share of the traced run's raw wall time (span
times are raw, not speed-corrected), so a change can show in which
layer its saving appears. It exits 1 when an exact counter differs,
0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from layers import EXACT, METRICS


def load(path: str) -> dict:
    with open(path) as fh:
        record = json.load(fh)
    if not record.get("traced"):
        raise SystemExit(f"{path}: not a traced record (run.py "
                         "--trace 1 writes one)")
    return record["traced"]


def layer_shares(traced: dict) -> dict[str, float]:
    """Self time per layer as a share of the traced raw wall time.

    A layer is the first part of a span name (``netsim.pipe`` ->
    ``netsim``); ``phase`` is the time no wrapped call covers. The
    shares sum to one.
    """
    wall = traced["raw_wall_s"]
    shares: dict[str, float] = {}
    for name, span in traced["spans"].items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + span["self_s"] / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def _cell(metric: str, value: float, wall: float) -> str:
    if METRICS[metric][0] == "s":
        return f"{value:10.4f} {100 * value / wall:5.1f}%"
    return f"{value:17.6g}"


def diff(base: dict, new: dict) -> tuple[list[str], int]:
    """Rendered comparison and the number of exact counters that
    differ."""
    bw, nw = base["raw_wall_s"], new["raw_wall_s"]
    lines = [f"{'metric':32s} {'base (share)':>17s} {'new (share)':>17s}",
             f"{'raw_wall_s':32s} {bw:17.4f} {nw:17.4f}"]
    mismatches = 0
    for metric in METRICS:
        if metric not in base["layers"] or metric not in new["layers"]:
            continue
        b = base["layers"][metric]["value"]
        n = new["layers"][metric]["value"]
        note = ""
        if metric in EXACT and b != n:
            note = "  DIFFERS"
            mismatches += 1
        lines.append(f"{metric:32s} {_cell(metric, b, bw)} "
                     f"{_cell(metric, n, nw)}{note}")
    lines.append("")
    lines.append(f"{'layer self time':32s} {'base':>17s} {'new':>17s}")
    bs, ns = layer_shares(base), layer_shares(new)
    for layer in dict.fromkeys([*bs, *ns]):
        lines.append(f"{layer:32s} {100 * bs.get(layer, 0.0):16.1f}% "
                     f"{100 * ns.get(layer, 0.0):16.1f}%")
    return lines, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("records", nargs="+", metavar="RECORD")
    args = parser.parse_args(argv)
    if len(args.records) == 1:
        traced = load(args.records[0])
        print(json.dumps({layer: round(share, 4) for layer, share
                          in layer_shares(traced).items()}, indent=1))
        return 0
    if len(args.records) != 2:
        parser.error("give one record, or two to compare")
    lines, mismatches = diff(load(args.records[0]),
                             load(args.records[1]))
    print("\n".join(lines))
    if mismatches:
        print(f"\n{mismatches} exact counter(s) differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
