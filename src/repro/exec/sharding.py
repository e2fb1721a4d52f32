"""Splittable work units: deterministic shards, folded in order.

A campaign unit that subclasses :class:`SplittableUnit` can be split
across workers:

* ``n_atoms()`` — how many indivisible pieces the unit decomposes
  into (per-connection for speedtests, per-segment for bulk
  transfers, per-page for web rounds, per-round-chunk for ping
  series). The count is a pure function of the unit's config.
* ``run_atoms(start, stop)`` — execute atoms ``[start, stop)`` and
  return one payload per atom. Each atom derives its own RNG stream
  from the unit seed tuple plus the atom index, so the payload list
  is identical no matter how the range is cut.
* the fold — ``init_partial()`` starts an accumulator,
  ``merge_partial(acc, shard_payload)`` folds one shard's atom
  payloads into it and ``finalize(acc)`` turns it into the unit's
  payload. The executor folds shards strictly in shard order, and
  ``run()`` is the same fold over one shard that holds every atom,
  so for every granularity the sharded result is *bit-identical to
  serial by construction*: both paths run the same atoms through the
  same fold, only on different processes.

:func:`plan_shards` groups atoms into at most ``granularity``
balanced contiguous shards per unit; the executor dispatches them and
folds each unit's shards in ``(unit index, shard index)`` order.
Units without the atoms contract — or runs at ``granularity=1`` —
pass through unchanged and run whole, keeping their historical labels
and journal keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError


class SplittableUnit:
    """Base of every unit that splits into atoms.

    A subclass defines ``n_atoms()`` and ``run_atoms(start, stop)``,
    a pure function of ``(unit fields, start, stop)`` whose atom
    payloads do not depend on how ``[0, n_atoms())`` is partitioned —
    the differential suite in ``tests/exec/`` pins exactly that. The
    default fold collects the atom payloads into one ordered list and
    hands it to ``finalize``; a unit overrides ``finalize`` to build
    its payload from that list, or all three hooks to fold into a
    smaller accumulator.
    """

    def init_partial(self) -> list:
        return []

    def merge_partial(self, acc: list, shard_payload: list) -> list:
        acc.extend(shard_payload)
        return acc

    def finalize(self, acc):
        return acc

    def run(self):
        return self.finalize(self.merge_partial(
            self.init_partial(), self.run_atoms(0, self.n_atoms())))


def shard_label(parent_label: str, start: int, stop: int) -> str:
    """Stable label of the shard covering atoms ``[start, stop)``.

    The parent label plus the atom range keys journal entries and
    chaos attempt markers, so shard checkpoints can never collide
    with whole-unit checkpoints or with a different split plan.
    """
    return f"{parent_label}#s{start}-{stop}"


def atom_count(unit) -> int:
    """How many atoms ``unit`` splits into (1 when unsplittable).

    Duck-typed on purpose: wrappers such as
    :class:`repro.testing.chaos.ChaosUnit` delegate, and plain units
    without the contract simply report one atom.
    """
    probe = getattr(unit, "n_atoms", None)
    if probe is None:
        return 1
    return max(1, int(probe()))


def task_cost(runnable) -> float:
    """Relative size hint used for largest-first dispatch.

    Purely a scheduling hint — results are merged by index, so a bad
    estimate costs wall clock, never correctness. Units without a
    ``cost_hint`` weigh 1.
    """
    hint = getattr(runnable, "cost_hint", None)
    if hint is None:
        return 1.0
    try:
        return max(0.0, float(hint()))
    except Exception:
        return 1.0


@dataclass(frozen=True)
class UnitShard:
    """One contiguous atom range of a splittable unit.

    Satisfies the executor contract itself (``label`` / ``kind`` /
    ``run()``), so the journal, retry, timeout and failure machinery
    apply per shard with no special cases. ``config`` is the parent's,
    which fingerprints shard journal keys exactly like whole units.
    """

    unit: object
    shard_index: int
    n_shards: int
    start: int
    stop: int

    @property
    def label(self) -> str:
        return shard_label(self.unit.label, self.start, self.stop)

    @property
    def parent_label(self) -> str:
        return self.unit.label

    @property
    def kind(self) -> str:
        return self.unit.kind

    @property
    def config(self):
        return getattr(self.unit, "config", None)

    def run(self) -> list:
        return self.unit.run_atoms(self.start, self.stop)

    def cost_hint(self) -> float:
        span = self.stop - self.start
        return task_cost(self.unit) * span / max(1, atom_count(self.unit))


def plan_shards(units: Sequence, granularity: int) -> list[list]:
    """Per-unit dispatch plan: ``[unit]`` or its list of shards.

    Each splittable unit is cut into ``min(granularity, n_atoms)``
    balanced contiguous shards (``start = j*n//k``), so shard sizes
    differ by at most one atom. ``granularity=1`` and unsplittable
    units pass through as themselves — identical labels, journal keys
    and code path as before sharding existed.
    """
    if granularity < 1:
        raise ConfigurationError(
            f"granularity must be >= 1, got {granularity}")
    plan: list[list] = []
    for unit in units:
        n = atom_count(unit) if granularity > 1 else 1
        k = min(granularity, n)
        if k <= 1:
            plan.append([unit])
            continue
        plan.append([
            UnitShard(unit=unit, shard_index=j, n_shards=k,
                      start=j * n // k, stop=(j + 1) * n // k)
            for j in range(k)])
    return plan
