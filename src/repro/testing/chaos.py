"""Executor-level chaos harness: deterministic work-unit sabotage.

:class:`ChaosUnit` wraps any campaign work unit and misbehaves on
chosen attempt numbers — raise a :class:`~repro.errors.ChaosError`,
hang past the unit timeout, ``SIGKILL`` its own worker process, or
raise :class:`KeyboardInterrupt` (what Ctrl-C delivers) — and
otherwise delegates to the wrapped unit. The wrapper exposes the
wrapped unit's ``label``/``kind``/``config``, so journal keys, timings
and dataset digests are identical to running the clean unit; a chaos
run that recovers must therefore be bit-identical to a calm one.

Attempt numbers are claimed through ``O_CREAT | O_EXCL`` marker files
in a state directory, so the count is exact across retries, process
pools and even workers that die mid-attempt. That makes every
injection deterministic: "kill the worker on attempt 1, succeed on
attempt 2" replays the same way on every run, which is how the
executor's recovery paths (retry, timeout re-dispatch, degrade-mode
completion, resume-from-journal) are pinned by tests rather than luck.

::

    spec = ChaosSpec(kill_on=(1,))            # die once, then behave
    units = wrap_units(campaign.ping_units(), state_dir,
                       {"ping:de-frankfurt": spec})
    execute_units(units, ExecOptions(workers=4, retries=1,
                                     journal=journal))
"""

from __future__ import annotations

import os
import re
import signal
import time
from dataclasses import dataclass, field, replace

from repro.errors import ChaosError, ConfigurationError
from repro.exec.sharding import atom_count, shard_label
from repro.rng import make_rng


def _marker_stem(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "unit"


def claim_attempt(state_dir: str | os.PathLike, label: str) -> int:
    """Atomically claim the next attempt number for ``label``.

    Each call creates one ``<label>.attempt-<n>`` marker with
    ``O_CREAT | O_EXCL``, so concurrent claimants (or a re-run after a
    worker died mid-attempt) can never observe the same number twice.
    """
    os.makedirs(state_dir, exist_ok=True)
    stem = _marker_stem(label)
    for attempt in range(1, 100_000):
        path = os.path.join(state_dir, f"{stem}.attempt-{attempt}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return attempt
    raise ChaosError(f"unit {label!r} exceeded 100000 attempts")


def attempts_made(state_dir: str | os.PathLike, label: str) -> int:
    """How many attempts have been claimed for ``label`` so far."""
    stem = _marker_stem(label)
    count = 0
    while os.path.exists(os.path.join(
            state_dir, f"{stem}.attempt-{count + 1}")):
        count += 1
    return count


@dataclass(frozen=True)
class ChaosSpec:
    """Which attempt numbers misbehave, and how.

    Faults are checked in the order kill / hang / interrupt / memerr /
    raise, so one attempt can only trigger one fault. ``hang_s``
    should comfortably exceed the executor's ``unit_timeout`` under
    test. ``memerr_on`` raises a plain :class:`MemoryError` — the
    allocation-failure shape the resource-governance layer must
    survive. ``balloon_on`` is pressure rather than failure: the
    attempt allocates and holds ``balloon_mb`` MiB of ballast for the
    duration of the wrapped run, so ``tracemalloc`` peaks and RSS
    watchdogs observably spike on exactly the chosen attempts.
    """

    raise_on: tuple[int, ...] = ()
    kill_on: tuple[int, ...] = ()
    hang_on: tuple[int, ...] = ()
    interrupt_on: tuple[int, ...] = ()
    memerr_on: tuple[int, ...] = ()
    balloon_on: tuple[int, ...] = ()
    balloon_mb: int = 64
    hang_s: float = 3600.0
    message: str = "chaos: injected unit failure"


@dataclass(frozen=True)
class ChaosInjection:
    """Log entry for one seeded sabotage (what, where, when)."""

    label: str
    fault: str             # "raise" | "kill" | "hang"
    attempt: int


@dataclass(frozen=True)
class ChaosUnit:
    """A work unit that sabotages chosen attempts, then delegates.

    Splittable inner units stay splittable: the wrapper delegates the
    atoms contract and the fold, claims each *shard's* attempts under
    the shard label (``label#s<start>-<stop>``), and strikes a shard
    only when ``shard_specs`` names it — so a test can SIGKILL one
    shard of one unit and prove the others were never re-run.
    """

    inner: object
    spec: ChaosSpec
    state_dir: str
    shard_specs: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.inner.label

    @property
    def kind(self) -> str:
        return self.inner.kind

    @property
    def config(self):
        return self.inner.config

    def _strike(self, spec: ChaosSpec, attempt: int,
                label: str) -> bytearray | None:
        """Misbehave if told to; returns ballast to hold, if any."""
        if attempt in spec.kill_on:
            os.kill(os.getpid(), signal.SIGKILL)
        if attempt in spec.hang_on:
            time.sleep(spec.hang_s)
        if attempt in spec.interrupt_on:
            raise KeyboardInterrupt
        if attempt in spec.memerr_on:
            raise MemoryError(
                f"chaos: injected allocation failure "
                f"(unit {label!r}, attempt {attempt})")
        if attempt in spec.raise_on:
            raise ChaosError(f"{spec.message} "
                             f"(unit {label!r}, attempt {attempt})")
        if attempt in spec.balloon_on:
            return bytearray(spec.balloon_mb << 20)
        return None

    def run(self):
        attempt = claim_attempt(self.state_dir, self.label)
        ballast = self._strike(self.spec, attempt, self.label)
        try:
            return self.inner.run()
        finally:
            del ballast

    # -- atoms contract and fold (delegated, per-shard sabotage) -----------

    def n_atoms(self) -> int:
        return atom_count(self.inner)

    def run_atoms(self, start: int, stop: int):
        label = shard_label(self.inner.label, start, stop)
        attempt = claim_attempt(self.state_dir, label)
        spec = self.shard_specs.get(label)
        ballast = None
        if spec is not None:
            ballast = self._strike(spec, attempt, label)
        try:
            return self.inner.run_atoms(start, stop)
        finally:
            del ballast

    def init_partial(self):
        return self.inner.init_partial()

    def merge_partial(self, acc, shard_payload):
        return self.inner.merge_partial(acc, shard_payload)

    def finalize(self, acc):
        return self.inner.finalize(acc)


def wrap_units(units, state_dir: str | os.PathLike,
               specs: dict[str, ChaosSpec] | None = None,
               default: ChaosSpec | None = None,
               shard_specs: dict[str, dict[str, ChaosSpec]] | None = None
               ) -> list[ChaosUnit]:
    """Wrap every unit; ``specs`` maps labels to their sabotage.

    Units without a spec get ``default`` (calm by default), so attempt
    counting stays uniform across the whole run. ``shard_specs`` maps
    a *unit* label to a dict of *shard* labels
    (``label#s<start>-<stop>``, see
    :func:`repro.exec.sharding.shard_label`) and strikes only those
    shards when the unit runs split.
    """
    specs = specs or {}
    default = default or ChaosSpec()
    shard_specs = shard_specs or {}
    return [ChaosUnit(unit, specs.get(unit.label, default),
                      str(state_dir),
                      shard_specs=shard_specs.get(unit.label, {}))
            for unit in units]


def seeded_chaos(units, state_dir: str | os.PathLike, seed: int = 0,
                 p_raise: float = 0.0, p_kill: float = 0.0,
                 p_hang: float = 0.0, p_memerr: float = 0.0,
                 max_attempt: int = 1, hang_s: float = 3600.0
                 ) -> tuple[list[ChaosUnit], list[ChaosInjection]]:
    """Sabotage a seeded-random subset of ``units``.

    Each unit independently draws one fault (or none) and the attempt
    it strikes on, all through :func:`repro.rng.make_rng` — the same
    seed injects the same faults on every run. Returns the wrapped
    units plus the injection log, so a test can assert the executor's
    failure report lists *exactly* what was injected. ``p_memerr``
    injects allocation failures (:class:`MemoryError`), the fault the
    resource-governance tests lean on.
    """
    total = p_raise + p_kill + p_hang + p_memerr
    if not 0.0 <= total <= 1.0:
        raise ConfigurationError(
            f"fault probabilities must sum into [0, 1], got {total}")
    if max_attempt < 1:
        raise ConfigurationError(
            f"max_attempt must be >= 1, got {max_attempt}")
    rng = make_rng(("chaos", seed))
    wrapped: list[ChaosUnit] = []
    injections: list[ChaosInjection] = []
    for unit in units:
        draw = rng.random()
        attempt = 1 + rng.randrange(max_attempt)
        spec = ChaosSpec(hang_s=hang_s)
        fault = None
        if draw < p_raise:
            spec, fault = replace(spec, raise_on=(attempt,)), "raise"
        elif draw < p_raise + p_kill:
            spec, fault = replace(spec, kill_on=(attempt,)), "kill"
        elif draw < p_raise + p_kill + p_hang:
            spec, fault = replace(spec, hang_on=(attempt,)), "hang"
        elif draw < total:
            spec, fault = replace(spec, memerr_on=(attempt,)), "memerr"
        if fault is not None:
            injections.append(ChaosInjection(unit.label, fault, attempt))
        wrapped.append(ChaosUnit(unit, spec, str(state_dir)))
    return wrapped, injections
