"""Work-unit executor: one supervisor, in-process or on a pool.

The contract is strict: ``execute_units(units, ExecOptions(workers=N,
granularity=g))`` returns payloads in the order the units were given,
bit-identical for every ``(N, g)``. Every batch runs through one
supervisor, which keeps at most ``workers`` tasks in flight on a
backend and records results by input index. With one worker and no
``unit_timeout`` the backend runs each task in this process the moment
it is submitted; otherwise it is a process pool. Retry, backoff,
failure policy, journaling and interrupt handling are the same code
on both, so there is no separate serial implementation to drift.

``granularity > 1`` additionally splits units that implement the
atoms contract (:mod:`repro.exec.sharding`) into up to ``g`` shards
each. One task in flight runs the tasks in input order; a wider pool
is work-stealing in spirit: every free worker slot is handed the
*largest remaining* runnable shard, so a long-pole unit's shards
spread across the pool instead of serialising behind one worker.
Each split unit folds its shard payloads through its own
``init_partial`` / ``merge_partial`` / ``finalize`` strictly in shard
order, which is the same fold ``unit.run()`` performs over one shard
of every atom — sharded output is therefore identical to serial by
construction, not by scheduling luck.

On top of that sits the crash-safety layer:

* **journal** — each completed unit's payload is persisted atomically
  (:class:`repro.exec.journal.Journal`); on restart, journaled units
  are loaded instead of re-run, and the resumed output is
  digest-identical to an uninterrupted run.
* **failure isolation** — a raising unit, a dying worker process or a
  unit that exceeds ``unit_timeout`` becomes a structured
  :class:`UnitFailure` instead of tearing down the run, after a
  bounded deterministic retry with exponential backoff.
* **failure policy** — ``"raise"`` aborts on the first exhausted unit
  (:class:`~repro.errors.UnitExecutionError`); ``"degrade"`` finishes
  the run and returns the :class:`UnitFailure` records in place of the
  missing payloads, so callers can assemble partial datasets.
* **interrupt safety** — ``KeyboardInterrupt`` cancels pending work,
  kills the pool's worker processes (no orphans), and propagates; the
  journal already holds every unit completed so far, so the run is
  resumable.

Attribution caveats, by construction of ``ProcessPoolExecutor``: a
worker death breaks the whole pool, so every in-flight unit is charged
an attempt (the pool cannot say which unit killed it); a timed-out
unit cannot be killed individually, so the pool is rebuilt — timed-out
units are charged, innocent in-flight units are re-dispatched free.
Keeping at most ``workers`` units in flight bounds both effects.
"""

from __future__ import annotations

import cProfile
import os
import pathlib
import re
import time
import traceback
import tracemalloc
from concurrent import futures as _cf
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ConfigurationError, UnitExecutionError
from repro.exec.journal import Journal
from repro.exec.sharding import UnitShard, plan_shards, task_cost

#: Poll interval of the supervisor loop (seconds). Short enough
#: that timeout enforcement is prompt, long enough to stay off the CPU.
_POLL_S = 0.05

#: Accepted ``failure_policy`` values.
FAILURE_POLICIES = ("raise", "degrade")


@dataclass(frozen=True)
class ExecOptions:
    """How :func:`execute_units` runs a batch of work units.

    One frozen value shared by :class:`~repro.core.campaign.Campaign`,
    :func:`execute_units` and the CLI, validated once at construction.
    No field changes a payload; each only decides where, how often and
    under what bookkeeping a unit runs (see :func:`execute_units`).
    """

    #: Worker processes; 1 runs every unit in-process.
    workers: int = 1
    #: Shards per splittable unit (1 = whole units).
    granularity: int = 1
    #: Checkpoint store: journaled units are loaded, not re-run.
    journal: Journal | None = None
    #: Extra attempts per failing unit, after exponential backoff
    #: ``retry_backoff_s * 2**(k-1)``.
    retries: int = 0
    retry_backoff_s: float = 0.0
    #: Wall-clock budget of one attempt (forces a worker process).
    unit_timeout: float | None = None
    #: ``"raise"`` or ``"degrade"`` (see :data:`FAILURE_POLICIES`).
    failure_policy: str = "raise"
    #: Dump one cProfile ``*.pstats`` file per unit into this directory.
    profile_dir: str | None = None
    #: Record each unit's tracemalloc peak in ``UnitTiming.peak_kb``.
    track_memory: bool = False

    def __post_init__(self) -> None:
        for name in ("workers", "granularity"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {value!r}")
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries!r}")
        if not self.retry_backoff_s >= 0:   # also rejects NaN
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got "
                f"{self.retry_backoff_s!r}")
        if self.unit_timeout is not None and not self.unit_timeout > 0:
            raise ConfigurationError(
                f"unit_timeout must be positive, got "
                f"{self.unit_timeout!r}")
        if self.failure_policy not in FAILURE_POLICIES:
            raise ConfigurationError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}")


@dataclass(frozen=True)
class UnitTiming:
    """Wall-clock (and optional peak-memory) record for one unit."""

    label: str
    kind: str
    elapsed_s: float
    #: Peak traced allocation during the unit's run, KiB
    #: (``tracemalloc``); 0.0 unless the run tracked memory (or the
    #: timing was restored from a journal, which stores wall clock
    #: only).
    peak_kb: float = 0.0


@dataclass(frozen=True)
class UnitFailure:
    """Structured record of one unit that exhausted its attempts.

    Under ``failure_policy="degrade"`` these take the failed unit's
    place in the payload list, so callers can both skip and report
    them.

    When the failing task was a shard of a splittable unit, ``label``
    still names the *parent* unit (one failure record stands for the
    whole unit, whose merged payload is lost) and the shard fields
    say which piece died: ``shard_index`` (0-based), ``n_shards`` and
    the shard's own ``shard_label``. Whole-unit failures leave the
    shard fields at their defaults.
    """

    label: str
    kind: str
    error_type: str
    message: str
    traceback: str
    attempts: int
    shard_index: int | None = None
    n_shards: int = 0
    shard_label: str = ""


@dataclass
class DegradationReport:
    """Unit coverage of a (possibly partial) campaign run.

    ``coverage`` maps dataset name to ``(completed, total)`` unit
    counts; ``failures`` lists every unit that was lost. Rendered for
    humans by :func:`repro.core.reporting.render_degradation`.
    """

    total_units: int = 0
    completed_units: int = 0
    failures: list[UnitFailure] = field(default_factory=list)
    coverage: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.failures)

    def coverage_fraction(self, dataset: str) -> float:
        completed, total = self.coverage.get(dataset, (0, 0))
        return completed / total if total else 1.0


def default_workers() -> int:
    """A sensible worker count for this machine (>= 1)."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        usable = os.cpu_count() or 1
    return max(1, usable)


def _profile_stem(label: str) -> str:
    """Filesystem-safe stem for a unit label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "unit"


def _backoff_s(retry_backoff_s: float, attempt: int) -> float:
    """Deterministic exponential backoff before attempt ``attempt+1``."""
    return retry_backoff_s * (2 ** (attempt - 1))


def _describe_task(runnable) -> str:
    """Human name of a task for error messages (shard-aware)."""
    if isinstance(runnable, UnitShard):
        return (f"unit {runnable.parent_label!r} shard "
                f"{runnable.shard_index + 1}/{runnable.n_shards} "
                f"({runnable.label!r})")
    return f"unit {runnable.label!r}"


def _failure_for(runnable, error_type: str, message: str, tb: str,
                 attempts: int) -> UnitFailure:
    """Build the :class:`UnitFailure` for an exhausted task."""
    if isinstance(runnable, UnitShard):
        return UnitFailure(
            label=runnable.parent_label, kind=runnable.kind,
            error_type=error_type, message=message, traceback=tb,
            attempts=attempts, shard_index=runnable.shard_index,
            n_shards=runnable.n_shards, shard_label=runnable.label)
    return UnitFailure(label=runnable.label, kind=runnable.kind,
                       error_type=error_type, message=message,
                       traceback=tb, attempts=attempts)


def _run_one(unit, index: int, profile_dir: str | None,
             track_memory: bool) -> tuple[object, UnitTiming]:
    profiler = None
    if profile_dir is not None:
        profiler = cProfile.Profile()
        profiler.enable()
    peak_kb = 0.0
    started_tracing = False
    if track_memory:
        if tracemalloc.is_tracing():
            # Nest inside an outer trace (e.g. the benchmark harness):
            # reset the peak marker instead of restarting.
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            started_tracing = True
    began = time.perf_counter()
    try:
        payload = unit.run()
        elapsed = time.perf_counter() - began
        if track_memory:
            _, peak = tracemalloc.get_traced_memory()
            peak_kb = peak / 1024.0
    finally:
        if started_tracing:
            tracemalloc.stop()
    if profiler is not None:
        profiler.disable()
        out_dir = pathlib.Path(profile_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # The unit index disambiguates labels that sanitize to the
        # same stem, which would otherwise overwrite each other.
        profiler.dump_stats(
            out_dir / f"{index:04d}-{_profile_stem(unit.label)}.pstats")
    return payload, UnitTiming(label=unit.label, kind=unit.kind,
                               elapsed_s=elapsed, peak_kb=peak_kb)


def _run_task(unit, index: int, profile_dir: str | None,
              track_memory: bool) -> tuple:
    """Backend-side wrapper: exceptions become data, never pool poison.

    A task ships only the two options the unit's own process needs;
    the journal stays with the supervisor, which records results.
    """
    try:
        payload, timing = _run_one(unit, index, profile_dir,
                                   track_memory)
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc),
                traceback.format_exc())
    return ("ok", payload, timing)


def _stop_pool(pool) -> None:
    """Shut a backend down without orphaning workers: kill, cancel, reap."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        if proc.is_alive():
            proc.kill()
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        proc.join(timeout=5.0)


class _InProcess:
    """The backend of one task in flight with no timeout to enforce.

    ``submit`` runs the task in this process at once and returns its
    completed future; a ``KeyboardInterrupt`` propagates out of it.
    """

    def submit(self, fn, *args) -> _cf.Future:
        future = _cf.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        pass


class _Supervisor:
    """Submit-window loop with retry, timeout and rebuild.

    At most ``workers`` tasks are in flight at any moment; completed
    futures are reaped by index, a broken pool is rebuilt, and tasks
    whose wall clock exceeds ``unit_timeout`` are abandoned by killing
    the pool and re-dispatching survivors to a fresh one. The backend
    is a process pool exactly when ``workers > 1`` or a timeout is
    set, and :class:`_InProcess` otherwise. One task in flight runs
    the runnable tasks in input order; a wider pool takes the largest
    first (the work-stealing rule). Either order only shapes wall
    clock — the ordered merge by index makes the output independent
    of scheduling.
    """

    def __init__(self, todo: list[tuple[int, object]],
                 options: ExecOptions,
                 record_ok: Callable[[int, object, UnitTiming], object]):
        self.pending = [(i, u, 1) for i, u in todo]  # attempt to run next
        self.costs = {i: task_cost(u) for i, u in todo}
        self.workers = min(options.workers, len(todo))
        self.options = options
        self.record_ok = record_ok
        self.ready_at: dict[int, float] = {}   # backoff gates by index
        self.inflight: dict = {}               # future -> (i, unit, attempt, t0)
        self.outcomes: dict[int, object] = {}

    def _backend(self):
        options = self.options
        if options.workers > 1 or options.unit_timeout is not None:
            # Imported here: it loads multiprocessing, which an
            # in-process run never needs.
            from concurrent.futures import ProcessPoolExecutor
            return ProcessPoolExecutor(max_workers=self.workers)
        return _InProcess()

    def run(self) -> dict[int, object]:
        self.pool = self._backend()
        try:
            while self.pending or self.inflight:
                self._dispatch()
                self._reap()
            self.pool.shutdown()
        except BaseException:
            # KeyboardInterrupt and UnitExecutionError both land here:
            # cancel pending futures, kill workers, leave no orphans.
            _stop_pool(self.pool)
            raise
        return self.outcomes

    # -- submission --------------------------------------------------------

    def _dispatch(self) -> None:
        now = time.monotonic()
        while self.pending and len(self.inflight) < self.workers:
            # One slot takes the earliest runnable task; a wider pool
            # steals the biggest one (ties break toward the earlier
            # task index, deterministically).
            ready = [k for k, (i, _, _) in enumerate(self.pending)
                     if self.ready_at.get(i, 0.0) <= now]
            if not ready:
                break
            if self.workers == 1:
                slot = min(ready, key=lambda k: self.pending[k][0])
            else:
                slot = max(ready,
                           key=lambda k: (self.costs[self.pending[k][0]],
                                          -self.pending[k][0]))
            index, unit, attempt = self.pending.pop(slot)
            try:
                future = self.pool.submit(
                    _run_task, unit, index,
                    self.options.profile_dir, self.options.track_memory)
            except _cf.BrokenExecutor:
                # Pool died between reaps; put the unit back and let
                # the reap path drain the doomed futures and rebuild.
                self.pending.append((index, unit, attempt))
                return
            self.inflight[future] = (index, unit, attempt,
                                     time.monotonic())

    # -- completion / failure ----------------------------------------------

    def _reap(self) -> None:
        if not self.inflight:
            if self.pending:
                # Everything runnable is gated on backoff; sleep to
                # the earliest gate (capped so interrupts stay snappy).
                gate = min(self.ready_at.get(i, 0.0)
                           for i, _, _ in self.pending)
                time.sleep(max(0.0, min(gate - time.monotonic(), 0.5)))
            return
        done, _ = _cf.wait(set(self.inflight), timeout=_POLL_S,
                           return_when=_cf.FIRST_COMPLETED)
        broken = False
        for future in done:
            index, unit, attempt, _ = self.inflight.pop(future)
            exc = future.exception()
            if exc is None:
                status = future.result()
                if status[0] == "ok":
                    _, payload, timing = status
                    # record_ok may consume the payload (a split
                    # unit's fold): keep whatever it hands back.
                    self.outcomes[index] = (
                        self.record_ok(index, payload, timing), timing)
                else:
                    _, error_type, message, tb = status
                    self._attempt_failed(index, unit, attempt,
                                         error_type, message, tb)
            elif isinstance(exc, KeyboardInterrupt):
                # A worker saw Ctrl-C: the signal went to the whole
                # process group, so treat it as a driver interrupt.
                raise KeyboardInterrupt
            elif isinstance(exc, _cf.BrokenExecutor):
                broken = True
                self._attempt_failed(
                    index, unit, attempt, "WorkerCrash",
                    "worker process died before returning a result", "")
            else:
                self._attempt_failed(index, unit, attempt,
                                     type(exc).__name__, str(exc), "")
        if broken:
            self._rebuild_after_break()
        elif self.options.unit_timeout is not None and self.inflight:
            self._enforce_timeout()

    def _rebuild_after_break(self) -> None:
        # The pool is unusable and every other in-flight future is
        # doomed with it. Each such unit is charged an attempt — the
        # pool cannot attribute which one killed the worker.
        for future, (index, unit, attempt, _) in list(
                self.inflight.items()):
            self._attempt_failed(
                index, unit, attempt, "WorkerCrash",
                "worker pool broke while the unit was in flight", "")
        self.inflight.clear()
        _stop_pool(self.pool)
        self.pool = self._backend()

    def _enforce_timeout(self) -> None:
        budget = self.options.unit_timeout
        now = time.monotonic()
        expired = {future for future, (_, _, _, t0)
                   in self.inflight.items()
                   if now - t0 > budget and not future.done()}
        if not expired:
            return
        # A single worker cannot be killed through the pool API, so
        # kill the whole pool: expired units are charged an attempt,
        # innocent in-flight units are re-dispatched free of charge.
        for future, (index, unit, attempt, _) in list(
                self.inflight.items()):
            if future in expired:
                self._attempt_failed(
                    index, unit, attempt, "UnitTimeout",
                    f"unit exceeded the {budget:.6g}s "
                    "wall-clock budget", "")
            else:
                self.pending.append((index, unit, attempt))
        self.inflight.clear()
        _stop_pool(self.pool)
        self.pool = self._backend()

    def _attempt_failed(self, index: int, unit, attempt: int,
                        error_type: str, message: str, tb: str) -> None:
        if attempt <= self.options.retries:
            self.ready_at[index] = time.monotonic() + _backoff_s(
                self.options.retry_backoff_s, attempt)
            self.pending.append((index, unit, attempt + 1))
            return
        if self.options.failure_policy == "raise":
            raise UnitExecutionError(
                f"{_describe_task(unit)} failed after {attempt} "
                f"attempt(s): {error_type}: {message}"
                + (f"\n{tb.rstrip()}" if tb else ""))
        self.outcomes[index] = _failure_for(unit, error_type, message,
                                            tb, attempt)


class _PrefixReducer:
    """Arrival-order, in-shard-order fold of one split unit.

    Shard payloads are merged into a single accumulator the moment
    the merged prefix is contiguous; later arrivals wait in ``held``
    (bounded by the in-flight window, i.e. the worker count). Merges
    therefore always happen in shard order — deterministic no matter
    which worker finishes first — and the raw shard payloads are
    dropped as they fold in, so a unit whose fold keeps a small
    accumulator (a month-scale ping sink) never holds every shard
    payload at once.
    """

    def __init__(self, unit):
        self.unit = unit
        self.acc = unit.init_partial()
        self.next = 0
        self.held: dict[int, object] = {}

    def feed(self, position: int, shard_payload) -> None:
        if position < self.next or position in self.held:
            return  # duplicate delivery (journal replay)
        self.held[position] = shard_payload
        while self.next in self.held:
            self.acc = self.unit.merge_partial(
                self.acc, self.held.pop(self.next))
            self.next += 1

    def finalize(self):
        return self.unit.finalize(self.acc)


#: Placeholder kept in ``outcomes`` once a reducer consumed a shard's
#: payload (the timing half of the tuple stays live).
_REDUCED = "<reduced>"


def execute_units(units: Sequence,
                  options: ExecOptions = ExecOptions(), *,
                  timings: list[UnitTiming] | None = None,
                  shard_timings: list[UnitTiming] | None = None
                  ) -> list:
    """Run ``units`` under ``options`` and return their payloads in
    input order.

    ``workers=1`` executes in-process, in input order; ``workers>1``
    fans out over a process pool. Per-unit wall clock (as seen by the
    process that ran the unit) is appended to ``timings`` when given,
    also in input order. With ``profile_dir`` set, each unit runs under
    cProfile and dumps ``<index>-<label>.pstats`` into that directory
    (the timing then includes profiler overhead; use it for hotspot
    hunting, not for benchmark numbers).

    ``granularity`` splits each splittable unit into up to that many
    shards (:func:`repro.exec.sharding.plan_shards`); the pool steals
    the largest remaining shard per free slot, and each unit folds its
    shard payloads in shard order as they arrive (``init_partial`` /
    ``merge_partial`` / ``finalize``), which makes the payloads
    bit-identical to ``granularity=1`` for every worker count. Retry,
    timeout, journaling and failure policy all apply per shard —
    journal keys include the shard's atom range, so a resume at the
    *same* granularity never re-runs a completed shard (a different
    granularity re-runs cheaply but stays digest-identical), and
    journaled shards replay through the same fold. ``timings`` still
    records one entry per unit (the sum of its shard wall clocks);
    ``shard_timings`` additionally records each executed shard under
    its ``label#s<start>-<stop>`` shard label.

    Crash safety:

    * ``journal`` (a :class:`repro.exec.journal.Journal`) persists each
      completed payload atomically and skips already-journaled units on
      restart; the assembled output is digest-identical either way.
    * ``retries`` grants each unit up to ``retries`` extra attempts
      after a failure (exception, worker death, timeout), with
      deterministic exponential backoff ``retry_backoff_s * 2**(k-1)``.
    * ``unit_timeout`` bounds each attempt's wall clock; enforcing it
      requires a worker process, so the pool backend is used even with
      ``workers=1``. A timed-out unit is re-dispatched to a fresh pool.
    * ``failure_policy="raise"`` (default) aborts on the first unit
      that exhausts its attempts with a
      :class:`~repro.errors.UnitExecutionError` that carries the
      failing task's traceback; ``"degrade"`` finishes the run and
      returns the :class:`UnitFailure` record *in place of* that
      unit's payload — callers filter with
      ``isinstance(p, UnitFailure)``.
    * ``KeyboardInterrupt`` cancels pending work, kills pool workers
      (no orphans) and propagates; journaled progress survives.

    ``track_memory=True`` additionally records each task's peak traced
    allocation (``tracemalloc``) in ``UnitTiming.peak_kb`` — measured
    in the process that ran the task, so pool workers report their own
    heaps. Tracing roughly doubles allocation cost; leave it off for
    benchmark timing runs.
    """
    units = list(units)
    if not units:
        return []

    # Flatten the per-unit shard plan into one task list. With
    # granularity=1 every task *is* its unit, so task ids, journal
    # keys and profile-dump names match the pre-sharding executor.
    plan = plan_shards(units, options.granularity)
    tasks: list = []
    unit_tasks: list[list[int]] = []
    for group in plan:
        unit_tasks.append(list(range(len(tasks),
                                     len(tasks) + len(group))))
        tasks.extend(group)

    # Every split unit folds its shard payloads as they arrive;
    # ``folds`` maps a shard's task id to its unit's reducer.
    folds: dict[int, _PrefixReducer] = {}
    for unit, ids in zip(units, unit_tasks):
        if isinstance(tasks[ids[0]], UnitShard):
            reducer = _PrefixReducer(unit)
            folds.update((t, reducer) for t in ids)

    def feed_reducer(index: int, payload) -> object:
        """Fold a shard payload; return what ``outcomes`` should keep."""
        if index not in folds:
            return payload
        folds[index].feed(tasks[index].shard_index, payload)
        return _REDUCED

    outcomes: dict[int, object] = {}
    keys: list[str] | None = None
    journal = options.journal
    if journal is not None:
        keys = [journal.key_for(task) for task in tasks]
        for i, task in enumerate(tasks):
            entry = journal.load(keys[i], label=task.label)
            if entry is not None:
                payload, elapsed = entry
                outcomes[i] = (feed_reducer(i, payload), UnitTiming(
                    label=task.label, kind=task.kind,
                    elapsed_s=elapsed))

    def record_ok(index: int, payload, timing: UnitTiming) -> object:
        if journal is not None:
            journal.store(keys[index], payload,
                          elapsed_s=timing.elapsed_s,
                          label=timing.label)
        return feed_reducer(index, payload)

    todo = [(i, task) for i, task in enumerate(tasks)
            if i not in outcomes]
    if todo:
        outcomes.update(_Supervisor(todo, options, record_ok).run())

    payloads: list = []
    for unit, ids in zip(units, unit_tasks):
        shard_failures = [outcomes[t] for t in ids
                          if isinstance(outcomes[t], UnitFailure)]
        if shard_failures:
            # One record stands for the whole unit (its merged
            # payload is lost); the lowest failing shard index wins
            # deterministically.
            payloads.append(shard_failures[0])
            continue
        results = [outcomes[t] for t in ids]
        if ids[0] in folds:
            payload = folds[ids[0]].finalize()
            unit_timing = UnitTiming(
                label=unit.label, kind=unit.kind,
                elapsed_s=sum(t.elapsed_s for _, t in results),
                peak_kb=max(t.peak_kb for _, t in results))
        else:
            [(payload, unit_timing)] = results
        if timings is not None:
            timings.append(unit_timing)
        if shard_timings is not None:
            shard_timings.extend(t for _, t in results)
        payloads.append(payload)
    return payloads


def timing_breakdown(timings: Sequence[UnitTiming]) -> list[dict]:
    """Aggregate per-kind rows: count, total/mean/max wall clock plus
    the max traced-allocation peak (0 unless ``track_memory``)."""
    by_kind: dict[str, list[UnitTiming]] = {}
    for timing in timings:
        by_kind.setdefault(timing.kind, []).append(timing)
    rows = []
    for kind in sorted(by_kind):
        group = by_kind[kind]
        elapsed = [t.elapsed_s for t in group]
        rows.append({
            "kind": kind, "units": len(elapsed),
            "total_s": sum(elapsed),
            "mean_s": sum(elapsed) / len(elapsed),
            "max_s": max(elapsed),
            "peak_kb": max(t.peak_kb for t in group),
        })
    return rows


def render_timings(timings: Sequence[UnitTiming]) -> str:
    """Human-readable per-kind timing table for the CLI.

    The ``peak`` column (max tracemalloc peak of any unit of the
    kind) appears only when at least one timing carries a nonzero
    measurement, so runs without ``track_memory`` render as before.
    """
    with_memory = any(t.peak_kb > 0.0 for t in timings)
    header = (f"{'kind':<12} {'units':>6} {'total':>9} "
              f"{'mean':>9} {'max':>9}")
    if with_memory:
        header += f" {'peak':>10}"
    lines = ["Unit timing (wall clock per executing process)", header]
    for row in timing_breakdown(timings):
        line = (f"{row['kind']:<12} {row['units']:>6} "
                f"{row['total_s']:>8.2f}s {row['mean_s']:>8.3f}s "
                f"{row['max_s']:>8.3f}s")
        if with_memory:
            line += f" {row['peak_kb']:>8.0f}kB"
        lines.append(line)
    total = sum(t.elapsed_s for t in timings)
    lines.append(f"{'all':<12} {len(timings):>6} {total:>8.2f}s")
    return "\n".join(lines)
