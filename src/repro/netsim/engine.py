"""Discrete-event simulation engine.

The engine keeps a simulated clock and a binary heap of pending
events. Components schedule callbacks with :meth:`Simulator.schedule`
(relative delay) or :meth:`Simulator.at` (absolute time); the main loop
pops events in timestamp order and invokes them. Ties are broken by
insertion order so runs are fully deterministic.

Hot-path layout: heap entries are ``(time, seq, Event-or-None, fn,
args)`` tuples, so ``heapq`` orders them with C-level float/int
comparisons instead of calling :meth:`Event.__lt__` once per sift step
(``seq`` is unique, later elements are never compared). Entries
scheduled through :meth:`Simulator.post` carry ``None`` in the Event
slot: fire-and-forget work (packet deliveries, serialisation
finishes) never gets cancelled, so no handle object is allocated for
it. Cancelled events stay in the heap and are skipped when popped;
when they pile up past half the heap the heap is compacted in place,
so long campaigns with many cancelled retransmission timers stop
paying per-pop for dead entries. All representations pop live events
in the identical ``(time, seq)`` total order, which is what keeps
every trace digest bit-identical to the pre-fast-path engine.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

from repro.errors import SimulationError

#: Heaps smaller than this are never compacted (rebuild cost would
#: exceed the skip cost being avoided).
_COMPACT_MIN_HEAP = 64

# Module-level bindings for the scheduling hot path (skips one
# attribute lookup per call; ``at`` runs once per scheduled event).
_isfinite = math.isfinite
_heappush = heapq.heappush
_INF = float("inf")


class Event:
    """A scheduled callback. Returned by the scheduling methods.

    Call :meth:`cancel` to prevent a pending event from firing;
    cancelled events stay in the heap but are skipped when popped
    (and are swept out wholesale by lazy heap compaction).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int,
                 fn: Callable[..., Any], args: tuple, sim=None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Owning simulator while the event sits in its heap; cleared
        # when the event is popped so late cancels of already-fired
        # events do not skew the cancelled-in-heap accounting.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing. Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {self.fn!r} {state}>"


class Simulator:
    """Event loop with a simulated clock starting at ``start_time``.

    The clock unit is seconds. A single :class:`Simulator` instance
    drives one experiment; components hold a reference to it and use
    :meth:`now`, :meth:`schedule` and :meth:`at`.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        #: Heap of (time, seq, Event | None, fn, args); see module
        #: docstring.
        self._heap: list[tuple] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False
        #: Cancelled events still sitting in the heap.
        self._cancelled_in_heap = 0
        #: Observability counters (cheap; see :attr:`stats`).
        self.peak_heap = 0
        self.compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued, **including cancelled ones**.

        Cancelled events stay in the heap until popped or compacted
        away, so this is a measure of heap occupancy, not of remaining
        work; use :attr:`live_pending` for the latter.
        """
        return len(self._heap)

    @property
    def live_pending(self) -> int:
        """Number of queued events that will actually fire."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def stats(self) -> dict[str, int]:
        """Cheap engine counters for observability/benchmarks."""
        return {
            "events_processed": self._events_processed,
            "pending_events": len(self._heap),
            "live_pending": self.live_pending,
            "peak_heap": self.peak_heap,
            "compactions": self.compactions,
        }

    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not _isfinite(delay):
            # NaN compares False against everything, so without this
            # check a NaN delay slips past both guards and corrupts
            # the heap ordering silently.
            raise SimulationError(f"delay must be finite, got {delay}")
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        # Must go through self.at: invariant checkers shadow it per
        # instance to wrap every scheduled callback.
        return self.at(self._now + delay, fn, *args)

    def _reject_time(self, time: float) -> None:
        """Raise the right error for a time ``at``/``post`` rejected."""
        if not _isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        raise SimulationError(
            f"cannot schedule at {time}; clock already at {self._now}")

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        # One chained comparison covers every bad input: NaN fails the
        # first leg (NaN compares False to everything), past times
        # fail it too, and +inf fails the second.
        if not self._now <= time < _INF:
            self._reject_time(time)
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args, self)
        heap = self._heap
        _heappush(heap, (time, seq, event, fn, args))
        if len(heap) > self.peak_heap:
            self.peak_heap = len(heap)
        return event

    def post(self, time: float, fn: Callable[..., Any],
             *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute ``time``, fire-and-forget.

        Identical ordering semantics to :meth:`at` (same sequence
        counter, so interleaving with :meth:`at` events is preserved),
        but no :class:`Event` handle is created -- the call cannot be
        cancelled. Hot paths that never cancel (packet deliveries,
        link serialisation) use this to skip one object allocation
        per event.
        """
        if not self._now <= time < _INF:
            self._reject_time(time)
        self._seq = seq = self._seq + 1
        heap = self._heap
        _heappush(heap, (time, seq, None, fn, args))
        if len(heap) > self.peak_heap:
            self.peak_heap = len(heap)

    # -- cancelled-event bookkeeping ----------------------------------

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for an event still queued."""
        self._cancelled_in_heap += 1
        if (len(self._heap) >= _COMPACT_MIN_HEAP
                and self._cancelled_in_heap * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, **in place**.

        In-place (slice assignment) so the local heap aliases held by
        a running :meth:`run` loop stay valid when a callback's cancel
        triggers compaction mid-run. Live entries keep their
        ``(time, seq)`` keys, so the pop order of surviving events is
        untouched -- this is a pure representation change.
        """
        heap = self._heap
        live = [entry for entry in heap
                if entry[2] is None or not entry[2].cancelled]
        heap[:] = live
        heapq.heapify(heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    def _discard_cancelled_head(self) -> None:
        """Pop the cancelled event at the heap top."""
        event = heapq.heappop(self._heap)[2]
        self._cancelled_in_heap -= 1
        event._sim = None

    def _next_live_time(self) -> float | None:
        """Timestamp of the next event that will fire, if any."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is None or not event.cancelled:
                break
            self._discard_cancelled_head()
        return heap[0][0] if heap else None

    # -- execution -----------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event. Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _, event, fn, args = heapq.heappop(heap)
            if event is not None:
                if event.cancelled:
                    self._cancelled_in_heap -= 1
                    event._sim = None
                    continue
                event._sim = None
            self._now = time
            self._events_processed += 1
            fn(*args)
            return True
        return False

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have executed.

        ``until`` is an absolute simulated time; the clock is advanced
        to exactly ``until`` when no runnable work at or before
        ``until`` remains -- on a normal drain, when the next live
        event lies beyond ``until``, and also when the ``max_events``
        bound fires with nothing left to run before ``until``. When
        the bound fires while live events at or before ``until``
        remain, the clock stays at the last executed event so those
        events cannot be jumped over (repeated ``run`` calls always
        see a monotonic clock either way).
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        # Hot loop: hoist bound methods and the heap list; ~25% of a
        # packet-level workload's wall clock is spent right here.
        # Pop-first: the common case executes the popped entry, and
        # the rare beyond-``until`` entry is pushed back unchanged
        # (same (time, seq) key, so subsequent pop order is
        # untouched) -- cheaper than peeking every iteration.
        heap = self._heap
        heappop = heapq.heappop
        bounded = max_events is not None
        executed = 0
        try:
            while heap:
                if bounded and executed >= max_events:
                    if until is not None and until > self._now:
                        nxt = self._next_live_time()
                        if nxt is None or nxt > until:
                            self._now = until
                    return
                entry = heappop(heap)
                event = entry[2]
                if event is not None and event.cancelled:
                    self._cancelled_in_heap -= 1
                    event._sim = None
                    continue
                time = entry[0]
                if until is not None and time > until:
                    # Push the entry back untouched (the Event, if
                    # any, is still owned by the heap).
                    _heappush(heap, entry)
                    # Clamp, never rewind: run(until=past) must leave
                    # the clock monotonic.
                    if until > self._now:
                        self._now = until
                    return
                if event is not None:
                    event._sim = None
                self._now = time
                self._events_processed += 1
                entry[3](*entry[4])
                executed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        """Drain the event heap completely (bounded by ``max_events``).

        ``max_events`` bounds *this call*, not the simulator's
        lifetime total, so earlier :meth:`run` calls cannot make the
        non-convergence backstop fire spuriously (or mask it).
        """
        before = self._events_processed
        self.run(max_events=max_events)
        if self.live_pending:
            # The bound is a runaway-loop backstop, not a normal exit:
            # pending work can only remain if this call hit the bound.
            executed = self._events_processed - before
            raise SimulationError(
                f"simulation did not converge in {executed} events "
                f"(bound {max_events})")
