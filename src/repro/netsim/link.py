"""Links: serialisation, propagation, queueing and medium loss.

A :class:`Pipe` is one direction of a link. It models

* a finite transmission rate (serialisation delay, one packet at a
  time, FIFO queue while busy),
* a propagation delay, either fixed or time-varying (the Starlink
  path length changes with every satellite handover),
* a medium-loss process applied at transmission time.

A :class:`Link` bundles the two directions between two nodes.

Packet trains (fast path): bulk flows serialise thousands of
back-to-back packets through a busy pipe, costing one
``_finish_transmission`` event each. When it is provably equivalent,
the pipe instead drains the queue in one pass, computing every
serialisation finish time iteratively (``t_i = t_{i-1} +
size_i*8/rate(t_{i-1})``, exactly the floats the per-packet path
produces), evaluating loss and propagation at those times, scheduling
each delivery directly, and posting a single train-completion event.

Fast dispatch (same eligibility gate): when an eligible pipe is idle,
``send`` folds serialisation and launch into one step -- the delivery
is posted directly at ``finish + delay`` and the pipe remembers it is
occupied via the ``_busy_until`` timestamp instead of carrying a
``_finish_transmission`` event per packet. The finish event's only
jobs were to launch the packet and resume the queue; the launch
arithmetic is reproduced bit-for-bit here, and a ``_drain`` event is
scheduled at ``_busy_until`` lazily, only when a later send actually
queues behind the in-flight packet. An idle->transmit->idle cycle
therefore costs one engine event (the delivery) instead of two.
Per-packet delivery timestamps are bit-identical because every
time-dependent callable (rate, delay, loss) takes an explicit time
argument and any random state involved is owned by this pipe alone.

Bounded (drop-tail) queues take the train path too, with *phantom
occupancy*: the drained packets are only peeked at, and the actual
queue departures are applied lazily at the exact per-packet pop times
(head at train start, then each serialisation finish), so any push
arriving mid-train sees precisely the occupancy -- and hence makes
precisely the drop decision -- the per-packet path would have
produced.

The train path is skipped whenever equivalence cannot be guaranteed:
AQM queues (CoDel's pop-time drop decisions depend on when pops
happen), attached trace hooks (record interleaving would change), or
invariant checkers watching the pipe or queue (they observe the
per-packet methods). The per-packet path is therefore always there as
the reference: under :func:`repro.testing.invariants.global_checking`
every pipe is watched and takes it. Two caveats are inherent:

* ``set_rate``/``set_delay`` calls landing *mid-train* (or while a
  fast-dispatched packet is in flight) only apply from the next
  dispatch onward, whereas the per-packet path would apply them at
  the next packet -- mutating a hook-free pipe mid-flight while
  packets are being serialised is outside the fast path's contract.
* When a push to a *bounded* queue lands at the float-exact instant
  of a serialisation finish, the per-packet path breaks the tie by
  event sequence number (whichever of the finish event and the
  pushing event was scheduled first pops/pushes first), while the
  collapsed path applies the departure before the push. The drop
  decision for that one packet can then differ. Such collisions
  require bit-exact float equality between a cumulative
  serialisation sum and an externally chosen timestamp -- they occur
  with hand-picked decimal-aligned rates, sizes and send times, not
  with measured or RNG-derived campaign parameters. Workloads that
  need exact-tie semantics on bounded queues must keep the pipe on
  the per-packet path, e.g. by attaching an ``on_transmit`` hook.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable

from repro.errors import ConfigurationError
from repro.netsim.engine import Simulator
from repro.netsim.loss import LossModel, NoLoss
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue

#: Maximum packets drained per train; bounds the burst of deliveries
#: scheduled from a single event (heap growth stays modest and a
#: long backlog still re-checks eligibility between trains). The
#: value changes only event bookkeeping, never packet timestamps --
#: a bufferbloated bottleneck queue holds thousands of packets, so a
#: larger train amortises the per-train overhead further.
_TRAIN_MAX = 256

#: Watched objects (see the ``_repro_invariants_watched`` class
#: attributes below and repro.testing.invariants) must stay on the
#: per-packet path so every event goes through the shadowed methods.


class Pipe:
    """One direction of a link, from ``src`` node to ``dst`` node.

    Args:
        sim: the driving simulator.
        dst: destination node (must expose ``receive(packet, pipe)``).
        rate: transmission rate in bit/s, a callable
            ``rate(now) -> bit/s`` for time-varying capacity (the
            Starlink service link), or None for infinite.
        delay: propagation delay in seconds, or a callable
            ``delay(now) -> seconds`` for time-varying paths.
        queue: egress queue; an unbounded DropTailQueue by default.
        loss: medium loss process applied per transmitted packet.
        name: label used in traces and diagnostics.
    """

    #: Overwritten (with an instance attribute) by an invariant
    #: checker watching this pipe; the class-level default makes the
    #: hot-path eligibility test a plain attribute load.
    _repro_invariants_watched = False

    def __init__(self, sim: Simulator, dst,
                 rate: float | Callable[[float], float] | None = None,
                 delay: float | Callable[[float], float] = 0.0,
                 queue: DropTailQueue | None = None,
                 loss: LossModel | None = None,
                 name: str = ""):
        if rate is not None and not callable(rate) and rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        self.sim = sim
        self.dst = dst
        self._rate = rate
        self._rate_call = callable(rate)
        self._delay = delay
        self._delay_call = callable(delay)
        # Explicit None check: an empty DropTailQueue is falsy (len 0).
        self.queue = queue if queue is not None else DropTailQueue()
        if getattr(self.queue, "clock", "absent") is None:
            # AQM queues (CoDel) need the simulated clock for
            # sojourn-time measurements.
            self.queue.clock = lambda: self.sim.now
        self.loss = loss or NoLoss()
        self.name = name
        self._busy = False
        # Fast-dispatch occupancy: serialiser busy until this time
        # (authoritative only while no finish/train event is pending,
        # i.e. while ``_busy`` is False); ``_drain_pending`` is True
        # when a ``_drain`` event is scheduled at ``_busy_until``.
        self._busy_until = float("-inf")
        self._drain_pending = False
        self._last_delivery_time = float("-inf")
        # Pending lazy queue departures of an in-flight train on a
        # bounded queue: sorted pop times, applied up to ``now`` by
        # _apply_releases before any occupancy-sensitive operation.
        self._train_releases: list[float] = []
        self._train_release_i = 0
        # statistics
        self.sent = 0
        self.delivered = 0
        self.lost_medium = 0
        self.bytes_delivered = 0
        # trace hooks
        self.on_transmit: Callable[[float, Packet], None] | None = None
        self.on_deliver: Callable[[float, Packet], None] | None = None
        self.on_loss: Callable[[float, Packet, str], None] | None = None

    @property
    def rate(self) -> float | None:
        """Transmission rate now, bit/s (None = infinite)."""
        if self._rate_call:
            return self._rate(self.sim.now)
        return self._rate

    def set_rate(self,
                 rate: float | Callable[[float], float] | None) -> None:
        """Change the link rate (static value or callable)."""
        if rate is not None and not callable(rate) and rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        self._rate = rate
        self._rate_call = callable(rate)

    def propagation_delay(self, now: float) -> float:
        """Propagation delay that applies to a packet sent at ``now``."""
        if self._delay_call:
            return self._delay(now)
        return self._delay

    def set_delay(self, delay: float | Callable[[float], float]) -> None:
        """Replace the propagation-delay model."""
        self._delay = delay
        self._delay_call = callable(delay)

    def send(self, packet: Packet) -> None:
        """Entry point: enqueue ``packet`` for transmission."""
        self.sent += 1
        rate = self._rate
        if rate is None:
            # Infinite-rate pipe: no serialisation, no queueing.
            self._launch(packet)
            return
        sim = self.sim
        # Occupied if a finish/train event is in flight (_busy), a
        # fast-dispatched packet is still serialising (_busy_until),
        # or earlier packets await the drain event firing right now.
        if (self._busy or sim._now < self._busy_until
                or self._drain_pending):
            if self._train_release_i < len(self._train_releases):
                self._apply_releases(sim._now)
            if self.queue.push(packet):
                if not self._busy and not self._drain_pending:
                    self._drain_pending = True
                    sim.post(self._busy_until, self._drain)
            elif self.on_loss is not None:
                self.on_loss(sim.now, packet, "queue-drop")
            return
        # Idle serialiser, queue empty. Fast dispatch, inlined: the
        # eligibility test and _fast_start body are spelled out here
        # because this is the single hottest call path in the
        # simulator -- see _fast_start for the equivalence argument.
        if (self.on_transmit is None and self.on_deliver is None
                and self.on_loss is None
                and type(self.queue) is DropTailQueue
                and not self._repro_invariants_watched
                and not self.queue._repro_invariants_watched):
            t = sim._now
            if self._rate_call:
                rate = rate(t)
            t = t + packet.size * 8.0 / rate
            self._busy_until = t
            if self.loss.is_lost(t):
                self.lost_medium += 1
                return
            delay = self._delay
            if self._delay_call:
                delay = delay(t)
            target = t + delay
            if target < self._last_delivery_time:
                target = self._last_delivery_time
            self._last_delivery_time = target
            sim.post(target, self._deliver, packet)
            return
        self._start_transmission(packet)

    def _dispatch(self, packet: Packet) -> None:
        """Start serialising ``packet`` on an idle serialiser."""
        if self._train_eligible():
            # Fast dispatch: no finish event. Delivery is posted
            # directly; occupancy lives in the _busy_until timestamp
            # and the queue is resumed by a lazily scheduled _drain.
            self._busy = False
            until = self._fast_start(packet)
            self._busy_until = until
            if self.queue._queue and not self._drain_pending:
                self._drain_pending = True
                self.sim.post(until, self._drain)
            return
        self._start_transmission(packet)

    def _fast_start(self, packet: Packet) -> float:
        """Serialise + launch in one step; returns the finish time.

        Reproduces ``_start_transmission`` followed by ``_launch`` at
        the finish time, float for float: the finish is the identical
        ``now + size*8/rate(now)``, and loss/delay are evaluated with
        that finish time exactly as the finish event would have.
        Hooks are absent by eligibility, so no hook calls are skipped.
        """
        sim = self.sim
        t = sim._now
        rate = self._rate
        if self._rate_call:
            rate = rate(t)
        t = t + packet.size * 8.0 / rate
        if self.loss.is_lost(t):
            self.lost_medium += 1
            return t
        delay = self._delay
        if self._delay_call:
            delay = delay(t)
        target = t + delay
        if target < self._last_delivery_time:
            target = self._last_delivery_time
        self._last_delivery_time = target
        sim.post(target, self._deliver, packet)
        return t

    def _drain(self) -> None:
        """Resume the queue when a fast-dispatched packet finishes."""
        self._drain_pending = False
        if len(self.queue._queue) >= 2 and self._train_eligible():
            self._busy = True
            self._run_train()
            return
        next_packet = self.queue.pop()
        if next_packet is not None:
            self._dispatch(next_packet)

    def _start_transmission(self, packet: Packet) -> None:
        self._busy = True
        sim = self.sim
        rate = self._rate
        if self._rate_call:
            rate = rate(sim._now)
        # sim.post rather than sim.schedule: the finish time is the
        # identical ``now + size*8/rate`` float, rate/size are
        # validated positive so schedule()'s finiteness guards are
        # redundant, finish events are never cancelled (no handle
        # needed), and invariant checkers shadow ``post`` too.
        sim.post(sim._now + packet.size * 8.0 / rate,
                 self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self._launch(packet)
        if len(self.queue._queue) >= 2 and self._train_eligible():
            self._run_train()
            return
        next_packet = self.queue.pop()
        if next_packet is not None:
            self._dispatch(next_packet)
        else:
            self._busy = False

    def _train_eligible(self) -> bool:
        """Whether the event-collapsing fast paths are digest-safe.

        Gates both packet trains and fast dispatch: the conditions
        (no hooks, plain drop-tail queue, nothing watched) are exactly
        those under which collapsing per-packet events cannot change
        observable behaviour.
        """
        if (self.on_transmit is not None or self.on_deliver is not None
                or self.on_loss is not None):
            return False
        # Exactly DropTailQueue (not CoDel or other subclasses): AQM
        # drop decisions depend on when pops happen. Bounded drop-tail
        # queues are fine -- the train applies departures lazily at
        # the per-packet pop times (phantom occupancy).
        if type(self.queue) is not DropTailQueue:
            return False
        if (self._repro_invariants_watched
                or self.queue._repro_invariants_watched):
            return False
        return True

    def _run_train(self) -> None:
        """Serialise up to ``_TRAIN_MAX`` queued packets in one pass.

        Reproduces the per-packet path's arithmetic step for step --
        same float operations in the same order -- so serialisation
        finish times, loss decisions and delivery timestamps are
        bit-identical; only the number of engine events differs.

        On a bounded queue the packets are peeked, not popped: the
        per-packet path pops the head at the train's start time and
        each subsequent packet at the previous packet's serialisation
        finish, so those exact departure times are recorded and
        applied lazily (_apply_releases) before any push can observe
        the occupancy.
        """
        sim = self.sim
        post = sim.post
        queue = self.queue
        rate = self._rate
        rate_fn = rate if self._rate_call else None
        delay = self._delay
        delay_fn = delay if self._delay_call else None
        is_lost = self.loss.is_lost
        deliver = self._deliver
        t = sim._now
        last = self._last_delivery_time
        if (queue.capacity_bytes is not None
                or queue.capacity_packets is not None):
            dq = queue._queue
            packets = list(islice(dq, min(len(dq), _TRAIN_MAX)))
            self._train_releases = releases = [t]
            self._train_release_i = 0
            final = len(packets) - 1
            for i, packet in enumerate(packets):
                r = rate_fn(t) if rate_fn is not None else rate
                t = t + packet.size * 8.0 / r
                if i < final:
                    releases.append(t)
                # _launch(packet) as of time t:
                if is_lost(t):
                    self.lost_medium += 1
                    continue
                target = t + (delay_fn(t) if delay_fn is not None
                              else delay)
                if target < last:
                    target = last
                last = target
                post(target, deliver, packet)
            self._last_delivery_time = last
            self._apply_releases(sim._now)  # head departs at train start
            post(t, self._finish_train)
            return
        pop = queue.pop
        for _ in range(min(len(queue._queue), _TRAIN_MAX)):
            packet = pop()
            r = rate_fn(t) if rate_fn is not None else rate
            t = t + packet.size * 8.0 / r
            # _launch(packet) as of time t:
            if is_lost(t):
                self.lost_medium += 1
                continue
            target = t + (delay_fn(t) if delay_fn is not None else delay)
            if target < last:
                target = last
            last = target
            post(target, deliver, packet)
        self._last_delivery_time = last
        post(t, self._finish_train)

    def _apply_releases(self, now: float) -> None:
        """Apply pending lazy queue departures due at or before ``now``."""
        releases = self._train_releases
        i = self._train_release_i
        n = len(releases)
        pop = self.queue.pop
        while i < n and releases[i] <= now:
            pop()
            i += 1
        self._train_release_i = i

    def _finish_train(self) -> None:
        """Train completion: resume with whatever queued meanwhile."""
        if self._train_release_i < len(self._train_releases):
            self._apply_releases(self.sim._now)
        next_packet = self.queue.pop()
        if next_packet is not None:
            self._dispatch(next_packet)
        else:
            self._busy = False

    def _launch(self, packet: Packet) -> None:
        """Apply medium loss, then schedule delivery after propagation."""
        sim = self.sim
        now = sim._now
        if self.on_transmit is not None:
            self.on_transmit(now, packet)
        if self.loss.is_lost(now):
            self.lost_medium += 1
            if self.on_loss is not None:
                self.on_loss(now, packet, "medium")
            return
        # FIFO guarantee: random per-packet delay components (jitter)
        # must not reorder packets -- real link-layer schedulers delay
        # but do not overtake. Later packets queue behind the slowest
        # recent delivery.
        delay = self._delay
        if self._delay_call:
            delay = delay(now)
        target = now + delay
        if target < self._last_delivery_time:
            target = self._last_delivery_time
        self._last_delivery_time = target
        sim.post(target, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        self.delivered += 1
        self.bytes_delivered += packet.size
        if self.on_deliver is not None:
            self.on_deliver(self.sim.now, packet)
        self.dst.receive(packet, self)

    def __repr__(self) -> str:
        return f"<Pipe {self.name or id(self)} -> {self.dst!r}>"


class Link:
    """Bidirectional link between nodes ``a`` and ``b``.

    Each direction is an independent :class:`Pipe`; asymmetric rates
    (e.g. Starlink's ~200/17 Mbit/s) are expressed by passing
    different ``rate_ab`` and ``rate_ba``.
    """

    def __init__(self, sim: Simulator, a, b,
                 rate_ab: float | None = None,
                 rate_ba: float | None = None,
                 delay: float | Callable[[float], float] = 0.0,
                 delay_ba: float | Callable[[float], float] | None = None,
                 queue_ab: DropTailQueue | None = None,
                 queue_ba: DropTailQueue | None = None,
                 loss_ab: LossModel | None = None,
                 loss_ba: LossModel | None = None,
                 name: str = ""):
        self.a = a
        self.b = b
        self.name = name or f"{a.name}<->{b.name}"
        self.pipe_ab = Pipe(sim, b, rate=rate_ab, delay=delay,
                            queue=queue_ab, loss=loss_ab,
                            name=f"{a.name}->{b.name}")
        self.pipe_ba = Pipe(sim, a, rate=rate_ba,
                            delay=delay if delay_ba is None else delay_ba,
                            queue=queue_ba, loss=loss_ba,
                            name=f"{b.name}->{a.name}")
        a.attach(b.name, self.pipe_ab)
        b.attach(a.name, self.pipe_ba)

    def pipe_from(self, node) -> Pipe:
        """The egress pipe as seen from ``node``."""
        if node is self.a:
            return self.pipe_ab
        if node is self.b:
            return self.pipe_ba
        raise ConfigurationError(f"{node!r} is not an endpoint of {self!r}")

    def __repr__(self) -> str:
        return f"<Link {self.name}>"
