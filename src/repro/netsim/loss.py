"""Packet-loss processes for simulated links.

Two physically distinct loss mechanisms matter in the paper:

* congestion loss, which is *not* modelled here -- it emerges from
  finite queues in :mod:`repro.netsim.queues`;
* medium loss (radio imperfections, micro-outages), modelled by the
  processes in this module and attached to the satellite links.

All processes are deterministic given their ``random.Random`` seed, so
experiments are reproducible.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import OrderedDict
from typing import Protocol as TypingProtocol

from repro.errors import ConfigurationError
from repro.intervals import IntervalIndex


class LossModel(TypingProtocol):
    """Interface: decide whether a packet sent at ``now`` is lost."""

    def is_lost(self, now: float) -> bool:  # pragma: no cover - protocol
        ...


class NoLoss:
    """Never drops anything. The default for every link."""

    def is_lost(self, now: float) -> bool:
        return False


class BernoulliLoss:
    """Independent per-packet loss with fixed probability."""

    def __init__(self, probability: float, rng: random.Random | None = None):
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0,1], got {probability}")
        self.probability = probability
        self._rng = rng or random.Random(0)

    def is_lost(self, now: float) -> bool:
        return self._rng.random() < self.probability


class GilbertElliottLoss:
    """Two-state bursty loss channel.

    The channel is in a Good or Bad state; transitions occur per
    packet with probabilities ``p_good_to_bad`` and ``p_bad_to_good``.
    Packets are lost with ``loss_good`` (usually 0) in the Good state
    and ``loss_bad`` (usually near 1) in the Bad state. This produces
    the rare-but-long loss bursts the paper attributes to the medium
    (Fig. 4b): mean burst length ~ 1 / p_bad_to_good.
    """

    def __init__(self, p_good_to_bad: float, p_bad_to_good: float,
                 loss_good: float = 0.0, loss_bad: float = 1.0,
                 rng: random.Random | None = None):
        for name, p in (("p_good_to_bad", p_good_to_bad),
                        ("p_bad_to_good", p_bad_to_good),
                        ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0,1], got {p}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = rng or random.Random(0)
        self._in_bad_state = False

    @property
    def in_bad_state(self) -> bool:
        """Whether the channel is currently in the Bad state."""
        return self._in_bad_state

    def stationary_loss_rate(self) -> float:
        """Long-run average loss probability of the channel."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0:
            return self.loss_bad if self._in_bad_state else self.loss_good
        pi_bad = self.p_good_to_bad / denom
        return pi_bad * self.loss_bad + (1 - pi_bad) * self.loss_good

    def is_lost(self, now: float) -> bool:
        if self._in_bad_state:
            if self._rng.random() < self.p_bad_to_good:
                self._in_bad_state = False
        else:
            if self._rng.random() < self.p_good_to_bad:
                self._in_bad_state = True
        rate = self.loss_bad if self._in_bad_state else self.loss_good
        return self._rng.random() < rate


#: Checkpoints of first walks, most recently used last: walk start
#: ``(mean_good_s, mean_bad_s, until, bad, rng state)`` ->
#: ``(valid_from, until, bad, rng state)`` after the walk. About
#: 5 KiB an entry.
_WALK_CHECKPOINTS: OrderedDict = OrderedDict()
_WALK_CHECKPOINT_LIMIT = 64


def _packed_state(rng: random.Random) -> tuple:
    """``rng.getstate()`` with its 625 state words packed as bytes."""
    version, words, gauss_next = rng.getstate()
    return version, array("I", words).tobytes(), gauss_next


def _unpacked_state(packed: tuple) -> tuple:
    version, words, gauss_next = packed
    return version, tuple(array("I", words)), gauss_next


class TimedGilbertElliottLoss:
    """Gilbert-Elliott channel whose states live in continuous *time*.

    Radio impairments occupy time windows, not packet counts: a 25 ms
    fade costs a 3 Mbit/s message stream a handful of packets but a
    130 Mbit/s bulk transfer hundreds. Modelling the sojourn times
    (exponential with means ``mean_good_s`` / ``mean_bad_s``) rather
    than per-packet transition probabilities reproduces exactly that
    rate dependence (paper Sec. 3.2).

    The chain starts in Good at t=0, so the first packet of a unit at
    a late campaign epoch walks it through millions of sojourns. That
    first walk is memoised process-wide (:data:`_WALK_CHECKPOINTS`):
    a chain whose walk starts from the same means, state and
    ``random.Random`` state (the down and up units of one epoch build
    such twins) resumes from the checkpoint instead. Both paths make
    the same draws in the same order, so verdicts, chain state and
    the rng state stay bit-identical to walking draw by draw.
    """

    def __init__(self, mean_good_s: float, mean_bad_s: float,
                 loss_good: float = 0.0, loss_bad: float = 1.0,
                 rng: random.Random | None = None):
        if mean_good_s <= 0 or mean_bad_s <= 0:
            raise ConfigurationError("state sojourn means must be positive")
        for name, p in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0,1], got {p}")
        self.mean_good_s = mean_good_s
        self.mean_bad_s = mean_bad_s
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = rng or random.Random(0)
        self._in_bad_state = False
        self._state_until = self._rng.expovariate(1.0 / mean_good_s)
        # A subclass may override random(), which the checkpoint's
        # rng state does not capture.
        self._memoise_walk = type(self._rng) is random.Random

    @property
    def in_bad_state(self) -> bool:
        """Whether the channel is currently in the Bad state."""
        return self._in_bad_state

    def fraction_bad(self) -> float:
        """Long-run fraction of time spent in the Bad state."""
        return self.mean_bad_s / (self.mean_good_s + self.mean_bad_s)

    def _walk(self, now: float) -> float:
        """Advance the chain past ``now``; return ``_state_until`` as
        it was before the last draw.

        Each draw is ``random.expovariate(1.0 / mean)`` inlined. That
        adds ``-log(1.0 - r) / lam`` to ``until``; subtracting
        ``log(1.0 - r) / lam`` gives the same float, because IEEE 754
        negation is exact and rounding is symmetric in sign.
        """
        rnd = self._rng.random
        log = math.log
        lam_good = 1.0 / self.mean_good_s
        lam_bad = 1.0 / self.mean_bad_s
        until = last = self._state_until
        bad = self._in_bad_state
        if bad and now >= until:
            until -= log(1.0 - rnd()) / lam_good
            bad = False
        # In Good until ``until``: a Bad sojourn, then a Good one.
        while now >= until:
            mid = until - log(1.0 - rnd()) / lam_bad
            if not now >= mid:
                last, until, bad = until, mid, True
                break
            last = mid
            until = mid - log(1.0 - rnd()) / lam_good
        self._state_until = until
        self._in_bad_state = bad
        return last

    def _walk_from_checkpoint(self, now: float) -> None:
        rng = self._rng
        key = (self.mean_good_s, self.mean_bad_s, self._state_until,
               self._in_bad_state, _packed_state(rng))
        hit = _WALK_CHECKPOINTS.get(key)
        if hit is not None and now >= hit[0]:
            # Any walk from ``key`` to ``now >= valid_from`` makes
            # every draw up to the checkpoint.
            _WALK_CHECKPOINTS.move_to_end(key)
            _, self._state_until, self._in_bad_state, state = hit
            rng.setstate(_unpacked_state(state))
            self._walk(now)
            return
        valid_from = self._walk(now)
        _WALK_CHECKPOINTS[key] = (valid_from, self._state_until,
                                  self._in_bad_state, _packed_state(rng))
        _WALK_CHECKPOINTS.move_to_end(key)
        if len(_WALK_CHECKPOINTS) > _WALK_CHECKPOINT_LIMIT:
            _WALK_CHECKPOINTS.popitem(last=False)

    def is_lost(self, now: float) -> bool:
        if now >= self._state_until:
            if self._memoise_walk:
                # Only the first walk is long; later ones start from
                # states that per-packet loss draws have moved.
                self._memoise_walk = False
                self._walk_from_checkpoint(now)
            else:
                self._walk(now)
        rate = self.loss_bad if self._in_bad_state else self.loss_good
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._rng.random() < rate


class OutageSchedule:
    """Loses everything during scheduled connectivity gaps.

    Models the paper's ">1 second" loss events (satellite handover
    failures, obstruction sweeps). ``outages`` is a list of
    ``(start_time, duration)`` pairs in simulated seconds.
    """

    def __init__(self, outages: list[tuple[float, float]]):
        for start, duration in outages:
            if duration < 0:
                raise ConfigurationError(
                    f"outage duration must be >= 0, got {duration}")
        self.outages = sorted(outages)
        self._index = IntervalIndex(
            (start, start + duration) for start, duration in self.outages)

    @classmethod
    def poisson(cls, horizon: float, rate_per_hour: float,
                mean_duration: float,
                rng: random.Random | None = None) -> "OutageSchedule":
        """Random outages: Poisson arrivals, exponential durations."""
        rng = rng or random.Random(0)
        outages = []
        t = 0.0
        mean_gap = 3600.0 / rate_per_hour if rate_per_hour > 0 else None
        if mean_gap is not None:
            while True:
                t += rng.expovariate(1.0 / mean_gap)
                if t >= horizon:
                    break
                outages.append((t, rng.expovariate(1.0 / mean_duration)))
        return cls(outages)

    def in_outage(self, now: float) -> bool:
        """Whether ``now`` falls inside any scheduled outage."""
        return self._index.covers(now)

    def is_lost(self, now: float) -> bool:
        return self.in_outage(now)


class UnservedLoss:
    """Loses everything while the access has no servable path.

    The mobility counterpart of :class:`OutageSchedule`: instead of a
    precomputed window list, ``probe(now)`` asks the scheduler whether
    the slot under ``now`` is unservable (full-sky obstruction, or
    churn that left no satellite/gateway pair) — so drive-through
    outages emerge from geometry at packet granularity. Draws no
    randomness, leaving sibling loss models' RNG streams untouched.
    """

    def __init__(self, probe):
        self._probe = probe

    def is_lost(self, now: float) -> bool:
        return bool(self._probe(now))


class CompositeLoss:
    """Union of several loss processes (lost if *any* model drops)."""

    def __init__(self, models: list):
        self.models = list(models)

    def is_lost(self, now: float) -> bool:
        # Evaluate all models so stateful ones (Gilbert-Elliott)
        # advance their chains regardless of earlier verdicts.
        lost = False
        for model in self.models:
            if model.is_lost(now):
                lost = True
        return lost
