"""Differential tests: the Gilbert-Elliott chain walk against the
draw-by-draw walk it replaced.

``TimedGilbertElliottLoss`` walks its chain with an inlined loop and
resumes a chain's first walk from a process-wide checkpoint when an
identical chain already walked that far. Both must leave the verdicts,
the chain state and the rng state bit-identical to one
``random.expovariate`` call per sojourn, which ``ReferenceLoss``
keeps.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.netsim import loss
from repro.netsim.loss import TimedGilbertElliottLoss

DAY = 86_400.0

#: (mean_good_s, mean_bad_s, loss_bad) of the Starlink and GEO links.
CHANNELS = [(6.5, 0.025, 0.95), (30.0, 0.06, 0.9)]


class ReferenceLoss:
    """The chain as it was walked before: one draw per loop turn."""

    def __init__(self, mean_good_s, mean_bad_s, loss_good, loss_bad,
                 rng):
        self.mean_good_s = mean_good_s
        self.mean_bad_s = mean_bad_s
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = rng
        self._in_bad_state = False
        self._state_until = self._rng.expovariate(1.0 / mean_good_s)

    @property
    def in_bad_state(self):
        return self._in_bad_state

    def _advance(self, now):
        while now >= self._state_until:
            #: ``_state_until`` before the latest draw.
            self.last_until = self._state_until
            self._in_bad_state = not self._in_bad_state
            mean = (self.mean_bad_s if self._in_bad_state
                    else self.mean_good_s)
            self._state_until += self._rng.expovariate(1.0 / mean)

    def is_lost(self, now):
        self._advance(now)
        rate = self.loss_bad if self._in_bad_state else self.loss_good
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._rng.random() < rate


def pair(channel, loss_good, rng, ref_rng):
    mean_good, mean_bad, loss_bad = channel
    return (TimedGilbertElliottLoss(mean_good, mean_bad, loss_good,
                                    loss_bad, rng=rng),
            ReferenceLoss(mean_good, mean_bad, loss_good, loss_bad,
                          ref_rng))


def fade_start(channel, seed, after):
    """The first time at or after ``after`` inside a fade: a walk to it
    ends in the Bad state."""
    mean_good, mean_bad, loss_bad = channel
    probe = ReferenceLoss(mean_good, mean_bad, 0.0, loss_bad,
                          random.Random(seed))
    probe._advance(after)
    return after if probe.in_bad_state else probe._state_until


def trace(model, times):
    """Verdict and full chain state after each query."""
    return [(model.is_lost(t), model._state_until, model.in_bad_state,
             model._rng.getstate()) for t in times]


def only_checkpoint():
    (entry,) = loss._WALK_CHECKPOINTS.values()
    return entry


channels = st.sampled_from(CHANNELS)
loss_goods = st.sampled_from([0.0, 0.01])
seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: Offsets of the queries after a chain's first one: rising, repeated
#: and falling times, within and across fades.
steps = st.lists(st.one_of(st.just(0.0),
                           st.floats(min_value=-0.5, max_value=0.5),
                           st.floats(min_value=0.0, max_value=60.0)),
                 max_size=25)


def queries(first, offsets):
    times = [first]
    for offset in offsets:
        times.append(max(0.0, times[-1] + offset))
    return times


@settings(max_examples=40, deadline=None)
@given(channel=channels, loss_good=loss_goods, seed=seeds,
       first=st.floats(min_value=0.0, max_value=2 * DAY),
       in_fade=st.booleans(), offsets=steps)
def test_walk_matches_reference(channel, loss_good, seed, first,
                                in_fade, offsets):
    loss._WALK_CHECKPOINTS.clear()
    if in_fade:
        first = fade_start(channel, seed, first)
    model, ref = pair(channel, loss_good, random.Random(seed),
                      random.Random(seed))
    times = queries(first, offsets)
    assert trace(model, times) == trace(ref, times)


@settings(max_examples=40, deadline=None)
@given(channel=channels, loss_good=loss_goods, seed=seeds,
       first=st.floats(min_value=600.0, max_value=2 * DAY),
       in_fade=st.booleans(),
       relation=st.sampled_from(["later", "equal", "slightly earlier",
                                 "just before", "much earlier"]),
       fraction=st.floats(min_value=0.0, max_value=1.0), offsets=steps)
def test_twin_chain_resumes_exactly(channel, loss_good, seed, first,
                                    in_fade, relation, fraction, offsets):
    """A same-seed chain whose first target is at or after the
    checkpoint's ``valid_from`` resumes from it; one before it walks
    from t=0."""
    loss._WALK_CHECKPOINTS.clear()
    if in_fade:
        first = fade_start(channel, seed, first)
    model, ref = pair(channel, loss_good, random.Random(seed),
                      random.Random(seed))
    model.is_lost(first)
    ref.is_lost(first)
    checkpoint = only_checkpoint()
    valid_from = checkpoint[0]
    assert valid_from == ref.last_until
    target = {
        "later": first + fraction * DAY,
        "equal": first,
        "slightly earlier": valid_from + fraction * (first - valid_from),
        "just before": math.nextafter(valid_from, 0.0),
        "much earlier": fraction * valid_from,
    }[relation]
    twin, ref = pair(channel, loss_good, random.Random(seed),
                     random.Random(seed))
    times = queries(target, offsets)
    assert trace(twin, times) == trace(ref, times)
    if target >= valid_from:
        assert only_checkpoint() == checkpoint


@settings(max_examples=30, deadline=None)
@given(channel=channels, loss_good=loss_goods, seed=seeds,
       targets=st.lists(st.floats(min_value=600.0, max_value=DAY),
                        min_size=3, max_size=3))
def test_chains_sharing_one_rng(channel, loss_good, seed, targets):
    """Two chains on one rng: each walk starts from a state the other
    chain moved, so a lone chain with the same construction state must
    not resume from their checkpoints."""
    loss._WALK_CHECKPOINTS.clear()
    rng, ref_rng = random.Random(seed), random.Random(seed)
    a, ref_a = pair(channel, loss_good, rng, ref_rng)
    b, ref_b = pair(channel, loss_good, rng, ref_rng)
    t_a, t_b, t_lone = targets
    assert trace(a, [t_a]) == trace(ref_a, [t_a])
    assert trace(b, [t_b]) == trace(ref_b, [t_b])
    lone, ref_lone = pair(channel, loss_good, random.Random(seed),
                          random.Random(seed))
    assert trace(lone, [t_lone, t_lone + 1.0]) == trace(
        ref_lone, [t_lone, t_lone + 1.0])


@settings(max_examples=30, deadline=None)
@given(channel=channels, seed=seeds,
       first=st.floats(min_value=600.0, max_value=DAY))
def test_per_packet_draw_before_the_first_walk(channel, seed, first):
    """With ``0 < loss_good < 1`` a packet before the first transition
    draws from the rng, so that chain's first walk starts elsewhere
    than a same-seed chain's that walks at once."""
    loss._WALK_CHECKPOINTS.clear()
    for times in ([0.0, first], [first], [0.0, first]):
        model, ref = pair(channel, 0.01, random.Random(seed),
                          random.Random(seed))
        assert trace(model, times) == trace(ref, times)


class SkewedRandom(random.Random):
    """Draws as ``random.Random`` at first and differently after, so
    its state alone does not tell what a walk from it draws."""

    drawn = 0

    def random(self):
        self.drawn += 1
        value = super().random()
        return value if self.drawn == 1 else value / 2.0


def test_rng_subclass_bypasses_the_memo():
    loss._WALK_CHECKPOINTS.clear()
    mean_good, mean_bad, loss_bad = CHANNELS[0]
    TimedGilbertElliottLoss(mean_good, mean_bad, 0.0, loss_bad,
                            rng=random.Random(5)).is_lost(DAY)
    checkpoint = only_checkpoint()
    model, ref = pair(CHANNELS[0], 0.0, SkewedRandom(5), SkewedRandom(5))
    plain = TimedGilbertElliottLoss(mean_good, mean_bad, 0.0, loss_bad,
                                    rng=random.Random(5))
    # Its first walk would start from the plain chain's memo key.
    assert (model._state_until, model._rng.getstate()) == (
        plain._state_until, plain._rng.getstate())
    times = [DAY, DAY + 30.0]
    assert trace(model, times) == trace(ref, times)
    assert only_checkpoint() == checkpoint


def test_memo_stays_bounded():
    loss._WALK_CHECKPOINTS.clear()
    limit = loss._WALK_CHECKPOINT_LIMIT
    mean_good, mean_bad, loss_bad = CHANNELS[0]
    for seed in range(limit + 10):
        TimedGilbertElliottLoss(mean_good, mean_bad, 0.0, loss_bad,
                                rng=random.Random(seed)).is_lost(600.0)
        assert len(loss._WALK_CHECKPOINTS) <= limit
    assert len(loss._WALK_CHECKPOINTS) == limit
    # The latest chains' checkpoints survive: a twin of the last one
    # resumes without growing or reordering the memo.
    before = list(loss._WALK_CHECKPOINTS.items())
    model, ref = pair(CHANNELS[0], 0.0, random.Random(limit + 9),
                      random.Random(limit + 9))
    assert trace(model, [600.0]) == trace(ref, [600.0])
    assert list(loss._WALK_CHECKPOINTS.items()) == before
