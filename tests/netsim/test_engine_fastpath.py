"""Regression tests for the engine fast path.

Pins the behaviours the perf work leaned on: ``post()`` ordering and
validation, the ``pending_events`` / ``live_pending`` split, the exact
clock-clamp semantics of ``run(until=..., max_events=...)``, and lazy
heap compaction being a pure representation change (the surviving
events fire exactly as an analytic oracle says, including when the
compaction is triggered mid-run).
"""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.netsim.engine import Simulator
from repro.rng import make_rng

times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


# -- post(): fire-and-forget scheduling -------------------------------------


def test_post_interleaves_with_at_by_submission_order():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "at-0")
    sim.post(1.0, fired.append, "post-1")
    sim.at(1.0, fired.append, "at-2")
    sim.post(0.5, fired.append, "post-early")
    sim.run()
    assert fired == ["post-early", "at-0", "post-1", "at-2"]
    assert sim.events_processed == 4


def test_post_returns_no_handle():
    sim = Simulator()
    assert sim.post(1.0, lambda: None) is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_post_rejects_non_finite_time(bad):
    sim = Simulator()
    with pytest.raises(SimulationError, match="finite"):
        sim.post(bad, lambda: None)
    assert sim.pending_events == 0


def test_post_rejects_past_time():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError, match="already at"):
        sim.post(4.9, lambda: None)
    assert sim.pending_events == 0


def test_at_rejects_positive_infinity():
    # -inf and NaN were always caught; +inf used to pass the
    # "not in the past" guard on its own.
    sim = Simulator()
    with pytest.raises(SimulationError, match="finite"):
        sim.at(float("inf"), lambda: None)


@given(st.lists(st.tuples(st.booleans(), times), min_size=1, max_size=40))
def test_property_post_and_at_share_one_total_order(plan):
    """A mixed post/at schedule fires in (time, submission) order."""
    sim = Simulator()
    fired = []
    for i, (use_post, time) in enumerate(plan):
        if use_post:
            sim.post(time, fired.append, (time, i))
        else:
            sim.at(time, fired.append, (time, i))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(plan)


# -- pending_events vs live_pending (cancelled-event accounting) ------------


def test_live_pending_excludes_cancelled_events():
    sim = Simulator()
    events = [sim.schedule(1.0, lambda: None) for _ in range(3)]
    events[0].cancel()
    assert sim.pending_events == 3  # heap occupancy, cancelled included
    assert sim.live_pending == 2
    assert sim.stats["live_pending"] == 2
    sim.run()
    assert sim.pending_events == 0
    assert sim.live_pending == 0


def test_run_until_idle_bound_counts_only_live_events():
    """A cancelled backlog must not trip the non-convergence backstop."""
    sim = Simulator()
    live = [sim.schedule(0.1 * i, lambda: None) for i in range(5)]
    doomed = [sim.schedule(1.0, lambda: None) for _ in range(20)]
    for event in doomed:
        event.cancel()
    # Bound equals the live event count: only non-cancelled events may
    # consume it, and nothing pending afterwards means no error.
    sim.run_until_idle(max_events=len(live))
    assert sim.events_processed == len(live)


# -- run(until=..., max_events=...) clamp semantics -------------------------


def test_bound_with_live_work_left_keeps_clock_at_last_event():
    sim = Simulator()
    for t in (1.0, 2.0, 3.0):
        sim.at(t, lambda: None)
    sim.run(until=10.0, max_events=1)
    # Events at 2.0 and 3.0 still lie before ``until``: the clock must
    # not jump over them.
    assert sim.now == 1.0
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_bound_with_next_event_beyond_until_clamps_to_until():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.at(20.0, lambda: None)
    sim.run(until=10.0, max_events=1)
    assert sim.now == 10.0
    assert sim.live_pending == 1  # the t=20 event survived untouched


def test_bound_with_drained_heap_clamps_to_until():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.run(until=10.0, max_events=1)
    assert sim.now == 10.0


def test_bound_skips_cancelled_head_before_clamping():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None).cancel()
    sim.at(20.0, lambda: None)
    sim.run(until=10.0, max_events=1)
    # The cancelled t=2.0 entry is dead, so no live work remains
    # before ``until`` and the clock clamps.
    assert sim.now == 10.0


def test_cancelled_events_do_not_consume_the_bound():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(float(i), fired.append, i).cancel()
    sim.at(100.0, fired.append, "live")
    sim.run(max_events=1)
    assert fired == ["live"]


@given(st.lists(times, min_size=1, max_size=25),
       st.lists(st.tuples(times, st.integers(min_value=0, max_value=5)),
                min_size=1, max_size=10))
def test_property_bounded_until_runs_never_skip_live_work(delays, calls):
    """Random (until, max_events) sequences: monotonic clock, and the
    clock never passes an unexecuted live event."""
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, fired.append, delay)
    previous = sim.now
    for until, bound in calls:
        sim.run(until=until, max_events=bound)
        assert sim.now >= previous
        previous = sim.now
        unfired = Counter(delays) - Counter(fired)
        if unfired:
            assert sim.now <= min(unfired)
    sim.run()
    assert sorted(fired) == sorted(delays)


# -- lazy heap compaction is a pure representation change -------------------


def _oracle(times_: list[float], cancelled: set[int]):
    """What any correct heap does: the surviving events fire in
    (time, schedule-order) order, the clock ends on the last of them
    and only they count as processed."""
    survivors = sorted((t, i) for i, t in enumerate(times_)
                       if i not in cancelled)
    fired = [i for _, i in survivors]
    return fired, max((t for t, _ in survivors), default=0.0), len(fired)


def _cancel_run(times_: list[float], cancelled: set[int]):
    """Schedule ``times_``, cancel ``cancelled`` up-front, run to idle."""
    sim = Simulator()
    fired = []
    events = [sim.schedule(t, fired.append, i)
              for i, t in enumerate(times_)]
    for i in cancelled:
        events[i].cancel()
    sim.run()
    return (fired, sim.now, sim.events_processed), sim.compactions


def test_forced_compaction_is_transparent():
    times_ = [i * 1e-3 for i in range(200)]
    cancelled = set(make_rng(("compaction-program", 0)).sample(
        range(200), 150))
    outcome, compactions = _cancel_run(times_, cancelled)
    assert outcome == _oracle(times_, cancelled)
    assert compactions >= 1      # the sweep actually ran


def test_mid_run_compaction_keeps_heap_alias_valid():
    """Cancelling from inside a callback may compact the heap while
    ``run`` holds a local alias to it; the survivors must still fire."""
    sim = Simulator()
    fired = []
    victims = [sim.schedule(1.0 + i * 1e-3, fired.append, i)
               for i in range(100)]

    def cancel_most():
        for event in victims[10:]:
            event.cancel()

    sim.schedule(0.5, cancel_most)
    sim.run()
    assert fired == list(range(10))
    assert sim.compactions >= 1


@given(st.integers(min_value=0, max_value=1000), st.data())
def test_property_compaction_preserves_firing_order(seed, data):
    """Random schedule + random cancel set: the firing sequence, clock
    and processed-event count the oracle predicts, whether or not the
    cancellations trigger a compaction."""
    rng = make_rng(("compaction-prop", seed))
    n = 80 + rng.randrange(120)
    times_ = [rng.random() * 10.0 for _ in range(n)]
    # Anywhere from none to all cancelled, so that many examples cross
    # the half-heap threshold that triggers a compaction.
    cancel = set(rng.sample(range(n), data.draw(
        st.integers(min_value=0, max_value=n))))
    outcome, _ = _cancel_run(times_, cancel)
    assert outcome == _oracle(times_, cancel)
