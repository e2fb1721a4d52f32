"""Tests for the satellite scheduler and the channel processes."""

import pytest

from repro.errors import ConfigurationError
from repro.leo.channel import CapacityProcess, StarlinkChannel
from repro.leo.constellation import Constellation, WalkerShell
from repro.leo.ground import STARLINK_GATEWAYS, default_terminal
from repro.leo.scheduling import SLOT_DURATION, SatelliteScheduler
from repro.units import mbps, ms, to_ms


@pytest.fixture(scope="module")
def scheduler():
    return SatelliteScheduler(Constellation(), default_terminal(),
                              STARLINK_GATEWAYS, seed=3)


def test_snapshot_stable_within_slot(scheduler):
    slot_start = 7 * SLOT_DURATION
    snap_a = scheduler.snapshot(slot_start)
    snap_b = scheduler.snapshot(slot_start + SLOT_DURATION - 0.01)
    assert snap_a.sat_index == snap_b.sat_index
    assert snap_a is snap_b  # cached


def test_snapshot_deterministic_across_instances():
    a = SatelliteScheduler(Constellation(), default_terminal(),
                           STARLINK_GATEWAYS, seed=3)
    b = SatelliteScheduler(Constellation(), default_terminal(),
                           STARLINK_GATEWAYS, seed=3)
    for t in (0.0, 31.0, 1000.0):
        assert a.snapshot(t).sat_index == b.snapshot(t).sat_index
        assert a.snapshot(t).gateway.name == b.snapshot(t).gateway.name


def test_snapshot_changes_with_seed():
    a = SatelliteScheduler(Constellation(), default_terminal(),
                           STARLINK_GATEWAYS, seed=3)
    b = SatelliteScheduler(Constellation(), default_terminal(),
                           STARLINK_GATEWAYS, seed=4)
    picks_a = [a.snapshot(t * SLOT_DURATION).sat_index
               for t in range(30)]
    picks_b = [b.snapshot(t * SLOT_DURATION).sat_index
               for t in range(30)]
    assert picks_a != picks_b


def test_propagation_delay_in_leo_band(scheduler):
    for t in (0.0, 600.0, 7200.0):
        snap = scheduler.snapshot(t)
        # Bent pipe: two slant legs of 550-1300 km each.
        assert 3.0 <= to_ms(snap.one_way_propagation) <= 10.0
        assert snap.elevation_deg >= 25.0


def test_handovers_happen(scheduler):
    times = scheduler.handover_times(0.0, 1800.0)
    assert times, "no handover in 30 minutes is implausible"
    for t in times:
        assert t % SLOT_DURATION == pytest.approx(0.0)


def test_requires_gateways():
    with pytest.raises(ConfigurationError):
        SatelliteScheduler(Constellation(), default_terminal(), [])


# -- capacity processes -------------------------------------------------

def test_capacity_deterministic_and_query_order_independent():
    a = CapacityProcess(mbps(200), seed=5)
    b = CapacityProcess(mbps(200), seed=5)
    times = [0.0, 100.0, 3.3, 50.0, 0.0]
    assert [a.rate_at(t) for t in times] == \
        [b.rate_at(t) for t in reversed(times)][::-1]


def test_capacity_respects_bounds():
    proc = CapacityProcess(mbps(200), slot_cv=0.8, seed=1,
                           min_rate=mbps(50), max_rate=mbps(300))
    rates = [proc.rate_at(t * 3.7) for t in range(2000)]
    assert min(rates) >= mbps(50)
    assert max(rates) <= mbps(300)


def test_capacity_mean_near_target():
    proc = CapacityProcess(mbps(200), seed=2)
    rates = [proc.rate_at(t * 15.0) for t in range(3000)]
    mean = sum(rates) / len(rates)
    assert mean == pytest.approx(mbps(200), rel=0.1)


def test_capacity_varies_between_slots():
    proc = CapacityProcess(mbps(200), seed=2)
    rates = {proc.rate_at(t * 15.0) for t in range(50)}
    assert len(rates) > 10


def test_capacity_validation():
    with pytest.raises(ConfigurationError):
        CapacityProcess(0.0)
    with pytest.raises(ConfigurationError):
        CapacityProcess(mbps(100), fast_rho=1.0)


def test_channel_loss_models_are_fresh_instances():
    channel = StarlinkChannel(seed=1)
    a = channel.make_loss_model("down")
    b = channel.make_loss_model("down")
    assert a is not b
    with pytest.raises(ConfigurationError):
        channel.make_loss_model("sideways")


def test_channel_loss_rate_in_band():
    """Medium loss alone sits near the messages loss ratio (~0.4 %)."""
    channel = StarlinkChannel(seed=3)
    model = channel.make_loss_model("down")
    n = 60_000
    # 3 Mbit/s message stream: ~280 packets/s for ~3.5 minutes.
    losses = sum(model.is_lost(i / 280.0) for i in range(n))
    assert 0.0005 <= losses / n <= 0.03


def test_snapshot_cache_is_bounded_lru():
    """A one-terminal scheduler keeps exactly its last
    ``slot_cache_slots`` slots: a retained slot serves the very entry
    it computed, an evicted one is recomputed. It keeps 10,000 by
    default: the default 151-day campaign pings 7,248 distinct slots
    per anchor, walking them in order once per anchor, so a smaller
    LRU would miss on every lookup."""
    sched = SatelliteScheduler(Constellation(), default_terminal(),
                               STARLINK_GATEWAYS, seed=1)
    sched.fleet.slot_cache_slots = 6
    # One satellite: nearly every slot is unservable, and its error
    # is cached like a snapshot, so a 10,001-slot walk is cheap.
    sparse = SatelliteScheduler(
        Constellation(shells=[WalkerShell(planes=1, sats_per_plane=1,
                                          phasing=0)]),
        default_terminal(), STARLINK_GATEWAYS)
    for scheduler, bound in ((sched, 6), (sparse, 10_000)):
        def entry(slot):
            try:
                return scheduler.snapshot(slot * SLOT_DURATION)
            except ConfigurationError as exc:
                return exc

        first = [entry(slot) for slot in range(bound + 1)]
        assert all(entry(slot) is first[slot]
                   for slot in range(1, bound + 1))
        # LRU, not wholesale clear: the oldest slot was evicted and
        # comes back equal but recomputed.
        again = entry(0)
        assert again is not first[0]
        assert repr(again) == repr(first[0])


def test_outage_interval_index_matches_linear_scan():
    """Outages injected through a one-terminal scheduler index exactly
    the slots a linear scan of the windows finds, and steer its
    snapshots off the failed satellite."""
    sched = SatelliteScheduler(Constellation(), default_terminal(),
                               STARLINK_GATEWAYS, seed=1)
    picked = sched.snapshot(3 * SLOT_DURATION).sat_index
    sat_windows = [(picked, 2, 6), (8, 4, 9)]
    for window in sat_windows:
        sched.add_outage(*window)
    sched.add_gateway_outage(STARLINK_GATEWAYS[1].name, 3, 5)
    for slot in range(12):
        out_sats = frozenset(
            sat for sat, start, end in sat_windows if start <= slot < end)
        assert sched.fleet.out_sats_at(slot) == out_sats
        assert sched.fleet.out_gateways_at(slot) == (
            frozenset({1}) if 3 <= slot < 5 else frozenset())
        assert sched.snapshot(slot * SLOT_DURATION).sat_index \
            not in out_sats


def test_pathological_outage_window_falls_back_to_scan():
    from repro.leo.scheduling import (
        MAX_INDEXED_OUTAGE_SLOTS,
        build_outage_index,
    )

    huge = [(3, 0, MAX_INDEXED_OUTAGE_SLOTS + 1)]
    assert build_outage_index(huge) is None
    sched = SatelliteScheduler(Constellation(), default_terminal(),
                               STARLINK_GATEWAYS, seed=1)
    sched.add_outage(3, 0, MAX_INDEXED_OUTAGE_SLOTS + 1)
    # Membership still answers correctly through the linear scan.
    assert sched.fleet.out_sats_at(123_456) == frozenset({3})
    assert sched.fleet.out_sats_at(MAX_INDEXED_OUTAGE_SLOTS + 1) \
        == frozenset()
