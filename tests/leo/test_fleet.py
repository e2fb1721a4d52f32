"""Unit tests for the fleet scheduling layer and its caches."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.leo.access import StarlinkPathModel
from repro.leo.constellation import Constellation
from repro.leo.fleet import (
    FleetScheduler,
    FleetSpec,
    build_fleet_terminals,
    fleet_seeds,
)
from repro.leo.geometry import (GeoPoint, elevation_angle, slant_range,
                                unit_up)
from repro.leo.ground import STARLINK_GATEWAYS, default_terminal
from repro.leo.scheduling import (
    GATEWAY_MIN_ELEVATION_DEG,
    SLOT_DURATION,
    SatelliteScheduler,
    gateway_table,
)
from repro.rng import make_rng


def _fleet(terminals=4, seed=0, **kwargs):
    spec = FleetSpec(terminals=terminals, seed=seed)
    uts = build_fleet_terminals(spec)
    return FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                          seed=seed, **kwargs)


# -- placement ---------------------------------------------------------


def test_fleet_spec_validation():
    with pytest.raises(ConfigurationError):
        FleetSpec(terminals=0)
    with pytest.raises(ConfigurationError):
        FleetSpec(terminals=2, lat_bands=())
    with pytest.raises(ConfigurationError):
        FleetSpec(terminals=2, lat_bands=((55.0, 50.0),))
    with pytest.raises(ConfigurationError):
        FleetSpec(terminals=2, lon_range=(7.0, 2.0))


def test_placement_is_deterministic_and_prefix_stable():
    small = build_fleet_terminals(FleetSpec(terminals=4, seed=3))
    again = build_fleet_terminals(FleetSpec(terminals=4, seed=3))
    grown = build_fleet_terminals(FleetSpec(terminals=9, seed=3))
    assert small == again
    # Growing the fleet never moves an existing terminal.
    assert grown[:4] == small


def test_placement_round_robins_bands():
    bands = ((40.0, 42.0), (50.0, 52.0))
    uts = build_fleet_terminals(
        FleetSpec(terminals=4, lat_bands=bands))
    for i, ut in enumerate(uts):
        lo, hi = bands[i % 2]
        assert lo <= ut.location.lat_deg <= hi


def test_fleet_seeds_are_distinct():
    seeds = fleet_seeds(0, 32)
    assert len(set(seeds)) == 32


def test_fleet_constructor_validation():
    uts = build_fleet_terminals(FleetSpec(terminals=2))
    with pytest.raises(ConfigurationError):
        FleetScheduler(Constellation(), [], STARLINK_GATEWAYS)
    with pytest.raises(ConfigurationError):
        FleetScheduler(Constellation(), uts, [])
    with pytest.raises(ConfigurationError):
        FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                       seeds=[1])
    with pytest.raises(ConfigurationError):
        FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                       obstructions=[None])


# -- caches ------------------------------------------------------------


def test_slot_cache_is_bounded_lru():
    """A fleet keeps exactly its last ``slot_cache_slots`` slots: a
    retained slot serves the very snapshot it computed, an evicted one
    is recomputed. (The one-terminal scheduler's bound is checked in
    test_scheduling_channel.)"""
    fleet = _fleet(terminals=2)
    fleet.slot_cache_slots = 8
    first = [fleet.snapshot_at(0, slot * SLOT_DURATION)
             for slot in range(9)]
    assert all(fleet.snapshot_at(0, slot * SLOT_DURATION) is first[slot]
               for slot in range(1, 9))
    # LRU, not wholesale clear: the oldest slot was evicted and comes
    # back equal but recomputed.
    again = fleet.snapshot_at(0, 0.0)
    assert again is not first[0]
    assert again == first[0]


def test_slot_cache_counters_count_lru_misses():
    """A fleet's rows walked one after another outrun the LRU once a
    walk is longer than it: each row recomputes every slot. Walked
    slot by slot, the rows share each computed slot."""
    def walk(order):
        fleet = _fleet(terminals=2)
        fleet.slot_cache_slots = 8
        for i, slot in order:
            fleet.snapshot_at(i, slot * SLOT_DURATION)
        return fleet.slot_cache_misses, fleet.slot_cache_hits

    unit_order = [(i, slot) for i in range(2) for slot in range(16)]
    slot_order = [(i, slot) for slot in range(16) for i in range(2)]
    assert walk(unit_order) == (32, 0)
    assert walk(slot_order) == (16, 16)


@contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in the block after ``seconds`` of wall time,
    so a call that would run for hours fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_long_outage_drops_only_cached_slots_in_its_window():
    """Injecting an outage walks the cached slots, not the window: a
    10**12-slot window returns at once, recomputes the cached slot
    inside it and keeps the one before it."""
    fleet = _fleet(terminals=1)
    outside = fleet.snapshot_at(0, 0.0)
    inside = fleet.snapshot_at(0, 7 * SLOT_DURATION)
    with _deadline(10.0):
        fleet.add_outage(inside.sat_index, 1, 10**12)
    assert fleet.snapshot_at(0, 0.0) is outside
    again = fleet.snapshot_at(0, 7 * SLOT_DURATION)
    assert again.sat_index != inside.sat_index
    assert fleet.slot_cache_misses == 3


def test_position_cache_lru_and_counters():
    const = Constellation(position_cache_size=4)
    for k in range(6):
        const.positions(k * SLOT_DURATION)
    assert len(const._position_cache) == 4
    assert const.position_cache_misses == 6
    before = const.position_cache_hits
    const.positions(5 * SLOT_DURATION)
    assert const.position_cache_hits == before + 1
    # Evicted time is recomputed (a miss), not served stale.
    const.positions(0.0)
    assert const.position_cache_misses == 7


def test_outage_injection_invalidates_cached_slots():
    fleet = _fleet(terminals=2)
    first = fleet.snapshot_at(0, 0.0)
    fleet.add_outage(first.sat_index, 0, 1)
    after = fleet.snapshot_at(0, 0.0)
    assert after.sat_index != first.sat_index
    assert fleet.version == 1


def test_outage_window_validation():
    fleet = _fleet(terminals=1)
    with pytest.raises(ConfigurationError):
        fleet.add_outage(5, 3, 3)
    with pytest.raises(ConfigurationError):
        fleet.add_gateway_outage("nope", 0, 2)
    with pytest.raises(ConfigurationError):
        fleet.add_gateway_outage(STARLINK_GATEWAYS[0].name, 4, 2)


def test_out_sets_match_linear_scan():
    fleet = _fleet(terminals=1)
    sat_windows = [(7, 2, 6), (8, 4, 9), (10, 2, 5)]
    gw_windows = [(0, 3, 4), (1, 3, 5)]
    for window in sat_windows:
        fleet.add_outage(*window)
    for gw, start, end in gw_windows:
        fleet.add_gateway_outage(STARLINK_GATEWAYS[gw].name, start, end)
    for slot in range(12):
        assert fleet.out_sats_at(slot) == frozenset(
            sat for sat, start, end in sat_windows
            if start <= slot < end)
        assert fleet.out_gateways_at(slot) == frozenset(
            gw for gw, start, end in gw_windows if start <= slot < end)


# -- fleet-level queries ----------------------------------------------


def test_user_counts_and_capacity_share():
    fleet = _fleet(terminals=8)
    counts = fleet.user_counts(0.0)
    assert sum(counts.values()) == 8
    for i in range(8):
        snap = fleet.snapshot_at(i, 0.0)
        assert fleet.capacity_share(i, 0.0) == \
            1.0 / counts[snap.sat_index]


def _recount(fleet, t):
    counts = {}
    for snap in fleet.snapshots(t):
        if snap is not None:
            counts[snap.sat_index] = counts.get(snap.sat_index, 0) + 1
    return counts


def test_user_counts_follow_outage_injection():
    """Counts live in the slot's cache entry, so an outage that drops
    the entry drops them too."""
    fleet = _fleet(terminals=8)
    before = fleet.user_counts(0.0)
    busiest = max(before, key=before.get)
    fleet.add_outage(busiest, 0, 1)
    after = fleet.user_counts(0.0)
    assert busiest not in after
    assert after == _recount(fleet, 0.0)
    for gw in STARLINK_GATEWAYS:
        fleet.add_gateway_outage(gw.name, 0, 1)
    assert fleet.user_counts(0.0) == {}
    assert fleet.snapshots(0.0) == [None] * 8
    # The next slot is untouched.
    assert fleet.user_counts(SLOT_DURATION) == \
        _recount(fleet, SLOT_DURATION)


def test_user_counts_returns_a_copy():
    fleet = _fleet(terminals=8)
    shares = [fleet.capacity_share(i, 0.0) for i in range(8)]
    counts = fleet.user_counts(0.0)
    for sat in counts:
        counts[sat] = 1000
    assert [fleet.capacity_share(i, 0.0) for i in range(8)] == shares
    assert fleet.user_counts(0.0) == _recount(fleet, 0.0)


def test_snapshots_returns_one_entry_per_terminal():
    fleet = _fleet(terminals=5)
    snaps = fleet.snapshots(0.0)
    assert len(snaps) == 5
    assert all(s is not None for s in snaps)


# -- the one-terminal view ---------------------------------------------


def test_view_index_validation():
    fleet = _fleet(terminals=2)
    with pytest.raises(ConfigurationError):
        SatelliteScheduler.for_row(fleet, 2)


def test_view_delegates_to_fleet():
    fleet = _fleet(terminals=3)
    view = SatelliteScheduler.for_row(fleet, 1)
    assert view.terminal is fleet.terminals[1]
    assert view.seed == fleet.seeds[1]
    assert view.snapshot(0.0) == fleet.snapshot_at(1, 0.0)
    assert view.slot_of(31.0) == 2
    view.add_outage(700, 0, 2)
    assert view.version == fleet.version == 1
    # A row's mobility is fixed when the fleet is built.
    with pytest.raises(AttributeError):
        view.trajectory = None


def test_path_model_with_injected_view_matches_classic():
    """A row of a shared fleet behind StarlinkPathModel reproduces the
    classic single-dish model sample for sample."""
    terminal = default_terminal()
    seed = 5
    fleet = FleetScheduler(Constellation(), [terminal],
                           STARLINK_GATEWAYS, seeds=[seed])
    injected = StarlinkPathModel(
        seed=seed, scheduler=SatelliteScheduler.for_row(fleet, 0))
    classic = StarlinkPathModel(terminal=terminal, seed=seed)
    assert injected.terminal is terminal
    rng_a = make_rng((seed, "probe"))
    rng_b = make_rng((seed, "probe"))
    for k in range(200):
        t = k * 7.5
        assert injected.idle_rtt(t, rng_a) == \
            classic.idle_rtt(t, rng_b)


def test_view_handover_times_match_scalar():
    """A row's view of a three-terminal fleet reports the handovers
    of a standalone one-terminal scheduler at the same site."""
    uts = build_fleet_terminals(FleetSpec(terminals=3, seed=4))
    uts[1] = default_terminal()
    fleet = FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                           seeds=[2, 9, 5])
    scalar = SatelliteScheduler(Constellation(), uts[1],
                                STARLINK_GATEWAYS, seed=9)
    view = SatelliteScheduler.for_row(fleet, 1)
    assert view.handover_times(0.0, 600.0) == \
        scalar.handover_times(0.0, 600.0)


def test_prefilter_counters_accumulate():
    fleet = _fleet(terminals=4)
    fleet.snapshot_at(0, 0.0)
    assert fleet.prefilter_total == 4 * fleet.constellation.size
    assert 0 < fleet.prefilter_kept < fleet.prefilter_total


# -- the gateway table -------------------------------------------------


def _scalar_gateway(gw_ecef, gw_ups, sat, out):
    """The per-pair scalar rule the table must reproduce bit for bit:
    scalar 1-D elevation and range per gateway, the closest usable
    gateway winning, the lowest index on equal ranges."""
    best = None
    for g in range(len(gw_ecef)):
        if g in out or elevation_angle(
                gw_ecef[g], sat, up=gw_ups[g]) < GATEWAY_MIN_ELEVATION_DEG:
            continue
        rng = slant_range(gw_ecef[g], sat)
        if best is None or rng < best[1]:
            best = (g, rng)
    return best


_SITE = st.tuples(st.floats(30.0, 60.0), st.floats(-10.0, 20.0))


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.0, 1.3e7), sites=st.lists(_SITE, min_size=1,
                                               max_size=5),
       twin=st.integers(0, 4), twin_at=st.integers(0, 5),
       out=st.sets(st.integers(0, 5), max_size=6))
def test_gateway_table_matches_scalar_reference(t, sites, twin, twin_at,
                                                out):
    """Every satellite of the shell (most below every gateway's
    horizon), random out-of-service sets, and a gateway twin inserted
    anywhere so equal ranges occur: the table picks the scalar
    reference's gateway and range, bit for bit."""
    sites = list(sites)
    sites.insert(twin_at % (len(sites) + 1), sites[twin % len(sites)])
    out = frozenset(g for g in out if g < len(sites))
    gw_ecef = np.array([GeoPoint(lat, lon).to_ecef()
                        for lat, lon in sites])
    gw_ups = np.array([unit_up(g) for g in gw_ecef])
    sats = Constellation().positions(t)
    best, ranges = gateway_table(gw_ecef, gw_ups, sats, out)
    served = 0
    for s in range(len(sats)):
        expected = _scalar_gateway(gw_ecef, gw_ups, sats[s], out)
        if expected is None:
            assert best[s] == -1
            continue
        served += 1
        assert (int(best[s]), float(ranges[s]).hex()) == \
            (expected[0], float(expected[1]).hex())
    assert served < len(sats)


def test_gateway_table_of_no_satellites_is_empty():
    gw_ecef = np.array([gw.ecef() for gw in STARLINK_GATEWAYS])
    gw_ups = np.array([unit_up(g) for g in gw_ecef])
    best, ranges = gateway_table(gw_ecef, gw_ups, np.empty((0, 3)))
    assert best.shape == ranges.shape == (0,)
