"""Differential suite: FleetScheduler rows == the full-scan reference.

The fleet layer's load-bearing claim is *bit-identity*: row ``i`` of
a prefiltered :class:`FleetScheduler` produces exactly the snapshot a
one-terminal scheduler built with ``prefilter=False`` would — the
full ``Constellation.visible_from`` pass, one terminal at a time —
same satellite, same gateway, same floats byte for byte, same error
messages. Seeds, latitudes, candidate-pool sizes, outage windows and
moving, obstructed rows are explored; any drift shrinks to a minimal
counterexample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.leo.constellation import Constellation, WalkerShell
from repro.leo.fleet import (
    FleetScheduler,
    FleetSpec,
    build_fleet_terminals,
    fleet_seeds,
)
from repro.leo.geometry import GeoPoint
from repro.leo.ground import STARLINK_GATEWAYS, GroundStation
from repro.leo.mobility import ObstructionTrace, drive_trajectory
from repro.leo.scheduling import SLOT_DURATION, SatelliteScheduler

N_SLOTS = 8


def _gateways_for(lat: float) -> list[GroundStation]:
    """Gateways near a latitude band, so paths exist at any latitude
    the strategy generates (the real Benelux gateways only serve
    mid-latitude terminals)."""
    return [
        GroundStation(f"gw-a-{lat:.0f}", GeoPoint(lat, 6.5), pop="p1"),
        GroundStation(f"gw-b-{lat:.0f}", GeoPoint(lat + 1.5, 2.5),
                      pop="p2"),
        GroundStation(f"gw-c-{lat:.0f}", GeoPoint(max(lat - 2.0, -60.0),
                                                  4.0), pop="p1"),
    ]


def _reference(fleet: FleetScheduler, i: int, trajectory=None,
               obstruction=None) -> FleetScheduler:
    """Row ``i`` of ``fleet`` rebuilt as a one-terminal full-scan
    scheduler on its own constellation."""
    return FleetScheduler(Constellation(), [fleet.terminals[i]],
                          fleet.gateways, seeds=[fleet.seeds[i]],
                          candidate_pool=fleet.candidate_pool,
                          prefilter=False, trajectories=[trajectory],
                          obstructions=[obstruction])


def _compare(fleet: FleetScheduler,
             references: list[FleetScheduler],
             slots=range(N_SLOTS)) -> None:
    for slot in slots:
        t = slot * SLOT_DURATION
        for i, reference in enumerate(references):
            try:
                expected = reference.snapshot_at(0, t)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError) as info:
                    fleet.snapshot_at(i, t)
                assert str(info.value) == str(exc)
                continue
            got = fleet.snapshot_at(i, t)
            # Dataclass equality covers every float field exactly —
            # bit-identity, not approximate agreement.
            assert got == expected


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20),
       terminals=st.integers(1, 5),
       base_lat=st.floats(0.0, 58.0),
       pool=st.integers(1, 6),
       prefilter=st.booleans())
def test_fleet_matches_scalar(seed, terminals, base_lat, pool,
                              prefilter):
    spec = FleetSpec(terminals=terminals,
                     lat_bands=((base_lat, base_lat + 2.0),),
                     seed=seed)
    uts = build_fleet_terminals(spec)
    seeds = fleet_seeds(seed, terminals)
    gateways = _gateways_for(base_lat)
    fleet = FleetScheduler(Constellation(), uts, gateways,
                           seeds=seeds, candidate_pool=pool,
                           prefilter=prefilter)
    _compare(fleet, [_reference(fleet, i) for i in range(terminals)])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       terminals=st.integers(1, 4),
       base_lat=st.floats(35.0, 55.0),
       sat_index=st.integers(0, 1583),
       start=st.integers(0, 4),
       length=st.integers(1, 6),
       gw_start=st.integers(0, 4),
       gw_length=st.integers(1, 6),
       prefilter=st.booleans())
def test_fleet_matches_scalar_under_outages(seed, terminals, base_lat,
                                            sat_index, start, length,
                                            gw_start, gw_length,
                                            prefilter):
    spec = FleetSpec(terminals=terminals,
                     lat_bands=((base_lat, base_lat + 2.0),),
                     seed=seed)
    uts = build_fleet_terminals(spec)
    seeds = fleet_seeds(seed, terminals)
    gateways = _gateways_for(base_lat)
    fleet = FleetScheduler(Constellation(), uts, gateways,
                           seeds=seeds, prefilter=prefilter)
    references = [_reference(fleet, i) for i in range(terminals)]
    for sched in (fleet, *references):
        sched.add_outage(sat_index, start, start + length)
        sched.add_gateway_outage(gateways[0].name, gw_start,
                                 gw_start + gw_length)
    _compare(fleet, references)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       base_lat=st.floats(35.0, 55.0),
       rows=st.lists(st.tuples(st.booleans(), st.booleans()),
                     min_size=1, max_size=4),
       speed_kmh=st.floats(0.0, 900.0),
       profile=st.sampled_from(["roadside", "urban_canyon"]),
       obstructed_at_start=st.booleans(),
       first_slot=st.integers(0, 400),
       prefilter=st.booleans())
def test_moving_obstructed_rows_match_reference(
        seed, base_lat, rows, speed_kmh, profile, obstructed_at_start,
        first_slot, prefilter):
    """Rows that drive and see sky masks, beside fixed clear rows."""
    uts = build_fleet_terminals(FleetSpec(
        terminals=len(rows), lat_bands=((base_lat, base_lat + 2.0),),
        seed=seed))

    def mobility(i):
        moving, obstructed = rows[i]
        trajectory = (drive_trajectory(seed + i, origin=uts[i].location,
                                       speed_kmh=speed_kmh)
                      if moving else None)
        obstruction = (ObstructionTrace(
            seed + i, profile=profile,
            obstructed_at_start=obstructed_at_start)
            if obstructed else None)
        return trajectory, obstruction

    trajectories, obstructions = zip(*map(mobility, range(len(rows))))
    fleet = FleetScheduler(
        Constellation(), uts, _gateways_for(base_lat),
        seeds=fleet_seeds(seed, len(rows)), prefilter=prefilter,
        trajectories=trajectories, obstructions=obstructions)
    # Fresh trajectories and traces per reference: no memo is shared.
    references = [_reference(fleet, i, *mobility(i))
                  for i in range(len(rows))]
    _compare(fleet, references,
             slots=range(first_slot, first_slot + N_SLOTS))


def test_fleet_matches_scalar_real_gateways():
    """T=1 at the paper's vantage point against the real gateways:
    the one-terminal scheduler equals the full-scan reference."""
    spec = FleetSpec(terminals=1, lat_bands=((50.0, 51.5),), seed=7)
    uts = build_fleet_terminals(spec)
    seeds = fleet_seeds(7, 1)
    scalar = SatelliteScheduler(Constellation(), uts[0],
                                STARLINK_GATEWAYS, seed=seeds[0])
    reference = _reference(scalar.fleet, 0)
    for slot in range(40):
        t = slot * SLOT_DURATION
        assert scalar.snapshot(t) == reference.snapshot_at(0, t)


def test_fleet_matches_reference_on_a_sparse_shell():
    """On a 96-satellite shell a row's prefilter often keeps a single
    satellite. numpy runs a one-row product as a ddot, which rounds
    differently from the gemv of the full pass; the row must still get
    the reference's floats."""
    def sparse():
        return Constellation(shells=[WalkerShell(
            planes=12, sats_per_plane=8, phasing=5)])

    uts = build_fleet_terminals(FleetSpec(terminals=8, seed=2))
    fleet = FleetScheduler(sparse(), uts, STARLINK_GATEWAYS, seed=2)
    references = [
        FleetScheduler(sparse(), [ut], STARLINK_GATEWAYS,
                       seeds=[fleet.seeds[i]], prefilter=False)
        for i, ut in enumerate(uts)]
    _compare(fleet, references, slots=range(0, 60))


def test_prefilter_is_a_superset_of_visibility():
    """Every satellite the exact pass keeps survives the prefilter,
    for fixed rows and for rows driving away from their start."""
    spec = FleetSpec(terminals=6, lat_bands=((30.0, 58.0),), seed=11)
    uts = build_fleet_terminals(spec)
    # Airliner speed, so by slot 240 the moving rows see a sky
    # hundreds of km away from the one they started under.
    trajectories = [drive_trajectory(11 + i, origin=ut.location,
                                     speed_kmh=900.0)
                    if i % 2 else None for i, ut in enumerate(uts)]
    const = Constellation()
    fleet = FleetScheduler(const, uts, STARLINK_GATEWAYS, seed=11,
                           trajectories=trajectories)
    for slot in (0, 3, 17, 240):
        t = slot * SLOT_DURATION
        positions = const.positions(t)
        grounds, ups = fleet._rows_at(slot)
        keep = fleet._prefilter(positions, grounds, ups,
                                const.min_elevation_deg)
        for i, ut in enumerate(uts):
            ground = (trajectories[i].position_at(t).to_ecef()
                      if trajectories[i] is not None else ut.ecef())
            visible, _, _ = const.visible_from(ground, t)
            kept = set(np.nonzero(keep[i])[0].tolist())
            assert set(visible.tolist()) <= kept
