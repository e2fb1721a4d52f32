"""Serving-satellite selection and handover.

Starlink reallocates the serving satellite on a fixed 15-second cycle.
Within a slot the dish tracks one satellite, so path length (and hence
the latency floor) is piecewise-continuous with small jumps at slot
boundaries -- the jitter visible in the paper's idle-latency
distributions.

Selection is randomised among the best candidates rather than purely
greedy: the real scheduler balances load across cells, which shows up
to a single user as *not always* getting the highest-elevation
satellite. Randomness is seeded per slot, so a snapshot for a given
time is reproducible no matter the query order.

:class:`FleetScheduler` is the one implementation of slot selection.
It computes a slot for T terminals sharing one constellation in a
single batched pass; a single dish is a one-row fleet, seen through
:class:`SatelliteScheduler`. The batching vectorises only where floats
cannot move:

* One conservative **prefilter** per slot: a single (T, 3) x (3, N)
  matmul of unit vectors bounds the central angle between every
  satellite and every terminal. Satellites that cannot possibly clear
  ``min_elevation_deg - prefilter_margin_deg`` are dropped *before*
  any exact math runs. The bound is analytic (spherical geometry,
  widest shell) with a 10-degree elevation margin and an epsilon of
  cosine slack, so the surviving set is a strict superset of the
  visible set.
* One **visibility pass** over every row's surviving candidates,
  with the kernels :meth:`Constellation.visible_from` uses. Elementwise
  ops (subtract, divide, clip, arcsin, degrees) and length-3 row
  ``norm(axis=1)`` give each element the same float whatever batch it
  sits in, so all rows share them. ``los @ up`` stays one gemv per
  row over that row's candidates, and each row sorts its own visible
  set. (A broadcast (T, N) formulation would *not* be exact:
  ``(los * los).sum(1)``, ``einsum`` and gemv round differently from a
  scalar ``.dot`` in about a quarter of cases.) ``prefilter=False``
  runs the full ``visible_from`` pass per row instead, the reference
  the differential suite compares against.
* One **gateway table** per slot (:func:`gateway_table`) over the
  union of the rows' visible satellites, shared by every row. Its
  stacked ``(..., 1, 3) @ (..., 3, 1)`` matmuls call the same BLAS
  ``ddot`` as the scalar 1-D ``.dot`` that
  :func:`~repro.leo.geometry.elevation_angle` and
  :func:`~repro.leo.geometry.slant_range` take, so each pair's range
  is the scalar one, bit for bit.
* The slot's **served-terminal counts** live in the same LRU entry as
  its snapshots, so :meth:`FleetScheduler.capacity_share` reads them
  instead of rescanning the slot.

Selection itself stays per terminal: the same descending-elevation
candidate walk, the same ``candidate_pool`` cutoff, and the same
``make_rng((seed, slot)).choice(...)`` draw.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.rng import make_rng, stable_seed
from repro.errors import ConfigurationError
from repro.leo.constellation import Constellation
from repro.leo.geometry import (azimuth_in_frame, east_north_frame,
                                unit_up)
from repro.leo.ground import GroundStation, UserTerminal
from repro.units import SPEED_OF_LIGHT

#: Reallocation period of the Starlink scheduler, seconds.
SLOT_DURATION = 15.0

#: Gateways track satellites down to lower elevations than dishes.
GATEWAY_MIN_ELEVATION_DEG = 10.0

#: Refuse to materialise an outage interval index covering more slots
#: than this (a pathological years-long window would allocate a dict
#: entry per slot); membership falls back to the linear window scan.
MAX_INDEXED_OUTAGE_SLOTS = 250_000

_NO_OUTAGES: frozenset[int] = frozenset()


def build_outage_index(windows: list[tuple[int, int, int]]
                       ) -> dict[int, frozenset[int]] | None:
    """Interval index ``slot -> frozenset(out identifiers)``.

    ``windows`` holds ``(identifier, start_slot, end_slot)`` triples.
    Candidate selection probes outage membership once per candidate
    per slot; the index turns the per-probe linear window scan into a
    dict lookup. Returns ``None`` when the windows span more than
    :data:`MAX_INDEXED_OUTAGE_SLOTS` slots (callers keep the scan).
    """
    total = sum(end - start for _, start, end in windows)
    if total > MAX_INDEXED_OUTAGE_SLOTS:
        return None
    accum: dict[int, set[int]] = {}
    for ident, start, end in windows:
        for slot in range(start, end):
            accum.setdefault(slot, set()).add(ident)
    return {slot: frozenset(out) for slot, out in accum.items()}


def gateway_table(gw_ecef: np.ndarray, gw_ups: np.ndarray,
                  sat_positions: np.ndarray,
                  out: frozenset[int] = _NO_OUTAGES
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Closest in-service gateway of every satellite in one pass.

    ``gw_ecef`` and ``gw_ups`` are the (G, 3) gateway positions and
    their :func:`~repro.leo.geometry.unit_up`; ``sat_positions`` is
    (S, 3); ``out`` names gateway indices out of service. A gateway
    is usable when the satellite stands at least
    :data:`GATEWAY_MIN_ELEVATION_DEG` above its horizon; the usable
    gateway at the shortest slant range wins, the lowest index on
    equal ranges. Returns (S,) arrays: the gateway index (-1 where no
    usable gateway sees the satellite) and its range, metres.

    Every float is the one the scalar 1-D
    :func:`~repro.leo.geometry.elevation_angle` and
    :func:`~repro.leo.geometry.slant_range` give for that pair: a
    stacked ``(..., 1, 3) @ (..., 3, 1)`` matmul calls the same BLAS
    ``ddot`` per pair as ``los.dot(up)``, where broadcast sums,
    ``einsum`` or one gemv round differently. The ranges feed
    digest-pinned :class:`PathSnapshot` fields.
    """
    los = sat_positions[:, None, :] - gw_ecef        # (S, G, 3)
    rows = los[..., None, :]                          # (S, G, 1, 3)
    ranges = np.sqrt((rows @ los[..., None])[..., 0, 0])
    sin_el = (rows @ gw_ups[:, :, None])[..., 0, 0] / ranges
    usable = (np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
              >= GATEWAY_MIN_ELEVATION_DEG)
    if out:
        usable[:, sorted(out)] = False
    ranges = np.where(usable, ranges, np.inf)
    best = ranges.argmin(axis=1)
    return (np.where(usable.any(axis=1), best, -1),
            ranges[np.arange(best.size), best])


#: Change kinds a slot boundary can carry: the serving satellite, the
#: landing gateway, the exit PoP (each causes a latency step), and
#: ``service`` for servable <-> unservable transitions.
HANDOVER_KINDS = ("satellite", "gateway", "pop", "service")


@dataclass(frozen=True)
class HandoverEvent:
    """One slot boundary where the serving path changed.

    ``kinds`` names every change the boundary carries — a satellite
    switch usually moves the gateway too, and either can move the
    exit PoP. A ``service`` kind marks a transition into or out of an
    unservable slot (no visible satellite/gateway pair, e.g. under a
    full-sky obstruction).
    """

    t: float
    kinds: frozenset[str]


@dataclass(frozen=True)
class PathSnapshot:
    """The bent-pipe path in force during one scheduler slot."""

    slot: int
    sat_index: int
    gateway: GroundStation
    ut_range_m: float
    gw_range_m: float
    elevation_deg: float

    @property
    def one_way_propagation(self) -> float:
        """UT -> satellite -> gateway radio propagation, seconds."""
        return (self.ut_range_m + self.gw_range_m) / SPEED_OF_LIGHT

    @property
    def pop(self) -> str:
        """Name of the PoP this path exits at."""
        return self.gateway.pop


class _Slot(NamedTuple):
    """One cached slot of a :class:`FleetScheduler`."""

    #: Per row: its PathSnapshot, or the ConfigurationError the slot
    #: raises for that row.
    entries: list[PathSnapshot | ConfigurationError]
    #: Served rows per satellite index.
    counts: dict[int, int]


def fleet_seeds(seed: int, n: int) -> list[int]:
    """Per-terminal scheduler seeds derived from a fleet seed."""
    return [stable_seed(seed, "fleet-terminal", i) for i in range(n)]


def _gemv(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``rows @ vector`` through the gemv kernel of a many-row product.

    numpy runs a one-row ``(1, 3) @ (3,)`` as a ddot, which rounds
    differently from gemv, so a lone row is multiplied doubled.
    """
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ vector)[:1]
    return rows @ vector


def _max_central_angle_deg(rg_m: float, rs_m: float,
                           elevation_deg: float) -> float:
    """Largest Earth-central angle at which a satellite on a circular
    orbit of radius ``rs_m`` can appear at or above ``elevation_deg``
    from a ground site at radius ``rg_m`` (spherical geometry)."""
    e = math.radians(elevation_deg)
    x = (rg_m / rs_m) * math.cos(e)
    if x >= 1.0:
        return 0.0
    psi = math.acos(x) - e
    return math.degrees(psi)


class FleetScheduler:
    """Per-slot scheduling for T terminals sharing one constellation.

    Row ``i`` serves ``terminals[i]`` with selection seed ``seeds[i]``.
    Its trajectory and obstruction trace (``trajectories[i]``,
    ``obstructions[i]``; ``None`` for a fixed dish under a clear sky)
    are fixed when the fleet is built, so no cache can outlive the
    position it was computed for. A moving row evaluates its position
    per slot; a stationary row keeps the vectors computed here.
    Satellite and gateway outages are fleet-wide, exactly as a failed
    bird or a gateway in maintenance affects every dish at once.
    """

    #: Elevation safety margin of the visibility prefilter, degrees.
    #: The analytic bound is exact on a sphere; the margin absorbs
    #: every rounding concern by many orders of magnitude. Shrinking
    #: it below ~1 degree is the only way to make the prefilter
    #: unsound; the differential suite pins the superset property.
    prefilter_margin_deg = 10.0

    def __init__(self, constellation: Constellation,
                 terminals: list[UserTerminal],
                 gateways: list[GroundStation],
                 seeds: list[int] | None = None,
                 seed: int = 0,
                 candidate_pool: int = 4,
                 prefilter: bool = True,
                 trajectories: list | None = None,
                 obstructions: list | None = None):
        if not terminals:
            raise ConfigurationError(
                "a fleet needs at least one terminal")
        if not gateways:
            raise ConfigurationError("at least one gateway is required")
        n = len(terminals)
        for name, rows in (("seeds", seeds),
                           ("trajectories", trajectories),
                           ("obstructions", obstructions)):
            if rows is not None and len(rows) != n:
                raise ConfigurationError(
                    f"got {len(rows)} {name} for {n} terminals")
        self.constellation = constellation
        self.terminals = list(terminals)
        self.gateways = list(gateways)
        self.seeds = (list(seeds) if seeds is not None
                      else fleet_seeds(seed, n))
        self.candidate_pool = candidate_pool
        self.prefilter = prefilter
        self.trajectories = (tuple(trajectories) if trajectories
                             is not None else (None,) * n)
        self.obstructions = (tuple(obstructions) if obstructions
                             is not None else (None,) * n)
        #: Rows whose terminal moves; only these do per-slot
        #: position work.
        self.moving_rows = tuple(
            i for i, trajectory in enumerate(self.trajectories)
            if trajectory is not None and not trajectory.is_stationary)
        #: Whole slots (all T snapshots) the LRU retains. One terminal
        #: keeps 10,000: the default 151-day campaign pings 7,248
        #: distinct slots per anchor, walking them in order once per
        #: anchor, so a smaller LRU would miss on every lookup. A
        #: fleet slot holds T snapshots, so a fleet keeps 4,096. At
        #: least 1: a query reads the slot it has just cached.
        self.slot_cache_slots = 10_000 if n == 1 else 4096
        # Exact per-row ground state: (T, 3) ecef positions and their
        # unit ups, row-major so each row is a contiguous vector. A
        # trajectory places its row at its t=0 position, which a
        # stationary one never leaves; a moving row's entry is
        # replaced per slot.
        self._ut_ecef = np.array([
            ut.ecef() if trajectory is None
            else trajectory.position_at(0.0).to_ecef()
            for ut, trajectory in zip(self.terminals, self.trajectories)])
        self._ut_ups = np.array([unit_up(g) for g in self._ut_ecef])
        self._gw_ecef = np.array([gw.ecef() for gw in self.gateways])
        self._gw_ups = np.array([unit_up(gw) for gw in self._gw_ecef])
        # Prefilter state: inverse orbit radii and the per-terminal
        # cosine thresholds (approximate math is fine here; the
        # threshold only has to be conservative).
        self._inv_radii = 1.0 / self.constellation.orbit_radii()
        self._max_radius = float(self.constellation.orbit_radii().max())
        self._cos_thresh: np.ndarray | None = None
        self._thresh_min_el: float | None = None
        #: slot -> that slot's entries and served-terminal counts.
        self._slot_cache: OrderedDict[int, _Slot] = OrderedDict()
        #: Slot-cache effectiveness counters, like the constellation's
        #: position-cache counters; observability only.
        self.slot_cache_hits = 0
        self.slot_cache_misses = 0
        #: Injected satellite outages: (sat_index, start_slot, end_slot).
        self._outages: list[tuple[int, int, int]] = []
        #: Injected gateway outages: (gw_index, start_slot, end_slot).
        self._gateway_outages: list[tuple[int, int, int]] = []
        # Interval indices over the outage windows (slot -> frozenset
        # of out identifiers), rebuilt lazily whenever ``version``
        # moves; None means "too large to materialise, scan instead".
        self._out_index: dict[int, frozenset[int]] | None = {}
        self._gw_out_index: dict[int, frozenset[int]] | None = {}
        self._index_version = 0
        #: Bumped on outage injection; downstream per-slot caches
        #: (e.g. the path model's base-delay memo) key on it.
        self.version = 0
        #: Prefilter effectiveness counters (candidates kept / total
        #: satellite-terminal pairs examined); observability only.
        self.prefilter_kept = 0
        self.prefilter_total = 0

    # -- fleet shape --------------------------------------------------

    @property
    def size(self) -> int:
        """Number of terminals in the fleet."""
        return len(self.terminals)

    def slot_of(self, t: float) -> int:
        """Scheduler slot index containing time ``t``."""
        return int(t // SLOT_DURATION)

    # -- outage injection (fleet-wide) --------------------------------

    def add_outage(self, sat_index: int, start_slot: int,
                   end_slot: int) -> None:
        """Take ``sat_index`` out of service for ``[start_slot, end_slot)``.

        Fault-injection hook (:mod:`repro.testing.faults`): an out
        satellite is skipped during candidate selection, forcing a
        handover at the outage boundary exactly as a failed bird
        would. Cached slots inside the window are recomputed.
        """
        if end_slot <= start_slot:
            raise ConfigurationError(
                f"outage window is empty: [{start_slot}, {end_slot})")
        self._outages.append((sat_index, start_slot, end_slot))
        self._bump(start_slot, end_slot)

    def add_gateway_outage(self, gateway_name: str, start_slot: int,
                           end_slot: int) -> None:
        """Take a gateway out of service for ``[start_slot, end_slot)``.

        Maintenance / weather hook (:mod:`repro.disrupt`): an out
        gateway is excluded from per-slot gateway selection, so paths
        re-plan through the remaining gateways — possibly moving the
        exit PoP, exactly as the paper's traceroutes would observe.
        Cached slots inside the window are recomputed.
        """
        names = [gw.name for gw in self.gateways]
        if gateway_name not in names:
            raise ConfigurationError(
                f"unknown gateway {gateway_name!r}; have {names}")
        if end_slot <= start_slot:
            raise ConfigurationError(
                f"gateway outage window is empty: "
                f"[{start_slot}, {end_slot})")
        self._gateway_outages.append(
            (names.index(gateway_name), start_slot, end_slot))
        self._bump(start_slot, end_slot)

    def _bump(self, start_slot: int, end_slot: int) -> None:
        self.version += 1
        # Walk the cache, not the window: a window may span more
        # slots than a campaign ever caches.
        for slot in [slot for slot in self._slot_cache
                     if start_slot <= slot < end_slot]:
            del self._slot_cache[slot]

    def _refresh_outage_index(self) -> None:
        if self._index_version == self.version:
            return
        self._out_index = build_outage_index(self._outages)
        self._gw_out_index = build_outage_index(self._gateway_outages)
        self._index_version = self.version

    def out_sats_at(self, slot: int) -> frozenset[int]:
        """Satellite indices out of service during ``slot``."""
        self._refresh_outage_index()
        if self._out_index is None:
            return frozenset(
                sat for sat, start, end in self._outages
                if start <= slot < end)
        return self._out_index.get(slot, _NO_OUTAGES)

    def out_gateways_at(self, slot: int) -> frozenset[int]:
        """Gateway indices out of service during ``slot``."""
        self._refresh_outage_index()
        if self._gw_out_index is None:
            return frozenset(
                gw for gw, start, end in self._gateway_outages
                if start <= slot < end)
        return self._gw_out_index.get(slot, _NO_OUTAGES)

    # -- queries ------------------------------------------------------

    def snapshot_at(self, index: int, t: float) -> PathSnapshot:
        """Terminal ``index``'s path in force at time ``t``.

        Unservable slots (no visible satellite/gateway pair — sparse
        constellation, injected outages, or a full-sky obstruction)
        raise :class:`ConfigurationError`; the error is cached like a
        snapshot so a drive-through outage costs one geometry scan
        per slot, not one per packet.
        """
        entry = self._slot(self.slot_of(t)).entries[index]
        if isinstance(entry, ConfigurationError):
            raise entry
        return entry

    def snapshots(self, t: float) -> list[PathSnapshot | None]:
        """All terminals' paths at ``t``; ``None`` where unservable."""
        return [entry if isinstance(entry, PathSnapshot) else None
                for entry in self._slot(self.slot_of(t)).entries]

    def user_counts(self, t: float) -> dict[int, int]:
        """Served terminals per satellite index during ``t``'s slot
        (a copy: the slot cache keeps its own)."""
        return dict(self._slot(self.slot_of(t)).counts)

    def capacity_share(self, index: int, t: float) -> float:
        """Terminal ``index``'s fair share of its serving satellite.

        ``1 / (terminals served by the same satellite this slot)`` —
        the oversubscription knob the campaign's fleet mode feeds into
        :class:`repro.leo.access.StarlinkAccess`'s ``capacity_share``.
        """
        snap = self.snapshot_at(index, t)
        # snapshot_at has just cached this slot, counts included.
        counts = self._slot_cache[self.slot_of(t)].counts
        return 1.0 / counts[snap.sat_index]

    # -- the batched slot computation ---------------------------------

    def _slot(self, slot: int) -> _Slot:
        cached = self._slot_cache.get(slot)
        if cached is not None:
            self._slot_cache.move_to_end(slot)
            self.slot_cache_hits += 1
            return cached
        self.slot_cache_misses += 1
        cached = self._slot_cache[slot] = self._compute_slot(slot)
        while len(self._slot_cache) > self.slot_cache_slots:
            self._slot_cache.popitem(last=False)
        return cached

    def _rows_at(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """(T, 3) ground positions and unit ups in force during
        ``slot``."""
        if not self.moving_rows:
            return self._ut_ecef, self._ut_ups
        grounds, ups = self._ut_ecef.copy(), self._ut_ups.copy()
        t = slot * SLOT_DURATION
        for i in self.moving_rows:
            grounds[i] = self.trajectories[i].position_at(t).to_ecef()
            ups[i] = unit_up(grounds[i])
        return grounds, ups

    def _cos_threshold(self, ground: np.ndarray, min_el: float) -> float:
        """Prefilter cosine threshold of one ground site."""
        psi = _max_central_angle_deg(
            float(np.linalg.norm(ground)), self._max_radius,
            min_el - self.prefilter_margin_deg)
        # A hair of cosine slack on top of the 10-degree elevation
        # margin; cos is decreasing, so lower threshold == more
        # satellites kept.
        return math.cos(math.radians(min(psi, 180.0))) - 1e-9

    def _thresholds(self, min_el: float) -> np.ndarray:
        """Per-row prefilter thresholds at construction-time positions,
        recomputed only when the constellation's minimum elevation
        changes."""
        if self._cos_thresh is None or self._thresh_min_el != min_el:
            self._cos_thresh = np.array(
                [self._cos_threshold(g, min_el) for g in self._ut_ecef])
            self._thresh_min_el = min_el
        return self._cos_thresh

    def _prefilter(self, positions: np.ndarray, grounds: np.ndarray,
                   ups: np.ndarray, min_el: float) -> np.ndarray:
        """(T, N) mask of the satellites each row's exact pass sees.

        One (T, 3) x (3, N) pass bounds every satellite-terminal
        central angle; moving rows use this slot's position.
        """
        thresh = self._thresholds(min_el)
        if self.moving_rows:
            thresh = thresh.copy()
            for i in self.moving_rows:
                thresh[i] = self._cos_threshold(grounds[i], min_el)
        sat_units = positions * self._inv_radii[:, None]
        keep = ups @ sat_units.T >= thresh[:, None]
        self.prefilter_kept += int(np.count_nonzero(keep))
        self.prefilter_total += keep.size
        return keep

    def _compute_slot(self, slot: int) -> _Slot:
        t = slot * SLOT_DURATION
        masks = [obstruction.mask_at(slot) if obstruction is not None
                 else None for obstruction in self.obstructions]
        entries: list[PathSnapshot | ConfigurationError | None] = [
            ConfigurationError(
                f"sky fully obstructed at {ut.name} at t={t} "
                "(overpass/tunnel slot)")
            if mask is not None and mask.full_sky else None
            for ut, mask in zip(self.terminals, masks)]
        live = [i for i, entry in enumerate(entries) if entry is None]
        # When every sky is blocked (an overpass over a lone dish)
        # there is nothing to propagate.
        if live:
            positions = self.constellation.positions(t)
            min_el = self.constellation.min_elevation_deg
            grounds, ups = self._rows_at(slot)
            keep = (self._prefilter(positions, grounds, ups, min_el)
                    if self.prefilter else None)
            out_sats = (self.out_sats_at(slot) if self._outages
                        else _NO_OUTAGES)
            rows, seen = self._visible(live, positions, grounds, ups,
                                       keep, t, min_el)
            # Each visible satellite's gateway choice, shared by every
            # row: gateway geometry relates satellites to gateways,
            # never to terminal positions, and the gateway outage set
            # is fixed within a slot.
            union = np.zeros(len(positions), dtype=bool)
            union[seen] = True
            sats = np.flatnonzero(union)
            best, ranges = gateway_table(
                self._gw_ecef, self._gw_ups, positions[sats],
                self.out_gateways_at(slot) if self._gateway_outages
                else _NO_OUTAGES)
            gateways = {sat: (gw, rng) if gw >= 0 else None
                        for sat, gw, rng in zip(sats.tolist(),
                                                best.tolist(),
                                                ranges.tolist())}
            for i, row in zip(live, rows):
                entries[i] = self._select(
                    i, slot, t, positions, grounds[i], ups[i], masks[i],
                    row, out_sats, gateways)
        counts: dict[int, int] = {}
        for entry in entries:
            if isinstance(entry, PathSnapshot):
                counts[entry.sat_index] = \
                    counts.get(entry.sat_index, 0) + 1
        return _Slot(entries, counts)

    def _visible(self, live: list[int], positions: np.ndarray,
                 grounds: np.ndarray, ups: np.ndarray,
                 keep: np.ndarray | None, t: float, min_el: float
                 ) -> tuple[list[tuple[list, list, list]], np.ndarray]:
        """Every live row's visible satellites in one pass.

        Returns, per row of ``live``, ``(sats, elevations_deg,
        ranges_m)`` lists by descending elevation, and the indices of
        all of them, repeats included. Without a prefilter each row
        runs the full :meth:`Constellation.visible_from` scan, the
        reference the differential suite compares against.
        """
        if keep is None:
            found = [self.constellation.visible_from(grounds[i], t,
                                                     up=ups[i])
                     for i in live]
            return ([tuple(column.tolist() for column in row)
                     for row in found],
                    np.concatenate([row[0] for row in found]))
        # All rows' kept candidates as one flat batch, row by row in
        # satellite order; ``cuts`` delimits the rows.
        n_sats = keep.shape[1]
        flat = np.flatnonzero(keep[live])
        row_of, cand = np.divmod(flat, n_sats)
        cuts = np.searchsorted(flat, np.arange(len(live) + 1) * n_sats)
        los = positions[cand] - grounds[live][row_of]
        ranges = np.linalg.norm(los, axis=1)
        # Elementwise ops and length-3 row norms give each element
        # the same float whatever the batch around it. ``los @ up``
        # stays one gemv per row over the row's own candidates, as
        # the full pass runs it: the rows' up vectors differ, and no
        # broadcast form rounds like gemv.
        bounds = list(zip(cuts.tolist(), cuts[1:].tolist()))
        dots = np.concatenate([_gemv(los[a:b], ups[i])
                               for i, (a, b) in zip(live, bounds)])
        elevations = np.degrees(
            np.arcsin(np.clip(dots / ranges, -1.0, 1.0)))
        seen = np.flatnonzero(elevations >= min_el)
        cuts = np.searchsorted(seen, cuts).tolist()
        # Each row sorts its own visible set, as a one-row pass does.
        shown = elevations[seen]
        order = seen[np.concatenate([
            a + np.argsort(-shown[a:b])
            for a, b in zip(cuts, cuts[1:])])]
        sats = cand[order].tolist()
        elevs = elevations[order].tolist()
        rngs = ranges[order].tolist()
        return ([(sats[a:b], elevs[a:b], rngs[a:b])
                 for a, b in zip(cuts, cuts[1:])], cand[seen])

    def _select(self, i, slot, t, positions, ground, up, mask, row,
                out_sats, gateways) -> PathSnapshot | ConfigurationError:
        """Row ``i``'s snapshot from its visible ``row`` triple."""
        sats, elevations, ranges = row
        if not sats:
            return ConfigurationError(
                f"no satellite visible from {self.terminals[i].name} "
                f"at t={t}; constellation too sparse for this latitude")
        # The azimuth frame depends on this row's position only.
        frame = east_north_frame(ground, up) if mask is not None else None
        candidates = []
        for sat, elev_deg, rng_m in zip(sats, elevations, ranges):
            if sat in out_sats:
                continue
            if mask is not None and mask.blocks(
                    azimuth_in_frame(ground, positions[sat], *frame),
                    elev_deg):
                continue
            gateway = gateways[sat]
            if gateway is None:
                continue
            candidates.append((sat, elev_deg, rng_m, *gateway))
            if len(candidates) >= self.candidate_pool:
                break
        if not candidates:
            if mask is not None:
                return ConfigurationError(
                    f"all visible satellites obstructed at t={t}")
            return ConfigurationError(
                f"no visible satellite sees a gateway at t={t}")
        rng = make_rng((self.seeds[i], slot))
        sat_idx, elev_deg, ut_range, gw_idx, gw_range = \
            rng.choice(candidates)
        return PathSnapshot(
            slot=slot, sat_index=sat_idx, gateway=self.gateways[gw_idx],
            ut_range_m=ut_range, gw_range_m=gw_range,
            elevation_deg=elev_deg)


class SatelliteScheduler:
    """One terminal's scheduler: a row of a :class:`FleetScheduler`.

    ``SatelliteScheduler(constellation, terminal, gateways, ...)``
    builds a one-row fleet; :meth:`for_row` views a row of a shared
    fleet. Either way every query runs the fleet's slot computation.
    Outages injected through a view are fleet-wide by design — a
    failed satellite fails for every dish.
    """

    def __init__(self, constellation: Constellation,
                 terminal: UserTerminal,
                 gateways: list[GroundStation],
                 seed: int = 0,
                 candidate_pool: int = 4,
                 trajectory=None,
                 obstruction=None):
        self.fleet = FleetScheduler(
            constellation, [terminal], gateways, seeds=[seed],
            candidate_pool=candidate_pool, trajectories=[trajectory],
            obstructions=[obstruction])
        self.index = 0

    @classmethod
    def for_row(cls, fleet: FleetScheduler,
                index: int) -> "SatelliteScheduler":
        """The view of row ``index`` of an existing fleet."""
        if not 0 <= index < fleet.size:
            raise ConfigurationError(
                f"terminal index {index} outside fleet of {fleet.size}")
        view = cls.__new__(cls)
        view.fleet = fleet
        view.index = index
        return view

    @property
    def constellation(self) -> Constellation:
        """The fleet's constellation."""
        return self.fleet.constellation

    @property
    def terminal(self) -> UserTerminal:
        """The viewed terminal."""
        return self.fleet.terminals[self.index]

    @property
    def gateways(self) -> list[GroundStation]:
        """The fleet's gateways."""
        return self.fleet.gateways

    @property
    def seed(self) -> int:
        """The terminal's selection seed."""
        return self.fleet.seeds[self.index]

    @property
    def trajectory(self):
        """The terminal's trajectory (None: a fixed dish)."""
        return self.fleet.trajectories[self.index]

    @property
    def obstruction(self):
        """The terminal's obstruction trace (None: a clear sky)."""
        return self.fleet.obstructions[self.index]

    @property
    def mobile(self) -> bool:
        """Whether the terminal moves between slots."""
        return self.index in self.fleet.moving_rows

    @property
    def version(self) -> int:
        """The fleet's invalidation counter."""
        return self.fleet.version

    def slot_of(self, t: float) -> int:
        """Scheduler slot index containing time ``t``."""
        return self.fleet.slot_of(t)

    def snapshot(self, t: float) -> PathSnapshot:
        """The path in force at time ``t`` (see
        :meth:`FleetScheduler.snapshot_at`)."""
        return self.fleet.snapshot_at(self.index, t)

    def add_outage(self, sat_index: int, start_slot: int,
                   end_slot: int) -> None:
        """Fleet-wide satellite outage (see class docstring)."""
        self.fleet.add_outage(sat_index, start_slot, end_slot)

    def add_gateway_outage(self, gateway_name: str, start_slot: int,
                           end_slot: int) -> None:
        """Fleet-wide gateway outage (see class docstring)."""
        self.fleet.add_gateway_outage(gateway_name, start_slot,
                                      end_slot)

    def handover_events(self, start: float,
                        end: float) -> list[HandoverEvent]:
        """Every path-change boundary in ``[start, end)`` with kinds.

        Gateway and PoP switches that leave the satellite unchanged
        are reported too — they step the latency floor just like
        satellite handovers. Unservable slots become ``service``
        transitions rather than propagating their error.
        """
        def state_at(t: float):
            try:
                snap = self.snapshot(t)
            except ConfigurationError:
                return None
            return (snap.sat_index, snap.gateway.name, snap.pop)

        events: list[HandoverEvent] = []
        previous = state_at(start)
        slot = self.slot_of(start) + 1
        while slot * SLOT_DURATION < end:
            t = slot * SLOT_DURATION
            current = state_at(t)
            if current != previous:
                if current is None or previous is None:
                    kinds = {"service"}
                else:
                    # (satellite, gateway, pop): the first three kinds.
                    kinds = {kind for kind, was, now
                             in zip(HANDOVER_KINDS, previous, current)
                             if was != now}
                events.append(HandoverEvent(t=t, kinds=frozenset(kinds)))
                previous = current
            slot += 1
        return events

    def handover_times(self, start: float, end: float) -> list[float]:
        """Slot boundaries where the serving path changes.

        Reports every change kind (satellite, gateway, PoP, service),
        not just satellite switches — a gateway swap under an
        unchanged satellite still moves the latency floor.
        """
        return [event.t
                for event in self.handover_events(start, end)]
