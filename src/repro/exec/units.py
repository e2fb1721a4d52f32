"""Self-contained campaign work units.

The five-month campaign decomposes into independent measurement units
(Table 1): one per anchor ping series, one per speedtest / bulk /
messages epoch x direction, one per web network x visit round. Every
unit carries its own :class:`~repro.core.campaign.CampaignConfig`
plus an explicit seed tuple, so ``unit.run()`` produces the same
bytes no matter which process executes it, in which order, or next to
which other units.

Shared model state (constellation geometry, campaign timeline, the
analytic path model, the materialised disruption scenario) is rebuilt
once per process and memoised per (seed, scenario) in
:func:`context_for`. That sharing is safe because the model is
order-independent by construction: scheduler snapshots are seeded per
slot, and the fibre/jitter caches are pure memo tables whose values
depend only on their key and the seed. Scenarios get *separate*
contexts because gateway outages mutate the shared scheduler — a
clear-sky unit must never see a scheduler another scenario poked.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.apps.bulk import BulkTransferResult, run_bulk_transfer
from repro.apps.messages import run_messages_workload
from repro.apps.speedtest import SpeedtestResult, run_speedtest
from repro.apps.web.browser import BrowserEngine
from repro.apps.web.corpus import build_corpus
from repro.apps.web.profiles import (
    satcom_profile,
    starlink_profile,
    wired_profile,
)
from repro.core.anchors import anchor_by_name
from repro.apps.outcome import MeasurementOutcome
from repro.core.datasets import (
    BulkSample,
    FleetTerminalResult,
    MessagesSample,
    SpeedtestSample,
    VisitSample,
)
from repro.disrupt.apply import apply_to_access, apply_to_scheduler
from repro.disrupt.scenarios import Scenario, build_scenario
from repro.exec.sharding import SplittableUnit
from repro.geo.satcom import GeoSatComAccess
from repro.errors import ConfigurationError
from repro.leo.access import StarlinkAccess, StarlinkPathModel
from repro.leo.constellation import Constellation
from repro.leo.events import CampaignTimeline
from repro.leo.fleet import (
    FleetScheduler,
    FleetSpec,
    build_fleet_terminals,
)
from repro.leo.geometry import GeoPoint
from repro.leo.ground import STARLINK_GATEWAYS
from repro.leo.mobility import build_mobility
from repro.leo.scheduling import SatelliteScheduler
from repro.rng import make_rng, stable_seed
from repro.transport.quic import QuicConfig
from repro.transport.tcp import TcpConfig
from repro.units import days

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.campaign import CampaignConfig


@runtime_checkable
class CampaignUnit(Protocol):
    """The executor contract: what ``repro.exec`` runs, journals,
    retries and reports on.

    ``label`` is a stable identity (it keys journal entries and names
    failures), ``kind`` buckets timings and coverage, and ``run()``
    must be a pure function of the unit's own fields — re-running it
    after a crash, on another process, or from a resumed journal must
    reproduce identical bytes. Units that carry a ``config`` attribute
    (all campaign units do) get it fingerprinted into their journal
    key, so checkpoints can never leak across configurations. Wrappers
    such as :class:`repro.testing.chaos.ChaosUnit` satisfy the same
    protocol by delegation.
    """

    @property
    def label(self) -> str: ...

    @property
    def kind(self) -> str: ...

    def run(self) -> object: ...

#: Campus server (UCLouvain) and nearby Ookla server locations.
CAMPUS_SERVER = GeoPoint(50.670, 4.615)
OOKLA_BRUSSELS = GeoPoint(50.85, 4.35)

_WEB_PROFILES = {
    "starlink": starlink_profile,
    "satcom": satcom_profile,
    "wired": wired_profile,
}


@dataclass
class WorkerContext:
    """Per-process shared model state for one (seed, scenario)."""

    timeline: CampaignTimeline
    constellation: Constellation
    path_model: StarlinkPathModel
    scenario: Scenario


#: Most contexts one process memoises, least recently used evicted
#: first. A campaign needs one (two in fleet mode), and every
#: ``Campaign(...)`` adds its own; an evicted context is rebuilt on
#: demand, identical because the model is a pure function of its key.
MAX_CONTEXTS = 8

_CONTEXTS: OrderedDict[tuple, WorkerContext | FleetContext] = OrderedDict()


def _memoised(key: tuple, build):
    """The context under ``key``, built by ``build()`` on a miss."""
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = build()
        _CONTEXTS[key] = ctx
        while len(_CONTEXTS) > MAX_CONTEXTS:
            _CONTEXTS.popitem(last=False)
    else:
        _CONTEXTS.move_to_end(key)
    return ctx


def context_for(config: "CampaignConfig") -> WorkerContext:
    """The process-local :class:`WorkerContext` for a campaign config.

    Built lazily and memoised, so a worker pays the constellation
    setup once no matter how many units it executes. The memo key
    covers the seed, the scenario name, every config knob the
    scenario's campaign schedule is derived from, AND the mobility
    knobs — the scheduler's terminal row holds the trajectory and
    obstruction trace the config describes.
    """
    key = ("dish", config.seed, config.scenario, config.ping_days,
           config.ping_interval_s, config.pings_per_round,
           config.trajectory, config.speed_kmh,
           config.drive_duration_s, config.obstruction)
    return _memoised(key, lambda: _build_context(config))


def _build_context(config: "CampaignConfig") -> WorkerContext:
    timeline = CampaignTimeline()
    constellation = Constellation()
    scenario = build_scenario(config.scenario, config)
    trajectory, obstruction = build_mobility(config)
    path_model = StarlinkPathModel(constellation=constellation,
                                   timeline=timeline,
                                   seed=config.seed,
                                   trajectory=trajectory,
                                   obstruction=obstruction)
    # Campaign-scale gateway outages live in the shared scheduler
    # (a no-op for clear_sky: the empty schedule installs nothing).
    apply_to_scheduler(path_model.scheduler, scenario.campaign)
    return WorkerContext(timeline=timeline, constellation=constellation,
                         path_model=path_model, scenario=scenario)


def _starlink_access(config: "CampaignConfig", epoch: float,
                     run_seed: int,
                     capacity_share: float = 1.0) -> StarlinkAccess:
    ctx = context_for(config)
    scheduler = ctx.path_model.scheduler
    access = StarlinkAccess(seed=run_seed, epoch_t=epoch,
                            timeline=ctx.timeline,
                            constellation=ctx.constellation,
                            capacity_share=capacity_share,
                            trajectory=scheduler.trajectory,
                            obstruction=scheduler.obstruction)
    # Shift the scenario's experiment overlay to this epoch and
    # install it on the freshly built (private) access. Clear-sky
    # overlays are empty, and installing an empty schedule touches
    # neither RNG streams nor the event queue.
    apply_to_access(access, ctx.scenario.experiment_schedule(epoch))
    return access


@dataclass
class FleetContext:
    """Per-process shared fleet state for one (seed, scenario, spec).

    One :class:`FleetScheduler` serves every terminal unit the
    process executes, so a slot's batched geometry is computed once
    no matter how many terminals sample it. Path models are built
    lazily per terminal around a :class:`SatelliteScheduler` view of
    its row, each seeded with that terminal's scheduler seed.
    """

    timeline: CampaignTimeline
    constellation: Constellation
    fleet: FleetScheduler
    scenario: Scenario
    models: dict[int, StarlinkPathModel] = field(default_factory=dict)

    def model_for(self, index: int) -> StarlinkPathModel:
        """The path model of terminal ``index`` (memoised)."""
        model = self.models.get(index)
        if model is None:
            model = StarlinkPathModel(
                timeline=self.timeline,
                seed=self.fleet.seeds[index],
                scheduler=SatelliteScheduler.for_row(self.fleet,
                                                     index))
            self.models[index] = model
        return model


def fleet_spec_for(config: "CampaignConfig") -> FleetSpec:
    """The terminal-placement spec a campaign config describes."""
    return FleetSpec(terminals=config.fleet_terminals,
                     lat_bands=config.fleet_lat_bands,
                     lon_range=config.fleet_lon_range,
                     seed=config.seed)


def fleet_context_for(config: "CampaignConfig") -> FleetContext:
    """The process-local :class:`FleetContext` for a campaign config.

    Memoised like :func:`context_for`; the key additionally covers
    the fleet shape so two configs that place terminals differently
    never share a scheduler.

    Fleet terminals are fixed: the config's trajectory/obstruction
    knobs apply to the single-dish pipeline only, so the key omits
    them (two configs differing only in mobility produce identical
    fleet datasets and may share the context).
    """
    key = ("fleet", config.seed, config.scenario, config.ping_days,
           config.ping_interval_s, config.pings_per_round,
           config.fleet_terminals, config.fleet_lat_bands,
           config.fleet_lon_range)
    return _memoised(key, lambda: _build_fleet_context(config))


def _build_fleet_context(config: "CampaignConfig") -> FleetContext:
    timeline = CampaignTimeline()
    constellation = Constellation()
    terminals = build_fleet_terminals(fleet_spec_for(config))
    fleet = FleetScheduler(constellation, terminals,
                           STARLINK_GATEWAYS, seed=config.seed)
    scenario = build_scenario(config.scenario, config)
    # Campaign-scale gateway outages are fleet-wide, exactly as they
    # are for the single-dish scheduler.
    apply_to_scheduler(fleet, scenario.campaign)
    return FleetContext(timeline=timeline, constellation=constellation,
                        fleet=fleet, scenario=scenario)


def _ping_rounds(cfg: "CampaignConfig") -> tuple[np.ndarray, int]:
    """Start times of every ping round, and how many chunk atoms of
    ``cfg.ping_shard_rounds`` consecutive rounds they make (at least
    one)."""
    rounds = np.arange(0.0, days(cfg.ping_days), cfg.ping_interval_s)
    return rounds, max(1, -(-len(rounds) // cfg.ping_shard_rounds))


def _chunk_rounds(cfg: "CampaignConfig", atom: int) -> list[float]:
    """Start times of the rounds in ping-round chunk ``atom``."""
    chunk = cfg.ping_shard_rounds
    return _ping_rounds(cfg)[0][atom * chunk:(atom + 1) * chunk].tolist()


def _probe_round(t: float, cfg: "CampaignConfig", rng, disruption,
                 model: StarlinkPathModel, remote_rtt_s: float | None,
                 times: list[float], rtts: list[float]) -> None:
    """Append the ``cfg.pings_per_round`` probes of the round at ``t``,
    one second apart, to ``times`` and ``rtts``.

    Each probe is lost (a NaN RTT) to a blackout, to the base loss
    draw or to the scenario's extra-loss draw, in that order;
    otherwise its RTT is the path model's idle RTT plus
    ``remote_rtt_s``. ``remote_rtt_s=None`` (the round's PoP is
    unservable) loses the probe without calling ``idle_rtt``, and a
    :class:`~repro.errors.ConfigurationError` from it (an unservable
    slot) loses the probe too. Guards cost no draws, and an empty
    schedule answers False/0.0 everywhere, so the clear-sky RNG
    stream is byte-identical whether or not a schedule is installed.
    """
    loss_prob = cfg.ping_loss_prob
    for probe in range(cfg.pings_per_round):
        probe_t = t + probe * 1.0
        times.append(probe_t)
        if disruption.blackout_at(probe_t) or rng.random() < loss_prob:
            rtts.append(math.nan)
            continue
        extra = disruption.extra_loss_prob(probe_t)
        if (extra > 0.0 and rng.random() < extra) or remote_rtt_s is None:
            rtts.append(math.nan)
            continue
        try:
            rtts.append(model.idle_rtt(probe_t, rng,
                                       remote_rtt_s=remote_rtt_s))
        except ConfigurationError:
            rtts.append(math.nan)


def _series_outcome(lost: int, total: int,
                    endpoint: str) -> MeasurementOutcome:
    """``unreachable`` when every one of ``total`` probes was lost,
    otherwise ok with the loss count; ``endpoint`` names the far end
    (``"to <anchor>"``, ``"from <terminal>"``)."""
    if total and lost == total:
        return MeasurementOutcome(
            "unreachable", detail=f"all {lost} probes {endpoint} lost")
    return MeasurementOutcome(detail=f"{lost}/{total} probes lost")


def _ping_chunk_probes(cfg: "CampaignConfig", anchor_name: str,
                       atom: int) -> tuple[list[float], list[float]]:
    """Probe ``(times, rtts)`` of ping-round chunk ``atom``.

    The single source of the per-chunk stream seeded
    ``(cfg.seed, "ping-campaign", anchor_name, "chunk", atom)`` —
    shared by the batch :class:`PingSeriesUnit` and the streaming
    :class:`StreamingPingUnit`, so both emit identical bytes and the
    streamed campaign stays digest-identical to the batch one.

    A round whose slot at ``t`` is unservable (a mobile/obstructed
    terminal with no visible satellite-gateway pair) has no PoP, so
    all its probes are lost, also those that fall in the next slot,
    rather than abort the series. The obstruction chain is a pure
    function of (seed, slot), so the probe bytes stay identical
    across processes, shard granularities and resumes.
    """
    anchor = anchor_by_name(anchor_name)
    ctx = context_for(cfg)
    model = ctx.path_model
    rng = make_rng((cfg.seed, "ping-campaign", anchor_name,
                    "chunk", atom))
    times: list[float] = []
    rtts: list[float] = []
    # A chunk exits through a handful of PoPs: each one's fibre RTT
    # to the anchor is computed once per chunk, not once per round.
    remote_rtts: dict[GeoPoint, float] = {}
    for t in _chunk_rounds(cfg, atom):
        try:
            pop = model.pop_location(t)
        except ConfigurationError:
            remote = None
        else:
            remote = remote_rtts.get(pop)
            if remote is None:
                remote = remote_rtts[pop] = anchor.remote_rtt_from(pop)
        _probe_round(t, cfg, rng, ctx.scenario.campaign, model, remote,
                     times, rtts)
    return times, rtts


class _PingChunkAtoms(SplittableUnit):
    """A unit whose atoms are its config's ping-round chunks."""

    def n_atoms(self) -> int:
        return _ping_rounds(self.config)[1]

    def cost_hint(self) -> float:
        rounds, _ = _ping_rounds(self.config)
        return len(rounds) * self.config.pings_per_round * 1e-3


@dataclass(frozen=True)
class PingSeriesUnit(_PingChunkAtoms):
    """The full five-month ping series toward one anchor.

    Atoms are chunks of ``config.ping_shard_rounds`` consecutive ping
    rounds; chunk ``k`` draws from the stream seeded
    ``(config.seed, "ping-campaign", anchor_name, "chunk", k)``, so
    any contiguous grouping of chunks reproduces the same bytes — the
    series never threads one RNG across a shard boundary.
    """

    config: "CampaignConfig"
    anchor_name: str

    kind = "ping"

    @property
    def label(self) -> str:
        return f"ping:{self.anchor_name}"

    def run_atoms(self, start: int, stop: int
                  ) -> list[tuple[list[float], list[float]]]:
        return [_ping_chunk_probes(self.config, self.anchor_name, atom)
                for atom in range(start, stop)]

    def finalize(self, payloads) -> tuple[str, np.ndarray, np.ndarray,
                                          MeasurementOutcome]:
        times: list[float] = []
        rtts: list[float] = []
        for chunk_times, chunk_rtts in payloads:
            times.extend(chunk_times)
            rtts.extend(chunk_rtts)
        rtts_arr = np.array(rtts)
        outcome = _series_outcome(int(np.isnan(rtts_arr).sum()),
                                  rtts_arr.size, f"to {self.anchor_name}")
        return self.anchor_name, np.array(times), rtts_arr, outcome


@dataclass(frozen=True)
class StreamingPingUnit(_PingChunkAtoms):
    """The same ping series as :class:`PingSeriesUnit`, folded into one
    :class:`~repro.core.datasets.PingAnchorSink`.

    Atoms draw from the **identical** per-chunk RNG streams (shared
    :func:`_ping_chunk_probes`), so a streamed campaign that stays in
    exact mode is digest-identical to the batch one. Its fold keeps
    one sink: each shard ships per-atom sinks, the executor folds
    them in shard order and only one sink per anchor is ever resident
    — never the full atom list. Once the sink leaves exact mode its
    memory grows with the campaign clock (availability counts per
    probe instant, one sketch per 6 h bin), not with the sample count.
    Reservoir keys are identity-derived per global probe index
    (:meth:`~repro.core.stats.BottomKReservoir.keys_for` on the
    anchor-tagged stream), so the ECDF subsample is independent of
    sharding and merge order too.
    """

    config: "CampaignConfig"
    anchor_name: str
    #: Raw-sample residency above which each per-atom/merged sink
    #: collapses to sketches. Month-scale campaigns pass a budgeted
    #: value; the default keeps micro-campaigns exact (digest gate).
    exact_threshold: int = 100_000
    reservoir_k: int = 2048
    max_centroids: int = 512

    kind = "pingstream"

    @property
    def label(self) -> str:
        return f"pingstream:{self.anchor_name}"

    def _new_sink(self):
        from repro.core.datasets import PingAnchorSink
        return PingAnchorSink(
            self.anchor_name, exact_threshold=self.exact_threshold,
            reservoir_k=self.reservoir_k,
            max_centroids=self.max_centroids,
            reservoir_seed=self.config.seed)

    def run_atoms(self, start: int, stop: int) -> list:
        from repro.core.stats import BottomKReservoir
        cfg = self.config
        probes_per_atom = cfg.ping_shard_rounds * cfg.pings_per_round
        payloads = []
        for atom in range(start, stop):
            times, rtts = _ping_chunk_probes(cfg, self.anchor_name,
                                             atom)
            keys = BottomKReservoir.keys_for(
                cfg.seed, self.anchor_name, count=len(times),
                base=atom * probes_per_atom)
            sink = self._new_sink()
            sink.add_chunk(np.asarray(times, dtype=float),
                           np.asarray(rtts, dtype=float), keys=keys)
            payloads.append(sink)
        return payloads

    # -- the fold: one sink, not a list of atoms ------------------------

    def init_partial(self):
        return self._new_sink()

    def merge_partial(self, acc, shard_payload):
        for sink in shard_payload:
            acc.merge(sink)
        return acc

    def finalize(self, acc):
        acc.outcome = _series_outcome(acc.lost_probes, acc.total_probes,
                                      f"to {self.anchor_name}")
        return acc

    def run(self):
        # Stream atom by atom: serial memory stays one sink deep no
        # matter the campaign duration.
        acc = self.init_partial()
        for atom in range(self.n_atoms()):
            acc = self.merge_partial(acc, self.run_atoms(atom, atom + 1))
        return self.finalize(acc)


@dataclass(frozen=True)
class SpeedtestUnit(SplittableUnit):
    """One Ookla-like test: a single network x direction x epoch.

    Atoms are the parallel TCP connections. Connection ``i`` runs as
    a single-flow speedtest on its own access instance seeded
    ``stable_seed(run_seed, "st-conn", i)`` with
    ``capacity_share=1/connections`` — the fair-share stand-in for N
    flows contending on one terminal — so every connection's bytes
    are independent of which shard executes it. The merge sums the
    measured bytes over the common measurement window, which is
    exactly how the multi-connection test computes throughput.
    """

    config: "CampaignConfig"
    network: str           # "starlink" | "satcom"
    direction: str         # "down" | "up"
    epoch: float
    run_seed: int

    kind = "speedtest"

    @property
    def label(self) -> str:
        return f"speedtest:{self.network}:{self.direction}:{self.run_seed}"

    def n_atoms(self) -> int:
        return max(1, self.config.speedtest_connections)

    def cost_hint(self) -> float:
        cfg = self.config
        warmup = (cfg.satcom_warmup_s if self.network == "satcom"
                  else cfg.speedtest_warmup_s)
        scale = 4.0 if self.network == "satcom" else 1.0
        return ((warmup + cfg.speedtest_measure_s)
                * self.n_atoms() * scale)

    def run_atoms(self, start: int, stop: int) -> list[SpeedtestResult]:
        cfg = self.config
        share = 1.0 / self.n_atoms()
        results = []
        for conn in range(start, stop):
            conn_seed = stable_seed(self.run_seed, "st-conn", conn)
            if self.network == "starlink":
                access = _starlink_access(cfg, self.epoch, conn_seed,
                                          capacity_share=share)
                warmup = cfg.speedtest_warmup_s
            else:
                access = GeoSatComAccess(seed=conn_seed,
                                         epoch_t=self.epoch,
                                         capacity_share=share)
                warmup = cfg.satcom_warmup_s
            server = access.add_remote_host("ookla", "62.4.0.10",
                                            OOKLA_BRUSSELS)
            access.finalize()
            results.append(run_speedtest(
                access.client, server, self.direction, connections=1,
                warmup_s=warmup, measure_s=cfg.speedtest_measure_s,
                config=TcpConfig(cc=cfg.cc)))
        return results

    def finalize(self, results) -> SpeedtestSample:
        cfg = self.config
        total = sum(r.measured_bytes for r in results)
        handshakes = [rtt for r in results for rtt in r.handshake_rtts]
        elapsed = max(r.outcome.elapsed_s for r in results)
        # Mirror run_speedtest's classification over the merged flows.
        if total > 0:
            outcome = MeasurementOutcome(elapsed_s=elapsed)
        elif not handshakes:
            outcome = MeasurementOutcome(
                "unreachable",
                detail=f"0/{len(results)} TCP handshakes completed",
                elapsed_s=elapsed)
        else:
            outcome = MeasurementOutcome(
                "stalled",
                detail="connections established but no byte delivered "
                       "inside the measurement window",
                elapsed_s=elapsed)
        merged = SpeedtestResult(
            direction=self.direction, connections=len(results),
            measured_bytes=total,
            measure_window_s=cfg.speedtest_measure_s,
            handshake_rtts=handshakes, outcome=outcome)
        return SpeedtestSample(t=self.epoch, network=self.network,
                               direction=self.direction,
                               throughput_mbps=merged.throughput_mbps,
                               outcome=merged.outcome)


@dataclass(frozen=True)
class BulkUnit(SplittableUnit):
    """One H3 bulk transfer: a single session x direction x epoch.

    Atoms are back-to-back payload segments of
    ``config.bulk_segment_bytes``; segment ``i`` transfers on its own
    access instance seeded ``stable_seed(run_seed, "bulk-seg", i)``.
    The merge splices segments into one transfer record: RTT-sample
    and loss-event clocks shift by the cumulative segment duration,
    receiver packet numbers by the cumulative packet count, so the
    per-transfer loss ratio and Fig. 3 RTT series read exactly as one
    long transfer would.
    """

    config: "CampaignConfig"
    session: int
    direction: str
    epoch: float
    run_seed: int

    kind = "bulk"

    @property
    def label(self) -> str:
        return f"bulk:s{self.session}:{self.direction}:{self.run_seed}"

    def _segment_sizes(self) -> list[int]:
        cfg = self.config
        seg = cfg.bulk_segment_bytes
        n = max(1, -(-cfg.bulk_bytes // seg))
        return [seg] * (n - 1) + [cfg.bulk_bytes - seg * (n - 1)]

    def n_atoms(self) -> int:
        return len(self._segment_sizes())

    def cost_hint(self) -> float:
        return self.config.bulk_bytes / 1e6

    def run_atoms(self, start: int, stop: int
                  ) -> list[BulkTransferResult]:
        cfg = self.config
        sizes = self._segment_sizes()
        results = []
        for seg in range(start, stop):
            access = _starlink_access(
                cfg, self.epoch,
                stable_seed(self.run_seed, "bulk-seg", seg))
            server = access.add_remote_host("campus", "130.104.1.1",
                                            CAMPUS_SERVER)
            access.finalize()
            results.append(run_bulk_transfer(
                access.client, server, self.direction,
                payload_bytes=sizes[seg],
                config=QuicConfig(cc=cfg.cc)))
        return results

    def finalize(self, results) -> BulkSample:
        cfg = self.config
        completed = all(r.completed for r in results)
        merged = BulkTransferResult(
            direction=self.direction, payload_bytes=cfg.bulk_bytes,
            completed=completed,
            duration_s=(sum(r.duration_s for r in results)
                        if completed else None),
            handshake_rtt_s=results[0].handshake_rtt_s)
        t_off = 0.0
        pn_off = 0
        elapsed = 0.0
        first_bad = None
        for r in results:
            merged.rtt_samples.extend(
                (t_off + t, rtt) for t, rtt in r.rtt_samples)
            merged.receiver_lost_pns.extend(
                pn_off + pn for pn in r.receiver_lost_pns)
            merged.loss_event_durations_s.extend(
                r.loss_event_durations_s)
            merged.loss_burst_lengths.extend(r.loss_burst_lengths)
            merged.loss_event_times_s.extend(
                t_off + t for t in r.loss_event_times_s)
            pn_off += r.receiver_max_pn + 1
            t_off += (r.duration_s if r.duration_s is not None
                      else r.outcome.elapsed_s)
            elapsed += r.outcome.elapsed_s
            if first_bad is None and not r.outcome.is_ok:
                first_bad = r.outcome
        merged.receiver_max_pn = pn_off - 1
        if first_bad is None:
            merged.outcome = MeasurementOutcome(elapsed_s=elapsed)
        else:
            merged.outcome = MeasurementOutcome(
                first_bad.status, detail=first_bad.detail,
                elapsed_s=elapsed)
        return BulkSample(t=self.epoch, direction=self.direction,
                          session=self.session, result=merged)


@dataclass(frozen=True)
class MessagesUnit:
    """One low-bitrate message run: a single direction x epoch.

    Deliberately unsplittable: the workload is one ordered message
    stream over one connection, so it always dispatches whole.
    """

    config: "CampaignConfig"
    direction: str
    epoch: float
    run_seed: int
    workload_seed: int

    kind = "messages"

    @property
    def label(self) -> str:
        return f"messages:{self.direction}:{self.run_seed}"

    def cost_hint(self) -> float:
        return self.config.messages_duration_s * 0.1

    def run(self) -> MessagesSample:
        cfg = self.config
        access = _starlink_access(cfg, self.epoch, self.run_seed)
        server = access.add_remote_host("campus", "130.104.1.1",
                                        CAMPUS_SERVER)
        access.finalize()
        result = run_messages_workload(
            access.client, server, self.direction,
            duration_s=cfg.messages_duration_s, seed=self.workload_seed,
            config=QuicConfig(cc=cfg.cc))
        return MessagesSample(t=self.epoch, direction=self.direction,
                              result=result)


@dataclass(frozen=True)
class WebRoundUnit(SplittableUnit):
    """One browsing round: every corpus page over one network, once.

    The corpus is rebuilt inside the unit (it is deterministic for
    ``config.seed``), so the unit ships only scalars across the
    process boundary.
    """

    config: "CampaignConfig"
    network: str
    visit_id: int
    epoch: float

    kind = "web"

    @property
    def label(self) -> str:
        return f"web:{self.network}:v{self.visit_id}"

    def n_atoms(self) -> int:
        return max(1, self.config.web_sites)

    def cost_hint(self) -> float:
        return self.config.web_sites * 0.5

    def run_atoms(self, start: int, stop: int) -> list[VisitSample]:
        # One atom per corpus page. The engine draws each visit's RNG
        # from (seed, profile, url, visit_id) with no cross-visit
        # state, so per-page shards are bit-identical to a full round.
        cfg = self.config
        corpus = build_corpus(cfg.web_sites, seed=cfg.seed)
        profile = _WEB_PROFILES[self.network](epoch_t=self.epoch,
                                              seed=cfg.seed)
        engine = BrowserEngine(profile, seed=cfg.seed + self.visit_id,
                               visit_deadline_s=cfg.web_visit_deadline_s)
        visits = []
        for page in corpus[start:stop]:
            result = engine.visit(page, visit_id=self.visit_id)
            visits.append(VisitSample(
                t=self.epoch, network=self.network, url=page.url,
                onload_s=result.onload_s,
                speed_index_s=result.speed_index_s,
                n_connections=result.n_connections,
                connection_setup_s=result.connection_setup_s,
                outcome=result.outcome))
        return visits


@dataclass(frozen=True)
class FleetTerminalUnit(_PingChunkAtoms):
    """One fleet terminal's campaign: idle-latency series plus
    contended speed tests.

    Atoms are ping-round chunks (chunk ``k`` draws from the stream
    seeded ``(config.seed, "fleet-ping", index, "chunk", k)``)
    followed by ``config.fleet_speedtest_epochs`` single-connection
    speed tests whose ``capacity_share`` is the terminal's fair share
    of its serving satellite at the epoch — the oversubscription
    mechanism from the fleet scheduler feeding the PR-6 fair-share
    knob. Every atom derives its own RNG stream, so any contiguous
    shard grouping reproduces the same bytes.

    Ping RTTs are measured to the terminal's PoP (``remote_rtt_s=0``):
    the fleet mode studies the access network under contention, not
    anchor geography.
    """

    config: "CampaignConfig"
    index: int

    kind = "fleet"

    @property
    def label(self) -> str:
        return f"fleet:ut{self.index:04d}"

    def n_atoms(self) -> int:
        return super().n_atoms() + self.config.fleet_speedtest_epochs

    def cost_hint(self) -> float:
        cfg = self.config
        return (super().cost_hint() + cfg.fleet_speedtest_epochs
                * (cfg.speedtest_warmup_s + cfg.speedtest_measure_s))

    def _speedtest_epochs(self) -> list[float]:
        """Fleet-wide speed-test epochs (shared by every terminal, so
        the fleet contends at the same instants)."""
        cfg = self.config
        rng = make_rng((cfg.seed, "fleet-st-epochs"))
        return sorted(rng.random() * days(cfg.ping_days)
                      for _ in range(cfg.fleet_speedtest_epochs))

    def run_atoms(self, start: int, stop: int) -> list[tuple]:
        _, n_ping = _ping_rounds(self.config)
        payloads: list[tuple] = []
        for atom in range(start, stop):
            if atom < n_ping:
                payloads.append(("ping", self._ping_chunk(atom)))
            else:
                payloads.append(
                    ("speedtest", self._speedtest(atom - n_ping)))
        return payloads

    def _ping_chunk(self, atom: int) -> tuple[list[float], list[float],
                                              list[float]]:
        cfg = self.config
        ctx = fleet_context_for(cfg)
        model = ctx.model_for(self.index)
        rng = make_rng((cfg.seed, "fleet-ping", self.index,
                        "chunk", atom))
        times: list[float] = []
        rtts: list[float] = []
        shares: list[float] = []
        for t in _chunk_rounds(cfg, atom):
            try:
                shares.append(ctx.fleet.capacity_share(self.index, t))
            except ConfigurationError:
                shares.append(math.nan)
            # An unservable slot (e.g. a polar-band terminal) simply
            # loses its probes.
            _probe_round(t, cfg, rng, ctx.scenario.campaign, model, 0.0,
                         times, rtts)
        return times, rtts, shares

    def _speedtest(self, epoch_idx: int) -> SpeedtestSample:
        cfg = self.config
        ctx = fleet_context_for(cfg)
        epoch = self._speedtest_epochs()[epoch_idx]
        run_seed = stable_seed(cfg.seed, "fleet-st", self.index,
                               epoch_idx)
        try:
            share = ctx.fleet.capacity_share(self.index, epoch)
        except ConfigurationError as exc:
            return SpeedtestSample(
                t=epoch, network="starlink", direction="down",
                throughput_mbps=0.0,
                outcome=MeasurementOutcome(
                    "unreachable", detail=str(exc)))
        access = StarlinkAccess(seed=run_seed, epoch_t=epoch,
                                timeline=ctx.timeline,
                                path_model=ctx.model_for(self.index),
                                capacity_share=share)
        apply_to_access(access, ctx.scenario.experiment_schedule(epoch))
        server = access.add_remote_host("ookla", "62.4.0.10",
                                        OOKLA_BRUSSELS)
        access.finalize()
        result = run_speedtest(
            access.client, server, "down", connections=1,
            warmup_s=cfg.speedtest_warmup_s,
            measure_s=cfg.speedtest_measure_s,
            config=TcpConfig(cc=cfg.cc))
        return SpeedtestSample(t=epoch, network="starlink",
                               direction="down",
                               throughput_mbps=result.throughput_mbps,
                               outcome=result.outcome)

    def finalize(self, payloads) -> FleetTerminalResult:
        cfg = self.config
        times: list[float] = []
        rtts: list[float] = []
        shares: list[float] = []
        speedtests: list[SpeedtestSample] = []
        for tag, payload in payloads:
            if tag == "ping":
                chunk_times, chunk_rtts, chunk_shares = payload
                times.extend(chunk_times)
                rtts.extend(chunk_rtts)
                shares.extend(chunk_shares)
            else:
                speedtests.append(payload)
        # Placement is a pure function of the config, so the merge can
        # rebuild it without shipping coordinates through every atom.
        site = build_fleet_terminals(fleet_spec_for(cfg))[self.index]
        rtts_arr = np.array(rtts)
        outcome = _series_outcome(int(np.isnan(rtts_arr).sum()),
                                  rtts_arr.size, f"from {site.name}")
        return FleetTerminalResult(
            index=self.index, name=site.name,
            lat_deg=site.location.lat_deg,
            lon_deg=site.location.lon_deg,
            times=np.array(times), rtts=rtts_arr,
            shares=np.array(shares), speedtests=speedtests,
            outcome=outcome)


#: Everything the executor accepts.
WorkUnit = (PingSeriesUnit | StreamingPingUnit | SpeedtestUnit | BulkUnit
            | MessagesUnit | WebRoundUnit | FleetTerminalUnit)
