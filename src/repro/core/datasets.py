"""Dataset containers collected by the campaign (Table 1).

The ping series is stored as parallel numpy arrays (1M+ samples);
packet-level experiment outcomes keep their rich result objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.bulk import BulkTransferResult
from repro.apps.messages import MessagesResult
from repro.apps.outcome import MeasurementOutcome, outcome_field
from repro.core.anchors import ANCHORS, EUROPEAN_REGIONS, anchor_by_name
from repro.errors import AnalysisError


@dataclass
class PingDataset:
    """Five months of ping samples, per anchor.

    ``series[anchor_name] = (times, rtts)`` with NaN for lost probes.
    Times are campaign seconds.
    """

    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    #: Per-anchor measurement outcome (digest-excluded: observability
    #: layered on the measured payload, not part of it).
    outcomes: dict[str, MeasurementOutcome] = field(
        default_factory=dict, metadata={"digest": False})

    def anchors(self) -> list[str]:
        """Anchor names present, in canonical order."""
        ordered = [a.name for a in ANCHORS if a.name in self.series]
        extras = [n for n in self.series if n not in ordered]
        return ordered + sorted(extras)

    def rtts(self, anchor: str) -> np.ndarray:
        """Successful RTT samples (seconds) for one anchor."""
        _, values = self.series[anchor]
        return values[~np.isnan(values)]

    def loss_ratio(self, anchor: str) -> float:
        """Fraction of probes lost toward one anchor."""
        _, values = self.series[anchor]
        if values.size == 0:
            return 0.0
        return float(np.isnan(values).mean())

    def european(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, rtts) pooled over the European anchors (Fig. 2)."""
        times_list, values_list = [], []
        for name in self.anchors():
            if anchor_by_name(name).region not in EUROPEAN_REGIONS:
                continue
            t, v = self.series[name]
            ok = ~np.isnan(v)
            times_list.append(t[ok])
            values_list.append(v[ok])
        if not times_list:
            return np.array([]), np.array([])
        times = np.concatenate(times_list)
        values = np.concatenate(values_list)
        order = np.argsort(times)
        return times[order], values[order]

    @property
    def total_samples(self) -> int:
        """Number of probes across all anchors."""
        return sum(t.size for t, _ in self.series.values())


class PingAnchorSink:
    """Streaming accumulator for one anchor's ping series.

    The counterpart of one ``PingDataset.series`` entry. While
    **exact** (total samples below ``exact_threshold``
    and no budget pressure) the raw ``(times, rtts)`` chunks are
    retained, every query routes through the same numpy the batch
    dataset uses, and :meth:`to_series` reproduces the batch arrays
    bit for bit. Once **streaming**, the chunks collapse into a
    quantile sketch + time-bin aggregate + seeded reservoir (for
    ECDF plots) and memory grows with the campaign clock, not with
    the sample count: the availability counts stay exact, one per
    probe instant, and the time-bin aggregate keeps one sketch per
    6 h bin.

    Mergeable in shard order: ``merge`` appends the other sink's
    state as if its chunks had been added here, so the executor's
    in-order fold reproduces the serial result.
    """

    #: Fig. 2 bin width (6 h), the campaign's default time binning.
    BIN_WIDTH_S = 6 * 3600.0

    def __init__(self, anchor: str, *,
                 exact_threshold: int = 100_000,
                 reservoir_k: int = 2048,
                 max_centroids: int = 512,
                 reservoir_seed: int = 0) -> None:
        from repro.core.availability import AvailabilityAccumulator
        from repro.core.stats import (BottomKReservoir,
                                      StreamingQuantiles,
                                      TimeBinAggregate)
        self.anchor = anchor
        self.exact_threshold = exact_threshold
        self.streaming = False
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self.sketch = StreamingQuantiles(
            exact_threshold=0, max_centroids=max_centroids)
        self.binned = TimeBinAggregate(
            bin_width=self.BIN_WIDTH_S, exact_threshold=0,
            max_centroids=max_centroids)
        self.reservoir = BottomKReservoir(k=reservoir_k,
                                          seed=reservoir_seed)
        self.availability = AvailabilityAccumulator()
        self.outcome: MeasurementOutcome = MeasurementOutcome()

    # -- ingestion ---------------------------------------------------

    def add_chunk(self, times: np.ndarray, rtts: np.ndarray,
                  keys: np.ndarray | None = None) -> None:
        """Fold one time-ordered chunk of the anchor's series.

        ``keys`` are the chunk's identity-derived reservoir keys
        (:meth:`BottomKReservoir.keys_for`); omitted keys skip the
        reservoir (fine for availability-only accumulation).
        """
        times = np.asarray(times, dtype=float)
        rtts = np.asarray(rtts, dtype=float)
        self.availability.add_probes(times, rtts)
        ok = ~np.isnan(rtts)
        if keys is not None:
            self.reservoir.add(keys[ok], times[ok], rtts[ok])
        if self.streaming:
            self._absorb(times[ok], rtts[ok])
        else:
            self._chunks.append((times, rtts))
            if self.total_probes > self.exact_threshold:
                self.to_streaming()

    def _absorb(self, ok_times: np.ndarray,
                ok_rtts: np.ndarray) -> None:
        if ok_rtts.size:
            self.sketch.add(ok_rtts)
            self.binned.add(ok_times, ok_rtts)

    def to_streaming(self) -> None:
        """Collapse retained chunks into the sketches (irreversible)."""
        if self.streaming:
            return
        self.streaming = True
        for times, rtts in self._chunks:
            ok = ~np.isnan(rtts)
            self._absorb(times[ok], rtts[ok])
        self._chunks = []

    def merge(self, other: "PingAnchorSink") -> None:
        if other.anchor != self.anchor:
            raise ValueError(f"cannot merge sink for {other.anchor!r} "
                             f"into sink for {self.anchor!r}")
        self.availability.merge(other.availability)
        self.reservoir.merge(other.reservoir)
        if other.streaming and not self.streaming:
            self.to_streaming()
        if self.streaming:
            if other.streaming:
                self.sketch.merge(other.sketch)
                self.binned.merge(other.binned)
            else:
                for times, rtts in other._chunks:
                    ok = ~np.isnan(rtts)
                    self._absorb(times[ok], rtts[ok])
        else:
            self._chunks.extend(other._chunks)
            if self.total_probes > self.exact_threshold:
                self.to_streaming()

    # -- queries -----------------------------------------------------

    @property
    def exact(self) -> bool:
        return not self.streaming

    @property
    def total_probes(self) -> int:
        return self.availability.total_probes

    @property
    def lost_probes(self) -> int:
        return self.availability.lost_probes

    @property
    def loss_ratio(self) -> float:
        if self.total_probes == 0:
            return 0.0
        return self.lost_probes / self.total_probes

    @property
    def resident_samples(self) -> int:
        """Raw samples still held (the governance trigger)."""
        held = sum(t.size for t, _ in self._chunks)
        return (held + self.sketch.resident_samples
                + self.binned.resident_samples + len(self.reservoir))

    def to_series(self) -> tuple[np.ndarray, np.ndarray]:
        """The batch ``(times, rtts)`` arrays; exact mode only."""
        if self.streaming:
            raise AnalysisError(
                f"anchor {self.anchor!r} has been compressed to "
                "streaming precision; the raw series is gone")
        if not self._chunks:
            return np.array([]), np.array([])
        times = np.concatenate([t for t, _ in self._chunks])
        rtts = np.concatenate([r for _, r in self._chunks])
        return times, rtts

    def ok_rtts(self) -> np.ndarray:
        """Successful RTTs: the full set (exact) or the seeded
        reservoir subsample (streaming)."""
        if self.exact:
            _, rtts = self.to_series()
            return rtts[~np.isnan(rtts)]
        _, values = self.reservoir.sample()
        return values

    def boxplot(self):
        """Fig.-1 summary; exact mode == ``boxplot_stats`` of the
        sorted successful RTTs (see ``StreamingQuantiles.boxplot``)."""
        from repro.core.stats import StreamingQuantiles
        if self.exact:
            sink = StreamingQuantiles(exact_threshold=10 ** 18)
            sink.add(self.ok_rtts())
            return sink.boxplot()
        return self.sketch.boxplot()

    def spill(self, directory: str) -> str:
        """Move the reservoir payload to disk (the SPILLED stage)."""
        import os
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.anchor}.reservoir.npz")
        self.reservoir.spill(path)
        return path


class StreamingPingDataset:
    """Sink-backed counterpart of :class:`PingDataset`.

    Exposes the same analysis API (``anchors``/``rtts``/
    ``loss_ratio``/``european``/``total_samples``) over per-anchor
    :class:`PingAnchorSink` accumulators instead of materialised
    series. While every sink is exact, :meth:`to_ping_dataset`
    reconstructs the batch dataset bit for bit (the digest gate for
    streaming == batch); once the attached
    :class:`~repro.exec.resources.ResourceBudget` forces compression,
    ``rtts``/``european`` answer from the seeded reservoirs and every
    precision loss is on record as a PARTIAL-PRECISION note.
    """

    #: What each ladder stage gives up, for the recorded note.
    _CONSEQUENCES = {
        "STREAMING": "exact sample buffers compressed to t-digest "
                     "sketches (quantiles approximate, counts/"
                     "extremes/availability still exact)",
        "SHRUNK_RESERVOIRS": "ECDF reservoir samples halved",
        "SPILLED": "cold per-anchor reservoirs spilled to disk",
    }

    def __init__(self, budget=None, spill_dir: str | None = None) -> None:
        self.sinks: dict[str, PingAnchorSink] = {}
        self.outcomes: dict[str, MeasurementOutcome] = {}
        self.budget = budget
        self.spill_dir = spill_dir

    # -- ingestion ---------------------------------------------------

    def add_sink(self, sink: PingAnchorSink) -> None:
        mine = self.sinks.get(sink.anchor)
        if mine is None:
            self.sinks[sink.anchor] = sink
            if self.budget is not None and self.budget.degraded:
                # Late-arriving sinks join at the current stage.
                self._apply_stages_to(sink)
        else:
            mine.merge(sink)
        self.outcomes.setdefault(sink.anchor, sink.outcome)
        self._govern()

    def add_series(self, anchor: str, times, rtts,
                   keys=None, **sink_params) -> None:
        sink = PingAnchorSink(anchor, **sink_params)
        sink.add_chunk(np.asarray(times, dtype=float),
                       np.asarray(rtts, dtype=float), keys)
        self.add_sink(sink)

    # -- resource governance -----------------------------------------

    @property
    def resident_samples(self) -> int:
        return sum(s.resident_samples for s in self.sinks.values())

    def _govern(self) -> None:
        if self.budget is None:
            return
        while True:
            reason = self.budget.over_soft_budget(self.resident_samples)
            if reason is None:
                return
            from repro.exec.resources import STAGES
            pending = STAGES[min(self.budget._stage_idx + 1,
                                 len(STAGES) - 1)]
            consequence = self._CONSEQUENCES.get(pending, pending)
            stage = self.budget.next_stage(reason, consequence)
            for sink in self.sinks.values():
                self._apply(stage, sink)

    def _apply(self, stage: str, sink: PingAnchorSink) -> None:
        if stage == "STREAMING":
            sink.to_streaming()
        elif stage == "SHRUNK_RESERVOIRS":
            sink.reservoir.shrink(max(1, sink.reservoir.k // 2))
        elif stage == "SPILLED":
            import tempfile
            if self.spill_dir is None:
                self.spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
            sink.spill(self.spill_dir)

    def _apply_stages_to(self, sink: PingAnchorSink) -> None:
        from repro.exec.resources import STAGES
        for stage in STAGES[1:self.budget._stage_idx + 1]:
            self._apply(stage, sink)

    def precision_notes(self) -> list[str]:
        return self.budget.notes() if self.budget is not None else []

    # -- the PingDataset analysis API --------------------------------

    def anchors(self) -> list[str]:
        ordered = [a.name for a in ANCHORS if a.name in self.sinks]
        extras = [n for n in self.sinks if n not in ordered]
        return ordered + sorted(extras)

    def rtts(self, anchor: str) -> np.ndarray:
        """Successful RTTs: full set while exact, the seeded
        reservoir subsample once streaming."""
        return self.sinks[anchor].ok_rtts()

    def loss_ratio(self, anchor: str) -> float:
        return self.sinks[anchor].loss_ratio

    def european(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, rtts) pooled over European anchors (Fig. 2);
        reservoir-sampled once streaming."""
        times_list, values_list = [], []
        for name in self.anchors():
            if anchor_by_name(name).region not in EUROPEAN_REGIONS:
                continue
            sink = self.sinks[name]
            if sink.exact:
                t, v = sink.to_series()
                ok = ~np.isnan(v)
                times_list.append(t[ok])
                values_list.append(v[ok])
            else:
                t, v = sink.reservoir.sample()
                times_list.append(t)
                values_list.append(v)
        if not times_list:
            return np.array([]), np.array([])
        times = np.concatenate(times_list)
        values = np.concatenate(values_list)
        order = np.argsort(times)
        return times[order], values[order]

    @property
    def total_samples(self) -> int:
        return sum(s.total_probes for s in self.sinks.values())

    # -- streaming-native queries ------------------------------------

    def boxplot(self, anchor: str):
        return self.sinks[anchor].boxplot()

    def availability(self):
        """Pooled :class:`AvailabilityAccumulator` over all anchors."""
        from repro.core.availability import AvailabilityAccumulator
        pooled = AvailabilityAccumulator()
        for name in self.anchors():
            pooled.merge(self.sinks[name].availability)
            pooled.add_outcome(self.outcomes.get(
                name, MeasurementOutcome()).status)
        return pooled

    def availability_report(self, scenario: str = "clear_sky",
                            **kwargs):
        """Ping-level availability report (episodes, availability %,
        outcome tally). Bulk loss-burst attribution needs the bulk
        dataset and stays with the batch ``analyze_availability``."""
        return self.availability().report(scenario=scenario, **kwargs)

    def to_ping_dataset(self) -> PingDataset:
        """Reconstruct the batch dataset; exact mode only.

        This is the streaming == batch digest gate: while no sink has
        degraded, the reconstructed :class:`PingDataset` is bit-
        identical to what the batch pipeline builds from the same
        campaign.
        """
        series = {name: self.sinks[name].to_series()
                  for name in self.anchors()}
        return PingDataset(series=series, outcomes=dict(self.outcomes))


@dataclass
class SpeedtestSample:
    """One Ookla-like test outcome."""

    t: float
    network: str           # "starlink" | "satcom"
    direction: str         # "down" | "up"
    throughput_mbps: float
    outcome: MeasurementOutcome = outcome_field()


@dataclass
class BulkSample:
    """One H3 bulk transfer with its full measurement record."""

    t: float
    direction: str
    session: int           # 1 = before Apr 25, 2 = after
    result: BulkTransferResult

    @property
    def outcome(self) -> MeasurementOutcome:
        """The transfer's measurement outcome."""
        return self.result.outcome


@dataclass
class MessagesSample:
    """One messages-workload run."""

    t: float
    direction: str
    result: MessagesResult

    @property
    def outcome(self) -> MeasurementOutcome:
        """The run's measurement outcome."""
        return self.result.outcome


@dataclass
class VisitSample:
    """One web-page visit."""

    t: float
    network: str
    url: str
    onload_s: float
    speed_index_s: float
    n_connections: int
    connection_setup_s: list[float] = field(default_factory=list)
    outcome: MeasurementOutcome = outcome_field()


@dataclass
class FleetTerminalResult:
    """One fleet terminal's campaign record.

    ``times``/``rtts`` are the terminal's idle-latency series to its
    PoP (NaN for lost probes, exactly like :class:`PingDataset`);
    ``shares`` holds the per-round fair capacity share (1 / terminals
    served by the same satellite), NaN where the terminal was
    unservable that slot.
    """

    index: int
    name: str
    lat_deg: float
    lon_deg: float
    times: np.ndarray
    rtts: np.ndarray
    shares: np.ndarray
    speedtests: list[SpeedtestSample] = field(default_factory=list)
    outcome: MeasurementOutcome = outcome_field()

    def ok_rtts(self) -> np.ndarray:
        """Successful RTT samples, seconds."""
        return self.rtts[~np.isnan(self.rtts)]

    @property
    def loss_ratio(self) -> float:
        """Fraction of probes lost."""
        if self.rtts.size == 0:
            return 0.0
        return float(np.isnan(self.rtts).mean())

    @property
    def mean_share(self) -> float:
        """Mean fair capacity share over servable rounds."""
        ok = self.shares[~np.isnan(self.shares)]
        return float(ok.mean()) if ok.size else float("nan")


@dataclass
class FleetDataset:
    """Per-terminal datasets of one fleet campaign."""

    terminals: list[FleetTerminalResult] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of terminals."""
        return len(self.terminals)

    @property
    def total_samples(self) -> int:
        """Ping probes across the whole fleet."""
        return sum(t.rtts.size for t in self.terminals)

    def oversubscription(self) -> float:
        """Fleet-wide mean terminals-per-serving-satellite.

        The reciprocal of the mean fair share: 1.0 means every
        terminal had its satellite to itself, higher means contention.
        """
        shares = np.concatenate(
            [t.shares for t in self.terminals]) if self.terminals \
            else np.array([])
        ok = shares[~np.isnan(shares)]
        if ok.size == 0:
            return float("nan")
        return float(1.0 / ok.mean())


@dataclass
class CampaignDatasets:
    """Everything Table 1 inventories."""

    pings: PingDataset = field(default_factory=PingDataset)
    speedtests: list[SpeedtestSample] = field(default_factory=list)
    bulk: list[BulkSample] = field(default_factory=list)
    messages: list[MessagesSample] = field(default_factory=list)
    visits: list[VisitSample] = field(default_factory=list)

    def table1_rows(self) -> list[dict]:
        """The dataset-overview rows of Table 1."""
        st_networks = {s.network for s in self.speedtests}
        web_networks = {v.network for v in self.visits}
        return [
            {"measure": "Latency", "network": "Starlink",
             "samples": self.pings.total_samples,
             "target": f"{len(self.pings.series)} Anchors"},
            {"measure": "Throughput",
             "network": " + ".join(sorted(st_networks)) or "-",
             "samples": len(self.speedtests), "target": "Ookla servers"},
            {"measure": "Web Browsing",
             "network": " + ".join(sorted(web_networks)) or "-",
             "samples": len(self.visits),
             "target": f"{len({v.url for v in self.visits})} Websites"},
            {"measure": "QUIC H3", "network": "Starlink",
             "samples": len(self.bulk), "target": "Our server"},
            {"measure": "QUIC messages", "network": "Starlink",
             "samples": len(self.messages), "target": "Our server"},
        ]
