"""Which public entry points the traced run wraps, and the per-layer
metrics derived from the spans and counters they record.

Every name is patched where it is looked up: a function the work
units import by name is wrapped in :mod:`repro.exec.units`, a method
on its class. :func:`install` returns the :class:`~tracer.Patcher`
that takes every wrapper out again.
"""

from __future__ import annotations

import importlib
import weakref

from tracer import MARK, Patcher, Tracer, is_wrapped

#: (module, class or None, attribute, span name).
SPANS = [
    ("repro.core.campaign", None, "execute_units", "exec.execute_units"),
    *(("repro.exec.units", cls, "run", "exec.unit") for cls in (
        "PingSeriesUnit", "StreamingPingUnit", "SpeedtestUnit",
        "BulkUnit", "MessagesUnit", "WebRoundUnit",
        "FleetTerminalUnit")),
    ("repro.netsim.engine", "Simulator", "run_until_idle",
     "netsim.engine"),
    ("repro.netsim.link", "Pipe", "send", "netsim.pipe"),
    ("repro.netsim.loss", "TimedGilbertElliottLoss", "is_lost",
     "netsim.loss"),
    ("repro.netsim.loss", "OutageSchedule", "is_lost", "netsim.loss"),
    ("repro.netsim.node", "Host", "receive", "transport.rx"),
    *(("repro.transport.cc", cls, "on_ack", "transport.cc") for cls in (
        "NewRenoController", "CubicController", "BBRController")),
    ("repro.geo.pep", "PepBox", "receive", "geo.pep"),
    ("repro.exec.units", None, "run_speedtest", "apps.speedtest"),
    ("repro.exec.units", None, "run_bulk_transfer", "apps.bulk"),
    ("repro.exec.units", None, "run_messages_workload", "apps.messages"),
    ("repro.apps.web.browser", "BrowserEngine", "visit", "apps.web"),
    *((module, cls, attr, "leo.access_build")
      for module, cls in (("repro.leo.access", "StarlinkAccess"),
                          ("repro.geo.satcom", "GeoSatComAccess"))
      for attr in ("__init__", "finalize")),
    ("repro.leo.scheduling", "SatelliteScheduler", "snapshot",
     "leo.snapshot"),
    ("repro.leo.scheduling", "SatelliteScheduler", "handover_events",
     "leo.handover_scan"),
    ("repro.leo.access", "StarlinkPathModel", "idle_rtt", "leo.idle_rtt"),
    ("repro.leo.mobility", "WaypointTrajectory", "position_at",
     "leo.mobility"),
    ("repro.leo.mobility", "ObstructionTrace", "mask_at", "leo.mobility"),
    ("repro.leo.fleet", "FleetScheduler", "snapshot_at",
     "leo.fleet_snapshot"),
    ("repro.leo.fleet", "FleetScheduler", "capacity_share",
     "leo.fleet_share"),
    *(("repro.disrupt.schedule", "DisruptionSchedule", attr,
       "disrupt.query")
      for attr in ("blackout_at", "extra_loss_prob", "capacity_factor")),
    *(("repro.core.datasets", "PingAnchorSink", attr, "core.sink_fold")
      for attr in ("add_chunk", "merge")),
    *(("repro.core.availability", "AvailabilityAccumulator", attr,
       "core.availability")
      for attr in ("add_probes", "add_outcome", "add_burst_times",
                   "merge", "report")),
    ("repro.core.campaign", None, "analyze_availability",
     "core.availability"),
    ("repro.core.campaign", None, "analyze_mobility", "core.attribution"),
    *(("repro.core.reporting", None, attr, "core.render") for attr in (
        "render_figure5", "render_table2", "render_figure6",
        "render_availability", "render_precision_notes",
        "render_mobility", "render_fleet")),
]

#: Per-layer metric -> (unit, how it is derived). ``("calls", span)``,
#: ``("self_s", span)`` and ``("incl_s", span)`` read the span summary;
#: ``("counter", name)`` reads a counter; ``("probe", name)`` a value
#: the child measured itself.
METRICS = {
    "setup.import_s": ("s", ("probe", "import_s")),
    "setup.build_s": ("s", ("probe", "build_s")),
    "exec.units": ("count", ("calls", "exec.unit")),
    "exec.runner_self_s": ("s", ("self_s", "exec.execute_units")),
    "netsim.events": ("count", ("counter", "netsim.events")),
    "netsim.engine_self_s": ("s", ("self_s", "netsim.engine")),
    "netsim.pipe_sends": ("count", ("calls", "netsim.pipe")),
    "netsim.pipe_self_s": ("s", ("self_s", "netsim.pipe")),
    "netsim.loss_calls": ("count", ("calls", "netsim.loss")),
    "netsim.loss_s": ("s", ("incl_s", "netsim.loss")),
    "transport.rx_self_s": ("s", ("self_s", "transport.rx")),
    "transport.cc_calls": ("count", ("calls", "transport.cc")),
    "transport.cc_s": ("s", ("incl_s", "transport.cc")),
    "transport.tcp_segments": ("count", ("counter", "tcp.segments")),
    "transport.tcp_retransmissions": (
        "count", ("counter", "tcp.retransmissions")),
    "transport.tcp_timeouts": ("count", ("counter", "tcp.timeouts")),
    "transport.quic_packets": ("count", ("counter", "quic.packets")),
    "transport.quic_lost": ("count", ("counter", "quic.lost")),
    "geo.pep_packets": ("count", ("calls", "geo.pep")),
    "geo.pep_self_s": ("s", ("self_s", "geo.pep")),
    "apps.speedtest_s": ("s", ("incl_s", "apps.speedtest")),
    "apps.bulk_s": ("s", ("incl_s", "apps.bulk")),
    "apps.messages_s": ("s", ("incl_s", "apps.messages")),
    "apps.web_s": ("s", ("incl_s", "apps.web")),
    "leo.access_build_s": ("s", ("incl_s", "leo.access_build")),
    "leo.snapshot_calls": ("count", ("calls", "leo.snapshot")),
    "leo.snapshot_s": ("s", ("self_s", "leo.snapshot")),
    "leo.handover_scan_s": ("s", ("incl_s", "leo.handover_scan")),
    "leo.position_hits": ("count", ("counter", "leo.position_hits")),
    "leo.position_misses": ("count", ("counter", "leo.position_misses")),
    "leo.idle_rtt_calls": ("count", ("calls", "leo.idle_rtt")),
    "leo.idle_rtt_self_s": ("s", ("self_s", "leo.idle_rtt")),
    "leo.mobility_s": ("s", ("incl_s", "leo.mobility")),
    "leo.fleet_snapshot_calls": ("count", ("calls", "leo.fleet_snapshot")),
    "leo.fleet_snapshot_s": ("s", ("incl_s", "leo.fleet_snapshot")),
    "leo.fleet_share_s": ("s", ("incl_s", "leo.fleet_share")),
    "leo.fleet_prefilter_kept": (
        "ratio", ("counter", "leo.fleet_prefilter_kept")),
    "disrupt.query_calls": ("count", ("calls", "disrupt.query")),
    "disrupt.query_s": ("s", ("incl_s", "disrupt.query")),
    "core.sink_fold_s": ("s", ("incl_s", "core.sink_fold")),
    "core.availability_s": ("s", ("incl_s", "core.availability")),
    "core.attribution_s": ("s", ("incl_s", "core.attribution")),
    "core.render_s": ("s", ("incl_s", "core.render")),
    "core.governor_stage": ("stage", ("probe", "governor_stage")),
    "core.resident_samples": ("count", ("probe", "resident_samples")),
    "trace.overhead_s": ("s", ("probe", "overhead_s")),
}

#: Metrics that must repeat exactly between two traced runs of the
#: same inputs (the work counters; times jitter).
EXACT = frozenset(name for name, (unit, _) in METRICS.items()
                  if unit in ("count", "ratio", "stage"))


#: Classes whose instances the traced run keeps track of, to sum their
#: work counters at the end.
REGISTRIES = [
    ("repro.transport.tcp.connection", "TcpConnection"),
    ("repro.transport.quic.connection", "QuicConnection"),
    ("repro.leo.constellation", "Constellation"),
    ("repro.leo.fleet", "FleetScheduler"),
]


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) the traced run replaces."""
    found = [(_owner(m, c), attr) for m, c, attr, _ in SPANS]
    found.append((_owner("repro.netsim.engine", "Simulator"), "run"))
    for module, cls in REGISTRIES:
        found.append((_owner(module, cls), "__init__"))
    return found


def wrapped_targets() -> int:
    """How many targets currently hold a tracer wrapper."""
    return sum(is_wrapped(vars(owner).get(attr, getattr(owner, attr)))
               for owner, attr in targets())


class Collector:
    """Sums the work counters of every instance built while traced.

    Connection stats are folded when their connection is collected
    (so the trace keeps no simulation alive) and at :meth:`finish`
    for the ones still alive.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._finalizers: list[weakref.finalize] = []
        self._constellations: list = []
        self._fleets: list = []

    def _fold_tcp(self, stats) -> None:
        self.tracer.count("tcp.segments", stats.segments_sent)
        self.tracer.count("tcp.retransmissions", stats.retransmissions)
        self.tracer.count("tcp.timeouts", stats.timeouts)

    def _fold_quic(self, stats) -> None:
        self.tracer.count("quic.packets", stats.packets_sent)
        self.tracer.count("quic.lost", len(stats.lost_pns))

    def register(self, obj) -> None:
        kind = type(obj).__name__
        if kind == "TcpConnection":
            self._finalizers.append(
                weakref.finalize(obj, self._fold_tcp, obj.stats))
        elif kind == "QuicConnection":
            self._finalizers.append(
                weakref.finalize(obj, self._fold_quic, obj.stats))
        elif kind == "Constellation":
            self._constellations.append(obj)
        elif kind == "FleetScheduler":
            self._fleets.append(obj)

    def finish(self) -> None:
        for finalizer in self._finalizers:
            finalizer()
        for c in self._constellations:
            self.tracer.count("leo.position_hits", c.position_cache_hits)
            self.tracer.count("leo.position_misses",
                              c.position_cache_misses)
        kept = sum(f.prefilter_kept for f in self._fleets)
        total = sum(f.prefilter_total for f in self._fleets)
        self.tracer.counters["leo.fleet_prefilter_kept"] = (
            kept / total if total else 0.0)


def install(tracer: Tracer) -> tuple[Patcher, Collector]:
    """Wrap every target; the patcher restores them."""
    patcher = Patcher()
    collector = Collector(tracer)
    for module, cls, attr, name in SPANS:
        patcher.wrap(tracer, _owner(module, cls), attr, name)

    simulator = _owner("repro.netsim.engine", "Simulator")
    run = tracer.wrap("netsim.engine", simulator.run)

    def counted_run(sim, *args, **kwargs):
        before = sim.events_processed
        try:
            return run(sim, *args, **kwargs)
        finally:
            tracer.count("netsim.events",
                         sim.events_processed - before)

    setattr(counted_run, MARK, True)
    patcher.patch(simulator, "run", counted_run)

    for module, cls in REGISTRIES:
        owner = _owner(module, cls)
        patcher.patch(owner, "__init__",
                      _registering_init(owner.__init__, collector))
    return patcher, collector


def _registering_init(init, collector: Collector):
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        collector.register(self)

    setattr(__init__, MARK, True)
    return __init__


def derive(summary: dict, counters: dict, probes: dict) -> dict:
    """Every per-layer metric as ``{name: {"value", "unit"}}``."""
    out = {}
    for metric, (unit, (source, key)) in METRICS.items():
        if source == "counter":
            value = counters.get(key, 0)
        elif source == "probe":
            value = probes.get(key, 0)
        else:
            value = summary.get(key, {}).get(source, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
