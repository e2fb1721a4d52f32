"""Campaign execution substrate: work units and the parallel runner.

``repro.exec`` decomposes the measurement campaign into independent,
picklable work units (:mod:`repro.exec.units`) and executes them
through one supervisor, in-process or on a process pool, with a
deterministic ordered merge (:mod:`repro.exec.runner`); split units
fold their shards in order (:mod:`repro.exec.sharding`). Parallel
and sharded output is bit-identical to the
serial run for the same seed; ``tests/core/test_campaign_parallel.py``
pins that with the trace-digest machinery.

The runner is crash-safe: a :class:`~repro.exec.journal.Journal`
checkpoints every completed unit atomically (kill the run at any
instant and resume digest-identically), unit exceptions / worker
deaths / timeouts become structured :class:`UnitFailure` records with
bounded deterministic retry, and ``failure_policy="degrade"`` finishes
with partial output plus a :class:`DegradationReport`. Every such knob
is a field of one frozen, once-validated :class:`ExecOptions`.
``tests/exec/`` pins every recovery path with the chaos harness in
:mod:`repro.testing.chaos`.
"""

from repro.exec.journal import Journal
from repro.exec.resources import (
    RESOURCE_POLICIES,
    STAGES,
    MemoryWatchdog,
    PrecisionEvent,
    ResourceBudget,
)
from repro.exec.sharding import (
    SplittableUnit,
    UnitShard,
    atom_count,
    plan_shards,
    shard_label,
    task_cost,
)
from repro.exec.runner import (
    FAILURE_POLICIES,
    DegradationReport,
    ExecOptions,
    UnitFailure,
    UnitTiming,
    default_workers,
    execute_units,
    render_timings,
    timing_breakdown,
)
from repro.exec.units import (
    BulkUnit,
    CampaignUnit,
    FleetTerminalUnit,
    MessagesUnit,
    PingSeriesUnit,
    SpeedtestUnit,
    StreamingPingUnit,
    WebRoundUnit,
    WorkUnit,
    context_for,
    fleet_context_for,
)

__all__ = [
    "BulkUnit",
    "CampaignUnit",
    "DegradationReport",
    "ExecOptions",
    "FAILURE_POLICIES",
    "FleetTerminalUnit",
    "Journal",
    "MemoryWatchdog",
    "MessagesUnit",
    "PingSeriesUnit",
    "PrecisionEvent",
    "RESOURCE_POLICIES",
    "ResourceBudget",
    "STAGES",
    "SpeedtestUnit",
    "SplittableUnit",
    "StreamingPingUnit",
    "UnitFailure",
    "UnitShard",
    "UnitTiming",
    "WebRoundUnit",
    "WorkUnit",
    "atom_count",
    "context_for",
    "default_workers",
    "fleet_context_for",
    "execute_units",
    "plan_shards",
    "render_timings",
    "shard_label",
    "task_cost",
    "timing_breakdown",
]
