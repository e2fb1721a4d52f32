"""Resource governance for long (month-scale) campaigns.

A longitudinal campaign must never OOM-kill itself: when residency
grows past its budget the pipeline *degrades precision* instead of
crashing, one recorded stage at a time:

1. ``EXACT -> STREAMING`` — exact sample buffers collapse into
   t-digest sketches (quantiles gain a bounded rank error, counts and
   extremes stay exact);
2. ``-> SHRUNK_RESERVOIRS`` — the seeded ECDF reservoirs halve;
3. ``-> SPILLED`` — cold per-anchor reservoir blocks move to disk and
   are reloaded only when a figure asks for them;
4. past the hard cap there is nothing left to shed:
   :class:`~repro.errors.MemoryBudgetError` — the journal already
   checkpoints every completed unit, so the run exits cleanly and a
   ``--resume`` continues where it died.

Every transition is a :class:`PrecisionEvent`; reports render them as
PARTIAL-PRECISION notes so a degraded figure can never masquerade as
an exact one. Stage selection follows the executor's
``failure_policy`` convention: ``degrade`` (default) walks the
ladder, ``raise`` escalates the first soft-budget breach instead.

The :class:`MemoryWatchdog` supplies the measurements: ``tracemalloc``
(when tracing is active) plus the process RSS from ``/proc``; both
are advisory — the deterministic triggers are the sample counts the
sinks report, so tests and digest gates behave identically on any
machine.
"""

from __future__ import annotations

import os
import tracemalloc
from dataclasses import dataclass

from repro.errors import MemoryBudgetError, ResourceError

#: Governance policies, mirroring ``repro.exec.runner.FAILURE_POLICIES``.
RESOURCE_POLICIES = ("degrade", "raise")

#: The degradation ladder, in order. ``EXACT`` is the initial stage.
STAGES = ("EXACT", "STREAMING", "SHRUNK_RESERVOIRS", "SPILLED")


@dataclass(frozen=True)
class PrecisionEvent:
    """One recorded degradation-ladder transition."""

    #: Stage entered (one of :data:`STAGES` past the first).
    stage: str
    #: Campaign-level trigger, e.g. ``"resident samples 120000 >
    #: budget 100000"``.
    reason: str
    #: What precision was given up, for the rendered note.
    consequence: str


@dataclass(frozen=True)
class MemorySample:
    """One watchdog measurement."""

    rss_bytes: int
    traced_bytes: int
    traced_peak_bytes: int


class MemoryWatchdog:
    """Polls ``tracemalloc`` + RSS; purely observational.

    Reads ``VmRSS`` from ``/proc/self/status`` (zero where /proc is
    unavailable) and the traced heap when ``tracemalloc`` is active.
    The governor treats these as advisory signals beside the
    deterministic sample-count triggers.
    """

    @staticmethod
    def rss_bytes() -> int:
        try:
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) * 1024
        except OSError:
            pass
        return 0

    def poll(self) -> MemorySample:
        traced = peak = 0
        if tracemalloc.is_tracing():
            traced, peak = tracemalloc.get_traced_memory()
        return MemorySample(rss_bytes=self.rss_bytes(),
                            traced_bytes=traced, traced_peak_bytes=peak)


class ResourceBudget:
    """Budget + degradation ladder for one streaming campaign.

    ``max_resident_samples`` is the deterministic governor: streaming
    sinks report how many raw samples they still hold, and crossing
    the budget advances the ladder. ``max_bytes`` arms the
    opportunistic governor on the watchdog's RSS/tracemalloc
    readings. Past the last stage the run raises
    :class:`MemoryBudgetError` rather than degrade further.
    """

    def __init__(self,
                 max_resident_samples: int | None = None,
                 max_bytes: int | None = None,
                 policy: str = "degrade") -> None:
        if policy not in RESOURCE_POLICIES:
            raise ResourceError(
                f"unknown resource policy {policy!r}; "
                f"choose from {RESOURCE_POLICIES}")
        for name, value in (("max_resident_samples", max_resident_samples),
                            ("max_bytes", max_bytes)):
            if value is not None and value <= 0:
                raise ResourceError(f"{name} must be positive, "
                                    f"got {value}")
        self.max_resident_samples = max_resident_samples
        self.max_bytes = max_bytes
        self.policy = policy
        self.watchdog = MemoryWatchdog()
        self.events: list[PrecisionEvent] = []
        self._stage_idx = 0

    # -- state -------------------------------------------------------

    @property
    def stage(self) -> str:
        return STAGES[self._stage_idx]

    @property
    def degraded(self) -> bool:
        return self._stage_idx > 0

    def record(self, stage: str, reason: str, consequence: str) -> None:
        self.events.append(PrecisionEvent(stage=stage, reason=reason,
                                          consequence=consequence))

    # -- governance --------------------------------------------------

    def over_soft_budget(self, resident_samples: int) -> str | None:
        """The triggering description, or None while within budget."""
        if (self.max_resident_samples is not None
                and resident_samples > self.max_resident_samples):
            return (f"resident samples {resident_samples} > "
                    f"budget {self.max_resident_samples}")
        if self.max_bytes is not None:
            sample = self.watchdog.poll()
            observed = max(sample.traced_bytes, sample.rss_bytes)
            if observed > self.max_bytes:
                return (f"resident bytes {observed} > "
                        f"budget {self.max_bytes}")
        return None

    def next_stage(self, reason: str, consequence: str) -> str:
        """Advance the ladder (or escalate, or hit the hard cap).

        Returns the stage just entered. Under ``policy="raise"`` the
        first breach raises :class:`MemoryBudgetError` immediately —
        the all-or-nothing counterpart of ``failure_policy="raise"``.
        """
        if self.policy == "raise":
            raise MemoryBudgetError(
                f"memory budget exceeded under policy='raise': "
                f"{reason}")
        if self._stage_idx + 1 >= len(STAGES):
            self.hard_cap(reason)
        self._stage_idx += 1
        entered = self.stage
        self.record(entered, reason, consequence)
        return entered

    def hard_cap(self, reason: str) -> None:
        """The end of the ladder: checkpoint is on disk, exit cleanly."""
        raise MemoryBudgetError(
            "hard memory cap: every degradation stage exhausted "
            f"({reason}); completed units are checkpointed — "
            "rerun with --resume to continue")

    # -- reporting ---------------------------------------------------

    def notes(self) -> list[str]:
        """PARTIAL-PRECISION notes for the report renderer."""
        return [f"[PARTIAL PRECISION: entered {e.stage}: {e.reason}; "
                f"{e.consequence}]" for e in self.events]
