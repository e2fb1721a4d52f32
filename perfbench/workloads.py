"""The benchmark's four workloads.

Each workload turns the benchmark seed into a
:class:`~repro.core.campaign.CampaignConfig`, runs its measured phase
through the public :class:`~repro.core.campaign.Campaign` API (the
``Campaign.run_*`` calls plus the analysis and render of its
artefact), and states what a correct run must produce: the unit and
probe counts the config implies, full coverage, and on
``pings_wet_month`` the governor stage. Digests for the default and
the held-out seed live in ``expected.json`` beside this file.

Analysis and render functions are called through their modules
(``reporting.render_fleet``, not a name imported from it), so the
tracer can wrap them where they are looked up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core import browsing, loss_events, reporting, throughput
from repro.core.anchors import ANCHORS
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.datasets import CampaignDatasets
from repro.exec.resources import STAGES
from repro.rng import stable_seed
from repro.units import days, minutes

#: The late-epoch load a ``packet_mix`` config must carry: the start
#: epochs of its packet-level units, summed in campaign days. The
#: loss chains of every access walk from t=0 to the unit's epoch, so
#: this sum sets most of the workload's cost. 776 days is the median
#: over config seeds; the band keeps every benchmark seed at the same
#: load, as a fixed input size would.
PACKET_MIX_LOAD_DAYS = (753.0, 800.0)

#: Config seeds tried per benchmark seed before giving up.
MAX_CANDIDATES = 5000

#: Governor stage ``pings_wet_month`` must end in: past EXACT (the
#: sinks compress) and short of SPILLED (no disk I/O in the phase).
WET_MONTH_STAGE = "SHRUNK_RESERVOIRS"


@dataclass
class Outcome:
    """What a measured phase hands to the output check."""

    #: The datasets whose digest is checked.
    datasets: object
    #: The rendered artefact (must be non-empty).
    text: str
    #: Work units the phase attempted and the failures among them.
    units: int
    unit_failures: int
    #: Probe or sample count of the datasets (checked against the
    #: count the config implies).
    samples: int
    #: Measurement outcomes that are not ``ok``.
    failed_outcomes: int = 0
    #: Final governor stage and resident samples (0 when ungoverned).
    governor_stage: int = 0
    resident_samples: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Benchmark seed -> campaign config.
    config: Callable[[int], CampaignConfig]
    #: The measured phase.
    run: Callable[[Campaign], Outcome]
    #: Samples the config implies.
    expected_samples: Callable[[CampaignConfig], int]
    #: Units the config implies.
    expected_units: Callable[[CampaignConfig], int]
    #: Benchmark seed -> config seed; identity unless the workload
    #: pins an input property (see :func:`packet_mix_config_seed`).
    config_seed: Callable[[int], int] = lambda seed: seed
    #: Governor stage the phase must end in (None: ungoverned).
    governor_stage: str | None = None


def _rounds(cfg: CampaignConfig) -> int:
    return math.ceil(days(cfg.ping_days) / cfg.ping_interval_s)


def _coverage(campaign: Campaign) -> tuple[int, int]:
    report = campaign.degradation_report()
    return (report.total_units,
            len(report.failures)
            + report.total_units - report.completed_units)


# -- packet_mix --------------------------------------------------------

def _packet_mix(seed: int) -> CampaignConfig:
    return CampaignConfig(
        seed=seed, ping_days=1.0,
        speedtest_epochs=1, speedtest_connections=1,
        speedtest_warmup_s=0.2, speedtest_measure_s=0.7,
        satcom_warmup_s=0.6,
        bulk_per_direction=1, bulk_bytes=300_000,
        messages_per_direction=1, messages_duration_s=1.0,
        web_sites=4, web_visits_per_site=1)


def packet_mix_load_days(campaign: Campaign) -> float:
    """Start epochs of the packet-level units, summed in days."""
    units = (campaign.speedtest_units() + campaign.bulk_units()
             + campaign.messages_units())
    return sum(unit.epoch for unit in units) / days(1)


def packet_mix_config_seed(seed: int) -> int:
    """The first config seed derived from ``seed`` whose units carry
    the pinned late-epoch load (:data:`PACKET_MIX_LOAD_DAYS`)."""
    low, high = PACKET_MIX_LOAD_DAYS
    for k in range(MAX_CANDIDATES):
        candidate = stable_seed(seed, "packet_mix", k) % (1 << 31)
        load = packet_mix_load_days(Campaign(_packet_mix(candidate)))
        if low <= load <= high:
            return candidate
    raise RuntimeError(
        f"no config seed among {MAX_CANDIDATES} candidates for "
        f"benchmark seed {seed} carries {low}-{high} epoch days")


def _run_packet_mix(campaign: Campaign) -> Outcome:
    speedtests = campaign.run_speedtests()
    bulk = campaign.run_bulk()
    messages = campaign.run_messages()
    visits = campaign.run_web()
    text = "\n".join((
        reporting.render_figure5(
            throughput.figure5_throughput(speedtests, bulk)),
        reporting.render_table2(
            loss_events.table2_loss_ratios(bulk, messages)),
        reporting.render_figure6(browsing.figure6_browsing(visits))))
    samples = speedtests + bulk + messages + visits
    units, failures = _coverage(campaign)
    return Outcome(
        datasets=(speedtests, bulk, messages, visits), text=text,
        units=units, unit_failures=failures, samples=len(samples),
        failed_outcomes=sum(not s.outcome.is_ok for s in samples))


def _packet_mix_units(cfg: CampaignConfig) -> int:
    speedtests = 4 * cfg.speedtest_epochs
    bulk = 4 * cfg.bulk_per_direction
    messages = 2 * cfg.messages_per_direction
    return speedtests + bulk + messages + 3 * cfg.web_visits_per_site


def _packet_mix_samples(cfg: CampaignConfig) -> int:
    web_rounds = 3 * cfg.web_visits_per_site
    return (_packet_mix_units(cfg) - web_rounds
            + web_rounds * cfg.web_sites)


# -- pings_wet_month ---------------------------------------------------

def _wet_month(seed: int) -> CampaignConfig:
    return CampaignConfig(
        seed=seed, scenario="wet_month", ping_days=30.0,
        ping_interval_s=minutes(20), streaming_pings=True,
        memory_budget_mb=1.0)


def _run_wet_month(campaign: Campaign) -> Outcome:
    dataset = campaign.run_pings_streaming()
    report = dataset.availability_report(
        scenario=campaign.config.scenario)
    text = "\n".join((
        reporting.render_availability(report),
        reporting.render_precision_notes(dataset.precision_notes())))
    sinks = {name: (sink.total_probes, sink.lost_probes,
                    sink.boxplot())
             for name, sink in dataset.sinks.items()}
    units, failures = _coverage(campaign)
    return Outcome(
        datasets=(report, sinks), text=text, units=units,
        unit_failures=failures, samples=dataset.total_samples,
        governor_stage=STAGES.index(dataset.budget.stage),
        resident_samples=dataset.resident_samples)


def _anchor_units(cfg: CampaignConfig) -> int:
    return len(ANCHORS)


def _anchor_samples(cfg: CampaignConfig) -> int:
    return len(ANCHORS) * _rounds(cfg) * cfg.pings_per_round


# -- drive_canyon ------------------------------------------------------

#: Length of the drive and of the ping campaign, days.
DRIVE_DAYS = 0.3


def _drive_canyon(seed: int) -> CampaignConfig:
    return CampaignConfig(
        seed=seed, ping_days=DRIVE_DAYS, ping_interval_s=10.0,
        pings_per_round=2, trajectory="drive", speed_kmh=90.0,
        obstruction="urban_canyon",
        drive_duration_s=days(DRIVE_DAYS))


def _run_drive_canyon(campaign: Campaign) -> Outcome:
    pings = campaign.run_pings()
    mobility = campaign.mobility_report(CampaignDatasets(pings=pings))
    text = reporting.render_mobility(mobility)
    units, failures = _coverage(campaign)
    return Outcome(
        datasets=(pings, mobility), text=text, units=units,
        unit_failures=failures, samples=pings.total_samples)


# -- fleet_t64 ---------------------------------------------------------

FLEET_TERMINALS = 64


def _fleet_t64(seed: int) -> CampaignConfig:
    return CampaignConfig(
        seed=seed, ping_days=2.0, ping_interval_s=minutes(10),
        fleet_terminals=FLEET_TERMINALS, fleet_speedtest_epochs=0)


def _run_fleet_t64(campaign: Campaign) -> Outcome:
    fleet = campaign.run_fleet()
    text = reporting.render_fleet(fleet)
    units, failures = _coverage(campaign)
    return Outcome(
        datasets=fleet, text=text, units=units,
        unit_failures=failures, samples=fleet.total_samples)


def _fleet_samples(cfg: CampaignConfig) -> int:
    return cfg.fleet_terminals * _rounds(cfg) * cfg.pings_per_round


WORKLOADS = {w.name: w for w in (
    Workload("packet_mix", _packet_mix, _run_packet_mix,
             _packet_mix_samples, _packet_mix_units,
             config_seed=packet_mix_config_seed),
    Workload("pings_wet_month", _wet_month, _run_wet_month,
             _anchor_samples, _anchor_units,
             governor_stage=WET_MONTH_STAGE),
    Workload("drive_canyon", _drive_canyon, _run_drive_canyon,
             _anchor_samples, _anchor_units),
    Workload("fleet_t64", _fleet_t64, _run_fleet_t64,
             _fleet_samples, lambda cfg: cfg.fleet_terminals),
)}


def check(workload: Workload, config: CampaignConfig, outcome: Outcome,
          expected_digest: str | None, digest: str) -> list[str]:
    """Problems with one run's output; empty when it is correct."""
    problems = []
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"digest {digest[:16]} != recorded "
                        f"{expected_digest[:16]}")
    if outcome.unit_failures:
        problems.append(f"{outcome.unit_failures} of {outcome.units} "
                        "units failed or are missing")
    if outcome.units != workload.expected_units(config):
        problems.append(f"{outcome.units} units, config implies "
                        f"{workload.expected_units(config)}")
    if outcome.samples != workload.expected_samples(config):
        problems.append(f"{outcome.samples} samples, config implies "
                        f"{workload.expected_samples(config)}")
    if outcome.failed_outcomes:
        problems.append(f"{outcome.failed_outcomes} measurements did "
                        "not complete ok")
    if not outcome.text.strip():
        problems.append("empty rendered artefact")
    if workload.governor_stage is not None \
            and STAGES[outcome.governor_stage] != workload.governor_stage:
        problems.append(f"governor ended in "
                        f"{STAGES[outcome.governor_stage]}, expected "
                        f"{workload.governor_stage}")
    return problems
