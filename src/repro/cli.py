"""Command-line interface: regenerate paper artefacts on demand.

Usage::

    python -m repro table1
    python -m repro fig1 --ping-days 20
    python -m repro fig6 --sites 40
    python -m repro all --workers 4 --timing
    python -m repro middlebox
    python -m repro errant

Artefact generation uses the quick campaign configuration by default;
``--full`` switches to the bench-scale configuration (slower, closer
to the paper's sample counts). ``--workers N`` fans the campaign's
work units out over N processes — the datasets are bit-identical to
the serial run — and ``--shard-granularity G`` additionally splits
each splittable unit into up to G shards that the pool steals
largest-first, so a single long unit no longer caps the speedup
(again bit-identical for every G). ``--timing`` prints a
per-unit-kind wall-clock breakdown after the artefacts. ``--profile DIR`` runs every work unit
under ``cProfile`` and dumps one ``*.pstats`` file per unit into DIR
(load with :mod:`pstats` to find hot spots).

Crash safety: ``--journal DIR`` checkpoints every completed work unit
into DIR, so a campaign killed at any instant can be rerun with
``--journal DIR --resume`` and finish from where it stopped — the
resumed dataset is bit-identical to an uninterrupted run. ``--retries
N`` re-attempts failing units with deterministic backoff,
``--unit-timeout S`` bounds one attempt's wall clock (the unit is
re-dispatched to a fresh worker), and ``--failure-policy degrade``
finishes with partial datasets plus a degradation report instead of
aborting on the first exhausted unit.

Adverse conditions: ``--scenario NAME`` runs the whole campaign under
a named disruption scenario (rain fade, satellite outage, gateway
flap, storm, generated Markov weather; see :mod:`repro.disrupt`), and
the ``availability`` artefact renders outage episodes,
time-to-recovery, the availability percentage and slot-aligned
loss-burst attribution::

    python -m repro availability --scenario sat_outage

Mobile-terminal mode: ``--trajectory drive`` puts the terminal on a
seeded random drive (``--speed-kmh`` sets the pace, implying the
drive when given alone) and ``--obstruction
{roadside,urban_canyon}`` adds seeded Markov sky shadowing; the
``mobility`` artefact renders the handover-episode analysis — churn
per hour by change kind, per-outage cause attribution (obstruction
vs weather vs handover) and recovery times::

    python -m repro mobility --trajectory drive --speed-kmh 90 \\
        --obstruction roadside

The default ``--trajectory stationary`` is bit-identical to the
classic fixed-terminal pipeline.

Longitudinal (month-scale) campaigns: ``--streaming`` routes the ping
pipeline through streaming sinks (bit-identical to the batch path
while exact) whose memory grows with the campaign clock, not with the
sample count; ``--duration-days D`` stretches the campaign,
``--memory-budget-mb M`` arms the resource governor (degrade
precision in recorded stages instead of OOMing; ``--resource-policy
raise`` escalates the first breach instead) and ``--track-memory``
adds per-unit peak-heap columns to ``--timing``. A run that exhausts
every degradation stage exits with status 3, its completed units
checkpointed in the journal for ``--resume``::

    python -m repro availability --streaming --scenario wet_month \\
        --duration-days 30 --memory-budget-mb 64 --journal DIR
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.core.availability import analyze_availability
from repro.core.campaign import Campaign, CampaignConfig, quick_config
from repro.core.browsing import figure6_browsing
from repro.core.datasets import CampaignDatasets
from repro.core.loss_events import table2_loss_ratios
from repro.core.middlebox import run_middlebox_study
from repro.core.reporting import (
    coverage_note,
    render_availability,
    render_degradation,
    render_mobility,
    render_precision_notes,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    render_fleet,
    render_middlebox,
    render_table1,
    render_table2,
)
from repro.core.rtt import (
    figure1_rtt_boxplots,
    figure2_timeseries,
    figure3_loaded_rtt,
)
from repro.core.throughput import figure5_throughput
from repro.disrupt.scenarios import scenario_names
from repro.leo.mobility import OBSTRUCTION_KINDS, TRAJECTORY_KINDS
from repro.transport.cc import CC_KINDS
from repro.errors import ConfigurationError, JournalError, MemoryBudgetError
from repro.exec.journal import Journal
from repro.exec.resources import RESOURCE_POLICIES
from repro.exec.runner import FAILURE_POLICIES, ExecOptions, render_timings
from repro.units import minutes

ARTEFACTS = ("table1", "fig1", "fig2", "fig3", "table2", "fig4",
             "fig5", "fig6", "middlebox", "errant", "availability",
             "mobility", "fleet", "all")

#: Which campaign datasets each artefact is derived from (for the
#: per-figure unit-coverage note of degraded runs).
ARTEFACT_DATASETS = {
    "table1": ("pings", "speedtests", "bulk", "messages", "visits"),
    "fig1": ("pings",),
    "fig2": ("pings",),
    "fig3": ("bulk", "messages"),
    "table2": ("bulk", "messages"),
    "fig4": ("bulk", "messages"),
    "fig5": ("speedtests", "bulk"),
    "fig6": ("visits",),
    "middlebox": (),
    "errant": ("pings", "speedtests", "messages"),
    "availability": ("pings", "speedtests", "bulk", "messages",
                     "visits"),
    "mobility": ("pings", "speedtests", "bulk", "messages",
                 "visits"),
    "fleet": ("fleet",),
}

#: The campaign run behind each dataset ``run_artefact`` caches.
DATASET_RUNS = {
    "pings": Campaign.run_pings,
    "pings_streaming": Campaign.run_pings_streaming,
    "speedtests": Campaign.run_speedtests,
    "bulk": Campaign.run_bulk,
    "messages": Campaign.run_messages,
    "visits": Campaign.run_web,
    "fleet": Campaign.run_fleet,
}

#: Terminals the ``fleet`` artefact runs when fleet mode is enabled
#: without an explicit ``--terminals``.
DEFAULT_FLEET_TERMINALS = 16

#: Drive pace when ``--trajectory drive`` is given without an
#: explicit ``--speed-kmh``.
DEFAULT_DRIVE_SPEED_KMH = 60.0


def _build_config(args: argparse.Namespace) -> CampaignConfig:
    config = quick_config(seed=args.seed)
    if args.full:
        config = CampaignConfig(seed=args.seed)
    ping_days = args.ping_days
    if args.duration_days is not None:
        ping_days = args.duration_days
    if ping_days is not None:
        config.ping_days = ping_days
        config.ping_interval_s = minutes(20)
    if args.sites is not None:
        config.web_sites = args.sites
    if args.scenario is not None:
        config.scenario = args.scenario
    if args.cc is not None:
        config.cc = args.cc
    if args.terminals is not None:
        config.fleet_terminals = args.terminals
    if (args.fleet or args.artefact == "fleet") \
            and config.fleet_terminals < 1:
        config.fleet_terminals = DEFAULT_FLEET_TERMINALS
    if args.streaming:
        config.streaming_pings = True
    if args.memory_budget_mb is not None:
        config.memory_budget_mb = args.memory_budget_mb
        config.streaming_pings = True   # a budget implies the sinks
    if args.resource_policy is not None:
        config.resource_policy = args.resource_policy
    if args.trajectory is not None:
        config.trajectory = args.trajectory
    if args.speed_kmh is not None:
        config.speed_kmh = args.speed_kmh
        if args.trajectory is None:
            config.trajectory = "drive"  # a pace implies the drive
    elif config.trajectory == "drive":
        config.speed_kmh = DEFAULT_DRIVE_SPEED_KMH
    if args.obstruction is not None:
        config.obstruction = args.obstruction
    return config


def _emit(text: str) -> None:
    print(text)
    print()


def run_artefact(name: str, campaign: Campaign, cache: dict) -> None:
    """Generate and print one artefact, reusing cached datasets.

    Every dataset runs under the campaign's execution options; when
    those degrade on failure, each artefact is followed by a
    unit-coverage note naming the datasets it was derived from.
    """

    def dataset(key: str):
        if key not in cache:
            if key == "pings" and campaign.config.streaming_pings:
                # Exact-mode reconstruction is bit-identical to the
                # batch pipeline; once the budget has degraded a sink
                # the raw series is gone and the sink says so.
                cache[key] = dataset("pings_streaming").to_ping_dataset()
            else:
                cache[key] = DATASET_RUNS[key](campaign)
        return cache[key]

    def datasets() -> CampaignDatasets:
        """Every dataset the artefact is derived from."""
        return CampaignDatasets(**{key: dataset(key)
                                   for key in ARTEFACT_DATASETS[name]})

    if name == "table1":
        _emit(render_table1(datasets().table1_rows()))
    elif name == "fig1":
        _emit(render_figure1(figure1_rtt_boxplots(dataset("pings"))))
    elif name == "fig2":
        _emit(render_figure2(figure2_timeseries(dataset("pings"))))
    elif name == "fig3":
        _emit(render_figure3(figure3_loaded_rtt(dataset("bulk"),
                                                dataset("messages"))))
    elif name == "table2":
        _emit(render_table2(table2_loss_ratios(dataset("bulk"),
                                               dataset("messages"))))
    elif name == "fig4":
        _emit(render_figure4(table2_loss_ratios(dataset("bulk"),
                                                dataset("messages"))))
    elif name == "fig5":
        _emit(render_figure5(figure5_throughput(dataset("speedtests"),
                                                dataset("bulk"))))
    elif name == "fig6":
        _emit(render_figure6(figure6_browsing(dataset("visits"))))
    elif name == "availability":
        if campaign.config.streaming_pings:
            # Streaming-native: incremental counts straight from the
            # sinks, exact at every degradation stage. Bulk loss-burst
            # attribution needs the batch datasets and is omitted.
            _emit(render_availability(
                dataset("pings_streaming").availability_report(
                    scenario=campaign.config.scenario)))
        else:
            _emit(render_availability(analyze_availability(
                datasets(), scenario=campaign.config.scenario)))
    elif name == "mobility":
        data = datasets()
        availability = analyze_availability(
            data, scenario=campaign.config.scenario)
        _emit(render_mobility(
            campaign.mobility_report(data, availability)))
    elif name == "fleet":
        _emit(render_fleet(dataset("fleet")))
    elif name == "middlebox":
        _emit(render_middlebox(run_middlebox_study(
            seed=campaign.config.seed)))
    elif name == "errant":
        from repro.errant import fit_profiles, to_json

        _emit(to_json(fit_profiles(datasets())))
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(f"unknown artefact {name!r}")

    report = campaign.degradation_report()
    if report.degraded:
        note = coverage_note(report, ARTEFACT_DATASETS.get(name, ()))
        if note:
            _emit(note)
    streamed = cache.get("pings_streaming")
    if streamed is not None \
            and "pings" in ARTEFACT_DATASETS.get(name, ()):
        notes = render_precision_notes(streamed.precision_notes())
        if notes:
            _emit(notes)


def _build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser.

    Flags that map onto :class:`ExecOptions` take their defaults from
    its fields, so the CLI and the library run a campaign alike.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts from 'A First Look at "
                    "Starlink Performance' (IMC 2022).")
    parser.add_argument("artefact", choices=ARTEFACTS,
                        help="which table/figure to regenerate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="bench-scale campaign (slow)")
    parser.add_argument("--ping-days", type=float, default=None,
                        help="override the ping-campaign length")
    parser.add_argument("--duration-days", type=float, default=None,
                        metavar="D",
                        help="campaign length in days (synonym of "
                             "--ping-days, named for the month-scale "
                             "longitudinal runs)")
    parser.add_argument("--sites", type=int, default=None,
                        help="override the web-corpus size")
    parser.add_argument("--scenario", choices=scenario_names(),
                        default=None,
                        help="adverse-conditions scenario the campaign "
                             "runs under (default clear_sky: disrupt "
                             "nothing)")
    parser.add_argument("--cc", choices=CC_KINDS, default=None,
                        help="congestion controller for the bulk "
                             "senders of every measurement app "
                             "(default cubic; cross with --scenario "
                             "for the CC x conditions matrix)")
    parser.add_argument("--trajectory", choices=TRAJECTORY_KINDS,
                        default=None,
                        help="terminal motion: 'stationary' (default, "
                             "bit-identical to the classic pipeline) "
                             "or 'drive' (seeded random road trip)")
    parser.add_argument("--speed-kmh", type=float, default=None,
                        metavar="V",
                        help="drive pace; given alone it implies "
                             "--trajectory drive (default "
                             f"{DEFAULT_DRIVE_SPEED_KMH:.0f} when "
                             "driving)")
    parser.add_argument("--obstruction", choices=OBSTRUCTION_KINDS,
                        default=None,
                        help="seeded Markov sky shadowing along the "
                             "route (default none)")
    parser.add_argument("--fleet", action="store_true",
                        help="enable fleet mode: N terminals sharing "
                             "one constellation; adds the 'fleet' "
                             "artefact to 'all'")
    parser.add_argument("--terminals", type=int, default=None,
                        metavar="N",
                        help="fleet size (implies nothing on its own; "
                             f"default {DEFAULT_FLEET_TERMINALS} when "
                             "fleet mode is enabled)")
    parser.add_argument("--workers", type=int,
                        default=ExecOptions.workers,
                        help="campaign worker processes (default "
                             "%(default)s; results are identical for "
                             "any value)")
    parser.add_argument("--shard-granularity", type=int,
                        default=ExecOptions.granularity, metavar="G",
                        help="split each splittable work unit into up "
                             "to G shards for work-stealing dispatch "
                             "(default %(default)s); results are "
                             "identical for any value")
    parser.add_argument("--timing", action="store_true",
                        help="print a per-unit wall-clock breakdown")
    parser.add_argument("--profile", metavar="DIR",
                        default=ExecOptions.profile_dir,
                        help="dump per-work-unit cProfile stats "
                             "(*.pstats) into DIR")
    parser.add_argument("--journal", metavar="DIR", default=None,
                        help="checkpoint each completed work unit "
                             "into DIR; already-journaled units are "
                             "skipped, so a killed run is resumable")
    parser.add_argument("--resume", action="store_true",
                        help="allow --journal to reuse a directory "
                             "that already holds checkpoints "
                             "(continue an interrupted campaign)")
    parser.add_argument("--retries", type=int,
                        default=ExecOptions.retries,
                        help="extra attempts per failing work unit "
                             "(default %(default)s)")
    parser.add_argument("--retry-backoff", type=float,
                        default=ExecOptions.retry_backoff_s, metavar="S",
                        help="base backoff before a retry, doubled "
                             "per attempt (default %(default)ss)")
    parser.add_argument("--unit-timeout", type=float,
                        default=ExecOptions.unit_timeout, metavar="S",
                        help="per-attempt wall-clock budget; a unit "
                             "exceeding it is re-dispatched to a "
                             "fresh worker")
    parser.add_argument("--failure-policy", choices=FAILURE_POLICIES,
                        default=ExecOptions.failure_policy,
                        help="'raise' aborts on the first exhausted "
                             "unit; 'degrade' finishes with partial "
                             "datasets plus a degradation report")
    parser.add_argument("--streaming", action="store_true",
                        help="run the ping campaign through streaming "
                             "sinks (bit-identical to the batch path "
                             "while exact)")
    parser.add_argument("--memory-budget-mb", type=float, default=None,
                        metavar="M",
                        help="memory budget for the streaming ping "
                             "pipeline, MiB (implies --streaming); "
                             "breaches degrade precision in recorded "
                             "stages, the exhausted ladder exits with "
                             "status 3")
    parser.add_argument("--resource-policy", choices=RESOURCE_POLICIES,
                        default=None,
                        help="'degrade' (default) walks the precision "
                             "ladder on a budget breach; 'raise' "
                             "escalates the first breach")
    parser.add_argument("--track-memory", action="store_true",
                        default=ExecOptions.track_memory,
                        help="measure each work unit's peak heap "
                             "(tracemalloc) and add a peak column to "
                             "--timing")
    return parser


def _exec_options(args: argparse.Namespace) -> ExecOptions:
    """The execution options the parsed flags ask for, journal aside
    (it is opened only once these hold)."""
    return ExecOptions(
        workers=args.workers, granularity=args.shard_granularity,
        retries=args.retries, retry_backoff_s=args.retry_backoff,
        unit_timeout=args.unit_timeout,
        failure_policy=args.failure_policy,
        profile_dir=args.profile, track_memory=args.track_memory)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.terminals is not None and args.terminals < 1:
        parser.error(f"--terminals must be >= 1, got {args.terminals}")
    if args.speed_kmh is not None and not args.speed_kmh >= 0:
        parser.error(f"--speed-kmh must be >= 0, got "
                     f"{args.speed_kmh}")
    if args.trajectory == "stationary" and args.speed_kmh:
        parser.error(f"--speed-kmh {args.speed_kmh} contradicts "
                     "--trajectory stationary")
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal DIR")
    if args.ping_days is not None and args.duration_days is not None \
            and args.ping_days != args.duration_days:
        parser.error(f"--ping-days {args.ping_days} and "
                     f"--duration-days {args.duration_days} disagree; "
                     "they are synonyms, give one")
    if args.memory_budget_mb is not None \
            and not args.memory_budget_mb > 0:
        parser.error(f"--memory-budget-mb must be positive, got "
                     f"{args.memory_budget_mb}")

    try:
        options = _exec_options(args)
        # Open (and create) the journal only once the options hold.
        if args.journal is not None:
            options = replace(options, journal=Journal(
                args.journal, resume=args.resume))
    except (ConfigurationError, JournalError) as exc:
        parser.error(str(exc))
    if options.journal is not None and len(options.journal):
        print(f"journal: resuming, {len(options.journal)} unit(s) "
              "already completed\n")

    campaign = Campaign(_build_config(args), options)
    cache: dict = {}
    if args.artefact == "all":
        # Fleet mode is opt-in: 'all' keeps its historical output
        # unless --fleet asks for the extra artefact.
        names = [a for a in ARTEFACTS if a not in ("all", "fleet")]
        if args.fleet:
            names.append("fleet")
    else:
        names = [args.artefact]
    try:
        for name in names:
            run_artefact(name, campaign, cache)
    except MemoryBudgetError as exc:
        # The governor ran out of ladder (or policy='raise' chose to
        # stop early). Completed units are already journaled, so the
        # exit is clean and a --journal DIR --resume run continues.
        print(f"memory budget exhausted: {exc}", file=sys.stderr)
        return 3
    if args.timing:
        _emit(render_timings(campaign.timings))
    report = campaign.degradation_report()
    if report.degraded:
        _emit(render_degradation(report))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
