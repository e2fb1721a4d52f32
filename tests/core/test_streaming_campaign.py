"""Campaign + CLI wiring of the streaming ping pipeline.

The campaign-level acceptance bar for the longitudinal mode:
``run_pings_streaming`` must reconstruct ``run_pings`` bit for bit
while exact, degrade in recorded PARTIAL-PRECISION stages under a
memory budget instead of growing without bound, escalate under
``resource_policy="raise"``, and surface all of it through the CLI
(``--streaming``/``--memory-budget-mb``/``--duration-days``/
``--track-memory``, hard-cap exit status 3).
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.campaign import (
    BYTES_PER_RESIDENT_SAMPLE,
    Campaign,
    CampaignConfig,
)
from repro.core.datasets import StreamingPingDataset
from repro.core.reporting import render_precision_notes
from repro.errors import ConfigurationError, MemoryBudgetError
from repro.exec import ExecOptions
from repro.exec.resources import ResourceBudget
from repro.testing.digest import digest_value
from repro.units import minutes


def micro_config(seed: int = 0, **overrides) -> CampaignConfig:
    base = dict(seed=seed,
                ping_days=1.0, ping_interval_s=minutes(120),
                ping_shard_rounds=3,   # 12 rounds -> 4 atoms/anchor
                speedtest_epochs=1, speedtest_measure_s=0.5,
                speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
                bulk_per_direction=1, bulk_bytes=500_000,
                messages_per_direction=1, messages_duration_s=1.5,
                web_sites=3, web_visits_per_site=1)
    base.update(overrides)
    return CampaignConfig(**base)


#: Sample budget that the micro campaign's exact residency (raw
#: chunks + reservoirs, ~790 samples) breaches but its post-STREAMING
#: residency (reservoirs only, ~394) satisfies: the ladder stops
#: after exactly one stage.
ONE_STAGE_BUDGET_MB = 0.03


def ping_digest(dataset) -> str:
    return digest_value({name: dataset.series[name]
                         for name in dataset.anchors()})


# -- config validation -------------------------------------------------------


def test_memory_budget_must_be_positive():
    with pytest.raises(ConfigurationError, match="memory_budget_mb"):
        micro_config(memory_budget_mb=0.0)
    with pytest.raises(ConfigurationError, match="memory_budget_mb"):
        micro_config(memory_budget_mb=float("nan"))


def test_resource_policy_is_validated():
    with pytest.raises(ConfigurationError, match="resource_policy"):
        micro_config(resource_policy="explode")


# -- unit/budget derivation --------------------------------------------------


def test_streaming_units_split_the_budget_over_anchors():
    campaign = Campaign(micro_config(memory_budget_mb=1.0))
    units = campaign.streaming_ping_units()
    samples = int(1.0 * 2 ** 20) // BYTES_PER_RESIDENT_SAMPLE
    assert all(u.exact_threshold == samples // len(units)
               for u in units)

    ungoverned = Campaign(micro_config()).streaming_ping_units()
    assert all(u.exact_threshold == 100_000 for u in ungoverned)


def test_streaming_budget_follows_the_config():
    assert Campaign(micro_config()).streaming_budget() is None
    campaign = Campaign(micro_config(memory_budget_mb=1.0,
                                     resource_policy="raise"))
    budget = campaign.streaming_budget()
    assert isinstance(budget, ResourceBudget)
    assert budget.policy == "raise"
    # A fresh governor per call: events are per-run state.
    assert campaign.streaming_budget() is not budget


# -- exact-mode digest identity ----------------------------------------------


def test_streaming_campaign_reconstructs_batch_bitwise():
    batch = Campaign(micro_config(seed=3)).run_pings()
    streamed = Campaign(micro_config(seed=3), ExecOptions(
        workers=2, granularity=3)).run_pings_streaming()
    assert isinstance(streamed, StreamingPingDataset)
    assert streamed.precision_notes() == []
    rebuilt = streamed.to_ping_dataset()
    assert rebuilt.anchors() == batch.anchors()
    assert ping_digest(rebuilt) == ping_digest(batch)
    for name in batch.anchors():
        assert rebuilt.outcomes[name].status \
            == batch.outcomes[name].status


# -- budget governance through the campaign ----------------------------------


def test_budget_degrades_in_stages_instead_of_growing():
    batch = Campaign(micro_config(seed=1)).run_pings()
    campaign = Campaign(micro_config(
        seed=1, memory_budget_mb=ONE_STAGE_BUDGET_MB))
    streamed = campaign.run_pings_streaming()
    assert streamed.budget.degraded
    assert streamed.budget.stage == "STREAMING"
    notes = streamed.precision_notes()
    assert len(notes) == 1 and "STREAMING" in notes[0]
    assert "PARTIAL PRECISION" in render_precision_notes(notes)
    # Counts and availability stay exact at every stage.
    report = streamed.availability_report()
    lost = sum(int(np.isnan(r).sum())
               for _, r in batch.series.values())
    total = sum(r.size for _, r in batch.series.values())
    assert (report.total_probes, report.lost_probes) == (total, lost)
    # Raw series are gone, the reservoir subsample answers instead.
    for name in streamed.anchors():
        assert streamed.rtts(name).size <= batch.rtts(name).size


def test_raise_policy_escalates_the_first_breach():
    campaign = Campaign(micro_config(
        seed=1, memory_budget_mb=ONE_STAGE_BUDGET_MB,
        resource_policy="raise"))
    with pytest.raises(MemoryBudgetError, match="policy='raise'"):
        campaign.run_pings_streaming()


# -- CLI ---------------------------------------------------------------------


def test_cli_streaming_fig1_matches_batch_output(capsys):
    assert main(["fig1", "--ping-days", "1"]) == 0
    batch = capsys.readouterr().out
    assert main(["fig1", "--ping-days", "1", "--streaming"]) == 0
    assert capsys.readouterr().out == batch


def test_cli_duration_days_is_a_ping_days_synonym(capsys):
    assert main(["fig1", "--ping-days", "1"]) == 0
    batch = capsys.readouterr().out
    assert main(["fig1", "--duration-days", "1"]) == 0
    assert capsys.readouterr().out == batch
    with pytest.raises(SystemExit):
        main(["fig1", "--ping-days", "1", "--duration-days", "2"])


def test_cli_streaming_availability_is_ping_native(capsys):
    assert main(["availability", "--ping-days", "1",
                 "--streaming"]) == 0
    out = capsys.readouterr().out
    assert "Availability report" in out
    assert "probes:" in out


def test_cli_memory_budget_prints_precision_notes(capsys):
    assert main(["availability", "--ping-days", "1",
                 "--memory-budget-mb", "0.18"]) == 0
    out = capsys.readouterr().out
    assert "Availability report" in out
    assert "Precision notes" in out
    assert "PARTIAL PRECISION" in out


def test_cli_raise_policy_exits_with_status_3(capsys):
    code = main(["availability", "--ping-days", "1",
                 "--memory-budget-mb", "0.18",
                 "--resource-policy", "raise"])
    assert code == 3
    assert "memory budget exhausted" in capsys.readouterr().err


def test_cli_rejects_non_positive_memory_budget():
    with pytest.raises(SystemExit):
        main(["fig1", "--memory-budget-mb", "0"])


def test_cli_track_memory_adds_peak_column(capsys):
    assert main(["fig1", "--ping-days", "1", "--streaming",
                 "--track-memory", "--timing"]) == 0
    out = capsys.readouterr().out
    assert "Unit timing" in out
    assert "peak" in out
