"""Graceful degradation at the campaign level.

``failure_policy="degrade"`` must complete the campaign with partial
datasets, report exactly which units each dataset lost, and keep the
whole reporting pipeline working on the partial data — a figure built
from degraded datasets states its unit coverage instead of silently
looking complete.
"""

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.reporting import (
    coverage_note,
    render_degradation,
    render_table1,
)
from repro.exec.runner import DegradationReport, ExecOptions, UnitFailure
from repro.testing.chaos import ChaosSpec, wrap_units
from repro.units import minutes


def tiny_config(seed: int = 0) -> CampaignConfig:
    return CampaignConfig(
        seed=seed,
        ping_days=0.5, ping_interval_s=minutes(120),
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1)


def _sabotage(campaign: Campaign, state_dir, ping_label, web_label):
    spec = ChaosSpec(raise_on=(1,))
    ping_units, web_units = campaign.ping_units, campaign.web_units
    campaign.ping_units = lambda: wrap_units(
        ping_units(), state_dir / "pings", {ping_label: spec})
    campaign.web_units = lambda: wrap_units(
        web_units(), state_dir / "web", {web_label: spec})


#: Finish a sabotaged run with partial datasets instead of aborting.
DEGRADE = ExecOptions(failure_policy="degrade")


def test_run_all_degrades_to_partial_datasets(tmp_path):
    campaign = Campaign(tiny_config(), DEGRADE)
    ping_label = campaign.ping_units()[3].label
    web_label = campaign.web_units()[0].label
    _sabotage(campaign, tmp_path, ping_label, web_label)

    data = campaign.run_all()
    report = campaign.degradation_report()

    assert report.degraded
    assert report.total_units == 11 + 4 + 4 + 2 + 3
    assert report.completed_units == report.total_units - 2
    assert report.coverage["pings"] == (10, 11)
    assert report.coverage["visits"] == (2, 3)
    assert report.coverage["speedtests"] == (4, 4)
    assert {f.label for f in report.failures} == {ping_label, web_label}
    assert report.coverage_fraction("pings") == 10 / 11
    assert report.coverage_fraction("bulk") == 1.0

    # The partial datasets are clean: lost units are skipped by the
    # merge, never leaked as UnitFailure placeholders.
    assert len(data.pings.anchors()) == 10
    assert ping_label.rsplit(":", 1)[-1] not in data.pings.anchors()
    assert not any(isinstance(s, UnitFailure)
                   for s in data.speedtests + data.bulk
                   + data.messages + data.visits)
    # And the reporting pipeline still works end to end on them.
    assert "Table 1" in render_table1(data.table1_rows())


def test_degradation_rendering_names_the_lost_units(tmp_path):
    campaign = Campaign(tiny_config(), DEGRADE)
    ping_label = campaign.ping_units()[3].label
    web_label = campaign.web_units()[0].label
    _sabotage(campaign, tmp_path, ping_label, web_label)
    campaign.run_all()
    report = campaign.degradation_report()

    text = render_degradation(report)
    assert "Degradation report: 22/24 work units completed." in text
    assert ping_label in text and web_label in text
    assert "ChaosError after 1 attempt(s)" in text
    assert "90.9%" in text           # pings 10/11

    note = coverage_note(report, ("pings", "bulk"))
    assert note == "[PARTIAL DATA: pings 10/11 units, bulk 4/4 units]"
    assert coverage_note(report, ("bulk",)) \
        == "[coverage: bulk 4/4 units]"
    assert coverage_note(report, ()) == ""
    assert coverage_note(None, ("pings",)) == ""


def test_clean_run_reports_full_coverage():
    campaign = Campaign(tiny_config())
    campaign.run_pings()
    report = campaign.degradation_report()
    assert not report.degraded
    assert report.completed_units == report.total_units == 11
    assert report.coverage == {"pings": (11, 11)}


def test_empty_report_is_benign():
    report = DegradationReport()
    assert not report.degraded
    assert report.coverage_fraction("anything") == 1.0
    assert "0/0" in render_degradation(report)
