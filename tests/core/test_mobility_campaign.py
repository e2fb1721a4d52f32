"""Campaign-level mobile-terminal mode: digest neutrality of the
stationary default, attribution reconciliation of moving runs, and
crash-resume identity mid-drive."""

import pytest

from repro.core.availability import EPISODE_CAUSES
from repro.core.campaign import Campaign, CampaignConfig, quick_config
from repro.errors import UnitExecutionError
from repro.exec import ExecOptions, Journal
from repro.testing.chaos import ChaosSpec, wrap_units
from repro.testing.digest import digest_value
from repro.units import days, minutes

#: Digest of ``Campaign(quick_config(0)).run_pings()`` before mobile-
#: terminal mode existed. The stationary default must reproduce it
#: byte for byte — mobility is strictly additive.
CLASSIC_QUICK_PINGS_DIGEST = (
    "52511c7f0911799a38f90c61c5b16e6ddbe8fcb68551d3df6e9ac93e57676fa8")


def drive_config(seed: int = 1, **overrides) -> CampaignConfig:
    """Dense-ping drive: probes every 45 s inside a ~29 min drive."""
    values = dict(
        seed=seed,
        ping_days=0.02, ping_interval_s=45.0, pings_per_round=2,
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1,
        trajectory="drive", speed_kmh=90.0,
        obstruction="urban_canyon", drive_duration_s=1728.0)
    values.update(overrides)
    return CampaignConfig(**values)


def test_stationary_default_reproduces_classic_digest():
    data = Campaign(quick_config(0)).run_pings()
    assert digest_value(data) == CLASSIC_QUICK_PINGS_DIGEST


def test_speed_zero_drive_is_byte_identical_to_classic():
    classic = Campaign(quick_config(0)).run_pings()
    parked = Campaign(quick_config(0))
    parked.config.trajectory = "drive"
    parked.config.speed_kmh = 0.0
    parked = Campaign(parked.config)
    assert digest_value(parked.run_pings()) \
        == digest_value(classic) == CLASSIC_QUICK_PINGS_DIGEST


def test_moving_run_is_deterministic_across_exec_modes():
    serial = Campaign(drive_config()).run_pings()
    parallel = Campaign(drive_config(), ExecOptions(workers=2)).run_pings()
    sharded = Campaign(drive_config(),
                       ExecOptions(workers=2, granularity=4)).run_pings()
    assert digest_value(serial) == digest_value(parallel) \
        == digest_value(sharded)


def test_moving_run_differs_from_parked_run():
    moving = Campaign(drive_config(speed_kmh=90.0)).run_pings()
    parked = Campaign(drive_config(speed_kmh=0.0,
                                   obstruction="none")).run_pings()
    assert digest_value(moving) != digest_value(parked)


def test_mobility_report_reconciles_with_availability():
    campaign = Campaign(drive_config())
    pings = campaign.run_pings()
    from repro.core.datasets import CampaignDatasets

    report = campaign.mobility_report(CampaignDatasets(pings=pings))
    episodes = report.availability.episodes
    # Conservation: every pooled episode is attributed exactly once.
    assert len(report.episode_causes) == len(episodes)
    assert sum(report.cause_counts.values()) == len(episodes)
    for cause in report.episode_causes:
        assert cause in EPISODE_CAUSES
    # A 29-minute urban-canyon drive sheds probes and churns paths.
    assert episodes, "urban canyon drive produced no outage episodes"
    assert report.cause_counts["obstruction"] > 0
    assert report.handover_count > 0
    assert report.churn_per_hour > 0
    assert "service" in report.handover_kind_counts


def test_mobility_window_bounded_by_campaign_length():
    short = Campaign(drive_config(ping_days=0.01))
    assert short.mobility_window_s() == pytest.approx(days(0.01))
    long = Campaign(drive_config(ping_days=10.0))
    assert long.mobility_window_s() == pytest.approx(1728.0)


def test_kill_mid_drive_then_resume_is_digest_identical(tmp_path):
    """SIGKILL a worker mid-drive; the resumed dataset is identical
    even with obstruction shadowing active across the boundary."""
    reference = Campaign(drive_config()).run_pings()

    journal = Journal(tmp_path / "journal")
    campaign = Campaign(drive_config(),
                        ExecOptions(workers=2, journal=journal))
    units = campaign.ping_units()
    wrapped = wrap_units(units, tmp_path / "chaos",
                         {units[2].label: ChaosSpec(kill_on=(1,))})
    campaign.ping_units = lambda: wrapped
    with pytest.raises(UnitExecutionError, match="WorkerCrash"):
        campaign.run_pings()
    assert 0 < len(journal) < len(units)

    resumed = Campaign(drive_config(),
                       ExecOptions(journal=journal)).run_pings()
    assert digest_value(resumed) == digest_value(reference)


def test_interrupt_during_obstructed_handover_then_resume(tmp_path):
    """Ctrl-C at the unit covering an obstructed handover window;
    the fresh-process resume reproduces the uninterrupted digest."""
    reference = Campaign(drive_config(seed=2)).run_pings()

    journaled = ExecOptions(journal=Journal(tmp_path / "journal"))
    campaign = Campaign(drive_config(seed=2), journaled)
    units = campaign.ping_units()
    wrapped = wrap_units(units, tmp_path / "chaos",
                         {units[0].label: ChaosSpec(interrupt_on=(1,))})
    campaign.ping_units = lambda: wrapped
    with pytest.raises(KeyboardInterrupt):
        campaign.run_pings()

    resumed = Campaign(drive_config(seed=2), journaled).run_pings()
    assert digest_value(resumed) == digest_value(reference)


def test_full_campaign_terminates_under_drive_and_obstruction():
    """Every measurement app and both transports complete under a
    moving terminal with urban-canyon shadowing."""
    campaign = Campaign(drive_config(
        ping_days=0.01, ping_interval_s=minutes(2)))
    data = campaign.run_all()
    assert data.pings.series
    assert data.speedtests and data.bulk and data.messages
    assert data.visits
