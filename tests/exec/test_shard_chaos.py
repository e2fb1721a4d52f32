"""Shard-level crash safety: kill a shard, resume, same bytes.

Extends the chaos harness coverage of PRs 2/4 down to shard
granularity: a worker SIGKILLed mid-shard (or a driver Ctrl-C) must
leave a journal from which the campaign resumes digest-identically
*without re-running any completed shard* — attempt markers claimed
under shard labels prove the no-re-run half exactly.
"""

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.errors import UnitExecutionError
from repro.exec import ExecOptions, Journal, execute_units, shard_label
from repro.testing.chaos import ChaosSpec, attempts_made, wrap_units
from repro.testing.digest import digest_value
from repro.units import minutes


def ping_config(seed: int = 0) -> CampaignConfig:
    return CampaignConfig(
        seed=seed,
        ping_days=1.0, ping_interval_s=minutes(60),
        ping_shard_rounds=4,   # 24 rounds -> 6 atoms per series
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1)


GRANULARITY = 3


def shard_labels_for(unit, granularity: int = GRANULARITY) -> list[str]:
    n = unit.n_atoms()
    k = min(granularity, n)
    return [shard_label(unit.label, j * n // k, (j + 1) * n // k)
            for j in range(k)]


def test_sigkill_mid_shard_then_resume_is_digest_identical(tmp_path):
    """Acceptance: SIGKILL one shard's worker, resume, same digest —
    and no shard journaled before the crash ever runs again."""
    units = Campaign(ping_config(seed=0)).ping_units()[:3]
    reference = digest_value(execute_units(units))

    victim_unit = units[1]
    victim = shard_labels_for(victim_unit)[1]
    chaos_dir = tmp_path / "chaos"
    wrapped = wrap_units(
        units, chaos_dir,
        shard_specs={victim_unit.label: {victim: ChaosSpec(kill_on=(1,))}})
    journal = Journal(tmp_path / "journal")
    with pytest.raises(UnitExecutionError, match="WorkerCrash"):
        execute_units(wrapped,
                      ExecOptions(workers=2, granularity=GRANULARITY,
                                  journal=journal))
    total_shards = sum(len(shard_labels_for(u)) for u in units)
    assert 0 < len(journal) < total_shards
    survivors = journal.labels()
    assert victim not in survivors
    before = {label: attempts_made(chaos_dir, label)
              for label in survivors}

    calm = wrap_units(units, chaos_dir)
    resumed = execute_units(calm,
                            ExecOptions(workers=2, granularity=GRANULARITY,
                                        journal=journal))
    assert digest_value(resumed) == reference
    assert len(journal) == total_shards
    # Completed shards were loaded, never re-executed: their attempt
    # markers did not move. The killed shard was charged exactly one
    # fresh attempt on resume.
    for label, attempts in before.items():
        assert attempts_made(chaos_dir, label) == attempts, \
            f"journaled shard {label!r} was re-run on resume"
    assert attempts_made(chaos_dir, victim) == 2


def test_raise_names_parent_unit_and_shard(tmp_path):
    units = Campaign(ping_config(seed=1)).ping_units()[:1]
    victim = shard_labels_for(units[0])[2]
    wrapped = wrap_units(
        units, tmp_path,
        shard_specs={units[0].label: {victim: ChaosSpec(raise_on=(1,))}})
    with pytest.raises(UnitExecutionError,
                       match=rf"unit '{units[0].label}' shard 3/3"):
        execute_units(wrapped, ExecOptions(granularity=GRANULARITY))


def test_shard_retry_is_charged_to_the_shard_alone(tmp_path):
    units = Campaign(ping_config(seed=2)).ping_units()[:2]
    victim = shard_labels_for(units[0])[0]
    chaos_dir = tmp_path / "chaos"
    wrapped = wrap_units(
        units, chaos_dir,
        shard_specs={units[0].label: {victim: ChaosSpec(raise_on=(1,))}})
    reference = digest_value(execute_units(units))
    resumed = execute_units(wrapped,
                            ExecOptions(granularity=GRANULARITY, retries=1))
    assert digest_value(resumed) == reference
    assert attempts_made(chaos_dir, victim) == 2
    for label in shard_labels_for(units[1]):
        assert attempts_made(chaos_dir, label) == 1


def test_interrupt_mid_shard_then_resume_serial(tmp_path):
    units = Campaign(ping_config(seed=3)).ping_units()[:2]
    reference = digest_value(execute_units(units))
    victim = shard_labels_for(units[1])[0]
    chaos_dir = tmp_path / "chaos"
    wrapped = wrap_units(
        units, chaos_dir,
        shard_specs={units[1].label:
                     {victim: ChaosSpec(interrupt_on=(1,))}})
    journal = Journal(tmp_path / "journal")
    with pytest.raises(KeyboardInterrupt):
        execute_units(wrapped,
                      ExecOptions(granularity=GRANULARITY, journal=journal))
    # Every shard of the first unit completed before the interrupt.
    assert set(shard_labels_for(units[0])) <= set(journal.labels())
    resumed = execute_units(units,
                            ExecOptions(granularity=GRANULARITY,
                                        journal=journal))
    assert digest_value(resumed) == reference


def test_degrade_reports_shard_attribution(tmp_path):
    units = Campaign(ping_config(seed=4)).ping_units()[:2]
    victim_unit = units[0]
    victim = shard_labels_for(victim_unit)[1]
    wrapped = wrap_units(
        units, tmp_path,
        shard_specs={victim_unit.label:
                     {victim: ChaosSpec(raise_on=(1, 2))}})
    payloads = execute_units(wrapped, ExecOptions(
        retries=1, granularity=GRANULARITY, failure_policy="degrade"))
    failure = payloads[0]
    assert failure.label == victim_unit.label   # parent, not shard
    assert failure.shard_index == 1
    assert failure.n_shards == 3
    assert failure.shard_label == victim
    assert failure.attempts == 2
    # The calm unit still merged normally.
    assert digest_value([payloads[1]]) == digest_value(
        execute_units([units[1]]))

    from repro.core.reporting import render_degradation
    from repro.exec import DegradationReport
    report = render_degradation(DegradationReport(
        total_units=2, completed_units=1, failures=[failure],
        coverage={"pings": (1, 2)}))
    assert f"{victim_unit.label} [shard 2/3: {victim}]" in report
