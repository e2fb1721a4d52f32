"""Checkpoint journal and kill-and-resume digest identity.

The acceptance bar of the crash-safety layer: a campaign killed at any
instant (``SIGKILL`` of a worker, Ctrl-C of the driver) and restarted
with the same journal produces a dataset bit-identical to an
uninterrupted run. The digest-level tests run real ping units across a
process boundary; the cheap synthetic tests pin the journal mechanics
(atomicity, corruption handling, keying) in isolation.
"""

import pickle
from dataclasses import dataclass

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.errors import JournalError, UnitExecutionError
from repro.exec import ExecOptions, Journal, execute_units
from repro.testing.chaos import ChaosSpec, attempts_made, wrap_units
from repro.testing.digest import digest_value
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


@dataclass(frozen=True)
class SquareUnit:
    value: int

    kind = "square"

    @property
    def label(self) -> str:
        return f"square:{self.value}"

    def run(self) -> int:
        return self.value * self.value


UNITS = [SquareUnit(v) for v in range(5)]
EXPECTED = [v * v for v in range(5)]


# -- journal mechanics -----------------------------------------------------


def test_journal_roundtrip(tmp_path):
    journal = Journal(tmp_path / "j")
    key = journal.key_for(UNITS[0])
    assert not journal.has(key)
    assert journal.load(key) is None
    journal.store(key, {"x": 1.5}, elapsed_s=0.25, label="square:0")
    assert journal.has(key) and len(journal) == 1
    assert journal.load(key) == ({"x": 1.5}, 0.25)
    assert journal.labels() == ["square:0"]
    assert "entries=1" in repr(journal)


def test_journal_key_covers_label_kind_and_config(tmp_path):
    journal = Journal(tmp_path)
    campaign = Campaign(tiny_config(seed=0))
    units = campaign.ping_units()
    keys = [journal.key_for(u) for u in units]
    assert len(set(keys)) == len(keys)
    # Same unit identity -> same key; different seed -> different key,
    # so a journal can never feed stale payloads to a reconfigured run.
    again = Campaign(tiny_config(seed=0)).ping_units()
    assert journal.key_for(again[0]) == keys[0]
    other = Campaign(tiny_config(seed=1)).ping_units()
    assert journal.key_for(other[0]) != keys[0]


def test_corrupt_entry_is_discarded_and_rerun(tmp_path):
    journal = Journal(tmp_path)
    key = journal.key_for(UNITS[0])
    journal.store(key, 0, label="square:0")
    (tmp_path / f"{key}.pkl").write_bytes(b"torn write \x00\x01")
    assert journal.load(key) is None          # discarded, not fatal
    assert not (tmp_path / f"{key}.pkl").exists()
    payloads = execute_units(UNITS, ExecOptions(journal=journal))
    assert payloads == EXPECTED               # unit simply re-ran
    assert len(journal) == 5


def test_mismatched_label_refuses_resume(tmp_path):
    journal = Journal(tmp_path)
    journal.store("deadbeef", 42, label="ping:de-frankfurt")
    with pytest.raises(JournalError, match="mismatched journal"):
        journal.load("deadbeef", label="ping:sg-singapore")


def test_fresh_journal_refuses_leftover_entries(tmp_path):
    journal = Journal(tmp_path / "j", resume=False)  # empty dir is fine
    journal.store("k", 1, label="square:1")
    with pytest.raises(JournalError, match="--resume"):
        Journal(tmp_path / "j", resume=False)
    assert len(Journal(tmp_path / "j", resume=True)) == 1


def test_stale_tmp_files_are_swept(tmp_path):
    (tmp_path / "k.tmp-12345").write_bytes(b"half a pickle")
    journal = Journal(tmp_path)
    assert list(tmp_path.glob("*.tmp-*")) == []
    assert len(journal) == 0


def test_journaled_units_are_not_rerun(tmp_path):
    journal = Journal(tmp_path / "j")
    first = execute_units(UNITS, ExecOptions(journal=journal))
    # Re-running through chaos that raises on every first attempt
    # proves the units were loaded from the journal, not executed.
    wrapped = wrap_units(UNITS, tmp_path / "chaos",
                         default=ChaosSpec(raise_on=(1,)))
    second = execute_units(wrapped, ExecOptions(journal=journal))
    assert first == second == EXPECTED
    assert attempts_made(tmp_path / "chaos", "square:0") == 0
    timings = []
    execute_units(UNITS, ExecOptions(journal=journal), timings=timings)
    assert [t.label for t in timings] == [u.label for u in UNITS]


def test_journal_payloads_survive_pickle_digest_identically(tmp_path):
    units = Campaign(tiny_config()).ping_units()[:2]
    direct = execute_units(units)
    journal = Journal(tmp_path)
    execute_units(units, ExecOptions(journal=journal))
    resumed = execute_units(units, ExecOptions(journal=journal))
    assert digest_value(resumed) == digest_value(direct)
    clone = pickle.loads(pickle.dumps(direct))
    assert digest_value(clone) == digest_value(direct)


# -- kill-and-resume acceptance --------------------------------------------


def test_worker_kill_then_resume_is_digest_identical(tmp_path):
    """Acceptance: SIGKILL a worker mid-campaign, resume, same digest."""
    units = Campaign(tiny_config(seed=0)).ping_units()[:4]
    reference = digest_value(execute_units(units))

    journal = Journal(tmp_path / "journal")
    wrapped = wrap_units(units, tmp_path / "chaos",
                         {units[2].label: ChaosSpec(kill_on=(1,))})
    with pytest.raises(UnitExecutionError, match="WorkerCrash"):
        execute_units(wrapped, ExecOptions(workers=2, journal=journal))
    # The run died partway: some units journaled, not all.
    assert 0 < len(journal) < len(units)

    resumed = execute_units(units, ExecOptions(workers=2, journal=journal))
    assert digest_value(resumed) == reference
    assert len(journal) == len(units)


def test_serial_interrupt_then_resume(tmp_path):
    journal = Journal(tmp_path / "j")
    wrapped = wrap_units(UNITS, tmp_path / "chaos",
                         {"square:2": ChaosSpec(interrupt_on=(1,))})
    with pytest.raises(KeyboardInterrupt):
        execute_units(wrapped, ExecOptions(journal=journal))
    # Everything completed before the interrupt is already flushed.
    assert journal.labels() == ["square:0", "square:1"]
    resumed = execute_units(UNITS, ExecOptions(journal=journal))
    assert resumed == EXPECTED
    assert len(journal) == 5


def test_campaign_interrupt_then_resume_is_digest_identical(tmp_path):
    reference = Campaign(tiny_config(seed=2)).run_pings()

    journaled = ExecOptions(journal=Journal(tmp_path / "journal"))
    campaign = Campaign(tiny_config(seed=2), journaled)
    units = campaign.ping_units()
    wrapped = wrap_units(units, tmp_path / "chaos",
                         {units[5].label: ChaosSpec(interrupt_on=(1,))})
    campaign.ping_units = lambda: wrapped
    with pytest.raises(KeyboardInterrupt):
        campaign.run_pings()
    assert 0 < len(journaled.journal) < len(units)

    # A fresh process (fresh Campaign) resumes from the same journal.
    resumed = Campaign(tiny_config(seed=2), journaled).run_pings()
    assert digest_value(resumed.series) == digest_value(reference.series)
    # The journal now covers the full campaign: a third run is a no-op
    # load that still digests identically.
    again = Campaign(tiny_config(seed=2), journaled).run_pings()
    assert digest_value(again.series) == digest_value(reference.series)
