"""Resource governance under chaos: allocation failures, allocation
pressure, the degradation ladder and the hard cap.

Pins the robustness story end to end: injected ``MemoryError``\\ s are
survivable faults like any other (retry, degrade, report), allocation
*pressure* is observable through the tracked per-unit peaks, the
dataset-level governor walks EXACT -> STREAMING -> SHRUNK_RESERVOIRS
-> SPILLED in exactly that order, and when the ladder is exhausted
the run dies with a clean :class:`MemoryBudgetError` whose journal
checkpoint makes the rerun a pure replay.
"""

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig
from repro.core.datasets import StreamingPingDataset
from repro.errors import MemoryBudgetError, ResourceError
from repro.exec import (
    ExecOptions,
    Journal,
    ResourceBudget,
    StreamingPingUnit,
    UnitFailure,
    execute_units,
)
from repro.testing.chaos import (
    ChaosSpec,
    attempts_made,
    seeded_chaos,
    wrap_units,
)
from repro.testing.digest import digest_value
from repro.units import minutes


def micro_config(seed: int = 0) -> CampaignConfig:
    return CampaignConfig(
        seed=seed,
        ping_days=1.0, ping_interval_s=minutes(120),
        ping_shard_rounds=3,   # 12 rounds -> 4 atoms per series
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1)


ANCHOR = "be-brussels"


def synthetic_series(n: int = 100):
    """A deterministic exact-friendly probe series with keys."""
    from repro.core.stats import BottomKReservoir

    times = np.arange(n, dtype=float) * 60.0
    rtts = 0.04 + 0.001 * np.arange(n, dtype=float)
    keys = BottomKReservoir.keys_for(0, "chaos-ladder", count=n)
    return times, rtts, keys


# -- injected MemoryError is a survivable fault ------------------------------


def test_memerr_chaos_is_survivable_with_retries(tmp_path):
    cfg = micro_config(seed=3)
    unit = StreamingPingUnit(cfg, ANCHOR)
    reference = digest_value(unit.run().to_series())

    wrecked = StreamingPingUnit(cfg, ANCHOR)
    wrapped = wrap_units([wrecked], tmp_path / "chaos",
                         {wrecked.label: ChaosSpec(memerr_on=(1,))})
    [sink] = execute_units(wrapped, ExecOptions(retries=1))
    assert digest_value(sink.to_series()) == reference
    assert attempts_made(tmp_path / "chaos", wrecked.label) == 2


def test_memerr_without_retries_degrades_with_a_named_failure(tmp_path):
    unit = StreamingPingUnit(micro_config(), ANCHOR)
    wrapped = wrap_units([unit], tmp_path / "chaos",
                         {unit.label: ChaosSpec(memerr_on=(1,))})
    [failure] = execute_units(wrapped,
                              ExecOptions(failure_policy="degrade"))
    assert isinstance(failure, UnitFailure)
    assert failure.error_type == "MemoryError"
    assert "injected allocation failure" in failure.message


def test_balloon_pressure_spikes_the_tracked_peak(tmp_path):
    cfg = micro_config(seed=5)
    calm: list = []
    [reference] = execute_units([StreamingPingUnit(cfg, ANCHOR)],
                                ExecOptions(track_memory=True), timings=calm)

    pressured: list = []
    unit = StreamingPingUnit(cfg, ANCHOR)
    wrapped = wrap_units([unit], tmp_path / "chaos",
                         {unit.label: ChaosSpec(balloon_on=(1,),
                                                balloon_mb=8)})
    [sink] = execute_units(wrapped, ExecOptions(track_memory=True),
                           timings=pressured)
    # Pressure, not failure: the payload is untouched...
    assert digest_value(sink.to_series()) \
        == digest_value(reference.to_series())
    # ...but the held ballast dominates the measured peak.
    assert pressured[0].peak_kb > calm[0].peak_kb + 8 * 1024 * 0.9


def test_seeded_memerr_injections_replay_deterministically(tmp_path):
    cfg = micro_config(seed=7)
    units = [StreamingPingUnit(cfg, ANCHOR)]
    wrapped, injections = seeded_chaos(units, tmp_path / "a",
                                       seed=11, p_memerr=1.0)
    assert [i.fault for i in injections] == ["memerr"]
    _, replay = seeded_chaos(units, tmp_path / "b", seed=11,
                             p_memerr=1.0)
    assert replay == injections
    [sink] = execute_units(wrapped, ExecOptions(retries=1))
    assert sink.total_probes > 0


# -- the degradation ladder, stage by stage ----------------------------------


def test_governor_walks_the_ladder_in_order(tmp_path):
    budget = ResourceBudget(max_resident_samples=10)
    dataset = StreamingPingDataset(budget=budget,
                                   spill_dir=str(tmp_path / "spill"))
    times, rtts, keys = synthetic_series(100)
    dataset.add_series("anchor", times, rtts, keys=keys,
                       exact_threshold=10 ** 9, reservoir_k=64)
    assert [e.stage for e in budget.events] \
        == ["STREAMING", "SHRUNK_RESERVOIRS", "SPILLED"]
    assert budget.stage == "SPILLED"
    # Every stage recorded a consequence for the precision notes.
    notes = dataset.precision_notes()
    assert len(notes) == 3
    assert all("PARTIAL PRECISION" in note for note in notes)
    # Counts stayed exact; quantile queries still answer (the spilled
    # reservoir transparently reloads, shrunk to half its k).
    sink = dataset.sinks["anchor"]
    assert sink.total_probes == 100
    assert dataset.rtts("anchor").size == 32
    box = dataset.boxplot("anchor")
    assert rtts.min() <= box.median <= rtts.max()


def test_late_sinks_join_the_ladder_at_the_current_stage(tmp_path):
    budget = ResourceBudget(max_resident_samples=10)
    dataset = StreamingPingDataset(budget=budget,
                                   spill_dir=str(tmp_path / "spill"))
    times, rtts, keys = synthetic_series(100)
    dataset.add_series("first", times, rtts, keys=keys,
                       exact_threshold=10 ** 9, reservoir_k=64)
    assert budget.degraded
    dataset.add_series("second", times, rtts, keys=keys,
                       exact_threshold=10 ** 9, reservoir_k=64)
    assert dataset.sinks["second"].streaming
    assert dataset.sinks["second"].reservoir.k == 32


def test_raise_policy_refuses_to_degrade():
    budget = ResourceBudget(max_resident_samples=10, policy="raise")
    dataset = StreamingPingDataset(budget=budget)
    times, rtts, keys = synthetic_series(100)
    with pytest.raises(MemoryBudgetError, match="policy='raise'"):
        dataset.add_series("anchor", times, rtts, keys=keys,
                           exact_threshold=10 ** 9)
    assert not budget.degraded


def test_unknown_policy_and_bad_budgets_are_rejected():
    with pytest.raises(ResourceError, match="policy"):
        ResourceBudget(policy="panic")
    with pytest.raises(ResourceError, match="max_resident_samples"):
        ResourceBudget(max_resident_samples=0)


# -- the hard cap ------------------------------------------------------------


def test_memory_budget_error_is_catchable_as_memory_error():
    assert issubclass(MemoryBudgetError, MemoryError)


def test_exhausted_ladder_hits_the_hard_cap(tmp_path):
    # max_bytes=1 keeps the watchdog over budget at every stage, so
    # after SPILLED there is nothing left to shed.
    budget = ResourceBudget(max_bytes=1)
    dataset = StreamingPingDataset(budget=budget,
                                   spill_dir=str(tmp_path / "spill"))
    times, rtts, keys = synthetic_series(100)
    with pytest.raises(MemoryBudgetError, match="hard memory cap"):
        dataset.add_series("anchor", times, rtts, keys=keys,
                           exact_threshold=10 ** 9)
    # The ladder was fully walked before giving up.
    assert [e.stage for e in budget.events] \
        == ["STREAMING", "SHRUNK_RESERVOIRS", "SPILLED"]


def test_hard_cap_leaves_the_journal_checkpoint_usable(tmp_path):
    """Checkpoint-and-exit: the units a hard-capped run completed
    replay from the journal without re-execution."""
    cfg = micro_config(seed=4)
    unit = StreamingPingUnit(cfg, ANCHOR)
    reference = digest_value(unit.run().to_series())

    journal = Journal(tmp_path / "j")
    [sink] = execute_units([unit], ExecOptions(granularity=4, journal=journal))
    doomed = StreamingPingDataset(
        budget=ResourceBudget(max_bytes=1),
        spill_dir=str(tmp_path / "spill"))
    with pytest.raises(MemoryBudgetError, match="checkpointed"):
        doomed.add_sink(sink)

    # Rerun under a sane budget: every shard comes from the journal
    # (chaos raising on all attempts proves nothing re-executed).
    wrapped = wrap_units([StreamingPingUnit(cfg, ANCHOR)],
                         tmp_path / "chaos",
                         default=ChaosSpec(raise_on=(1, 2, 3)))
    [replayed] = execute_units(wrapped,
                               ExecOptions(granularity=4, journal=journal))
    recovered = StreamingPingDataset()
    recovered.add_sink(replayed)
    assert digest_value(
        recovered.to_ping_dataset().series[ANCHOR]) == reference
    assert attempts_made(tmp_path / "chaos",
                         f"{unit.label}#s0-1") == 0
