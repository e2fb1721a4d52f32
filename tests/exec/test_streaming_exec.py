"""The in-order fold of shard payloads: digest identity and resume.

A ping campaign folded through streaming sinks must be
**digest-identical** to the batch path for every worker count and
granularity, resume from a journal without replaying
already-aggregated slices, and fold shard payloads strictly in shard
order no matter how the pool schedules them. A synthetic unit pins
the fold mechanics in isolation; real :class:`StreamingPingUnit` runs
pin the end-to-end equivalence against :class:`PingSeriesUnit`.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig
from repro.exec import (
    ExecOptions,
    Journal,
    PingSeriesUnit,
    SplittableUnit,
    StreamingPingUnit,
    execute_units,
    render_timings,
)
from repro.testing.chaos import (
    ChaosSpec,
    attempts_made,
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


def batch_reference(cfg: CampaignConfig):
    _, times, rtts, outcome = PingSeriesUnit(cfg, ANCHOR).run()
    return times, rtts, outcome


# -- synthetic fold mechanics ----------------------------------------------


@dataclass
class RecordingStreamUnit(SplittableUnit):
    """Returns atom indices; records the order shards were folded."""

    atoms: int = 8
    merged: list = field(default_factory=list)

    kind = "recording"
    label = "recording:unit"

    def n_atoms(self) -> int:
        return self.atoms

    def run_atoms(self, start: int, stop: int) -> list[int]:
        return list(range(start, stop))

    def merge_partial(self, acc, shard_payload):
        self.merged.append(tuple(shard_payload))
        return super().merge_partial(acc, shard_payload)


@pytest.mark.parametrize("workers", [1, 3])
def test_shards_fold_in_shard_order(workers):
    unit = RecordingStreamUnit(atoms=8)
    [result] = execute_units([unit],
                             ExecOptions(workers=workers, granularity=4))
    assert result == list(range(8))
    # Folds happened strictly in shard order regardless of which
    # worker finished first: each folded tuple starts exactly where
    # the previous one ended.
    flat = [a for chunk in unit.merged for a in chunk]
    assert flat == list(range(8))


def test_granularity_one_uses_plain_run_path():
    unit = RecordingStreamUnit(atoms=6)
    [result] = execute_units([unit])
    assert result == list(range(6))


# -- StreamingPingUnit == PingSeriesUnit -----------------------------------


def test_streaming_unit_run_matches_batch_bitwise():
    cfg = micro_config(seed=3)
    times, rtts, outcome = batch_reference(cfg)
    sink = StreamingPingUnit(cfg, ANCHOR).run()
    assert sink.exact
    s_times, s_rtts = sink.to_series()
    assert np.array_equal(s_times, times)
    assert np.array_equal(s_rtts, rtts, equal_nan=True)
    assert sink.outcome.status == outcome.status
    assert digest_value((s_times, s_rtts)) == digest_value((times, rtts))


@pytest.mark.parametrize("workers,granularity", [(1, 3), (2, 3), (2, 1)])
def test_streamed_executor_digest_identical(workers, granularity):
    cfg = micro_config(seed=5)
    reference = digest_value(batch_reference(cfg)[:2])
    [sink] = execute_units([StreamingPingUnit(cfg, ANCHOR)],
                           ExecOptions(workers=workers,
                                       granularity=granularity))
    assert digest_value(sink.to_series()) == reference


def test_reservoir_is_independent_of_sharding():
    cfg = micro_config(seed=7)
    samples = []
    for workers, granularity in [(1, 1), (1, 4), (2, 3)]:
        [sink] = execute_units(
            [StreamingPingUnit(cfg, ANCHOR, reservoir_k=16)],
            ExecOptions(workers=workers, granularity=granularity))
        samples.append(sink.reservoir.sample())
    for times, values in samples[1:]:
        assert np.array_equal(times, samples[0][0])
        assert np.array_equal(values, samples[0][1])


def test_streamed_availability_matches_batch_counts():
    cfg = micro_config(seed=2)
    times, rtts, _ = batch_reference(cfg)
    [sink] = execute_units([StreamingPingUnit(cfg, ANCHOR)],
                           ExecOptions(granularity=4))
    assert sink.total_probes == rtts.size
    assert sink.lost_probes == int(np.isnan(rtts).sum())


# -- journal resume ---------------------------------------------------------


def test_streaming_resume_does_not_replay_aggregated_slices(tmp_path):
    cfg = micro_config(seed=4)
    reference = digest_value(batch_reference(cfg)[:2])

    journal = Journal(tmp_path / "j")
    unit = StreamingPingUnit(cfg, ANCHOR)
    shard = f"{unit.label}#s2-3"
    wrapped = wrap_units([unit], tmp_path / "chaos", shard_specs={
        unit.label: {shard: ChaosSpec(interrupt_on=(1,))}})
    with pytest.raises(KeyboardInterrupt):
        execute_units(wrapped, ExecOptions(granularity=4, journal=journal))
    # The run died partway: earlier shards are checkpointed.
    assert 0 < len(journal) < 4

    wrapped = wrap_units([unit], tmp_path / "chaos", shard_specs={
        unit.label: {shard: ChaosSpec()}})
    [sink] = execute_units(wrapped,
                           ExecOptions(granularity=4, journal=journal))
    assert digest_value(sink.to_series()) == reference
    # Aggregated slices fed the reducer straight from the journal:
    # shard 0 was executed exactly once, on the first (killed) run.
    assert attempts_made(tmp_path / "chaos", f"{unit.label}#s0-1") == 1


def test_fully_journaled_streaming_run_is_a_pure_replay(tmp_path):
    cfg = micro_config(seed=6)
    journal = Journal(tmp_path / "j")
    unit = StreamingPingUnit(cfg, ANCHOR)
    [first] = execute_units([unit],
                            ExecOptions(granularity=4, journal=journal))
    # Chaos that raises on every attempt proves nothing re-executed.
    wrapped = wrap_units([unit], tmp_path / "chaos",
                         default=ChaosSpec(raise_on=(1, 2, 3)))
    [second] = execute_units(wrapped,
                             ExecOptions(granularity=4, journal=journal))
    assert digest_value(second.to_series()) == digest_value(
        first.to_series())
    assert attempts_made(tmp_path / "chaos", f"{unit.label}#s0-1") == 0


# -- per-unit memory tracking -----------------------------------------------


def test_track_memory_records_peaks_and_renders_column():
    cfg = micro_config(seed=1)
    timings: list = []
    execute_units([StreamingPingUnit(cfg, ANCHOR)],
                  ExecOptions(granularity=2, track_memory=True),
                  timings=timings)
    assert timings and all(t.peak_kb > 0.0 for t in timings)
    assert "peak" in render_timings(timings)

    untracked: list = []
    execute_units([StreamingPingUnit(cfg, ANCHOR)], ExecOptions(granularity=2),
                  timings=untracked)
    assert all(t.peak_kb == 0.0 for t in untracked)
    assert "peak" not in render_timings(untracked)
