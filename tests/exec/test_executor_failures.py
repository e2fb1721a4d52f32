"""Failure isolation in the executor: retry, timeout, degrade.

Every recovery path of :func:`repro.exec.execute_units` is pinned with
the chaos harness (:mod:`repro.testing.chaos`): transient exceptions
are retried to success, worker deaths and hangs are charged and
re-dispatched, exhausted units either abort the run
(``failure_policy="raise"``) or become :class:`UnitFailure` records in
a completed partial run (``"degrade"``). The units here are cheap
synthetic ones defined at module top level so they pickle under the
fork start method; the digest-level acceptance tests on real campaign
units live in ``test_journal_resume.py``.
"""

import multiprocessing
import time
import traceback
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError, UnitExecutionError
from repro.exec import ExecOptions, UnitFailure, execute_units
from repro.exec.runner import _backoff_s, _profile_stem
from repro.testing.chaos import (
    ChaosSpec,
    attempts_made,
    seeded_chaos,
    wrap_units,
)


@dataclass(frozen=True)
class SquareUnit:
    """Minimal work unit: deterministic, instant, picklable."""

    value: int

    kind = "square"

    @property
    def label(self) -> str:
        return f"square:{self.value}"

    def run(self) -> int:
        return self.value * self.value


@dataclass(frozen=True)
class NamedUnit:
    """Unit with an arbitrary label, for profile-stem tests."""

    name: str

    kind = "named"

    @property
    def label(self) -> str:
        return self.name

    def run(self) -> str:
        return self.name.upper()


UNITS = [SquareUnit(v) for v in range(5)]
EXPECTED = [v * v for v in range(5)]

#: Worker counts that select each backend: one runs every task in
#: this process, two a process pool. Tests of the shared retry and
#: failure-policy path run on both, each with its own chaos state.
BACKENDS = (1, 2)


def failures_in(payloads: list) -> list[UnitFailure]:
    """The UnitFailure records a degraded run left in place of units."""
    return [p for p in payloads if isinstance(p, UnitFailure)]


def test_transient_raise_is_retried_to_success(tmp_path):
    for workers in BACKENDS:
        state = tmp_path / f"w{workers}"
        wrapped = wrap_units(UNITS, state,
                             {"square:2": ChaosSpec(raise_on=(1,))})
        payloads = execute_units(wrapped, ExecOptions(workers=workers,
                                                      retries=1))
        assert payloads == EXPECTED
        assert attempts_made(state, "square:2") == 2
        assert attempts_made(state, "square:0") == 1


def test_exhausted_retries_raise_unit_execution_error(tmp_path):
    for workers in BACKENDS:
        wrapped = wrap_units(UNITS, tmp_path / f"w{workers}",
                             {"square:2": ChaosSpec(raise_on=(1, 2))})
        with pytest.raises(UnitExecutionError,
                           match=r"'square:2' failed after 2 attempt"):
            execute_units(wrapped, ExecOptions(workers=workers,
                                               retries=1))


@pytest.mark.parametrize("workers", BACKENDS)
def test_unit_execution_error_carries_the_unit_traceback(tmp_path,
                                                         workers):
    wrapped = wrap_units(UNITS, tmp_path,
                         {"square:2": ChaosSpec(raise_on=(1,))})
    with pytest.raises(UnitExecutionError) as raised:
        execute_units(wrapped, ExecOptions(workers=workers))
    # What an uncaught error prints names the frame that raised inside
    # the unit, not just its message.
    printed = "".join(traceback.format_exception(raised.value))
    assert "in _strike" in printed


def test_exhausted_retries_degrade_to_unit_failure(tmp_path):
    for workers in BACKENDS:
        wrapped = wrap_units(UNITS, tmp_path / f"w{workers}",
                             {"square:2": ChaosSpec(raise_on=(1, 2))})
        payloads = execute_units(wrapped, ExecOptions(
            workers=workers, retries=1, failure_policy="degrade"))
        # The lost unit's slot holds its UnitFailure; the rest are
        # intact.
        assert payloads[:2] == EXPECTED[:2]
        assert payloads[3:] == EXPECTED[3:]
        failure = payloads[2]
        assert isinstance(failure, UnitFailure)
        assert failure.label == "square:2"
        assert failure.kind == "square"
        assert failure.error_type == "ChaosError"
        assert failure.attempts == 2
        assert "ChaosError" in failure.traceback


def test_worker_death_is_retried_in_pool(tmp_path):
    wrapped = wrap_units(UNITS, tmp_path,
                         {"square:3": ChaosSpec(kill_on=(1,))})
    payloads = execute_units(wrapped, ExecOptions(workers=2, retries=1))
    assert payloads == EXPECTED


def test_worker_death_degrades_deterministically(tmp_path):
    # workers=1 keeps exactly one unit in flight, so the crash is
    # attributed to the chaos unit alone; unit_timeout forces the pool
    # path (a SIGKILL in-process would kill the test runner).
    wrapped = wrap_units(UNITS, tmp_path,
                         {"square:1": ChaosSpec(kill_on=(1,))})
    payloads = execute_units(wrapped, ExecOptions(
        unit_timeout=60.0, failure_policy="degrade"))
    failures = failures_in(payloads)
    assert [f.label for f in failures] == ["square:1"]
    assert failures[0].error_type == "WorkerCrash"
    assert failures[0].attempts == 1
    assert [p for p in payloads if not isinstance(p, UnitFailure)] \
        == [0, 4, 9, 16]


def test_hang_is_timed_out_and_redispatched(tmp_path):
    wrapped = wrap_units(UNITS, tmp_path,
                         {"square:0": ChaosSpec(hang_on=(1,),
                                                hang_s=60.0)})
    began = time.monotonic()
    payloads = execute_units(wrapped, ExecOptions(retries=1,
                                                  unit_timeout=0.75))
    assert payloads == EXPECTED
    # The hung attempt was abandoned at the timeout, not waited out.
    assert time.monotonic() - began < 30.0
    assert attempts_made(tmp_path, "square:0") == 2


def test_hang_exhausts_into_unit_timeout_failure(tmp_path):
    wrapped = wrap_units(UNITS, tmp_path,
                         {"square:0": ChaosSpec(hang_on=(1, 2),
                                                hang_s=60.0)})
    failures = failures_in(execute_units(wrapped, ExecOptions(
        retries=1, unit_timeout=0.5, failure_policy="degrade")))
    assert [f.error_type for f in failures] == ["UnitTimeout"]
    assert failures[0].attempts == 2
    assert "0.5s wall-clock budget" in failures[0].message


def test_degrade_report_matches_injected_faults(tmp_path):
    units = [SquareUnit(v) for v in range(10)]
    for workers in BACKENDS:
        wrapped, injections = seeded_chaos(units, tmp_path / f"w{workers}",
                                           seed=7, p_raise=0.5)
        assert injections  # seed 7 must actually sabotage something
        assert all(inj.fault == "raise" for inj in injections)
        payloads = execute_units(wrapped, ExecOptions(
            workers=workers, failure_policy="degrade"))
        failures = failures_in(payloads)
        # The failure report lists exactly the injected faults --
        # nothing invented, nothing swallowed -- and every calm unit
        # completed.
        assert sorted(f.label for f in failures) \
            == sorted(inj.label for inj in injections)
        assert all(f.error_type == "ChaosError" for f in failures)
        sabotaged = {inj.label for inj in injections}
        for unit, payload in zip(units, payloads):
            if unit.label in sabotaged:
                assert isinstance(payload, UnitFailure)
            else:
                assert payload == unit.value ** 2


def test_seeded_chaos_is_deterministic(tmp_path):
    units = [SquareUnit(v) for v in range(10)]
    _, first = seeded_chaos(units, tmp_path / "a", seed=7, p_raise=0.5)
    _, second = seeded_chaos(units, tmp_path / "b", seed=7, p_raise=0.5)
    assert first == second


def test_pool_interrupt_cancels_and_reaps_workers(tmp_path):
    wrapped = wrap_units(UNITS, tmp_path,
                         {"square:2": ChaosSpec(interrupt_on=(1,))})
    with pytest.raises(KeyboardInterrupt):
        execute_units(wrapped, ExecOptions(workers=2))
    # No orphaned pool workers: every child is reaped promptly.
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children():
        assert time.monotonic() < deadline, \
            f"orphans: {multiprocessing.active_children()}"
        time.sleep(0.05)


def test_timings_cover_only_successes_in_input_order(tmp_path):
    for workers in BACKENDS:
        wrapped = wrap_units(UNITS, tmp_path / f"w{workers}",
                             {"square:1": ChaosSpec(raise_on=(1,))})
        timings = []
        execute_units(wrapped, ExecOptions(workers=workers,
                                           failure_policy="degrade"),
                      timings=timings)
        assert [t.label for t in timings] \
            == ["square:0", "square:2", "square:3", "square:4"]


def test_backoff_schedule_is_deterministic_and_exponential():
    assert _backoff_s(0.5, 1) == 0.5
    assert _backoff_s(0.5, 2) == 1.0
    assert _backoff_s(0.5, 3) == 2.0
    assert _backoff_s(0.0, 5) == 0.0


@pytest.mark.parametrize("name, value", [
    ("workers", 0), ("granularity", 0), ("retries", -1),
    ("retry_backoff_s", -0.1), ("retry_backoff_s", float("nan")),
    ("unit_timeout", 0.0), ("unit_timeout", float("nan")),
    ("failure_policy", "retry-forever"),
])
def test_exec_options_reject_invalid_values(name, value):
    with pytest.raises(ConfigurationError, match=name):
        ExecOptions(**{name: value})


def test_profile_stems_do_not_collide(tmp_path):
    # Both labels sanitize to the stem "probe_one"; the unit index
    # prefix keeps their dumps apart (regression: the second dump used
    # to silently overwrite the first).
    units = [NamedUnit("probe one"), NamedUnit("probe/one")]
    assert _profile_stem(units[0].label) == _profile_stem(units[1].label)
    prof = tmp_path / "prof"
    execute_units(units, ExecOptions(profile_dir=str(prof)))
    dumps = sorted(p.name for p in prof.glob("*.pstats"))
    assert dumps == ["0000-probe_one.pstats", "0001-probe_one.pstats"]
