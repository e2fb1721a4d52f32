"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_parser, _exec_options, main
from repro.exec import ExecOptions


def test_fig1_artefact(capsys):
    assert main(["fig1", "--ping-days", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "singapore" in out


def test_fig2_artefact(capsys):
    assert main(["fig2", "--ping-days", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "Mood" in out


def test_fig6_artefact(capsys):
    assert main(["fig6", "--sites", "8"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "starlink" in out
    assert "satcom" in out


def test_middlebox_artefact(capsys):
    assert main(["middlebox"]) == 0
    out = capsys.readouterr().out
    assert "100.64.0.1" in out


def test_unknown_artefact_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_workers_and_timing_flags(capsys):
    assert main(["fig1", "--ping-days", "1", "--workers", "2",
                 "--timing"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "Unit timing" in out
    assert "ping" in out


def test_workers_flag_rejects_zero():
    with pytest.raises(SystemExit):
        main(["fig1", "--workers", "0"])


def test_journal_flag_checkpoints_and_resumes(tmp_path, capsys):
    journal_dir = tmp_path / "journal"
    assert main(["fig1", "--ping-days", "1",
                 "--journal", str(journal_dir)]) == 0
    first = capsys.readouterr().out
    assert "Figure 1" in first
    entries = len(list(journal_dir.glob("*.pkl")))
    assert entries == 11            # one checkpoint per ping unit
    # A resumed run loads every unit from the journal and says so.
    assert main(["fig1", "--ping-days", "1",
                 "--journal", str(journal_dir), "--resume"]) == 0
    second = capsys.readouterr().out
    assert f"journal: resuming, {entries} unit(s)" in second
    assert first.splitlines()[-3:] == second.splitlines()[-3:]


def test_nonempty_journal_requires_resume_flag(tmp_path, capsys):
    journal_dir = tmp_path / "journal"
    assert main(["fig1", "--ping-days", "1",
                 "--journal", str(journal_dir)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["fig1", "--ping-days", "1",
              "--journal", str(journal_dir)])


def test_resume_without_journal_rejected():
    with pytest.raises(SystemExit):
        main(["fig1", "--resume"])


def test_negative_retries_rejected():
    with pytest.raises(SystemExit):
        main(["fig1", "--retries", "-1"])


def test_unknown_failure_policy_rejected():
    with pytest.raises(SystemExit):
        main(["fig1", "--failure-policy", "retry-forever"])


def test_exec_flag_defaults_are_exec_options_defaults():
    parser = _build_parser()
    assert _exec_options(parser.parse_args(["fig1"])) == ExecOptions()
    assert parser.parse_args(["fig1"]).journal is None
    help_text = " ".join(parser.format_help().split())
    assert (f"per attempt (default {ExecOptions.retry_backoff_s}s)"
            in help_text)
