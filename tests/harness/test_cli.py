"""Unit tests for the command-line interface."""

import re

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.errors import ReproError


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "dmv" in out
    assert "tyr" in out
    assert "fig12" in out


def test_run_command(capsys):
    assert main(["run", "dmv", "--scale", "tiny", "-m", "tyr",
                 "--tags", "4"]) == 0
    out = capsys.readouterr().out
    assert "tyr:" in out
    assert "outputs verified" in out


def test_run_defaults_to_paper_systems(capsys):
    assert main(["run", "dmv", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    for machine in ("vn:", "seqdf:", "ordered:", "unordered:", "tyr:"):
        assert machine in out


def test_run_reports_deadlock(capsys):
    assert main(["run", "dmv", "--scale", "tiny", "-m",
                 "unordered-bounded", "--total-tags", "8"]) == 0
    out = capsys.readouterr().out
    assert "DEADLOCK" in out


def test_experiment_command(capsys):
    assert main(["experiment", "tab01"]) == 0
    out = capsys.readouterr().out
    assert "allocate" in out
    assert "changeTag" in out


def test_experiment_harness_flags(capsys, tmp_path):
    """--run-log/--progress/--timeout/--retries flow into the pool."""
    import json

    log_path = tmp_path / "run.jsonl"
    assert main(["experiment", "fig05", "--scale", "tiny",
                 "--jobs", "2", "--cache-dir",
                 str(tmp_path / "cache"), "--run-log", str(log_path),
                 "--progress", "--timeout", "600", "--retries", "2",
                 ]) == 0
    captured = capsys.readouterr()
    assert "fig05" in captured.out
    assert "specs" in captured.err  # the live progress line
    events = [json.loads(line)
              for line in log_path.read_text().splitlines()]
    kinds = {ev["event"] for ev in events}
    assert {"queued", "started", "finished"} <= kinds

    # Warm rerun: same command resolves everything from the cache.
    assert main(["experiment", "fig05", "--scale", "tiny",
                 "--jobs", "2", "--cache-dir",
                 str(tmp_path / "cache"), "--run-log", str(log_path),
                 ]) == 0
    capsys.readouterr()
    warm = [json.loads(line)
            for line in log_path.read_text().splitlines()][len(events):]
    assert warm and all(ev["event"] == "cache-hit" for ev in warm)


def test_inspect_command(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    assert main(["inspect", "dmv", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "loop" in out
    assert "elaborated:" in out
    assert dot.read_text().startswith("digraph")


def test_trace_command(capsys, tmp_path):
    dot = tmp_path / "t.dot"
    assert main(["trace", "dmv", "-m", "tyr", "--tags", "4",
                 "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "events over" in out
    assert "completed: True" in out
    assert "rank=same" in dot.read_text()


def test_profile_command(capsys):
    assert main(["profile", "dmv", "-m", "tyr", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "cycles by stall reason" in out
    assert "fired" in out
    assert "top 5 nodes by attributed cycles" in out
    assert "@main" in out  # op@block#id hotspot labels


def test_profile_command_json(capsys):
    import json

    assert main(["profile", "dmv", "-m", "tyr", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["machine"] == "tyr"
    assert sum(doc["stall_cycles"].values()) == doc["cycles"]
    assert sum(doc["node_fired"].values()) == doc["instructions"]


@pytest.mark.parametrize("argv", [
    ["experiment", "tab01", "--timeout", "0"],
    ["experiment", "tab01", "--timeout", "-1"],
    ["experiment", "tab01", "--timeout", "nan"],
    ["experiment", "tab01", "--timeout", "inf"],
    ["profile", "dmv", "--top", "0"],
    ["profile", "dmv", "--top", "-1"],
    ["experiment", "tab01", "--jobs", "0"],
    ["experiment", "tab01", "--jobs", "-3"],
    ["experiment", "tab01", "--retries", "-1"],
])
def test_numbers_that_break_the_run_are_parse_errors(argv, capsys):
    """A timeout that fails every run or silently disables itself, a
    hotspot row count below one, a worker count below one (which ran
    serially) and a negative retry count (which acted as zero) stop at
    parse time (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # argparse names an option by all its spellings: "--jobs/-j".
    err = capsys.readouterr().err
    assert re.search(rf"error: argument {argv[2]}(/-\w)?: bad ", err), err


def test_smallest_good_numbers_parse():
    parser = build_parser()
    assert parser.parse_args(["experiment", "tab01", "--timeout",
                              "0.5"]).timeout == 0.5
    assert parser.parse_args(["profile", "dmv", "--top", "1"]).top == 1
    assert parser.parse_args(["experiment", "tab01", "-j", "1"]).jobs == 1
    assert parser.parse_args(["experiment", "tab01", "--retries",
                              "0"]).retries == 0


@pytest.mark.parametrize("options, kwargs", [
    ([], {}),
    (["--tags", "4", "--total-tags", "16", "--issue-width", "8",
      "--queue-depth", "2", "--window", "3", "--cache",
      "line=4,miss=60,l1=4x2x1"],
     {"tags": 4, "total_tags": 16, "issue_width": 8, "queue_depth": 2,
      "window": 3, "cache": "line=4,miss=60,l1=4x2x1"}),
], ids=["defaults", "every-option"])
def test_run_and_profile_take_the_same_run_options(options, kwargs,
                                                   monkeypatch):
    """``run`` and ``profile`` accept each run option and pass the
    same run kwargs; ``profile`` adds ``profile=True``."""
    seen = {}

    class Stop(ReproError):
        pass

    class Workload:
        params = {}

        def run_checked(self, machine, **run_kwargs):
            seen[run_kwargs.pop("profile", False)] = run_kwargs
            raise Stop("stop")

    monkeypatch.setattr(cli, "build_workload", lambda *a: Workload())
    for command in ("run", "profile"):
        assert main([command, "dmv", "-m", "tyr", *options]) == 1
    defaults = {"tags": 64, "total_tags": 64, "issue_width": 128,
                "queue_depth": 4, "window": 8}
    assert seen == {False: dict(defaults, **kwargs),
                    True: dict(defaults, **kwargs)}


def test_bad_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nope"])


def test_bad_scale_is_clean_error(capsys):
    assert main(["run", "dmv", "--scale", "galactic"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["inspect", "dmv", "--dot", "{missing}/x.dot"],
    ["trace", "dmv", "--dot", "{missing}/x.dot"],
    ["experiment", "fig12", "--scale", "tiny", "--no-cache",
     "--run-log", "{missing}/run.jsonl"],
    ["experiment", "fig12", "--scale", "tiny", "--cache-dir",
     "{file}/c"],
], ids=["inspect-dot", "trace-dot", "run-log", "cache-dir"])
def test_unwritable_output_path_is_a_clean_error(argv, capsys, tmp_path):
    """An output path that cannot be opened (its directory is missing,
    or is a file) ends the command with one error line naming it and
    exit 1, not a traceback."""
    (tmp_path / "file").write_text("")
    argv = [arg.format(missing=tmp_path / "missing", file=tmp_path / "file")
            for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: cannot write {re.escape(argv[-1])}: .+\n",
                        err), err
