"""The tutorial's code (docs/TUTORIAL.md) must stay runnable."""

from repro import CompiledWorkload, DeadlockError, Memory, lower_module
from repro.frontend import (
    ArraySpec,
    Assign,
    For,
    Function,
    Module,
    Return,
    Store,
    c,
    load,
    v,
)


def saxpy_module():
    return Module(
        functions=[
            Function("main", ["n", "a"], [
                For("i", 0, v("n"), [
                    Store("y", v("i"),
                          v("a") * load("x", v("i"))
                          + load("y", v("i"))),
                ], parallel=("y",)),
                Return([c(0)]),
            ]),
        ],
        arrays=[ArraySpec("x", read_only=True), ArraySpec("y")],
    )


def test_tutorial_saxpy_end_to_end():
    program = lower_module(saxpy_module())
    compiled = CompiledWorkload(program)
    memory = Memory({"x": [1, 2, 3, 4], "y": [10, 20, 30, 40]})
    result = compiled.run("tyr", memory, [4, 3], tags=8)
    assert result.completed
    assert memory["y"] == [13, 26, 39, 52]


def test_tutorial_inspection_apis():
    from repro.ir.printer import format_program

    program = lower_module(saxpy_module())
    text = format_program(program)
    assert "loop" in text
    compiled = CompiledWorkload(program)
    stats = compiled.tagged.stats()
    assert stats["allocate"] >= 2


def test_tutorial_experiment_api():
    from repro.harness.experiments import get_experiment

    report = get_experiment("tab01")()
    assert "allocate" in report.text


def test_tutorial_deadlock_snippet():
    import pytest
    from repro import build_workload

    wl = build_workload("dmv", "tiny")
    with pytest.raises(DeadlockError):
        wl.run("unordered-bounded", total_tags=8)
    res = wl.run_checked("tyr", tags=2)
    assert res.completed


def test_package_docstring_quickstart():
    """The quickstart in repro/__init__ must work as written."""
    from repro import PAPER_SYSTEMS, build_workload

    wl = build_workload("dmv", "tiny")
    for machine in PAPER_SYSTEMS:
        result = wl.run_checked(machine)
        assert "cycles" in result.summary()


def test_tutorial_profile_api():
    from repro import build_workload

    wl = build_workload("dmv", "tiny")
    res = wl.run("tyr", profile=True)[0]
    prof = res.extra["profile"]
    assert sum(c for _, c in prof.stall_breakdown()) == res.cycles
    assert len(prof.top_nodes(5)) == 5


def test_tutorial_profile_sample_matches_the_command(capsys):
    """§7's sample output is what ``tyr-repro profile dmv -m vn``
    prints, from its header line to the last hotspot row."""
    from pathlib import Path

    from repro.cli import main

    doc = (Path(__file__).resolve().parents[1] / "docs"
           / "TUTORIAL.md").read_text()
    command = "$ tyr-repro profile dmv -m vn\n"
    sample = doc[doc.index(command) + len(command):]
    sample = sample[:sample.index("```")]
    assert main(["profile", "dmv", "-m", "vn"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == sample.splitlines()[0]
    assert out == sample


def test_tutorial_cache_snippet():
    """The §9 locality comparison must keep its direction: bounded
    TYR tags beat unbounded global tags on the same cache."""
    from repro import build_workload

    wl = build_workload("smv", "tiny")
    spec = "line=4,miss=60,l1=16x2x1"
    tyr = wl.run_checked("tyr", cache=spec, tags=4,
                         sample_traces=False)
    unordered = wl.run_checked("unordered", cache=spec,
                               sample_traces=False)
    rate = lambda r: r.extra["cache"]["levels"][0]["hit_rate"]  # noqa
    assert rate(tyr) > rate(unordered)
    assert "l1_hit=" in tyr.summary()
