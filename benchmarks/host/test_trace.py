import sys
import types

import pytest

from benchmarks.host.trace import MODE, NAME, Tracer, self_times, totals


def span(name, start, end, parent, mode="plain", extra=None):
    return [name, start, end, parent, 0, mode, extra]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("child", 1.0, 4.0, 0),
        span("grandchild", 2.0, 3.0, 1),
        span("child2", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_totals_group_by_name_and_mode_per_process():
    first = [span("engine.tagged.run", 0.0, 2.0, -1, extra=[100, 10]),
             span("engine.tagged.bind", 0.5, 1.0, 0)]
    second = [span("engine.tagged.run", 0.0, 1.0, -1, extra=[50, 5])]
    rows = totals([first, second])
    run = rows[("engine.tagged.run", "plain")]
    assert run["n"] == 2
    assert run["self"] == pytest.approx(1.5 + 1.0)
    assert (run["instructions"], run["cycles"]) == (150, 15)
    assert rows[("engine.tagged.bind", "plain")]["self"] \
        == pytest.approx(0.5)


@pytest.fixture
def layer_module():
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Base:
        def run(self):
            return "base"

    class Engine(Base):
        def __init__(self):
            self.ready = True

    mod.inner, mod.outer, mod.Engine = inner, outer, Engine
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_records_nested_spans_and_restores_originals(layer_module):
    originals = (layer_module.inner, layer_module.outer,
                 layer_module.Engine.__init__)
    targets = (
        ("fake_layers", "outer", "outer", None),
        ("fake_layers", "inner", lambda args: f"inner.{args[0]}", None),
        ("fake_layers", "Engine.__init__", "bind", None),
        ("fake_layers", "Engine.run", "run", lambda args, r: [len(r), 0]),
        ("fake_layers", "gone", "gone", None),
        ("no_such_module", "f", "f", None),
    )
    tracer = Tracer().install(targets)
    tracer.mode = "plain"
    assert layer_module.outer(1) == 4
    assert layer_module.Engine().run() == "base"
    tracer.uninstall()

    names = [s[NAME] for s in tracer.spans]
    assert names == ["outer", "inner.1", "bind", "run"]
    assert tracer.spans[1][3] == 0  # inner's parent is outer
    assert tracer.spans[3][6] == [4, 0]
    assert all(s[MODE] == "plain" for s in tracer.spans)
    assert tracer.missing == ["fake_layers.gone", "no_such_module.f"]
    assert (layer_module.inner, layer_module.outer,
            layer_module.Engine.__init__) == originals
    assert "run" not in vars(layer_module.Engine)  # inherited again
