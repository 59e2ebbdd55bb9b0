"""Shared infrastructure for ahead-of-time plan kernels.

A node's kernel body depends only on its *shape*: opcode, which ports
are tokens and which immediates, the unrolled fan-out and the timing
rule. Everything else a node carries -- destination ids and ports,
immediates, array names, result slots -- is *data*, the way a dataflow
instruction carries its destinations. So each family generator
(:mod:`~repro.sim.codegen.tagged`, ``queued``, ``window``, ``vector``)
emits two things per program:

* **shape source** -- one ``def kernel(...)`` per distinct shape, in
  which every node-varying constant is a parameter ``c0, c1, ...``;
* a **kernel table** (:class:`KernelTable`) -- one row per node of
  (shape per timing rule, runtime-object refs, constants).

Each shape text is compiled once per process into :data:`_SHAPES`,
keyed by that text. Constants never enter the key (``1 == True`` and
``0 == 0.0 == -0.0`` would collide as dict keys); they are bound at
engine construction as default arguments through
:class:`types.FunctionType`, so bodies still run on ``LOAD_FAST`` and
rebuilding the kernels of a program whose shapes are all known calls
``compile()`` zero times. Each family's cycle loop is a shape too, one
per variant (which firing-rule kinds the plan contains).

This module holds what the generators share:

* :class:`Writer` -- tiny indentation-aware source emitter;
* :class:`Shape` -- one shape being emitted: its runtime refs, its
  constants, and the ``def kernel(...)`` text;
* :func:`pure_expr` -- inline expression templates for the pure
  opcodes whose :func:`~repro.ir.ops.OP_INFO` evaluators are simple
  operators (``DIV``/``MOD`` keep their checked evaluator calls);
* :func:`kernel_source` / :func:`compile_kernels` /
  :class:`KernelModule` -- table plus not-yet-compiled shape source,
  the once-per-shape compile, and the data-driven binder.

Set ``TYR_REPRO_DUMP_KERNELS=<dir>`` to dump each program's shape
sources and node table to ``<dir>/<family>-<fingerprint12>.py``.
"""

from __future__ import annotations

import builtins
import os
from collections import deque
from sys import maxsize
from types import FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError, TokenBoundExceeded
from repro.ir.ops import Op
from repro.sim.latency import load_delay
from repro.sim.watchdog import watchdog_horizon

#: Environment variable naming a directory to dump generated source to.
DUMP_ENV = "TYR_REPRO_DUMP_KERNELS"

#: Kernel families.
FAMILIES = ("tagged", "flat", "window", "vector")

#: Timing rules, in the order of every row's variants: cache-probe
#: loads, idealized single-cycle loads, hash-based variable latency.
CACHE, FAST, VAR = range(3)

#: A runtime-object ref: an engine-environment name, or a name plus
#: the keys that index into that object (``("pops", 3)`` is
#: ``env["pops"][3]``).
Ref = object

#: Globals of every kernel function: what shape bodies name without
#: binding (exception types, helpers of the cycle loops).
GLOBALS: Dict[str, object] = {
    "__builtins__": builtins,
    "SimulationError": SimulationError,
    "TokenBoundExceeded": TokenBoundExceeded,
    "watchdog_horizon": watchdog_horizon,
    "deque": deque,
    "maxsize": maxsize,
}

#: Shape text -> compiled code object, once per process. Code objects
#: hold no plan data, so the memo keeps no program alive.
_SHAPES: Dict[str, object] = {}


class Writer:
    """Indentation-aware source accumulator."""

    def __init__(self, depth: int = 0) -> None:
        self._lines: List[str] = []
        self._depth = depth
        self._pad = "    " * depth

    def w(self, line: str = "") -> None:
        self._lines.append(self._pad + line if line else "")

    #: Writers are callable: ``w("line")`` == ``w.w("line")``.
    __call__ = w

    def indent(self) -> None:
        self._depth += 1
        self._pad = "    " * self._depth

    def dedent(self) -> None:
        self._depth -= 1
        self._pad = "    " * self._depth

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


class Consts:
    """One row's constants, shared by its timing variants."""

    __slots__ = ("values", "_names")

    def __init__(self) -> None:
        self.values: List[object] = []
        self._names: Dict[object, str] = {}

    def add(self, value: object) -> str:
        """A fresh parameter bound to ``value``."""
        self.values.append(value)
        return f"c{len(self.values) - 1}"

    def named(self, key: object, value: object) -> str:
        """The parameter for ``key``, added with ``value`` on first use
        (so every variant names one operand by one parameter)."""
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = self.add(value)
        return name


class Shape(Writer):
    """The body of one kernel plus the parameters it binds.

    ``args`` are the call arguments (``tag``, ``inst``, ``env``);
    :meth:`ref` names a runtime object resolved from the engine at
    bind time; :meth:`const` turns one node-varying value into a
    parameter. The timing variants of one node share its
    :class:`Consts`; close them with :meth:`variant` only once all are
    emitted, since every variant takes every constant.
    """

    def __init__(self, args: Sequence[str] = (),
                 consts: Optional[Consts] = None) -> None:
        super().__init__(depth=1)
        self.args = tuple(args)
        self.refs: Dict[str, Ref] = {}
        self.consts = Consts() if consts is None else consts

    def ref(self, name: str, spec: Ref = None) -> str:
        """Parameter ``name`` bound to env ref ``spec`` (default: the
        env entry of the same name)."""
        if name not in self.refs:
            self.refs[name] = name if spec is None else spec
        return name

    def const(self, value: object) -> str:
        """A fresh parameter bound to ``value``."""
        return self.consts.add(value)

    def variant(self) -> Tuple[str, Tuple[Ref, ...]]:
        """The shape text and its refs, in parameter order (call
        arguments, refs, then every constant of ``consts``)."""
        params = (list(self.args) + list(self.refs)
                  + [f"c{i}" for i in range(len(self.consts.values))])
        lines = self._lines or ["    pass"]
        text = (f"def kernel({', '.join(params)}):\n"
                + "\n".join(lines) + "\n")
        return text, tuple(self.refs.values())


def loop_text(w: Writer) -> str:
    """The text of a cycle-loop shape emitted (indented once) into
    ``w``: one ``kernel(E)``."""
    return "def kernel(E):\n" + "\n".join(w._lines) + "\n"


#: Inline expression templates for pure opcodes. ``{0}``/``{1}``/``{2}``
#: are the operand expressions in port order. Each template is exactly
#: equivalent to the evaluator in :data:`repro.ir.ops._PURE` (e.g.
#: ``_bool(a < b)`` == ``1 if a < b else 0`` for ints). DIV/MOD are
#: deliberately absent: their evaluators raise SimulationError on zero
#: and stay as bound calls.
_PURE_EXPR: Dict[Op, str] = {
    Op.ADD: "({0} + {1})",
    Op.SUB: "({0} - {1})",
    Op.MUL: "({0} * {1})",
    Op.SHL: "({0} << {1})",
    Op.SHR: "({0} >> {1})",
    Op.BAND: "({0} & {1})",
    Op.BOR: "({0} | {1})",
    Op.BXOR: "({0} ^ {1})",
    Op.NOT: "(0 if {0} else 1)",
    Op.NEG: "(-{0})",
    Op.LT: "(1 if {0} < {1} else 0)",
    Op.LE: "(1 if {0} <= {1} else 0)",
    Op.GT: "(1 if {0} > {1} else 0)",
    Op.GE: "(1 if {0} >= {1} else 0)",
    Op.EQ: "(1 if {0} == {1} else 0)",
    Op.NE: "(1 if {0} != {1} else 0)",
    Op.MIN: "min({0}, {1})",
    Op.MAX: "max({0}, {1})",
    Op.SELECT: "({1} if {0} else {2})",
    Op.COPY: "{0}",
}


def pure_expr(op: Op, args: List[str]) -> Optional[str]:
    """The inline expression for pure ``op`` over operand sources,
    or None when the op must go through its bound evaluator."""
    template = _PURE_EXPR.get(op)
    if template is None:
        return None
    return template.format(*args)


#: One row variant: (shape text, refs) while generating, (code object,
#: refs) once compiled.
Variant = Tuple[object, Tuple[Ref, ...]]


def one_rule(variant: Variant) -> Tuple[Variant, Variant, Variant]:
    """The variants of a row whose kernel ignores the timing rule."""
    return (variant, variant, variant)


class KernelTable:
    """What a family generator returns for one program.

    ``rows`` holds one ``(variants, consts, label)`` per node: the
    variants indexed by :data:`CACHE`/:data:`FAST`/:data:`VAR`, the
    node's constants as a tuple, and a label for dumps. ``loop`` is
    the cycle-loop shape text (None for the vector family); ``layout``
    is family data the binder needs; ``bind(module, engine)`` is the
    family's binder.
    """

    __slots__ = ("family", "rows", "loop", "layout", "bind")

    def __init__(self, family: str, bind: Callable,
                 loop: Optional[str] = None, layout=None) -> None:
        self.family = family
        self.rows: List[tuple] = []
        self.loop = loop
        self.layout = layout
        self.bind = bind

    def add(self, variants, consts: Consts, label: str) -> None:
        self.rows.append((variants, tuple(consts.values), label))

    def texts(self) -> List[str]:
        """Every distinct shape text of the program, first use first."""
        seen: Dict[str, None] = {}
        for variants, _, _ in self.rows:
            for text, _ in variants:
                seen[text] = None
        if self.loop is not None:
            seen[self.loop] = None
        return list(seen)


class KernelSource(str):
    """The source handed to ``compile()`` for one program: the shapes
    it uses that this process has not compiled yet (often none), each
    followed by a line collecting its function. ``table`` is the
    program's :class:`KernelTable`, ``new`` the texts compiled."""

    table: KernelTable
    new: List[str]


def kernel_source(table: KernelTable) -> KernelSource:
    """Wrap ``table`` with the source of its not-yet-compiled shapes."""
    new = [text for text in table.texts() if text not in _SHAPES]
    source = KernelSource("".join(text + "new(kernel)\n" for text in new))
    source.table = table
    source.new = new
    return source


def module_name(family: str, fingerprint: str) -> str:
    return f"<kernels:{family}:{fingerprint[:12]}>"


def dump_kernel_source(table: KernelTable,
                       fingerprint: str) -> Optional[str]:
    """Write a program's shape sources and node table to
    ``$TYR_REPRO_DUMP_KERNELS`` (if set).

    Returns the path written, or None when dumping is disabled.
    """
    directory = os.environ.get(DUMP_ENV)
    if not directory:
        return None
    texts = table.texts()
    index = {text: i for i, text in enumerate(texts)}
    lines = [f'"""Kernels of one {table.family} program: every shape '
             f'it uses, then its node table.\n\nEmitted by '
             f'repro.sim.codegen; constants c0, c1, ... are bound per '
             f'row."""', ""]
    for i, text in enumerate(texts):
        kind = "cycle loop" if text == table.loop else "shape"
        lines += [f"# s{i}: {kind}", text]
    lines.append("# node table: label, shape per timing rule "
                 "(cache, fast, var), refs per shape, constants")
    lines.append("TABLE = [")
    for variants, consts, label in table.rows:
        shapes = tuple(f"s{index[text]}" for text, _ in variants)
        refs = {f"s{index[text]}": r for text, r in variants}
        lines.append(f"    ({label!r}, {shapes!r}, {refs!r}, "
                     f"{consts!r}),")
    lines.append("]")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory,
                        f"{table.family}-{fingerprint[:12]}.py")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


class KernelModule:
    """One program's kernels, ready to bind to engines.

    ``rows`` are the table's rows with shape texts replaced by code
    objects; engines call :meth:`bind` at construction and dispatch
    their cycle loop through :attr:`run_loop`.
    """

    __slots__ = ("rows", "layout", "run_loop", "_bind", "__weakref__")

    def __init__(self, table: KernelTable) -> None:
        shapes = _SHAPES
        self.rows = [
            (tuple((shapes[text], refs) for text, refs in variants),
             consts)
            for variants, consts, _ in table.rows
        ]
        self.layout = table.layout
        self.run_loop = (None if table.loop is None else
                         FunctionType(shapes[table.loop], GLOBALS,
                                      "run_loop"))
        self._bind = table.bind

    def bind(self, engine):
        """Per-node (or per-block) functions for one live engine."""
        return self._bind(self, engine)


def compile_kernels(source: KernelSource, family: str,
                    fingerprint: str) -> KernelModule:
    """Compile the shapes ``source`` adds (none when every shape is
    already known) and resolve the program's table against them."""
    table = source.table
    dump_kernel_source(table, fingerprint)
    if source:
        code = compile(source, module_name(family, fingerprint), "exec")
        fns: List[FunctionType] = []
        exec(code, {"new": fns.append})
        for text, fn in zip(source.new, fns):
            _SHAPES[text] = fn.__code__
    return KernelModule(table)


def timing_rule(engine) -> int:
    """The row variant an engine's load timing selects."""
    if engine._cache is not None:
        return CACHE
    return FAST if engine.load_latency <= 1 else VAR


def memory_env(engine) -> Dict[str, object]:
    """The env entries every family's memory rules bind."""
    cache = engine._cache
    return {
        "mem_load": engine.memory.load,
        "mem_store": engine.memory.store,
        "metrics": engine.metrics,
        "latency": engine.load_latency,
        "load_delay": load_delay,
        "cache_load": cache.access_load if cache is not None else None,
        "cache_store": cache.access_store if cache is not None else None,
    }


def resolve(env: Dict[str, object], ref: Ref) -> object:
    if ref.__class__ is str:
        return env[ref]
    obj = env[ref[0]]
    for key in ref[1:]:
        obj = obj[key]
    return obj


def bind_rows(rows, env: Dict[str, object], rule: int) -> list:
    """One function per row: the row's code for ``rule`` with its
    refs resolved in ``env`` and its constants appended as default
    arguments."""
    fns = []
    append = fns.append
    glb = GLOBALS
    for variants, consts in rows:
        code, refs = variants[rule]
        append(FunctionType(
            code, glb, None,
            tuple([resolve(env, r) for r in refs]) + consts))
    return fns
