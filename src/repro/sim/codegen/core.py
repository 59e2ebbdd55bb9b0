"""Shared infrastructure for ahead-of-time plan kernels.

A node's kernel body depends only on its *shape*: opcode, which ports
are tokens and which immediates, the unrolled fan-out and the timing
rule. Everything else a node carries -- destination ids and ports,
immediates, array names, result slots -- is *data*, the way a dataflow
instruction carries its destinations. So each family generator
(:mod:`~repro.sim.codegen.tagged`, ``queued``, ``window``, ``vector``)
returns a **kernel table** (:class:`KernelTable`) per program: one row
per node of (:class:`Recipe`, fields). A recipe holds a shape text per
timing rule, in which every node-varying constant is a parameter
``c0, c1, ...``, the runtime refs each shape binds, and the getter of
the row's constants from its fields.

The tagged, flat and window generators memoize recipes by *structural
key* -- everything their emitter branches on -- and emit each key once
per process, over a stand-in node whose node-varying fields are
:class:`Field` placeholders. The emitter's constants and refs name
those fields, so the recipe records where each value comes from
instead of a value: a later node with the same key costs its key and
its field tuple, and its constants come out of one ``itemgetter``
call. Refs into per-node runtime objects (``("pops", nid)``, a FIFO of
a consumer) hold fields too and resolve against the row's fields at
bind time. The vector generator does not memoize: a whole-block shape
rarely repeats, so its rows carry their constants as their fields.

Shape texts are compiled once per process into :data:`_SHAPES`, keyed
by text. Constants never enter that key (``1 == True`` and ``0 == 0.0
== -0.0`` would collide as dict keys); they are bound at engine
construction as default arguments through :class:`types.FunctionType`,
so bodies still run on ``LOAD_FAST``. A :class:`KernelModule` holds
its family's machine lowering and generates its table on first use,
then compiles one timing rule's shapes the first time an engine binds
that rule, so a program run only with idealized loads never compiles
its timed shapes.

There are two timing rules. ``FAST`` runs loads in one cycle and
stores without a probe. ``TIMED`` asks the engine's one timing object
for each load's delay and probes it on each store: the cache model
(:class:`~repro.sim.cache.CacheModel`) or the hash latency model
(:class:`~repro.sim.latency.LoadLatency`), which share an interface,
so one timed body serves both.

An engine given a module whose rule is not compiled yet does not bind
it at construction: it interprets until the run has fired
:data:`HANDOFF_K` instructions per static node, then binds at a cycle
boundary and runs on (``Engine._take_kernels`` and
``Engine._hand_off`` in :mod:`repro.sim.engine`). A short never-seen
run so never generates, binds or compiles anything.

Tables hold firing rules only, one table per program and family. The
tagged, queued and window engines each run one hand-written cycle
loop, the same for kernel, interpreted and profiled runs, so their
rows serve profiled runs too. A profiled datapar run interprets: the
vector family has no cycle loop to book the stall taxonomy in, and
its engine drops its kernels when profiling.

This module holds what the generators share:

* :class:`Shape` -- one shape being emitted, line by line with
  indentation: its runtime refs, its constants, and the
  ``def kernel(...)`` text;
* :class:`Field` / :class:`Recipe` -- a stand-in node's placeholders
  and what one emission over them yields;
* :func:`pure_expr` -- inline expression templates for the pure
  opcodes whose :func:`~repro.ir.ops.OP_INFO` evaluators are simple
  operators (``DIV``/``MOD`` keep their checked evaluator calls);
* :func:`kernel_source` / :func:`compile_kernels` /
  :class:`KernelModule` -- the table, its generation on first use, the
  per-rule compile, and the data-driven binder.

Set ``TYR_REPRO_DUMP_KERNELS=<dir>`` to dump each generated table's
shape sources and node table to ``<dir>/<family>-<fingerprint12>.py``.
"""

from __future__ import annotations

import builtins
import os
import sys
from collections import deque
from operator import itemgetter
from types import FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.ir.ops import OP_INFO, Op

#: Environment variable naming a directory to dump generated source to.
DUMP_ENV = "TYR_REPRO_DUMP_KERNELS"

#: Kernel families.
FAMILIES = ("tagged", "flat", "window", "vector")

#: Timing rules, in the order of every row's variants: idealized
#: single-cycle loads, and loads timed by the engine's timing object.
FAST, TIMED = range(2)

#: A runtime-object ref: an engine-environment name, or a name plus
#: the keys that index into that object (``("pops", 3)`` is
#: ``env["pops"][3]``).
Ref = object

#: Opcode -> its evaluator (None for non-pure opcodes): a node field
#: of the generators whose pure shapes call it.
EVALUATORS = {op: info.evaluate for op, info in OP_INFO.items()}

#: Globals of every kernel function: what shape bodies name without
#: binding.
GLOBALS: Dict[str, object] = {
    "__builtins__": builtins,
    "SimulationError": SimulationError,
    "deque": deque,
}

#: Shape text -> compiled code object, once per process. Code objects
#: hold no plan data, so the memo keeps no program alive.
_SHAPES: Dict[str, object] = {}


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


class Shape:
    """The body of one kernel plus the parameters it binds.

    A shape is called with one line of its body (``s("line")``) and
    indents with :meth:`indent` / :meth:`dedent`. ``args`` are the
    call arguments (``tag``, ``inst``); :meth:`ref` names a runtime
    object resolved from the engine at bind time; :meth:`const` turns
    one node-varying value into a parameter. The timing variants of
    one node share its :class:`Consts`; close them with
    :meth:`variant` only once all are emitted, since every variant
    takes every constant.
    """

    def __init__(self, args: Sequence[str] = (),
                 consts: Optional[Consts] = None) -> None:
        self._lines: List[str] = []
        self._depth = 1
        self._pad = "    "
        self.args = tuple(args)
        self.refs: Dict[str, Ref] = {}
        self.consts = Consts() if consts is None else consts

    def __call__(self, line: str) -> None:
        self._lines.append(self._pad + line)

    def indent(self) -> None:
        self._depth += 1
        self._pad = "    " * self._depth

    def dedent(self) -> None:
        self._depth -= 1
        self._pad = "    " * self._depth

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


def move_miss_box(w: Shape) -> None:
    """A timed load's miss-box update, as in every interpreter's load:
    a full miss keeps the cycles up to its due cycle booked as miss
    stalls (reads ``delay`` and ``due``). No hash-latency load is a
    miss."""
    w("if delay >= miss_latency and due + 1 > miss_until[0]:")
    w("    miss_until[0] = due + 1")


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


#: One row variant: a shape text and the refs it binds, in parameter
#: order (call arguments, refs, then every constant of the row).
Variant = Tuple[str, Tuple[Ref, ...]]

#: Every timing rule, in row-variant order.
RULES = (FAST, TIMED)


def one_rule(variant: Variant) -> Tuple[Variant, Variant]:
    """The variants of a row whose kernel ignores the timing rule."""
    return (variant, variant)


class Field:
    """A stand-in node's placeholder for one node-varying value: item
    ``index`` of the row's fields. Emitters pass fields to
    :meth:`Shape.const` and into refs, never into shape text or a
    branch, so a recipe can never keep one node's value."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"Field({self.index})"

    def __format__(self, spec: str) -> str:
        raise TypeError("a node field is data, not shape text")

    def __bool__(self) -> bool:
        raise TypeError("a shape cannot branch on a node field")


def placeholders(n: int) -> List[Field]:
    """Fields ``0 .. n - 1``: a stand-in for a row of ``n`` fields."""
    return [Field(i) for i in range(n)]


class RowRef(tuple):
    """A ref into a per-node runtime object (``("pops", nid)``, a
    consumer's FIFO): an env name, then keys, some of them
    :class:`Field` placeholders read from the row's fields."""

    __slots__ = ()

    def concrete(self, fields: Sequence[object]) -> tuple:
        """The ref with the row's fields filled in."""
        return tuple([fields[key.index] if key.__class__ is Field else key
                      for key in self])


def _binder(refs: Tuple[Ref, ...]) -> tuple:
    """How one variant's refs bind: ``env -> values``, where a row
    ref's value is its root object, and per row ref ``(position, field
    index, second key, whether that key is a field index)``: the
    node's own object, or an object in it such as a FIFO of the node
    or of a consumer."""
    rows = []
    for i, ref in enumerate(refs):
        if ref.__class__ is RowRef:
            key = ref[2] if len(ref) > 2 else None
            if key.__class__ is Field:
                rows.append((i, ref[1].index, key.index, True))
            else:
                rows.append((i, ref[1].index, key, False))
    names = [ref[0] if ref.__class__ is RowRef else ref for ref in refs]
    if any(name.__class__ is not str for name in names):
        return (lambda env: tuple([resolve(env, ref) for ref in refs]),
                tuple(rows))
    return _items(names), tuple(rows)


def _row_ref(ref: Ref) -> Ref:
    if ref.__class__ is tuple and any(k.__class__ is Field for k in ref):
        return RowRef(ref)
    return ref


def _items(keys: Sequence[object]) -> Callable[[object], tuple]:
    """``obj -> (obj[k] for k in keys)`` as a tuple, in one C call for
    two keys or more."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda obj: tuple([obj[key] for key in keys])


def _recipes(rows: Sequence[tuple]) -> List["Recipe"]:
    """The distinct recipes of ``rows``, first use first."""
    return list(dict.fromkeys(map(itemgetter(0), rows)))


class Recipe:
    """What one emission yields: per timing rule a shape text and its
    refs (:class:`RowRef` where they name a per-node object), and
    ``consts``, which maps a row's fields to its constants.
    ``binders`` holds, per timing rule, how its refs bind, made on the
    rule's first bind (:func:`bind_rows`)."""

    __slots__ = ("variants", "consts", "binders")

    def __init__(self, variants: Sequence[Variant],
                 consts: Callable[[tuple], tuple]) -> None:
        self.variants = tuple(variants)
        self.consts = consts
        self.binders: List[Optional[tuple]] = [None, None]

    @classmethod
    def emitted(cls, variants: Sequence[Variant],
                consts: Consts) -> "Recipe":
        """The recipe of an emission over a stand-in node, whose every
        constant must be one of its fields."""
        for value in consts.values:
            if value.__class__ is not Field:
                raise TypeError(f"constant {value!r} is not a node field")
        return cls([(text, tuple(map(_row_ref, refs)))
                    for text, refs in variants],
                   _items([field.index for field in consts.values]))


class KernelTable:
    """What a family generator returns for one program.

    ``rows`` holds one ``(recipe, fields)`` per node (per block for the
    vector family, whose fields are its constants);
    ``recipe.consts(fields)`` are the row's constants. ``layout`` is
    family data the binder needs; ``bind(module, engine)`` is the
    family's binder; ``labels()`` names the rows, for dumps.
    """

    __slots__ = ("family", "rows", "layout", "bind", "labels", "_added")

    def __init__(self, family: str, bind: Callable, layout=None,
                 labels: Optional[Callable[[], List[str]]] = None
                 ) -> None:
        self.family = family
        self.rows: List[tuple] = []
        self.layout = layout
        self.bind = bind
        self._added: List[str] = []
        self.labels = labels if labels is not None else self._added.copy

    def add(self, variants, consts: Consts, label: str) -> None:
        """Add a row that carries its own constants (no memo)."""
        self.rows.append((Recipe(variants, tuple), tuple(consts.values)))
        self._added.append(label)

    def texts(self, rules: Sequence[int] = RULES) -> List[str]:
        """Every distinct shape text of the program under ``rules``,
        first use first."""
        seen: Dict[str, None] = {}
        for recipe in _recipes(self.rows):
            for rule in rules:
                seen[recipe.variants[rule][0]] = None
        return list(seen)


class KernelSource(str):
    """What :func:`compile_kernels` takes for one program: ``table``,
    its :class:`KernelTable`. The text itself is empty, since node
    shapes compile per timing rule when an engine binds the module;
    it stays a string so a caller can measure what a call compiles."""

    table: KernelTable


def kernel_source(table: KernelTable) -> KernelSource:
    """Wrap ``table`` for :func:`compile_kernels`."""
    source = KernelSource()
    source.table = table
    return source


def module_name(family: str) -> str:
    """The ``compile()`` filename of a family's shapes. Shapes are
    shared by every program, so it names no program."""
    return f"<kernels:{family}>"


def _compile(texts: Sequence[str], family: str) -> None:
    """Compile the ``texts`` this process has not compiled yet, in one
    ``compile()`` call (none if every text is known)."""
    new = [text for text in dict.fromkeys(texts) if text not in _SHAPES]
    if not new:
        return
    code = compile("".join(text + "new(kernel)\n" for text in new),
                   module_name(family), "exec")
    fns: List[FunctionType] = []
    namespace = {"new": fns.append}
    exec(code, namespace)
    for text, fn in zip(new, fns):
        _SHAPES[text] = fn.__code__
    # The functions' globals hold the last of them and ``new``: empty
    # it, so the throwaway functions free by reference counting.
    namespace.clear()


def dumping() -> bool:
    """Whether ``$TYR_REPRO_DUMP_KERNELS`` asks for dumps."""
    return bool(os.environ.get(DUMP_ENV))


def dump_kernel_source(table: KernelTable,
                       fingerprint: Optional[str]) -> Optional[str]:
    """Write a program's shape sources and node table, with each row's
    refs and constants filled in from its fields, to
    ``$TYR_REPRO_DUMP_KERNELS`` (if set), named after the program's
    ``fingerprint``.

    Returns the path written, or None when dumping is disabled.
    """
    directory = os.environ.get(DUMP_ENV)
    if not directory or fingerprint is None:
        return None
    texts = table.texts()
    index = {text: i for i, text in enumerate(texts)}
    lines = [f'"""Kernels of one {table.family} program: every shape '
             f'it uses, then its node table.\n\nEmitted by '
             f'repro.sim.codegen; constants c0, c1, ... are bound per '
             f'row."""', ""]
    for i, text in enumerate(texts):
        lines += [f"# s{i}: shape", text]
    lines.append("# node table: label, shape per timing rule "
                 "(fast, timed), refs per shape, constants")
    lines.append("TABLE = [")
    for (recipe, fields), label in zip(table.rows, table.labels()):
        shapes = tuple(f"s{index[text]}" for text, _ in recipe.variants)
        refs = {f"s{index[text]}": tuple(
                    r.concrete(fields) if r.__class__ is RowRef else r
                    for r in row_refs)
                for text, row_refs in recipe.variants}
        lines.append(f"    ({label!r}, {shapes!r}, {refs!r}, "
                     f"{recipe.consts(fields)!r}),")
    lines.append("]")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{table.family}-{fingerprint[:12]}.py")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


class KernelModule:
    """One program's kernels of one family, ready to bind to engines.

    The module holds the family's machine lowering
    (``CompiledWorkload.kernels``) and generates its :attr:`table` on
    first use: the first :meth:`compile` or :meth:`bind`. A run that
    never binds it generates nothing. Engines call :meth:`bind` at
    construction when :meth:`is_compiled` says their timing rule is
    compiled here, else at a mid-run hand-off
    (``repro.sim.engine.Engine``); the first bind of a rule compiles
    it (:meth:`compile`).

    The module holds the lowering, never the workload, so it keeps no
    workload alive: a dropped workload is freed by reference counting
    alone.
    """

    __slots__ = ("family", "_lowering", "_table", "_fingerprint", "_codes",
                 "__weakref__")

    def __init__(self, family: str, lowering,
                 fingerprint: Optional[str] = None) -> None:
        self.family = family
        self._lowering = lowering
        self._table: Optional[KernelTable] = None
        self._fingerprint = fingerprint
        self._codes: List[Optional[Dict[str, object]]] = [None, None]

    @property
    def table(self) -> KernelTable:
        """This program's kernel table, generated on first use by the
        package's ``generate_source`` and ``compile_kernels`` (a dump
        is written then, when dumping). Both are looked up on the
        package at each generation, since the host benchmark's tracer
        wraps them there."""
        table = self._table
        if table is None:
            from repro.sim import codegen
            source = codegen.generate_source(self.family, self._lowering)
            table = self._table = codegen.compile_kernels(
                source, self.family, self._fingerprint)
        return table

    def compile(self, rule: int) -> Dict[str, object]:
        """The code of this program's shapes of timing rule ``rule``,
        kept here from the rule's first bind, which compiles those the
        process has not compiled yet in at most one ``compile()``
        call."""
        codes = self._codes[rule]
        if codes is None:
            texts = [recipe.variants[rule][0]
                     for recipe in _recipes(self.table.rows)]
            _compile(texts, self.family)
            codes = self._codes[rule] = {text: _SHAPES[text]
                                         for text in texts}
        return codes

    def is_compiled(self, rule: int) -> bool:
        """Whether an engine binding timing rule ``rule`` finds it
        compiled here. Asking generates nothing: a table not generated
        yet has compiled no rule."""
        return self._codes[rule] is not None

    def bind(self, engine):
        """Per-node (or per-block) functions for one live engine."""
        return self.table.bind(self, engine)


def compile_kernels(source: KernelSource, family: str,
                    fingerprint: Optional[str] = None) -> KernelTable:
    """``source``'s table (of ``family``), which a
    :class:`KernelModule` keeps; its node shapes compile per timing
    rule when an engine binds the module. With dumping on, the table is
    dumped under ``fingerprint`` (the program's IR hash, computed by
    the caller only then)."""
    dump_kernel_source(source.table, fingerprint)
    return source.table


#: Instructions per static node a run interprets before it hands off to
#: kernels whose timing rule its module has not compiled yet (static
#: nodes: graph nodes for tagged and flat, plan ops for window, block
#: ops for vector). Binding, and compiling shapes new to the process,
#: is most of what kernels cost on a never-seen program; their cycle
#: loop saved 0.2-0.35 ms per such program (0.04 ms on datapar).
#: Measured on never-seen randomprog programs (2-vCPU VM, Python
#: 3.11.7), kernels start winning between 2 and 8 instructions per
#: node: tyr won 9/34 runs at [1, 2), 8/15 at [2, 4) and 3/4 at
#: [4, 8); seqdf 4/29, 6/13 and 3/3; ordered 3/17 at [2, 4), 3/6 at
#: [4, 8) and 2/2 beyond. Cycles would be the wrong unit: tyr dmm/tiny
#: runs 79 cycles but fires 24 instructions per node, and its kernels
#: already run it in 7.1 ms against 15.5. Half of seeds 0-999 fire at
#: most 1.0-1.2 per node; registry workloads at tiny scale fire 15-55.
#: Tests patch this attribute: 0 binds every run at construction.
HANDOFF_K = 4

#: The hand-off threshold of a run that binds no kernels mid-run.
NO_HANDOFF = sys.maxsize


def memory_env(engine) -> Dict[str, object]:
    """The env entries every family's memory rules bind: memory, and
    the engine's timing object for the timed rule."""
    timing = engine._timing
    return {
        "mem_load": engine.memory.load,
        "mem_store": engine.memory.store,
        "metrics": engine.metrics,
        "access_load": timing.access_load,
        "access_store": timing.access_store,
        "miss_latency": timing.miss_latency,
    }


def resolve(env: Dict[str, object], ref: Ref) -> object:
    if ref.__class__ is str:
        return env[ref]
    obj = env[ref[0]]
    for key in ref[1:]:
        obj = obj[key]
    return obj


def bind_rows(module: KernelModule, env: Dict[str, object],
              rule: int) -> list:
    """One function per row of ``module``: the row's code for ``rule``
    (compiled on the module's first bind of ``rule``, and kept there)
    with its refs
    resolved in ``env`` -- once per recipe, row refs then against the
    row's fields -- and its constants appended as default
    arguments."""
    shapes = module.compile(rule)
    glb = GLOBALS
    plans: Dict[Recipe, tuple] = {}
    fns = []
    append = fns.append
    for recipe, fields in module.table.rows:
        plan = plans.get(recipe)
        if plan is None:
            text, refs = recipe.variants[rule]
            binder = recipe.binders[rule]
            if binder is None:
                binder = recipe.binders[rule] = _binder(refs)
            refs_in, rows = binder
            plan = plans[recipe] = (shapes[text], refs_in(env), rows,
                                    recipe.consts)
        code, values, rows, consts = plan
        if rows:
            bound = list(values)
            for i, index, key, key_is_field in rows:
                obj = values[i][fields[index]]
                if key is not None:
                    obj = obj[fields[key] if key_is_field else key]
                bound[i] = obj
            values = tuple(bound)
        append(FunctionType(code, glb, None, values + consts(fields)))
    return fns
