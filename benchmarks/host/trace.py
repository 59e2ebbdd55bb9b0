"""Spans around the calls into each layer, recorded from outside.

A :class:`Tracer` replaces each public callable listed in
:data:`TARGETS` at the name where callers look it up, records one span
per call (name, start, end, parent, op id, mode, extra) in memory, and
restores the originals on :meth:`Tracer.uninstall`. Nothing under
``src/`` knows about it. A target that no longer exists is listed in
:attr:`Tracer.missing` instead of failing, so a later change that
deletes a layer leaves the benchmark running and marks that layer's
metrics as missing.

Forked sweep workers inherit the wrappers. Each worker writes its own
spans to ``<span_dir>/spans-<pid>.json`` after every run, because pool
workers are terminated rather than shut down cleanly.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Field positions in a span record.
NAME, START, END, PARENT, OP, MODE, EXTRA = range(7)

#: Code-generation family -> engine package (``flat`` drives the
#: queued engine).
CODEGEN_FAMILY = {"tagged": "tagged", "flat": "queued",
                  "window": "window", "vector": "vector"}

#: Engine class -> engine package.
ENGINES = (
    ("repro.sim.tagged.engine", "TaggedEngine", "tagged"),
    ("repro.sim.queued.engine", "QueuedEngine", "queued"),
    ("repro.sim.window.engine", "WindowEngine", "window"),
    ("repro.sim.vector.engine", "DataParallelEngine", "vector"),
)


def _codegen_name(position: int, step: str) -> Callable:
    def name(args: Sequence) -> str:
        family = CODEGEN_FAMILY.get(args[position], args[position])
        return f"codegen.{family}.{step}"
    return name


def _result_counts(args: Sequence, result) -> Tuple[int, int]:
    return result.instructions, result.cycles


def _source_bytes(args: Sequence, result) -> int:
    return len(args[0])


#: (module, attribute path, span name or namer(args), extra(args, result)).
TARGETS: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    ("repro.workloads", "build_workload", "workloads.build", None),
    ("repro.workloads.registry", "build_workload", "workloads.build",
     None),
    ("repro.harness.pool", "build_workload", "workloads.build", None),
    ("repro.workloads.randomprog", "random_module", "workloads.build",
     None),
    ("repro.frontend", "lower_module", "frontend.lower", None),
    ("repro.workloads.registry", "lower_module", "frontend.lower", None),
    ("repro.harness.runner", "elaborate", "compiler.elaborate", None),
    ("repro.harness.runner", "flatten", "compiler.flatten", None),
    ("repro.sim.codegen", "generate_source", _codegen_name(0, "generate"),
     None),
    ("repro.sim.codegen", "compile_kernels", _codegen_name(1, "compile"),
     _source_bytes),
    ("repro.harness.pool", "precompile_specs", "pool.precompile", None),
    ("repro.harness.pool", "cache_key", "result_cache.key", None),
    ("repro.harness.cache", "ResultCache.get", "result_cache.get", None),
    ("repro.harness.cache", "ResultCache.put", "result_cache.put", None),
) + tuple(
    entry
    for module, cls, family in ENGINES
    for entry in (
        (module, f"{cls}.__init__", f"engine.{family}.bind", None),
        (module, f"{cls}.run", f"engine.{family}.run", _result_counts),
    )
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, span_dir: Optional[Path] = None):
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Operation id and mode stamped on every span that starts.
        self.op = 0
        self.mode = "setup"
        self.missing: List[str] = []
        self.span_dir = span_dir
        self._owner = os.getpid()
        self._pid = self._owner
        self._patched: List[Tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, fn: Callable, name, extra: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack = tracer._stack
            span = [label, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.op, tracer.mode, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return traced

    def _flushing(self, fn: Callable):
        """Wrap ``pool.run_one`` so a forked worker starts with no
        inherited spans and writes its own after every run."""
        tracer = self

        @functools.wraps(fn)
        def run_one(spec):
            if os.getpid() != tracer._pid:
                tracer._pid = os.getpid()
                tracer.spans, tracer._stack = [], []
            try:
                return fn(spec)
            finally:
                if tracer._pid != tracer._owner:
                    tracer.dump(tracer.span_dir
                                / f"spans-{tracer._pid}.json")

        return run_one

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)

    # -- patching --------------------------------------------------------
    def _patch(self, module: str, path: str, make: Callable) -> None:
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        own = attr in vars(owner)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original, own))

    def install(self, targets=TARGETS) -> "Tracer":
        for module, path, name, extra in targets:
            self._patch(module, path,
                        lambda fn, n=name, e=extra: self._wrap(fn, n, e))
        if self.span_dir is not None:
            self._patch("repro.harness.pool", "run_one", self._flushing)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one process are recorded by single-threaded code, so the
    children of one span never overlap and their durations add up.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def totals(processes: Sequence[Sequence[Sequence]]
           ) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Per (span name, mode): call count, summed self seconds, and the
    summed extras (instructions/cycles of engine runs, source bytes of
    kernel compiles). ``processes`` holds one span list per process,
    since parent indices are local to a process."""
    out: Dict[Tuple[str, str], Dict[str, float]] = {}
    for spans in processes:
        for span, own in zip(spans, self_times(spans)):
            row = out.setdefault((span[NAME], span[MODE]),
                                 {"n": 0, "self": 0.0, "instructions": 0,
                                  "cycles": 0, "bytes": 0})
            row["n"] += 1
            row["self"] += own
            extra = span[EXTRA]
            if isinstance(extra, (list, tuple)):
                row["instructions"] += extra[0]
                row["cycles"] += extra[1]
            elif isinstance(extra, int):
                row["bytes"] += extra
    return out
