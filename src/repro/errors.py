"""Exception hierarchy for the TYR reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures without also catching programming
mistakes (``TypeError`` etc.). Subclasses mirror the pipeline stages:
program construction, compilation, and simulation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ProgramError(ReproError):
    """A structured program (frontend AST) is malformed."""


class IRError(ReproError):
    """A context program (dataflow IR) is structurally invalid."""


class CompileError(ReproError):
    """Lowering or elaboration of a valid IR failed."""


class SimulationError(ReproError):
    """A machine model failed while executing a compiled program."""


class DeadlockError(SimulationError):
    """The machine reached a state with pending work but no fireable
    instruction.

    This is an *expected* outcome for unordered dataflow with a bounded
    global tag pool (paper Fig. 11); it is a bug for TYR with >= 2 tags
    per concurrent block (paper Theorem 1). The attached ``diagnosis``
    describes the pending tag allocations and waiting tokens.
    """

    def __init__(self, message: str, diagnosis: "object | None" = None):
        super().__init__(message)
        self.diagnosis = diagnosis

    def __reduce__(self):
        # The default Exception reduction only replays ``args`` (the
        # message), so ``diagnosis`` would vanish whenever the error
        # crosses a process boundary (pool workers -> parent).
        message = self.args[0] if self.args else ""
        return (type(self), (message, self.diagnosis))


class RunTimeoutError(ReproError):
    """A pooled run exceeded its *wall-clock* timeout.

    Raised by the parent of :func:`repro.harness.pool.run_specs` after
    terminating the worker, so one hung or pathologically slow run
    fails loudly (naming its spec) instead of stalling the whole
    sweep. Distinct from the simulated ``max_cycles`` bound, which
    limits machine cycles, not host seconds.
    """


class WorkerCrashError(ReproError):
    """A pool worker died (OOM kill, segfault, hard exit) while
    executing a run, and the bounded redispatch budget was exhausted.

    The message carries the failing spec's workload/machine/config and
    the worker's exit code.
    """


class UnexpectedRunError(ReproError):
    """A non-:class:`ReproError` exception escaped a pooled run.

    Wraps the original error (type, message, and formatted traceback)
    together with the failing spec's context, so e.g. a numpy oracle
    check failure surfaces in the parent naming the workload, machine,
    and configuration that triggered it.
    """


class TokenBoundExceeded(SimulationError):
    """Live-token count exceeded the Theorem 2 bound ``T * N * M``."""


class MemoryError_(SimulationError):
    """An out-of-bounds or undeclared-array access occurred."""


class MetricsUnavailable(ReproError):
    """A trace-derived metric was requested from a result whose traces
    were not sampled and whose aggregate fallbacks are absent.

    Engine-produced results never hit this (``MetricsRecorder`` records
    ``peak_live``/``mean_live`` aggregates in ``extra`` when trace
    sampling is off); it guards hand-built
    :class:`~repro.sim.metrics.ExecutionResult` objects from silently
    reading "no live state" out of a result that simply was not
    sampled.
    """
