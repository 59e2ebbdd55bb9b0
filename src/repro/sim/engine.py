"""What every engine family shares (paper Sec. VI: one idealized
method, several machines).

:class:`Engine` is the base of the tagged, queued, window and vector
engines. It holds the run parameters, the timing object and miss box,
the metrics recorder and the optional profiler; it decides once per
run which timing rule the kernels bind; it takes a kernel module at
construction or defers it to a mid-run hand-off; and its :meth:`run`
checks the arguments, finishes the profile, packages the result and
drops the fire tables.

Each engine keeps what only it has: its tables, its cycle loop (the
vector engine: its depth-first walk), its interpreter, and the hooks
only that interpreter carries. So only the engine decides to ignore a
module it is given: the tagged engine for traced and occupancy-tracked
runs, the vector engine for profiled ones. A subclass implements
:meth:`_interpret` and :meth:`_bind` (fill the fire table with its
plain rule, or from a kernel module, in place) and :meth:`_execute`
(run the program to completion), lists its fire-table attributes in
``_TABLES`` and sets ``_n_params``.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.errors import SimulationError
from repro.sim.codegen import core
from repro.sim.codegen.core import FAST, NO_HANDOFF, TIMED
from repro.sim.latency import LoadLatency
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult, MetricsRecorder
from repro.sim.profile import EngineProfiler

#: Simulated cycles a run may take, for every engine and
#: ``CompiledWorkload.run`` alike.
MAX_CYCLES = 50_000_000


class Engine:
    """One execution of a program on one machine.

    Kernels bind ``memory`` and the engine's tables at construction or
    at the run's hand-off; neither may be swapped afterwards.
    """

    #: The name a result (and its profile) carries.
    machine_name: str
    #: The attributes holding the fire tables and the engine's bound
    #: methods: :meth:`run` drops them, so a finished engine frees by
    #: reference counting.
    _TABLES: Tuple[str, ...] = ()
    #: How many arguments the program's entry takes.
    _n_params: int

    def __init__(self, memory: Memory, issue_width: int,
                 sample_traces: bool, load_latency: int,
                 max_cycles: int, profile: bool, cache) -> None:
        if issue_width < 1:
            raise SimulationError("issue width must be >= 1")
        self.memory = memory
        self.issue_width = issue_width
        self.max_cycles = max_cycles
        #: Optional stateful cache model (repro.sim.cache.CacheModel):
        #: keys the profiler's hit/miss split and ``extra["cache"]``.
        self._cache = cache
        #: What times every load and probes every store: the cache
        #: model when set, else the hash latency model.
        self._timing = LoadLatency(load_latency) if cache is None else cache
        #: The timing rule this run's kernels bind, and whether its
        #: loads can be delayed (then the cycle loops keep
        #: ``metrics.cycles`` current for the load rules to read).
        self._rule = FAST if cache is None and load_latency <= 1 else TIMED
        #: First cycle index past the latest last-level miss (cache
        #: mode); bounds a profiled run's hit/miss stall split.
        self._miss_until: List[int] = [0]
        self.metrics = MetricsRecorder(sample_traces=sample_traces)
        #: Opt-in stall/hotspot attribution.
        self._profiler = EngineProfiler() if profile else None

    # ------------------------------------------------------------------
    def _take_kernels(self, kernels, n_static: int) -> None:
        """Fill the fire table, once the engine's tables exist.

        A module (``kernels``) that has compiled this run's timing
        rule already -- through an earlier run of its workload that
        handed off -- binds now, as does any module when
        :data:`~repro.sim.codegen.core.HANDOFF_K` is 0. Else the run
        interprets until it has fired ``HANDOFF_K`` instructions per
        static node, rounded up, and binds the module then
        (:meth:`_hand_off`). Without a module it interprets
        throughout."""
        self._handoff_kernels = None
        #: The instruction count that triggers the hand-off.
        self._handoff = NO_HANDOFF
        if kernels is not None and not kernels.is_compiled(self._rule):
            budget = math.ceil(core.HANDOFF_K * n_static)
            if budget:
                self._handoff_kernels, self._handoff = kernels, budget
                kernels = None
        #: The module the fire table is bound to; None while the run
        #: interprets.
        self._kernels = kernels
        if kernels is None:
            self._interpret()
        else:
            self._bind(kernels)

    def _hand_off(self) -> None:
        """Bind the pending kernels between two cycles (datapar:
        between two block iterations), over the same state: the run
        goes on through them."""
        kernels = self._kernels = self._handoff_kernels
        self._handoff_kernels = None
        self._handoff = NO_HANDOFF
        self._bind(kernels)

    def _interpret(self) -> None:
        """Fill the fire table with the plain reference rule."""
        raise NotImplementedError

    def _bind(self, kernels) -> None:
        """Fill the fire table from ``kernels``, in place."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run(self, args: List[object]) -> ExecutionResult:
        """Run the program on ``args`` and return its metrics."""
        try:
            if len(args) != self._n_params:
                raise SimulationError(
                    f"entry takes {self._n_params} args, got {len(args)}")
            completed, results, extra = self._execute(args)
            metrics = self.metrics
            if self._profiler is not None:
                extra["profile"] = self._profiler.finish(
                    self.machine_name, metrics.cycles,
                    metrics.instructions, self._node_label)
            return metrics.result(self.machine_name, completed, results,
                                  extra)
        finally:
            for name in self._TABLES:
                setattr(self, name, None)

    def _execute(self, args: List[object]) -> Tuple[bool, tuple, dict]:
        """Run to completion: ``(completed, results, extra)``."""
        raise NotImplementedError

    def _node_label(self, key: object) -> str:
        """A profiled node's name in the profile."""
        return str(key)

