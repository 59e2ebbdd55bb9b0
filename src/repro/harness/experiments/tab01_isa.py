"""Table I: TYR's instruction set, regenerated from the op registry."""

from __future__ import annotations

from repro.harness.ascii_plots import table
from repro.harness.experiments.base import ExperimentReport, register
from repro.ir.ops import OP_INFO, Category


@register("tab01")
def run(scale: str = "default", jobs: int = 1, cache=None,
        options=None) -> ExperimentReport:
    """``scale``, ``jobs``, ``cache`` and ``options`` are unused:
    every driver takes them."""
    by_cat = {}
    for op, info in OP_INFO.items():
        by_cat.setdefault(info.category, []).append(op.value)
    rows = []
    order = [Category.ARITHMETIC, Category.MEMORY, Category.CONTROL,
             Category.SYNC, Category.STRUCTURAL]
    for cat in order:
        names = sorted(by_cat.get(cat, []))
        rows.append([cat.value, ", ".join(names)])
    text = table(["Category", "Instruction(s)"], rows,
                 title="TYR instruction set (paper Table I; structural "
                       "ops are lowering artifacts, not ISA)")
    data = {cat.value: sorted(by_cat.get(cat, [])) for cat in order}
    return ExperimentReport(
        name="tab01",
        title="TYR's instruction set (paper Table I)",
        data=data,
        text=text,
        paper_expectation=(
            "arithmetic; load/store; steer/join; "
            "allocate/free/changeTag/extractTag"
        ),
    )
