#!/usr/bin/env python3
"""Quickstart: run the paper's running example (dense matrix-vector
multiplication, Fig. 3) on all five architectures and compare
parallelism vs. live state.

Run:  python examples/quickstart.py
"""

from repro import PAPER_SYSTEMS, build_workload

MACHINE_BLURBS = {
    "vn": "sequential von Neumann (1 instruction/cycle)",
    "seqdf": "sequential dataflow (WaveScalar/TRIPS block windows)",
    "ordered": "ordered dataflow (RipTide-style FIFO queues)",
    "unordered": "unordered tagged dataflow (unbounded global tags)",
    "tyr": "TYR (local tag spaces, 16 tags per concurrent block)",
}


def main() -> None:
    workload = build_workload("dmv", scale="default")
    print(f"dmv: w = A @ B with n = {workload.params['n']}")
    print("Every run is checked against an oracle.\n")

    rows = []
    for machine in PAPER_SYSTEMS:
        result = workload.run_checked(machine, tags=16)
        rows.append((machine, result))
        print(f"{machine:10s} {MACHINE_BLURBS[machine]}")
        print(f"{'':10s} cycles={result.cycles:<7d} "
              f"mean IPC={result.mean_ipc:<6.1f} "
              f"peak live tokens={result.peak_live}")

    vn = dict(rows)["vn"]
    tyr = dict(rows)["tyr"]
    unordered = dict(rows)["unordered"]
    print()
    print(f"TYR is {vn.cycles / tyr.cycles:.0f}x faster than the "
          f"sequential CPU model,")
    print(f"within {tyr.cycles / unordered.cycles:.2f}x of unbounded "
          f"unordered dataflow,")
    print(f"with {unordered.peak_live / tyr.peak_live:.1f}x less peak "
          f"live state than it.")
    print("\nThat tradeoff -- near-unordered parallelism at bounded "
          "state -- is the paper's core claim.")


if __name__ == "__main__":
    main()
