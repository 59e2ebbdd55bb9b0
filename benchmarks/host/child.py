"""Fresh-process steps of a benchmark run.

``python3 -m benchmarks.host.child setup '{"workload": W, "seed": S}'``
times one set-up of an in-process workload, import included;
``python3 -m benchmarks.host.child pass '{...}'`` runs one sweep pass
(:func:`benchmarks.host.workloads.sweep_pass`), whose set-up is the
import. Each prints one JSON line with ``setup_s`` and the host-speed
factor of calibration samples taken either side of the set-up.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from benchmarks.host import use_source_tree
from benchmarks.host.hostspeed import calibration, factor


def main(argv) -> int:
    kind, args = argv[0], json.loads(argv[1])
    use_source_tree()
    samples = calibration()
    t0 = perf_counter()
    from benchmarks.host import workloads
    if kind == "setup":
        workloads.IN_PROCESS[args["workload"]].setup(args["seed"])
    setup_s = perf_counter() - t0
    samples += calibration()
    out = workloads.sweep_pass(**args) if kind == "pass" else {}
    out.update(setup_s=setup_s, setup_factor=factor(samples))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
