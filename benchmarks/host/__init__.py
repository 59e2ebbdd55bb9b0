"""Layered host-time benchmark for the TYR reproduction.

Four workloads (steady, cold-programs, sweep, locality) measure what a
user of the simulator waits for, and a separate traced run splits that
time into the package's layers. See ``README.md`` in this directory.

Importing this package has no side effects; entry points call
:func:`use_source_tree` before importing :mod:`repro`.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root (``benchmarks/host/`` lives two levels below it).
ROOT = Path(__file__).resolve().parents[2]

#: Scratch space inside the checkout for cache directories, span files
#: and run logs; every run removes its own subdirectory on exit.
SCRATCH = ROOT / ".host-bench"


def use_source_tree() -> None:
    """Make ``import repro`` resolve to ``<root>/src``, as
    ``PYTHONPATH=src`` would."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
