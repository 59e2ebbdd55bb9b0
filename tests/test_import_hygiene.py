"""``repro`` imports no third-party package at run time.

numpy and networkx are the tests' references for the dense oracles and
tc's graph generator (``tests/workloads``), never the package's. The
run-time check uses a fresh interpreter, so that a module pytest, a
plugin or another test has already imported cannot hide an import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

TEST_ONLY = {"numpy", "networkx"}

SCRIPT = """
import sys

import repro
import repro.cli
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro.workloads.registry import EXTRA_WORKLOADS

for name in WORKLOAD_NAMES + EXTRA_WORKLOADS:
    build_workload(name, "tiny").run_checked("tyr")
print("\\n".join(sys.modules))
"""


def test_workloads_run_without_numpy_or_networkx():
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert TEST_ONLY.intersection(proc.stdout.split()) == set()


def test_no_module_imports_numpy_or_networkx():
    # Also the imports no workload run reaches, such as those inside
    # functions.
    package = Path(repro.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.relative_to(package)}: {name}"
                      for name in names
                      if name.split(".")[0] in TEST_ONLY]
    assert found == []
