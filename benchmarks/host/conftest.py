from benchmarks.host import use_source_tree

# The tests import the benchmark's modules, which import ``repro``.
use_source_tree()
