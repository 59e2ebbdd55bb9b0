"""A run's kwargs reach its engine as the driver gave them.

A :class:`RunSpec` carries the kwargs dict itself; only the result
cache's key and the run log's spec string use the canonical form
(sorted items, dicts flattened into sorted item tuples).
"""

import io
import json
import os

from hypothesis import given
from hypothesis import strategies as st

from repro.harness.pool import (
    RunOptions,
    canonical_config,
    run_batch,
    spec_for,
)
from repro.workloads import build_workload

#: Scalar values that actually appear in run kwargs (ints, bools,
#: floats, strings, None).
_SCALARS = st.one_of(
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.none(),
)

#: A run-kwargs dict: scalar- or dict-valued entries (dicts themselves
#: hold scalars, like ``tag_overrides``'s block-name -> tag-count).
_CONFIGS = st.dictionaries(
    keys=st.text(min_size=1, max_size=12),
    values=st.one_of(
        _SCALARS,
        st.dictionaries(keys=st.text(min_size=1, max_size=12),
                        values=_SCALARS, max_size=4),
    ),
    max_size=6,
)


@given(_CONFIGS)
def test_canonical_config_is_order_insensitive_and_hashable(config):
    canonical = canonical_config(config)
    assert canonical == canonical_config(
        dict(reversed(list(config.items()))))
    hash(canonical)  # must be usable inside a cache key


def test_dict_valued_kwargs_reach_a_forked_run():
    """A tag-space override and a dict-form cache spec both reach the
    engine in a forked pool worker: the overridden pool has the
    override's capacity and the cache model runs the given spec."""
    wl = build_workload("dmv", "tiny")
    cache = {"line": 4, "miss": 60, "l1": "4x2x1"}
    overrides = (2, 3)
    runs = [(wl, "tyr", {"tags": 4, "tag_overrides": {"main.rows1": n},
                         "cache": cache})
            for n in overrides]
    log = io.StringIO()
    results = run_batch(runs, jobs=2, options=RunOptions(run_log=log))
    workers = {event["worker"]
               for event in map(json.loads, log.getvalue().splitlines())
               if event["event"] == "started"}
    assert workers and os.getpid() not in workers
    for n, res in zip(overrides, results):
        assert res.extra["cache"]["spec"] == "line=4,miss=60,l1=4x2x1"
        capacity = {pool.name: pool.capacity
                    for pool in res.extra["pool_stats"]}
        assert capacity["main.rows1"] == n
        assert capacity["main.for_j2"] == 4
    assert spec_for(*runs[0]).describe() == (
        "workload=dmv/tiny machine=tyr config=[cache=(('l1', '4x2x1'), "
        "('line', 4), ('miss', 60)), tag_overrides=(('main.rows1', 2),), "
        "tags=4]")
