"""RLE metrics recorder vs a plain-list reference recorder.

The RLE rewrite (PR 3) must be *observationally* equivalent to the
seed's list-backed recorder over any interleaving of ``sample`` /
``sample_idle`` calls: same materialized traces, same aggregates, same
derived statistics -- while pickling no larger than the equivalent
list (and much smaller for the stall-heavy traces engines actually
produce).
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.results import histogram_cdf, histogram_quantile
from repro.sim.metrics import MetricsRecorder, RLETrace

#: One recorder event: a busy cycle (fired, live) or an idle
#: fast-forward (live, n_cycles). Values cover engine-realistic
#: ranges, including fired=0 and repeated identical samples (the runs
#: RLE must merge).
_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("sample"),
                  st.integers(min_value=0, max_value=8),
                  st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("idle"),
                  st.integers(min_value=0, max_value=50),
                  st.integers(min_value=0, max_value=30)),
    ),
    max_size=200,
)

_SETTINGS = settings(max_examples=200, deadline=None)


class _ListRecorder:
    """The seed recorder's observable behavior, kept as the oracle."""

    def __init__(self):
        self.ipc_trace = []
        self.live_trace = []
        self.instructions = 0
        self.cycles = 0
        self._peak_live = 0
        self._live_sum = 0

    def sample(self, fired, live):
        self.cycles += 1
        self.instructions += fired
        self._peak_live = max(self._peak_live, live)
        self._live_sum += live
        self.ipc_trace.append(fired)
        self.live_trace.append(live)

    def sample_idle(self, live, n_cycles):
        if n_cycles <= 0:
            return
        self.cycles += n_cycles
        self._peak_live = max(self._peak_live, live)
        self._live_sum += live * n_cycles
        self.ipc_trace.extend([0] * n_cycles)
        self.live_trace.extend([live] * n_cycles)


def _replay(events):
    rle = MetricsRecorder(sample_traces=True)
    ref = _ListRecorder()
    for kind, a, b in events:
        if kind == "sample":
            rle.sample(a, b)
            ref.sample(a, b)
        else:
            rle.sample_idle(a, b)
            ref.sample_idle(a, b)
    return rle, ref


@given(events=_EVENTS)
@_SETTINGS
def test_traces_materialize_identically(events):
    rle, ref = _replay(events)
    assert list(rle.ipc_trace) == ref.ipc_trace
    assert list(rle.live_trace) == ref.live_trace
    # Sequence protocol: equality, length, indexing, slicing.
    assert rle.ipc_trace == ref.ipc_trace
    assert len(rle.live_trace) == len(ref.live_trace)
    for i in range(0, len(ref.ipc_trace), 7):
        assert rle.ipc_trace[i] == ref.ipc_trace[i]
    mid = len(ref.live_trace) // 2
    assert list(rle.live_trace[mid:]) == ref.live_trace[mid:]


@given(events=_EVENTS)
@_SETTINGS
def test_aggregates_match_reference(events):
    rle, ref = _replay(events)
    assert rle.cycles == ref.cycles
    assert rle.instructions == ref.instructions
    assert rle.peak_live == ref._peak_live
    if ref.cycles:
        assert rle.mean_live == ref._live_sum / ref.cycles
    assert rle.live_trace.peak() == max(ref.live_trace, default=0)
    assert rle.ipc_trace.total() == sum(ref.ipc_trace)


@given(events=_EVENTS)
@_SETTINGS
def test_derived_statistics_match_reference(events):
    rle, ref = _replay(events)
    hist = {}
    for v in ref.ipc_trace:
        hist[v] = hist.get(v, 0) + 1
    assert rle.ipc_trace.histogram() == hist
    n = len(ref.ipc_trace)
    cdf = []
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        cdf.append((float(value), seen / n))
    assert histogram_cdf(rle.ipc_trace.histogram()) == cdf
    s = sorted(ref.live_trace)
    for i in range(0, len(s), 11):
        assert histogram_quantile(rle.live_trace.histogram(), i) == s[i]


@given(events=_EVENTS)
@_SETTINGS
def test_untraced_recorder_matches_per_cycle_equivalent(events):
    """With ``sample_traces=False``, any interleaving of ``sample`` /
    ``sample_idle`` must produce the same ``cycles`` /
    ``instructions`` and the same ``peak_live`` / ``mean_live``
    extras as the fully-expanded per-cycle ``sample`` replay."""
    untraced = MetricsRecorder(sample_traces=False)
    expanded = MetricsRecorder(sample_traces=True)
    for kind, a, b in events:
        if kind == "sample":
            untraced.sample(a, b)
            expanded.sample(a, b)
        else:
            untraced.sample_idle(a, b)
            for _ in range(b):
                expanded.sample(0, a)
    assert untraced.cycles == expanded.cycles
    assert untraced.instructions == expanded.instructions
    assert untraced.peak_live == expanded.peak_live
    assert untraced.mean_live == expanded.mean_live
    # The untraced recorder records no traces but surfaces the
    # aggregates through result extras.
    res = untraced.result("test", True, ())
    assert len(res.ipc_trace) == 0
    assert len(res.live_trace) == 0
    assert res.extra["peak_live"] == expanded.peak_live
    assert res.extra["mean_live"] == expanded.mean_live


@given(events=_EVENTS)
@_SETTINGS
def test_pickle_round_trip_and_size(events):
    rle, ref = _replay(events)
    blob = pickle.dumps(rle.live_trace,
                        protocol=pickle.HIGHEST_PROTOCOL)
    clone = pickle.loads(blob)
    assert isinstance(clone, RLETrace)
    assert list(clone) == ref.live_trace
    assert clone.n_runs == rle.live_trace.n_runs
    # Pickle size scales with the run count (two int64 arrays plus
    # fixed framing), never with the trace length.
    assert len(blob) <= 200 + 16 * max(clone.n_runs, 1)


@given(events=_EVENTS)
@_SETTINGS
def test_rle_size_monotone_in_compressibility(events):
    """Stretching idle spans lengthens runs without adding any, so
    the RLE pickle does not grow -- while the equivalent list pickle
    grows with every extra cycle."""
    rle_once, ref_once = _replay(events)
    stretched = [(k, a, b if k == "sample" else b * 4)
                 for k, a, b in events]
    rle_long, ref_long = _replay(stretched)
    assert rle_long.live_trace.n_runs <= rle_once.live_trace.n_runs
    blob_once = pickle.dumps(rle_once.live_trace,
                             protocol=pickle.HIGHEST_PROTOCOL)
    blob_long = pickle.dumps(rle_long.live_trace,
                             protocol=pickle.HIGHEST_PROTOCOL)
    # Same or fewer runs -> same or smaller wire size, up to a few
    # bytes of compressor variance on the stretched run counts.
    assert len(blob_long) <= len(blob_once) + 16
    if len(ref_long.live_trace) > len(ref_once.live_trace):
        list_once = pickle.dumps(ref_once.live_trace,
                                 protocol=pickle.HIGHEST_PROTOCOL)
        list_long = pickle.dumps(ref_long.live_trace,
                                 protocol=pickle.HIGHEST_PROTOCOL)
        assert len(list_long) > len(list_once)
