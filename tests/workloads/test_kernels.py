"""Every Table II workload, on every machine, matches the oracle."""

import random

import pytest

from repro.errors import ReproError
from repro.harness.runner import PAPER_SYSTEMS
from repro.ir.interp import ReferenceInterpreter
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro.workloads.reference import dconv_ref, dmm_ref, dmv_ref
from repro.workloads.registry import EXTRA_WORKLOADS, SCALES

ALL_NAMES = WORKLOAD_NAMES + EXTRA_WORKLOADS


@pytest.mark.parametrize("name", ALL_NAMES)
def test_reference_interpreter_matches_oracle(name):
    wl = build_workload(name, "tiny")
    mem = wl.fresh_memory()
    result = ReferenceInterpreter(wl.compiled.program, mem).run(
        wl.compiled.entry_args(wl.args)
    )
    wl.check(mem, wl.compiled.declared_results(result.results))


@pytest.mark.parametrize("machine", PAPER_SYSTEMS)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_machine_matches_oracle(name, machine):
    wl = build_workload(name, "tiny")
    res = wl.run_checked(machine)
    assert res.completed


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tyr_with_two_tags_completes(name):
    wl = build_workload(name, "tiny")
    res = wl.run_checked("tyr", tags=2, check_token_bound=True)
    assert res.completed


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_different_seeds_change_inputs(name):
    a = build_workload(name, "tiny", seed=0)
    b = build_workload(name, "tiny", seed=99)
    assert a.initial_memory != b.initial_memory


def test_unknown_workload_rejected():
    with pytest.raises(ReproError, match="unknown workload"):
        build_workload("nope")
    with pytest.raises(ReproError, match="unknown scale"):
        build_workload("dmv", "galactic")


def test_scale_overrides():
    wl = build_workload("dmv", "tiny", n=5)
    assert wl.params["n"] == 5
    assert wl.args == [5]


def test_check_catches_wrong_memory():
    wl = build_workload("dmv", "tiny")
    mem = wl.fresh_memory()
    res = wl.run("vn")[0]
    mem2 = wl.fresh_memory()
    mem2["w"][0] = -12345
    with pytest.raises(ReproError, match="mismatch"):
        wl.check(mem2, res.extra["declared_results"])


def test_check_catches_wrong_result():
    wl = build_workload("tc", "tiny")
    res, mem = wl.run("vn")
    with pytest.raises(ReproError):
        wl.check(mem, (res.extra["declared_results"][0] + 1,))


def test_paper_parameters_table():
    from repro.workloads import paper_parameters
    for name in WORKLOAD_NAMES:
        assert paper_parameters(name)


def test_tc_counts_triangles_of_known_graph():
    # A 4-clique has exactly 4 triangles.
    from repro.workloads.reference import tc_ref
    indptr = [0, 3, 6, 9, 12]
    indices = [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]
    assert tc_ref(indptr, indices) == 4


def test_dconv_reference_identity_filter():
    from repro.workloads.reference import dconv_ref
    image = list(range(16))
    filt = [0, 0, 0, 0, 1, 0, 0, 0, 0]
    out = dconv_ref(image, filt, 4, 4, 3, 3)
    assert out == [5, 6, 9, 10]


def numpy_dmv(A, B, n):
    np = pytest.importorskip("numpy")
    a = np.asarray(A, dtype=np.int64).reshape(n, n)
    return (a @ np.asarray(B, dtype=np.int64)).tolist()


def numpy_dmm(A, B, n):
    np = pytest.importorskip("numpy")
    a = np.asarray(A, dtype=np.int64).reshape(n, n)
    b = np.asarray(B, dtype=np.int64).reshape(n, n)
    return (a @ b).reshape(-1).tolist()


def numpy_dconv(image, filt, h, w, kh, kw):
    np = pytest.importorskip("numpy")
    img = np.asarray(image, dtype=np.int64).reshape(h, w)
    f = np.asarray(filt, dtype=np.int64).reshape(kh, kw)
    oh, ow = h - kh + 1, w - kw + 1
    out = np.zeros((oh, ow), dtype=np.int64)
    for y in range(oh):
        for x in range(ow):
            out[y, x] = int((img[y:y + kh, x:x + kw] * f).sum())
    return out.reshape(-1).tolist()


def test_dense_oracles_match_numpy_on_random_signed_inputs():
    rng = random.Random(0)

    def values(count):
        return [rng.randint(-10**6, 10**6) for _ in range(count)]

    for _ in range(300):
        n = rng.randint(1, 9)
        A, B = values(n * n), values(n)
        assert dmv_ref(A, B, n) == numpy_dmv(A, B, n)
        B = values(n * n)
        assert dmm_ref(A, B, n) == numpy_dmm(A, B, n)
        h, w = rng.randint(1, 9), rng.randint(1, 9)
        kh, kw = rng.randint(1, h), rng.randint(1, w)
        image, filt = values(h * w), values(kh * kw)
        assert (dconv_ref(image, filt, h, w, kh, kw)
                == numpy_dconv(image, filt, h, w, kh, kw))


@pytest.mark.parametrize("name,scale", [
    (name, scale) for name in ("dmv", "dmm", "dconv")
    for scale in SCALES[name]])
def test_dense_oracles_match_numpy_at_registry_scales(name, scale):
    wl = build_workload(name, scale)
    mem, p = wl.initial_memory, wl.params
    if name == "dmv":
        want = {"w": numpy_dmv(mem["A"], mem["B"], p["n"])}
    elif name == "dmm":
        want = {"C": numpy_dmm(mem["A"], mem["B"], p["n"])}
    else:
        want = {"O": numpy_dconv(mem["I"], mem["F"], p["h"], p["w"],
                                 p["kh"], p["kw"])}
    assert wl.expected_memory == want
