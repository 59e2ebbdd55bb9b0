"""Cache garbage collection: LRU-by-mtime pruning of the result
cache, plus the ``tyr-repro cache gc`` CLI."""

import os
import pickle
import time

import pytest

from repro.cli import main, parse_age, parse_size
from repro.harness.cache import ResultCache
from repro.harness.pool import run_specs, spec_for
from repro.workloads import build_workload


def _fill(cache, n, size=1000):
    keys = [f"{i:02x}{'0' * 62}" for i in range(n)]
    for key in keys:
        cache.put(key, b"x" * size)
    return keys


def _backdate(cache, key, age_s):
    path = cache._path(key)
    past = time.time() - age_s
    os.utime(path, (past, past))


def test_gc_by_age_removes_only_stale_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    keys = _fill(cache, 4)
    _backdate(cache, keys[0], 3600)
    _backdate(cache, keys[1], 3600)
    stats = cache.gc(max_age=60)
    assert stats["removed"] == 2
    assert stats["kept"] == 2
    assert cache.get(keys[0]) is None
    assert cache.get(keys[2]) is not None


def test_gc_by_size_keeps_newest_within_budget(tmp_path):
    cache = ResultCache(str(tmp_path))
    keys = _fill(cache, 4)
    entry = os.path.getsize(cache._path(keys[0]))
    # Stagger mtimes: keys[0] oldest ... keys[3] newest.
    for i, key in enumerate(keys):
        _backdate(cache, key, (len(keys) - i) * 100)
    stats = cache.gc(max_size=2 * entry)
    assert stats["removed"] == 2
    assert stats["removed_bytes"] == 2 * entry
    assert cache.get(keys[0]) is None
    assert cache.get(keys[1]) is None
    assert cache.get(keys[2]) is not None
    assert cache.get(keys[3]) is not None

    # Mixed sizes, newest to oldest 6 KB, 6 KB, 3 KB: once an entry
    # misses the budget, it goes with every older entry, even one
    # small enough to fit what is left.
    mixed = ResultCache(str(tmp_path / "mixed"))
    keys = _fill(mixed, 3, size=6000)
    mixed.put(keys[0], b"x" * 3000)
    for i, key in enumerate(keys):
        _backdate(mixed, key, (len(keys) - i) * 100)
    sizes = [os.path.getsize(mixed._path(key)) for key in keys]
    stats = mixed.gc(max_size=sizes[2] + sizes[0] + 10)
    assert stats["removed"] == 2
    assert stats["kept_bytes"] == sizes[2]
    assert [mixed.get(key) is not None for key in keys] == [
        False, False, True]


def test_get_bumps_mtime_so_hits_survive_lru(tmp_path):
    cache = ResultCache(str(tmp_path))
    keys = _fill(cache, 2)
    for key in keys:
        _backdate(cache, key, 1000)
    assert cache.get(keys[0]) is not None  # touch: now the newest
    entry = os.path.getsize(cache._path(keys[0]))
    stats = cache.gc(max_size=entry)
    assert stats["removed"] == 1
    assert cache.get(keys[0]) is not None
    assert cache.get(keys[1]) is None


def test_gc_covers_legacy_plans_tree(tmp_path, capsys):
    """Earlier versions stored lowered programs under ``<root>/plans``.
    Nothing reads that tree any more: a warm sweep on such a root
    still hits, and ``cache gc`` walks recursively, so the stale
    plans age out by the same command."""
    root = str(tmp_path)
    cache = ResultCache(root)
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, "tyr", {"tags": 4})]
    cold = run_specs(specs, cache=cache)
    stale = os.path.join(root, "plans", "ab", "ab" + "0" * 62 + ".pkl")
    os.makedirs(os.path.dirname(stale))
    with open(stale, "wb") as fh:
        pickle.dump({"big": "artifact"}, fh)
    past = time.time() - 3600
    os.utime(stale, (past, past))

    warm_cache = ResultCache(root)
    warm = run_specs(specs, cache=warm_cache)
    assert (warm_cache.hits, warm_cache.misses) == (1, 0)
    assert warm[0].cycles == cold[0].cycles

    assert main(["cache", "gc", "--max-age", "1m",
                 "--cache-dir", root]) == 0
    assert "removed 1 entry" in capsys.readouterr().out
    assert not os.path.exists(stale)
    assert ResultCache(root).gc(max_age=60)["kept"] == 1


def test_gc_empty_cache_is_harmless(tmp_path):
    stats = ResultCache(str(tmp_path / "nothing")).gc(max_age=0)
    assert stats == {"kept": 0, "removed": 0,
                     "kept_bytes": 0, "removed_bytes": 0}


# -- CLI ---------------------------------------------------------------

def test_cli_cache_gc_by_age(tmp_path, capsys):
    root = str(tmp_path / "cache")
    cache = ResultCache(root)
    keys = _fill(cache, 3)
    for key in keys:
        _backdate(cache, key, 3600)
    rc = main(["cache", "gc", "--max-age", "1m", "--cache-dir", root])
    assert rc == 0
    out = capsys.readouterr().out
    assert "removed 3 entr" in out
    assert all(cache.get(k) is None for k in keys)


def test_cli_cache_gc_requires_a_bound(tmp_path, capsys):
    rc = main(["cache", "gc", "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "--max-size" in capsys.readouterr().err


def test_cli_cache_gc_rejects_negative_size(tmp_path, capsys):
    """A negative budget is a usage error, not "evict everything"."""
    root = str(tmp_path / "cache")
    cache = ResultCache(root)
    keys = _fill(cache, 3)
    with pytest.raises(SystemExit) as exc:
        main(["cache", "gc", "--max-size", "-1", "--cache-dir", root])
    assert exc.value.code == 2
    assert "bad size" in capsys.readouterr().err
    assert all(cache.get(k) is not None for k in keys)


@pytest.mark.parametrize("text,expected", [
    ("512", 512),
    ("10k", 10 * 1024),
    ("1.5m", int(1.5 * 1024 ** 2)),
    ("2G", 2 * 1024 ** 3),
    ("2gb", 2 * 1024 ** 3),
])
def test_parse_size_units(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize("text,expected", [
    ("90", 90.0),
    ("0s", 0.0),
    ("5m", 300.0),
    ("2h", 7200.0),
    ("7d", 7 * 86400.0),
    ("1w", 7 * 86400.0),
])
def test_parse_age_units(text, expected):
    assert parse_age(text) == pytest.approx(expected)


def test_parse_size_rejects_garbage():
    import argparse
    for text in ("lots", "-1", "-5m", "inf", "nan", "1e400"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size(text)
    for text in ("soon", "-1d", "-90", "inf", "nan"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_age(text)
