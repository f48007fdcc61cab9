"""The persistent result cache: keying, storage, degradation."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.parallel import cache as cache_mod
from repro.parallel.cache import (ResultCache, cache_enabled, cache_stats,
                                  default_cache_dir, reset_cache_stats,
                                  source_fingerprint)

SPEC = {"task": "StrideProbeTask", "probe": "local_read",
        "sizes": (4096,), "system": "t3d", "mechanism": "",
        "min_footprint": 0}


def test_key_is_deterministic(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.key("T", SPEC) == cache.key("T", dict(SPEC))


def test_key_separates_task_and_spec(tmp_path):
    cache = ResultCache(tmp_path)
    base = cache.key("T", SPEC)
    assert cache.key("Other", SPEC) != base
    changed = dict(SPEC, sizes=(8192,))
    assert cache.key("T", changed) != base


def test_key_depends_on_source_fingerprint(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    monkeypatch.setattr(cache_mod, "_SOURCE_FINGERPRINT", "v1")
    old = cache.key("T", SPEC)
    monkeypatch.setattr(cache_mod, "_SOURCE_FINGERPRINT", "v2")
    assert cache.key("T", SPEC) != old


def test_source_fingerprint_stable_and_hex():
    fp = source_fingerprint()
    assert fp == source_fingerprint()
    assert len(fp) == 64
    int(fp, 16)


def test_roundtrip_and_stats(tmp_path):
    reset_cache_stats()
    cache = ResultCache(tmp_path)
    key = cache.key("T", SPEC)
    hit, _ = cache.get(key)
    assert not hit
    cache.put(key, {"answer": 42.0})
    hit, value = cache.get(key)
    assert hit and value == {"answer": 42.0}
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
    stats = cache_stats()
    assert stats["hits"] >= 1 and stats["misses"] >= 1


def test_corrupt_entry_counts_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key("T", SPEC)
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    # Garbage, and a pickle header with an unsupported protocol.
    for corrupt in (b"definitely not a pickle", b"\x80\x09garbage"):
        path.write_bytes(corrupt)
        hit, value = cache.get(key)
        assert not hit and value is None
    # A recompute overwrites the corrupt entry and heals the cache.
    cache.put(key, "healed")
    assert cache.get(key) == (True, "healed")


def test_cache_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert cache_enabled()
    for off in ("0", "false", "OFF", "no"):
        monkeypatch.setenv("REPRO_CACHE", off)
        assert not cache_enabled()
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert cache_enabled()


def test_default_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"


def test_default_cache_dir_prefers_local(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".repro_cache").mkdir()
    assert default_cache_dir() == Path(".repro_cache")


def test_unwritable_cache_degrades_silently(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    cache = ResultCache(target)
    key = cache.key("T", SPEC)
    cache.put(key, "value")            # must not raise
    assert cache.stores == 0
    assert cache.get(key) == (False, None)
