"""Persistent, content-addressed result cache for experiment sweeps.

Every task the :class:`~repro.parallel.executor.SweepExecutor` runs is
a pure function of (model source code, task parameters): probes reset
their machines before every point, and every sweep builds its machines
from frozen parameter objects.  That makes results safely cacheable on
disk under a key that digests

* a **source fingerprint** — the SHA-256 of every ``*.py`` file in the
  installed ``repro`` package, so *any* model change (parameters,
  timing model, probe logic) invalidates every cached result; and
* the **task spec** — the task type plus its full, canonicalized
  parameter dictionary (machine system, mechanism, sizes, graph
  geometry, seeds, ...).

There is no TTL and no manual invalidation protocol: stale entries are
simply never looked up again because their keys are never regenerated.
Deleting the cache directory is always safe.

Layout and knobs
----------------

Entries are pickles under ``<cache_dir>/<key[:2]>/<key[2:]>.pkl``,
written atomically (temp file + rename) so concurrent workers never
observe partial entries.  The directory is resolved per
:class:`ResultCache` construction:

* ``REPRO_CACHE_DIR`` if set;
* ``.repro_cache/`` if that directory already exists in the working
  directory (opt-in repo-local cache);
* ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro`` otherwise.

``REPRO_CACHE=0`` disables caching globally (the executor then
computes everything fresh); ``repro experiments --no-cache`` does the
same for one run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path

__all__ = ["ResultCache", "cache_enabled", "cache_stats",
           "default_cache_dir", "reset_cache_stats", "source_fingerprint"]

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE = "REPRO_CACHE"

#: Process-wide hit/miss/store totals across every ResultCache
#: instance, so the bench snapshot can report how much of a run was
#: replayed (see tools/bench_snapshot.py).
_STATS = {"hits": 0, "misses": 0, "stores": 0}

#: Memoized source-tree digest (the package does not change underneath
#: a running process).
_SOURCE_FINGERPRINT: str | None = None


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE`` is set to 0/false/off/no."""
    return os.environ.get(ENV_CACHE, "1").strip().lower() not in (
        "0", "false", "off", "no")


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    local = Path(".repro_cache")
    if local.is_dir():
        return local
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def source_fingerprint() -> str:
    """SHA-256 over every .py file of the installed ``repro`` package.

    Hashing (relative path, contents) pairs in sorted order makes the
    digest stable across machines and invalidates every cache entry
    whenever any model, probe, or harness source changes.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT


def cache_stats() -> dict:
    """Process-wide ``{"hits": .., "misses": .., "stores": ..}``."""
    return dict(_STATS)


def reset_cache_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


class ResultCache:
    """On-disk pickle store addressed by task-content digests."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, task_name: str, spec: dict) -> str:
        """Digest of (source fingerprint, task type, canonical spec)."""
        payload = json.dumps(spec, sort_keys=True, separators=(",", ":"),
                             default=str)
        digest = hashlib.sha256()
        digest.update(source_fingerprint().encode())
        digest.update(b"\0")
        digest.update(task_name.encode())
        digest.update(b"\0")
        digest.update(payload.encode())
        return digest.hexdigest()

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / (key[2:] + ".pkl")

    def get(self, key: str) -> tuple[bool, object]:
        """Return ``(hit, value)``; unreadable entries count as misses
        (they are recomputed and overwritten, never propagated).  A
        corrupt pickle can fail with almost any exception (a bad
        protocol header raises ``ValueError``), so every load failure
        is a miss."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except Exception:
            self.misses += 1
            _STATS["misses"] += 1
            return False, None
        self.hits += 1
        _STATS["hits"] += 1
        return True, value

    def put(self, key: str, value: object) -> None:
        """Store ``value``, atomically (rename), best-effort: an
        unwritable cache degrades to a cold run, never an error."""
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1
        _STATS["stores"] += 1
