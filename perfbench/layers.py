"""Map simulator modules to layers and fold a cProfile run into a
per-layer host-time table.

A layer is a ``src/repro`` subpackage (``machine`` also owns
``simkernel``).  The modules that drive or describe a run rather than
simulate hardware (``reporting``, ``models``, ``trace`` and the
top-level ``params``/``cli`` modules) form the ``support`` layer.
Everything that is not ``repro`` code -- the standard library, this
benchmark, and the profiler's own unattributed time -- is ``other``.

C builtins (numpy, ``dict``/``array`` methods, ``sorted`` ...) have no
source file; their self time is charged, call edge by call edge, to
the layer of the Python function that called them.
"""

from __future__ import annotations

import os

LAYERS = ("node", "vector", "shell", "network", "machine", "splitc",
          "apps", "microbench", "parallel", "support", "other")

#: First path component under ``src/repro`` -> layer.
_PACKAGE_LAYER = {
    "node": "node",
    "vector": "vector",
    "shell": "shell",
    "network": "network",
    "machine": "machine",
    "simkernel": "machine",
    "splitc": "splitc",
    "apps": "apps",
    "microbench": "microbench",
    "parallel": "parallel",
    "reporting": "support",
    "models": "support",
    "trace": "support",
}

#: Top-level modules of ``repro`` -> layer.
_MODULE_LAYER = {
    "__init__.py": "support",
    "__main__.py": "support",
    "cli.py": "support",
    "params.py": "support",
}


class UnmappedModule(KeyError):
    """A ``repro`` module that no layer claims."""


def layer_of_module(relpath: str) -> str:
    """Layer of a module given its path relative to ``src/repro``
    (``"node/cache.py"``); raises :class:`UnmappedModule` for a module
    the map does not name, so a new subpackage cannot silently land in
    ``other``."""
    parts = relpath.replace(os.sep, "/").split("/")
    table, key = ((_MODULE_LAYER, parts[0]) if len(parts) == 1
                  else (_PACKAGE_LAYER, parts[0]))
    try:
        return table[key]
    except KeyError:
        raise UnmappedModule(relpath) from None


class LayerMap:
    """Resolves profiled code locations (``(file, line, name)`` keys of
    :mod:`pstats`) to layers."""

    def __init__(self, package_dir: str):
        self._prefix = os.path.realpath(package_dir) + os.sep
        self._by_file: dict[str, str] = {}

    def layer(self, func) -> str | None:
        """Layer of a profiled function; ``None`` for a C builtin."""
        filename = func[0]
        if filename == "~":
            return None
        layer = self._by_file.get(filename)
        if layer is None:
            real = os.path.realpath(filename)
            layer = (layer_of_module(real[len(self._prefix):])
                     if real.startswith(self._prefix) else "other")
            self._by_file[filename] = layer
        return layer


def layer_table(stats: dict, package_dir: str, wall_s: float) -> dict:
    """Fold :attr:`pstats.Stats.stats` into ``{layer: {"self_s",
    "calls", "share"}}`` plus the profile's unattributed residual.

    The residual (``wall_s`` minus the summed self time of every
    profiled function) is charged to ``other``, so the ``self_s``
    column sums to ``wall_s`` exactly; it is also returned on its own
    as ``residual_s``.
    """
    lmap = LayerMap(package_dir)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    attributed = 0.0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        attributed += tt
        layer = lmap.layer(func)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        # A builtin: charge each calling edge to the caller's layer.
        charged = 0.0
        for caller, edge in callers.items():
            caller_layer = lmap.layer(caller) or "other"
            self_s[caller_layer] += edge[2]
            calls[caller_layer] += edge[1]
            charged += edge[2]
        self_s["other"] += tt - charged
    residual = wall_s - attributed
    self_s["other"] += residual
    table = {
        layer: {"self_s": self_s[layer], "calls": calls[layer],
                "share": self_s[layer] / wall_s if wall_s else 0.0}
        for layer in LAYERS
    }
    return {"layers": table, "residual_s": residual}
