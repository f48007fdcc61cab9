"""Tests for the benchmark's layer map and profile folding.

    python3 -m pytest perfbench -q
"""

import cProfile
import os
import pstats
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "repro")
sys.path[:0] = [HERE, os.path.dirname(PACKAGE)]

from layers import (LAYERS, UnmappedModule, layer_of_module,  # noqa: E402
                    layer_table)


def repro_modules() -> list:
    """Every ``.py`` module under ``src/repro``, relative to it."""
    return sorted(
        os.path.relpath(os.path.join(root, name), PACKAGE)
        for root, _dirs, files in os.walk(PACKAGE)
        for name in files if name.endswith(".py"))


def test_every_module_maps_to_one_layer():
    modules = repro_modules()
    assert len(modules) > 50
    for module in modules:
        assert layer_of_module(module) in LAYERS, module


def test_layer_names_follow_subpackages():
    assert layer_of_module("node/cache.py") == "node"
    assert layer_of_module("simkernel/scheduler.py") == "machine"
    assert layer_of_module("apps/em3d/kernels.py") == "apps"
    assert layer_of_module("params.py") == "support"


@pytest.mark.parametrize("module", ["newpkg/thing.py", "newmodule.py"])
def test_unmapped_module_fails(module):
    with pytest.raises(UnmappedModule):
        layer_of_module(module)


def test_builtin_time_is_charged_to_each_caller():
    node_fn = (os.path.join(PACKAGE, "node", "cache.py"), 1, "f")
    apps_fn = (os.path.join(PACKAGE, "apps", "fft.py"), 1, "g")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    stats = {
        node_fn: (1, 1, 0.5, 0.9, {}),
        apps_fn: (2, 2, 0.25, 0.55, {}),
        builtin: (5, 5, 0.7, 0.7, {node_fn: (3, 3, 0.4, 0.4),
                                   apps_fn: (2, 2, 0.3, 0.3)}),
    }
    table = layer_table(stats, PACKAGE, wall_s=1.5)
    layers = table["layers"]
    assert layers["node"]["self_s"] == pytest.approx(0.9)
    assert layers["node"]["calls"] == 4
    assert layers["apps"]["self_s"] == pytest.approx(0.55)
    assert layers["apps"]["calls"] == 4
    assert table["residual_s"] == pytest.approx(0.05)
    assert layers["other"]["self_s"] == pytest.approx(0.05)


def test_traced_table_sums_to_traced_wall():
    from repro.apps.em3d import make_graph, run_em3d
    from repro.machine.machine import Machine
    from repro.params import t3d_machine_params

    graph = make_graph(4, 16, 4, 0.3, seed=3)
    machine = Machine(t3d_machine_params((2, 2, 1)))
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    run_em3d(machine, graph, "put", steps=1, warmup_steps=1)
    profile.disable()
    wall = time.perf_counter() - start
    table = layer_table(pstats.Stats(profile).stats, PACKAGE, wall)
    layers = table["layers"]
    assert sum(row["self_s"] for row in layers.values()) == \
        pytest.approx(wall, rel=1e-9)
    assert sum(row["share"] for row in layers.values()) == \
        pytest.approx(1.0, rel=1e-9)
    assert abs(table["residual_s"]) < 0.25 * wall
    for layer in ("node", "splitc", "apps", "machine"):
        assert layers[layer]["self_s"] > 0, layer
        assert layers[layer]["calls"] > 0, layer
