"""Tier-selection and graceful-degradation behavior of repro.vector.

The vectorized tier must never be load-bearing: with ``REPRO_VECTOR=0``,
with numpy missing, or for any stimulus it does not claim, every probe
must degrade to the reference loop and produce the same numbers.
These tests pin that contract — including the per-family claim table,
so silently starting (or stopping) to claim a family is a visible
diff.
"""

from __future__ import annotations

import sys
import warnings

import pytest

from repro import vector
from repro.microbench import probes
from repro.microbench.harness import PointSpec, run_stride_point
from repro.node.memsys import t3d_memory_system
from repro.vector import UnsupportedStimulus


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_VECTOR", raising=False)


# ----------------------------------------------------------------------
# The claim table (satellite: per-family fallback decisions, pinned)
# ----------------------------------------------------------------------

def test_claimed_families_pinned():
    """The per-family claim decisions are part of the tier's contract:
    the unclaimed families couple timing to observable machine state or
    data-dependent control flow (see the table's docstring), so a
    change here needs a matching exactness argument."""
    assert vector.CLAIMED_FAMILIES == {
        "local_read": True,
        "local_write": True,
        "remote_read": True,
        "streaming_bandwidth": True,
        "remote_write": False,
        "nonblocking_write": False,
        "bulk_transfer": False,
        "em3d": False,
    }


def test_unknown_family_is_not_claimed():
    assert not vector.claims("no_such_probe")
    assert vector.stride_sweep_fn("no_such_probe") is None


# ----------------------------------------------------------------------
# Environment switch
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value", ["0", "false", "no", "off", "OFF"])
def test_env_disables_tier(monkeypatch, value):
    monkeypatch.setenv("REPRO_VECTOR", value)
    assert not vector.enabled()
    ms = t3d_memory_system()
    assert vector.stride_sweep_fn("local_read",
                                  node_params=ms.params) is None
    assert vector.streaming_read_total(ms.params, 4096) is None


def test_env_enabled_by_default():
    pytest.importorskip("numpy")
    assert vector.enabled()


# ----------------------------------------------------------------------
# Missing numpy: degrade with a one-line warning, never crash
# ----------------------------------------------------------------------

@pytest.fixture
def no_numpy(monkeypatch):
    """Simulate an interpreter without numpy: a ``None`` entry in
    ``sys.modules`` makes ``import numpy`` raise ImportError."""
    for name in [m for m in sys.modules if m == "numpy"
                 or m.startswith("numpy.")]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(vector, "_warned_missing_numpy", False)


def test_missing_numpy_disables_tier(no_numpy):
    assert not vector.numpy_available()
    with pytest.warns(RuntimeWarning, match="numpy is not installed"):
        assert not vector.enabled()


def test_missing_numpy_warns_exactly_once(no_numpy):
    with pytest.warns(RuntimeWarning):
        vector.enabled()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not vector.enabled()      # second call: silent


def test_missing_numpy_probe_still_runs(no_numpy):
    """The full probe path works without numpy — it just computes on
    the reference loop."""
    ms = t3d_memory_system()
    with pytest.warns(RuntimeWarning):
        curves = probes.local_read_probe(ms, sizes=[4096], memo_key=None)
    assert curves.points


# ----------------------------------------------------------------------
# Per-point fallback on UnsupportedStimulus
# ----------------------------------------------------------------------

def test_unsupported_point_routes_to_fallback():
    """The kernel declines a point it cannot express by raising, which
    routes the point to the reference loop (see the next test), and
    answers a canonical point with the reference loop's numbers."""
    pytest.importorskip("numpy")
    ms = t3d_memory_system()
    sweep = vector.stride_sweep_fn("local_read", node_params=ms.params)
    assert sweep is not None             # the tier claimed the family
    # Non-canonical geometry: the kernel declines.
    with pytest.raises(UnsupportedStimulus):
        sweep(0, -8, 4, 1, 2)
    # Canonical geometry: the kernel answers, bit-identically.
    spec = PointSpec(size=32, stride=8, naccesses=4)
    got = run_stride_point(ms.read_cycles, spec, reset_fn=ms.reset,
                           sweep_fn=sweep)
    want = run_stride_point(ms.read_cycles, spec, reset_fn=ms.reset)
    assert got == want


def test_harness_falls_back_to_reference_loop():
    """A sweep_fn raising UnsupportedStimulus must not lose the point:
    the harness reruns it on the reference per-access loop."""
    ms = t3d_memory_system()

    def declines(base, stride, count, warmup, measure):
        raise UnsupportedStimulus("always")

    spec = PointSpec(size=4096, stride=32, naccesses=128)
    got = run_stride_point(ms.read_cycles, spec, reset_fn=ms.reset,
                           sweep_fn=declines)
    ms2 = t3d_memory_system()
    want = run_stride_point(ms2.read_cycles, spec, reset_fn=ms2.reset,
                            sweep_fn=None)
    assert got == want
