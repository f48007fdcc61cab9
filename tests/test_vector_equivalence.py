"""Golden equivalence: reference == vectorized.

The vectorized tier (:mod:`repro.vector`) joins the fast paths of
``tests/test_fastpath_equivalence.py`` under the same doctrine: a tier
is correct only if it reproduces the reference model *bit for bit* —
same floats, same access counts — across every claimed probe family
and machine shape.  Each test runs one probe three times on a cold
machine, over the two tiers:

* **reference** — ``sweep_fn=None``: the per-access harness loop;
* **vector off** — ``REPRO_VECTOR=0``: the probes build no batched
  sweep, so this run is the reference loop too;
* **vectorized** — ``REPRO_VECTOR=1``: the numpy tier.

The point memo is cleared between runs so every tier computes every
point itself.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.machine.machine import Machine
from repro.microbench import probes
from repro.microbench.harness import clear_probe_memo
from repro.node.memsys import t3d_memory_system, workstation_memory_system
from repro.params import t3d_machine_params

KB = 1024

#: Cache- and TLB-exercising geometry: spans the 8 KB L1, the
#: workstation's 256 KB TLB reach, and the DRAM interleave.
PROBE_SIZES = [4 * KB, 16 * KB, 64 * KB, 512 * KB]


def _points(curves):
    return [(p.size, p.stride, p.avg_cycles, p.accesses)
            for p in curves.points]


def _three_tiers(monkeypatch, run, run_reference):
    """Run a probe vectorized, with the tier off, and on the explicit
    reference loop, memo cleared between runs."""
    monkeypatch.setenv("REPRO_VECTOR", "1")
    clear_probe_memo()
    vectorized = run()
    monkeypatch.setenv("REPRO_VECTOR", "0")
    clear_probe_memo()
    fast = run()
    clear_probe_memo()
    reference = run_reference()
    clear_probe_memo()
    return vectorized, fast, reference


@pytest.mark.parametrize("make_memsys", [t3d_memory_system,
                                         workstation_memory_system],
                         ids=["t3d", "workstation"])
def test_local_read_three_tiers_identical(monkeypatch, make_memsys):
    vec, fast, ref = _three_tiers(
        monkeypatch,
        lambda: probes.local_read_probe(make_memsys(), sizes=PROBE_SIZES,
                                        memo_key=None),
        lambda: probes.local_read_probe(make_memsys(), sizes=PROBE_SIZES,
                                        sweep_fn=None, memo_key=None))
    assert _points(vec) == _points(ref)
    assert _points(fast) == _points(ref)


@pytest.mark.parametrize("make_memsys", [t3d_memory_system,
                                         workstation_memory_system],
                         ids=["t3d", "workstation"])
def test_local_write_three_tiers_identical(monkeypatch, make_memsys):
    vec, fast, ref = _three_tiers(
        monkeypatch,
        lambda: probes.local_write_probe(make_memsys(), sizes=PROBE_SIZES,
                                         memo_key=None),
        lambda: probes.local_write_probe(make_memsys(), sizes=PROBE_SIZES,
                                         sweep_fn=None, memo_key=None))
    assert _points(vec) == _points(ref)
    assert _points(fast) == _points(ref)


@pytest.mark.parametrize("mechanism", ["uncached", "cached", "splitc"])
def test_remote_read_three_tiers_identical(monkeypatch, mechanism):
    def run(**kw):
        machine = Machine(t3d_machine_params((2, 1, 1)))
        return probes.remote_read_probe(machine, mechanism=mechanism,
                                        sizes=[16 * KB, 64 * KB],
                                        memo_key=None, **kw)

    vec, fast, ref = _three_tiers(
        monkeypatch, run, lambda: run(sweep_fn=None))
    assert _points(vec) == _points(ref)
    assert _points(fast) == _points(ref)


def test_streaming_bandwidth_tiers_identical(monkeypatch):
    for make_memsys in (t3d_memory_system, workstation_memory_system):
        monkeypatch.setenv("REPRO_VECTOR", "1")
        vec = probes.streaming_bandwidth_probe(make_memsys(), nbytes=64 * KB)
        monkeypatch.setenv("REPRO_VECTOR", "0")
        ref = probes.streaming_bandwidth_probe(make_memsys(), nbytes=64 * KB)
        assert vec == ref


def test_memoized_replay_matches_fresh_compute(monkeypatch):
    """Cross-tier memo safety: a point memoized by one tier replays for
    another only because the tiers are bit-identical — assert the
    memoized curves equal a fresh memo-less run."""
    monkeypatch.setenv("REPRO_VECTOR", "1")
    clear_probe_memo()
    memoized = probes.local_read_probe(t3d_memory_system(),
                                       sizes=PROBE_SIZES)
    replayed = probes.local_read_probe(t3d_memory_system(),
                                       sizes=PROBE_SIZES)
    fresh = probes.local_read_probe(t3d_memory_system(), sizes=PROBE_SIZES,
                                    memo_key=None)
    clear_probe_memo()
    assert _points(memoized) == _points(fresh)
    assert _points(replayed) == _points(fresh)
