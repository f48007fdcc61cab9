"""Golden suite for the numpy EM3D compute phase.

Three configurations of one processor's compute phase must be
indistinguishable: the numpy whole-phase kernel
(:func:`repro.vector.em3d.compute_phase`), ``REPRO_VECTOR=0`` (the
inlined scalar loop for "simple", the reference loop for every other
version) and the reference per-access loop
(``repro.simkernel.fastpath.ENABLED = False``).  Every run is
fingerprinted —
results, clocks, op stats, unit state and counters, memory words and
the entries left pending in each write buffer — and the fingerprints
must be equal, for all seven versions and for the capacity point.

The decline tests build phases the kernel must refuse and check that
it did refuse (a spy records each :class:`UnsupportedStimulus`), that
the refusal changed nothing, and that the reference-loop fallback then
gives the identical answer.
"""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("numpy")

import repro.vector.em3d as vector_em3d
from repro.apps.em3d import VERSIONS, kernels, make_graph, run_em3d
from repro.apps.em3d.million import _build_image, run_em3d_million
from repro.machine.machine import Machine
from repro.params import WORD_BYTES, t3d_machine_params
from repro.simkernel import fastpath
from repro.vector import UnsupportedStimulus

SHAPES = {1: (1, 1, 1), 4: (2, 2, 1), 16: (4, 2, 2)}


@pytest.fixture
def spy(monkeypatch):
    """Record every numpy phase: ``"ok"`` or the decline reason."""
    calls = []
    real = vector_em3d.compute_phase

    def wrapped(*args, **kwargs):
        try:
            real(*args, **kwargs)
        except UnsupportedStimulus as exc:
            calls.append(str(exc))
            raise
        calls.append("ok")

    monkeypatch.setattr(vector_em3d, "compute_phase", wrapped)
    return calls


def _tier(monkeypatch, tier: str) -> None:
    if tier == "numpy":
        monkeypatch.delenv("REPRO_VECTOR", raising=False)
    else:
        monkeypatch.setenv("REPRO_VECTOR", "0")
    monkeypatch.setattr(fastpath, "ENABLED", tier != "reference")


def _units(machine) -> list:
    """Every unit the compute phase touches, on every processor."""
    out = []
    for pe in range(machine.num_nodes):
        ms = machine.node(pe).memsys
        wb = ms.write_buffer
        out.append((ms.counters(), dict(ms.l1._tags),
                    list(ms.dram._open_row), ms.dram._last_bank,
                    wb._last_retire,
                    [(e.line_addr, e.enqueue_time, e.retire_time,
                      dict(e.words), e.apply_words)
                     for e in wb._pending],
                    sorted(ms.memory.items(), key=lambda kv: kv[0]),
                    [(k, type(v)) for k, v in ms.memory.items()]))
    return out


def _run_em3d(monkeypatch, tier, version, pes):
    _tier(monkeypatch, tier)
    graph = make_graph(num_pes=pes, nodes_per_pe=24, degree=4,
                       remote_fraction=0.35 if pes > 1 else 0.0, seed=11)
    machine = Machine(t3d_machine_params(SHAPES[pes]))
    result = run_em3d(machine, graph, version, steps=2, warmup_steps=1)
    stats = sorted((name, rec.count, rec.cycles)
                   for name, rec in result.stats.ops.items())
    return [result.us_per_edge, result.per_pe_cycles_per_edge,
            result.e_values, result.h_values, stats, _units(machine)]


@pytest.mark.parametrize("pes", sorted(SHAPES))
@pytest.mark.parametrize("version", VERSIONS)
def test_em3d_three_tiers_identical(monkeypatch, spy, version, pes):
    numpy_run = _run_em3d(monkeypatch, "numpy", version, pes)
    assert numpy_run == _run_em3d(monkeypatch, "scalar", version, pes)
    assert numpy_run == _run_em3d(monkeypatch, "reference", version, pes)
    if version == "simple":
        assert spy == []
    else:
        # Every compute phase took the numpy path: 3 steps x 2 halves.
        assert spy == ["ok"] * (6 * pes)


@pytest.mark.parametrize("nodes_per_pe,replay", [(37, False), (64, True)])
def test_million_three_tiers_identical(monkeypatch, spy, nodes_per_pe,
                                       replay):
    def run(tier):
        _tier(monkeypatch, tier)
        machine = Machine(t3d_machine_params((2, 2, 1)))
        result = run_em3d_million(machine, nodes_per_pe, degree=2,
                                  steps=1, warmup_steps=1, replay=replay)
        return [result.cycles_per_edge, result.e_checksum, _units(machine)]

    numpy_run = run("numpy")
    assert "ok" in spy and all(call == "ok" for call in spy)
    assert numpy_run == run("scalar") == run("reference")


def test_million_chunked_phase_identical(monkeypatch, spy):
    """A phase longer than one chunk carries unit state across chunks."""
    monkeypatch.setattr(vector_em3d, "CHUNK_EDGES", 50)

    def run(tier):
        _tier(monkeypatch, tier)
        machine = Machine(t3d_machine_params((1, 1, 1)))
        result = run_em3d_million(machine, 301, degree=3, steps=1,
                                  warmup_steps=1)
        return [result.cycles_per_edge, result.e_checksum, _units(machine)]

    assert run("numpy") == run("scalar")
    assert spy == ["ok"] * 4


# ----------------------------------------------------------------------
# Declines: one crafted phase per precondition
# ----------------------------------------------------------------------

N, DEGREE = 40, 2


def _phase_machine(params=None):
    """A one-processor machine holding a capacity-point image, its
    context, and the image layout."""
    machine = Machine(params or t3d_machine_params((1, 1, 1)))
    layout = {key: machine.symmetric_alloc(size) for key, size in (
        ("e_vals", N * kernels.VALUE_BYTES),
        ("h_vals", N * kernels.VALUE_BYTES),
        ("e_adj", N * DEGREE * 2 * WORD_BYTES),
        ("h_adj", N * DEGREE * 2 * WORD_BYTES))}
    _build_image(machine.node(0).memsys.memory, layout, N, DEGREE)
    ctx = machine.make_contexts()[0]
    ctx.clock = 100.0
    return machine, ctx, layout


def _phase(ctx, layout):
    kernels.compute_phase(ctx, N, DEGREE, layout["e_adj"],
                          layout["e_vals"], 0.5)


def _after_phase(monkeypatch, tier, prepare, params=None):
    _tier(monkeypatch, tier)
    machine, ctx, layout = _phase_machine(params)
    prepare(ctx, layout)
    _phase(ctx, layout)
    return [ctx.clock, _units(machine)]


def _slow_pending_store(ctx, layout):
    # A store whose drain outlasts the whole phase's first node.
    wb = ctx.node.memsys.write_buffer
    ctx.clock += wb.push(ctx.clock, layout["h_vals"] + WORD_BYTES, 1.5,
                         drain_cost=4000.0)


def _store_on_output_line(ctx, layout):
    ctx.local_write(layout["e_vals"] + 3 * kernels.VALUE_BYTES
                    + WORD_BYTES, 2.5)


def _wide_line_params():
    params = t3d_machine_params((1, 1, 1))
    node = dataclasses.replace(
        params.node, l1=dataclasses.replace(params.node.l1, line_bytes=64))
    return dataclasses.replace(params, node=node)


@pytest.mark.parametrize("prepare,params,reason", [
    (_slow_pending_store, None, "stores meet in the write buffer"),
    (_store_on_output_line, None, "pending entry shares an output line"),
    (lambda ctx, layout: None, _wide_line_params(), "output stores merge"),
], ids=["pending-past-first-store", "pending-on-output-line",
        "64-byte-lines"])
def test_decline_falls_back_identically(monkeypatch, spy, prepare, params,
                                        reason):
    declined = _after_phase(monkeypatch, "numpy", prepare, params)
    assert spy == [reason]
    assert declined == _after_phase(monkeypatch, "scalar", prepare, params)
    assert declined == _after_phase(monkeypatch, "reference", prepare,
                                    params)


@pytest.mark.parametrize("prepare,params", [
    (_slow_pending_store, None),
    (_store_on_output_line, None),
    (lambda ctx, layout: None, _wide_line_params()),
])
def test_declined_phase_changes_nothing(prepare, params):
    machine, ctx, layout = _phase_machine(params)
    prepare(ctx, layout)
    before = [ctx.clock, _units(machine)]
    with pytest.raises(UnsupportedStimulus):
        vector_em3d.compute_phase(ctx, N, DEGREE, layout["e_adj"],
                                  layout["e_vals"], 0.5,
                                  kernels.VALUE_BYTES)
    assert [ctx.clock, _units(machine)] == before


def test_pending_entry_retiring_in_time_is_flushed_up_front(monkeypatch,
                                                           spy):
    """A quick store pending at entry does not stop the kernel."""
    def prepare(ctx, layout):
        ctx.local_write(layout["h_vals"] + 5 * kernels.VALUE_BYTES, 0.25)

    took = _after_phase(monkeypatch, "numpy", prepare)
    assert spy == ["ok"]
    assert took == _after_phase(monkeypatch, "scalar", prepare)


def test_repro_vector_off_never_calls_the_kernel(monkeypatch, spy):
    scalar = _after_phase(monkeypatch, "scalar", lambda ctx, layout: None)
    assert spy == []
    assert scalar == _after_phase(monkeypatch, "numpy",
                                  lambda ctx, layout: None)
    assert spy == ["ok"]


def test_setup_fills_adjacency_words_with_exact_types():
    """``_setup``'s slice fill leaves the words (and their Python
    types) a per-word fill would: int references, float weights."""
    graph = make_graph(num_pes=4, nodes_per_pe=12, degree=3,
                       remote_fraction=0.4, seed=3)
    for version in ("simple", "bundle", "bulk"):
        machine = Machine(t3d_machine_params((2, 2, 1)))
        layout = kernels._setup(machine, graph, version)
        for pe in range(graph.num_pes):
            mem = machine.node(pe).memsys.memory
            plan = graph.e_plan
            j = 0
            for edges in graph.e_adj[pe]:
                for owner, idx, weight in edges:
                    ref = mem.load(layout.e_adj + 2 * j * WORD_BYTES)
                    got_w = mem.load(layout.e_adj + (2 * j + 1) * WORD_BYTES)
                    assert type(ref) is int and type(got_w) is float
                    assert got_w == weight
                    if version != "simple" and owner == pe:
                        assert ref == (layout.h_vals
                                       + idx * kernels.VALUE_BYTES)
                    elif version != "simple":
                        stride = (WORD_BYTES if version == "bulk"
                                  else kernels.VALUE_BYTES)
                        slot = plan.ghost_slot[pe][(owner, idx)]
                        assert ref == layout.e_ghosts + slot * stride
                    j += 1
