"""Golden-equivalence suite: the fast paths ARE the reference model.

Every batched/inlined fast path added for performance has a way back
to the reference per-access implementation:

* probe harness: ``sweep_fn=None`` / ``memo_key=None`` force the
  per-access loop and disable the point memo;
* ``repro.simkernel.fastpath.ENABLED`` — the one switch over the
  numpy bulk reads and store stream, the range-op BLT
  data movement, the flat ``put_scatter``, the EM3D ghost fill and the
  EM3D compute phase.

These tests run the same experiment down both paths and assert the
results are *identical* — same floats, same counters, same memory
contents — not merely close.  Any divergence means a fast path changed
the model, which is a correctness bug regardless of which side is
right.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.machine.machine import Machine
from repro.microbench import probes
from repro.microbench.harness import clear_probe_memo
from repro.node.memsys import t3d_memory_system
from repro.params import WORD_BYTES, t3d_machine_params
from repro.simkernel import fastpath
from repro.splitc import bulk
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC

KB = 1024

#: Small but cache-exercising probe geometry: spans the 8 KB L1 so the
#: curves contain hit, miss, and page-crossing regimes.
PROBE_SIZES = [4 * KB, 16 * KB, 64 * KB]


@contextmanager
def _reference_paths():
    """Temporarily switch every fast path to the reference
    implementation."""
    saved = fastpath.ENABLED
    fastpath.ENABLED = False
    try:
        yield
    finally:
        fastpath.ENABLED = saved


def _points(curves):
    return [(p.size, p.stride, p.avg_cycles, p.accesses)
            for p in curves.points]


# ----------------------------------------------------------------------
# Figure 1: the probe point memo
# ----------------------------------------------------------------------

def test_probe_memo_replays_identical_points():
    clear_probe_memo()
    ms = t3d_memory_system()
    first = probes.local_read_probe(ms, sizes=PROBE_SIZES)
    replay = probes.local_read_probe(ms, sizes=PROBE_SIZES)
    no_memo = probes.local_read_probe(ms, sizes=PROBE_SIZES, memo_key=None)
    assert _points(first) == _points(replay) == _points(no_memo)


# ----------------------------------------------------------------------
# Figure 4: remote read probe (memoized vs direct)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mechanism", ["uncached", "cached", "splitc"])
def test_fig4_remote_read_memo_matches_direct(mechanism):
    clear_probe_memo()
    memo = probes.remote_read_probe(mechanism=mechanism, sizes=PROBE_SIZES)
    direct = probes.remote_read_probe(mechanism=mechanism,
                                      sizes=PROBE_SIZES, memo_key=None)
    assert _points(memo) == _points(direct)


# ----------------------------------------------------------------------
# Figure 8: bulk transfers, batched vs per-word reference
# ----------------------------------------------------------------------

FIG8_SIZES = [8, 32, 512, 2 * KB, 8 * KB, 32 * KB]


def test_fig8_bulk_read_curves_match_reference():
    fast = probes.bulk_read_bandwidth_probe(sizes=FIG8_SIZES)
    with _reference_paths():
        ref = probes.bulk_read_bandwidth_probe(sizes=FIG8_SIZES)
    assert fast == ref


def test_fig8_bulk_write_curves_match_reference():
    fast = probes.bulk_write_bandwidth_probe(sizes=FIG8_SIZES[1:])
    with _reference_paths():
        ref = probes.bulk_write_bandwidth_probe(sizes=FIG8_SIZES[1:])
    assert fast == ref


def _fresh_sc():
    machine = Machine(t3d_machine_params((2, 1, 1)))
    return machine, SplitC(machine.make_contexts()[0])


def _machine_fingerprint(machine, sc):
    """Every observable the word loops touch: clocks, counters, unit
    state (L1 tags, DRAM open rows and last bank, pending write-buffer
    entries with their retirement hooks and senders, the prefetch FIFO,
    cached-line snapshots, outstanding acknowledgements), the target
    side of remote stores (inbound busy time, arrival log and total,
    wake events) and the raw memory words, with their types, of every
    node."""
    out = [sc.ctx.clock]
    for pe in range(machine.num_nodes):
        node = machine.node(pe)
        ms = node.memsys
        wb = ms.write_buffer
        pf = node.prefetch
        out.append((pe, ms.l1.hits, ms.l1.misses,
                    sorted(ms.l1._tags.items()),
                    ms.dram.accesses, ms.dram.row_misses,
                    ms.dram.same_bank_conflicts,
                    list(ms.dram._open_row), ms.dram._last_bank,
                    wb.merged_writes, wb.drained_entries, wb._last_retire,
                    [(e.line_addr, e.enqueue_time, e.retire_time,
                      sorted(e.words.items()), e.apply_words,
                      e.on_retire is not None,
                      None if e.meta is None else e.meta.my_pe)
                     for e in wb.pending_entries],
                    node.remote.reads, node.remote.cached_reads,
                    node.remote.stores,
                    sorted((line, sorted(words.items())) for line, words
                           in node.remote._line_snapshots.items()),
                    [(a.drain_time, a.ack_time, a.nbytes)
                     for a in node.remote._acks],
                    pf.issues, pf.pops, pf._issued_since_pop,
                    [(f.ready_time, f.value) for f in pf._fifo],
                    node.inbound_busy_until, list(node._arrivals),
                    node.bytes_arrived_total(),
                    None if node.wake_sink is None else list(node.wake_sink),
                    sorted((addr, type(value).__name__, value)
                           for addr, value in ms.memory.items())))
    return out


#: A 16 KB DRAM page boundary inside the destination.
_PAGE_CROSSING_DST = 0x4000 - 256


@pytest.mark.parametrize("op", ["write_stores", "write_stores_page",
                                "write_stores_cached_source", "read_uncached",
                                "read_cached", "read_prefetch",
                                "read_cached_page", "read_prefetch_page",
                                "read_cached_flush_all",
                                "local_copy", "put", "put_page"])
def test_bulk_word_loops_state_identical(op):
    def drive(sc):
        if op == "write_stores":
            bulk.bulk_write_stores(sc, GlobalPtr(1, 0x6000), 0x0, 512)
        elif op == "write_stores_page":
            # Lines past the page edge drain at 83 cycles, not 68.
            bulk.bulk_write_stores(sc, GlobalPtr(1, _PAGE_CROSSING_DST),
                                   0x0, 512)
        elif op == "write_stores_cached_source":
            for offset in range(0, 512, WORD_BYTES):
                sc.ctx.local_read(offset)
            bulk.bulk_write_stores(sc, GlobalPtr(1, 0x6000), 0x0, 512)
        elif op == "read_uncached":
            bulk.bulk_read_uncached(sc, 0x6000, GlobalPtr(1, 0x0), 512)
        elif op == "read_cached":
            bulk.bulk_read_cached(sc, 0x6000, GlobalPtr(1, 0x0), 512)
        elif op == "read_prefetch":
            bulk.bulk_read_prefetch(sc, 0x6000, GlobalPtr(1, 0x0), 512)
        elif op == "read_cached_page":
            bulk.bulk_read_cached(sc, _PAGE_CROSSING_DST,
                                  GlobalPtr(1, 0x0), 512)
        elif op == "read_prefetch_page":
            bulk.bulk_read_prefetch(sc, _PAGE_CROSSING_DST,
                                    GlobalPtr(1, 0x0), 512)
        elif op == "read_cached_flush_all":
            bulk.bulk_read_cached(sc, _PAGE_CROSSING_DST,
                                  GlobalPtr(1, 0x8), 9 * 1024)
        elif op == "local_copy":
            bulk._local_copy(sc, 0x6000, 0x0, 512)
        elif op == "put":
            sc.bulk_put(GlobalPtr(1, 0x6000), 0x0, 512)
            sc.sync()
        else:
            # At least repro.vector.bulk.MIN_WORDS words.
            sc.bulk_put(GlobalPtr(1, _PAGE_CROSSING_DST), 0x0,
                        40 * WORD_BYTES)
            # Compared before the sync: its last entry still pending.
            return
        sc.ctx.memory_barrier()
        sc.ctx.clock = sc.ctx.node.remote.wait_for_acks(sc.ctx.clock)

    def seeded():
        machine, sc = _fresh_sc()
        for pe in range(machine.num_nodes):
            memory = machine.node(pe).memsys.memory
            for i in range(64):
                memory.store(i * WORD_BYTES, float(i) if i % 2 else i)
        return machine, sc

    m_fast, sc_fast = seeded()
    drive(sc_fast)

    with _reference_paths():
        m_ref, sc_ref = seeded()
        drive(sc_ref)

    assert (_machine_fingerprint(m_fast, sc_fast)
            == _machine_fingerprint(m_ref, sc_ref))


@pytest.mark.parametrize("enabled", [False, True], ids=["reference", "fast"])
def test_dirty_registry_lists_each_buffer_once(monkeypatch, enabled):
    """A 64 KB store stream and a 64 KB uncached read each drain the
    write buffer between thousands of stores; the machine's dirty
    registry still lists each buffer at most once until a settle."""
    monkeypatch.setattr(fastpath, "ENABLED", enabled)
    machine, sc = _fresh_sc()
    bulk.bulk_write_stores(sc, GlobalPtr(1, 0x400000), 0x0, 64 * KB)
    bulk.bulk_read_uncached(sc, 0x800000, GlobalPtr(1, 0x0), 64 * KB)
    listed = list(machine._dirty_buffers)
    assert listed == [machine.node(0).memsys.write_buffer]
    machine.settle()
    assert not machine._dirty_buffers


@pytest.mark.parametrize("mechanism", ["uncached", "cached", "prefetch"])
def test_bulk_read_continues_the_previous_line(monkeypatch, mechanism):
    """A transfer starting on the line where the previous one ended
    (its last store still in the write buffer, as EM3D's back-to-back
    ``bulk_get``s leave it) runs on the batch path and matches the
    reference loop."""
    pytest.importorskip("numpy")
    import repro.vector.bulk as vector_bulk

    served = []
    real = getattr(vector_bulk, "read_" + mechanism)
    monkeypatch.setattr(vector_bulk, "read_" + mechanism,
                        lambda *a: served.append(real(*a)))
    read = getattr(bulk, "bulk_read_" + mechanism)

    def drive(sc):
        read(sc, 0x6000, GlobalPtr(1, 0x0), 45 * WORD_BYTES)
        read(sc, 0x6000 + 45 * WORD_BYTES, GlobalPtr(1, 0x400),
             40 * WORD_BYTES)

    m_fast, sc_fast = _fresh_sc()
    drive(sc_fast)
    assert len(served) == 2
    with _reference_paths():
        m_ref, sc_ref = _fresh_sc()
        drive(sc_ref)
    assert (_machine_fingerprint(m_fast, sc_fast)
            == _machine_fingerprint(m_ref, sc_ref))


#: Figure 8's bulk-read sizes, 8 B to 512 KB.
FIG8_READ_SIZES = [8 * 4 ** k for k in range(9)]


def test_batch_path_serves_every_fig8_read(monkeypatch):
    """Every Figure 8 read of at least ``MIN_WORDS`` words runs on the
    numpy kernels with no decline (the shorter ones run the reference
    loop, which is faster there), and the kernels also accept the
    shorter sizes, matching the reference loop."""
    pytest.importorskip("numpy")
    import repro.vector.bulk as vector_bulk
    from repro.shell.annex import ReadMode
    from repro.vector import UnsupportedStimulus

    served = []
    for name in ("read_uncached", "read_cached", "read_prefetch"):
        real = getattr(vector_bulk, name)

        def spy(ctx, pe, src, dst, nwords, *rest, _real=real, _name=name):
            try:
                _real(ctx, pe, src, dst, nwords, *rest)
            except UnsupportedStimulus:
                served.append((_name, nwords, "declined"))
                raise
            served.append((_name, nwords, "served"))

        monkeypatch.setattr(vector_bulk, name, spy)
    probes.bulk_read_bandwidth_probe(
        sizes=FIG8_READ_SIZES,
        mechanisms={m: probes.READ_MECHANISMS[m]
                    for m in ("uncached", "cached", "prefetch")})
    big = [n // WORD_BYTES for n in FIG8_READ_SIZES
           if n // WORD_BYTES >= vector_bulk.MIN_WORDS]
    assert sorted(served) == sorted(
        (name, nwords, "served") for name in
        ("read_uncached", "read_cached", "read_prefetch") for nwords in big)

    for nbytes in FIG8_READ_SIZES:
        nwords = nbytes // WORD_BYTES
        if nwords >= vector_bulk.MIN_WORDS:
            continue
        for mechanism in ("uncached", "cached", "prefetch"):
            machine, sc = _fresh_sc()
            mode = (ReadMode.CACHED if mechanism == "cached"
                    else ReadMode.UNCACHED)
            index = sc._setup_annex(1, mode)
            extra = (index, False) if mechanism == "cached" else ()
            getattr(vector_bulk, "read_" + mechanism)(
                sc.ctx, 1, 0, 0x400000, nwords, *extra)
            with _reference_paths():
                m_ref, sc_ref = _fresh_sc()
                getattr(bulk, "bulk_read_" + mechanism)(
                    sc_ref, 0x400000, GlobalPtr(1, 0), nbytes)
            assert (_machine_fingerprint(machine, sc)
                    == _machine_fingerprint(m_ref, sc_ref))


#: Figure 8's bulk-write sizes, 32 B to 512 KB.
FIG8_WRITE_SIZES = FIG8_READ_SIZES[1:]


def test_batch_path_serves_every_fig8_store_stream(monkeypatch):
    """Every Figure 8 store stream of at least ``MIN_WORDS`` words —
    the ``stores`` mechanism and the ``splitc`` dispatch, 12 of the 16
    calls — runs on the numpy kernel with no decline; the 32 B and
    128 B points run the reference loop."""
    pytest.importorskip("numpy")
    import repro.vector.bulk as vector_bulk
    from repro.vector import UnsupportedStimulus

    served = []
    real = vector_bulk.write_stores

    def spy(ctx, pe, dst, src, nwords, *rest):
        try:
            real(ctx, pe, dst, src, nwords, *rest)
        except UnsupportedStimulus:
            served.append((nwords, "declined"))
            raise
        served.append((nwords, "served"))

    monkeypatch.setattr(vector_bulk, "write_stores", spy)
    probes.bulk_write_bandwidth_probe(
        sizes=FIG8_WRITE_SIZES,
        mechanisms={m: probes.WRITE_MECHANISMS[m]
                    for m in ("stores", "splitc")})
    big = [n // WORD_BYTES for n in FIG8_WRITE_SIZES
           if n // WORD_BYTES >= vector_bulk.MIN_WORDS]
    assert len(big) == 6
    assert sorted(served) == sorted((nwords, "served")
                                    for nwords in big * 2)


@pytest.mark.parametrize("stride", [None, WORD_BYTES, 64])
def test_blt_batched_copy_identical(stride):
    def drive(sc):
        node = sc.ctx.node
        cycles, xfer = node.blt.start_read(sc.ctx.clock, 1, 0x0, 0x6000,
                                           256, stride)
        sc.ctx.charge(cycles)
        sc.ctx.clock = node.blt.wait(sc.ctx.clock, xfer)
        cycles, xfer = node.blt.start_write(sc.ctx.clock, 1, 0x8000, 0x6000,
                                            256, stride)
        sc.ctx.charge(cycles)
        sc.ctx.clock = node.blt.wait(sc.ctx.clock, xfer)

    m_fast, sc_fast = _fresh_sc()
    src = m_fast.node(1).memsys.memory
    for i in range(64):
        src.store(i * WORD_BYTES, 1000.0 + i)
    drive(sc_fast)

    with _reference_paths():
        m_ref, sc_ref = _fresh_sc()
        src = m_ref.node(1).memsys.memory
        for i in range(64):
            src.store(i * WORD_BYTES, 1000.0 + i)
        drive(sc_ref)

    assert (_machine_fingerprint(m_fast, sc_fast)
            == _machine_fingerprint(m_ref, sc_ref))


# ----------------------------------------------------------------------
# Figure 9: the EM3D compute-phase fast path
# ----------------------------------------------------------------------

def test_fig9_em3d_sweep_matches_reference():
    from repro.apps.em3d import driver

    kw = dict(fractions=(0.0, 0.5), nodes_per_pe=30, degree=4,
              shape=(2, 1, 1))
    fast = driver.sweep(**kw)
    with _reference_paths():
        ref = driver.sweep(**kw)
    assert fast == ref


def test_fig9_ghost_fill_fast_path_matches_reference():
    """The inlined ghost-fill loops (reads and puts) must reproduce the
    generic ``read_from``/``put_to`` paths exactly — every version that
    fills ghosts, at a communication-heavy fraction."""
    from repro.apps.em3d import driver

    kw = dict(fractions=(0.2, 0.5),
              versions=("bundle", "unroll", "put", "msg"),
              nodes_per_pe=30, degree=4, shape=(2, 1, 1))
    fast = driver.sweep(**kw)
    with _reference_paths():
        ref = driver.sweep(**kw)
    assert fast == ref


# ----------------------------------------------------------------------
# The one switch governs every fast-path gate
# ----------------------------------------------------------------------

def _spy_fast_paths(monkeypatch) -> dict:
    """Wrap each fast-path entry point in a call counter."""
    import repro.vector.em3d as vector_em3d
    from repro.apps.em3d import kernels

    import repro.vector.bulk as vector_bulk

    calls = {}
    targets = [
        (vector_bulk, "write_stores"),
        (vector_bulk, "read_uncached"),
        (vector_bulk, "read_cached"),
        (vector_bulk, "read_prefetch"),
        (SplitC, "_put_scatter_flat"),
        (kernels, "_ghost_reads_fast"),
        (vector_em3d, "compute_phase"),
        (kernels, "_compute_phase_simple"),
    ]
    for owner, name in targets:
        real = getattr(owner, name)
        calls[name] = 0

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
def test_one_switch_governs_every_gate(monkeypatch, enabled):
    pytest.importorskip("numpy")
    from repro.apps.em3d import VERSIONS, make_graph, run_em3d

    monkeypatch.delenv("REPRO_VECTOR", raising=False)
    monkeypatch.delenv("REPRO_COHORT", raising=False)
    monkeypatch.setattr(fastpath, "ENABLED", enabled)
    calls = _spy_fast_paths(monkeypatch)
    probes.bulk_read_bandwidth_probe(sizes=FIG8_SIZES)
    probes.bulk_write_bandwidth_probe(sizes=FIG8_SIZES[1:])
    graph = make_graph(num_pes=4, nodes_per_pe=16, degree=3,
                       remote_fraction=0.3, seed=2)
    for version in VERSIONS:
        run_em3d(Machine(t3d_machine_params((2, 2, 1))), graph, version,
                 steps=1, warmup_steps=0)
    if enabled:
        assert all(calls.values()), calls
    else:
        assert not any(calls.values()), calls
