"""Integration tests for bulk transfer (paper section 6, Figure 8)."""

import pytest

from repro.machine.machine import Machine
from repro.params import mb_per_s, t3d_machine_params
from repro.splitc import bulk
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC

KB = 1024


@pytest.fixture
def machine():
    return Machine(t3d_machine_params((2, 1, 1)))


def make_sc(machine, pe=0):
    return SplitC(machine.make_contexts()[pe])


def fill_remote(machine, base, nwords, pe=1):
    mem = machine.node(pe).memsys.memory
    for i in range(nwords):
        mem.store(base + i * 8, 1000 + i)


def measure(fn):
    """Run a transfer on a fresh clock; return elapsed cycles."""
    def timed(sc, *args):
        before = sc.ctx.clock
        fn(sc, *args)
        return sc.ctx.clock - before
    return timed


def bw(mech, nbytes, src_base=0x10000, dst_base=0x80000, fill_words=0):
    """Bandwidth of one mechanism on a *fresh* machine (clocks at 0)."""
    machine = Machine(t3d_machine_params((2, 1, 1)))
    if fill_words:
        fill_remote(machine, src_base, fill_words)
    sc = make_sc(machine)
    before = sc.ctx.clock
    mech(sc, dst_base, GlobalPtr(1, src_base), nbytes)
    return mb_per_s(nbytes, sc.ctx.clock - before)


def test_all_read_mechanisms_move_the_data(machine):
    fill_remote(machine, 0x10000, 16)
    expected = [1000 + i for i in range(16)]
    mechs = [bulk.bulk_read_uncached, bulk.bulk_read_cached,
             bulk.bulk_read_prefetch, bulk.bulk_read_blt]
    for k, mech in enumerate(mechs):
        sc = make_sc(machine)
        dst = 0x80000 + k * 0x1000
        mech(sc, dst, GlobalPtr(1, 0x10000), 128)
        sc.ctx.memory_barrier()
        assert sc.ctx.node.memsys.memory.load_range(dst, 16) == expected


def test_uncached_bulk_is_slow_flat(machine):
    rate = bw(bulk.bulk_read_uncached, 1 * KB)
    assert 10.0 < rate < 16.0               # ~13 MB/s


def test_prefetch_beats_cached_and_uncached_midrange(machine):
    rates = {}
    for name, mech in [("uncached", bulk.bulk_read_uncached),
                       ("cached", bulk.bulk_read_cached),
                       ("prefetch", bulk.bulk_read_prefetch)]:
        rates[name] = bw(mech, 4 * KB, fill_words=512)
    assert rates["prefetch"] > rates["cached"] > rates["uncached"]


def test_cached_wins_at_one_line(machine):
    """At 32 bytes a cached read brings the whole line at once
    (section 6.2)."""
    cached = bw(bulk.bulk_read_cached, 32, fill_words=8)
    prefetch = bw(bulk.bulk_read_prefetch, 32, fill_words=8)
    assert cached > prefetch


def test_uncached_wins_at_one_word(machine):
    uncached = bw(bulk.bulk_read_uncached, 8)
    prefetch = bw(bulk.bulk_read_prefetch, 8)
    cached = bw(bulk.bulk_read_cached, 8)
    assert uncached > prefetch
    assert uncached > cached


def test_blt_wins_beyond_16kb(machine):
    blt = bw(bulk.bulk_read_blt, 64 * KB)
    prefetch = bw(bulk.bulk_read_prefetch, 64 * KB)
    assert blt > prefetch
    # And loses below the crossover.
    blt_small = bw(bulk.bulk_read_blt, 4 * KB)
    prefetch_small = bw(bulk.bulk_read_prefetch, 4 * KB)
    assert prefetch_small > blt_small


def test_blt_peak_bandwidth_140(machine):
    rate = bw(bulk.bulk_read_blt, 1024 * KB)
    assert rate == pytest.approx(140.0, rel=0.06)


def test_cached_batch_flush_inflection(machine):
    """Per-byte cost of cached bulk reads drops at the 8 KB batch-flush
    threshold (section 6.2, footnote 3)."""
    small = bw(bulk.bulk_read_cached, 4 * KB, fill_words=2048)
    large = bw(bulk.bulk_read_cached, 16 * KB, fill_words=2048)
    assert large > small


def test_dispatch_follows_plan(machine):
    sc = make_sc(machine)
    fill_remote(machine, 0x10000, 4096)
    # 8 bytes -> uncached (1 read, no prefetch traffic).
    sc.bulk_read(0x80000, GlobalPtr(1, 0x10000), 8)
    assert sc.ctx.node.prefetch.issues == 0
    assert sc.ctx.node.remote.reads == 1
    # 1 KB -> prefetch.
    sc.bulk_read(0x81000, GlobalPtr(1, 0x10000), 1 * KB)
    assert sc.ctx.node.prefetch.issues == 128
    # 32 KB -> BLT.
    sc.bulk_read(0x90000, GlobalPtr(1, 0x10000), 32 * KB)
    assert sc.ctx.node.blt.transfers_started == 1


def test_write_stores_beat_blt_everywhere(machine):
    for nbytes in (256, 4 * KB, 64 * KB):
        sc1 = make_sc(Machine(t3d_machine_params((2, 1, 1))))
        before = sc1.ctx.clock
        bulk.bulk_write_stores(sc1, GlobalPtr(1, 0x40000), 0x10000, nbytes)
        stores_cost = sc1.ctx.clock - before

        sc2 = make_sc(Machine(t3d_machine_params((2, 1, 1))))
        before = sc2.ctx.clock
        bulk.bulk_write_blt(sc2, GlobalPtr(1, 0x40000), 0x10000, nbytes)
        blt_cost = sc2.ctx.clock - before
        assert stores_cost < blt_cost, nbytes


def test_write_bandwidth_from_memory_near_90(machine):
    sc = make_sc(machine)
    nbytes = 256 * KB
    before = sc.ctx.clock
    bulk.bulk_write_stores(sc, GlobalPtr(1, 0x100000), 0x10000, nbytes)
    rate = mb_per_s(nbytes, sc.ctx.clock - before)
    assert rate == pytest.approx(90.0, rel=0.15)


def test_write_faster_when_source_cached(machine):
    sc = make_sc(machine)
    # Warm the source into cache (8 KB fits).
    for i in range(512):
        sc.ctx.local_read(0x10000 + i * 8)
    before = sc.ctx.clock
    bulk.bulk_write_stores(sc, GlobalPtr(1, 0x100000), 0x10000, 4 * KB)
    cached_rate = mb_per_s(4 * KB, sc.ctx.clock - before)

    sc2 = make_sc(Machine(t3d_machine_params((2, 1, 1))))
    before = sc2.ctx.clock
    bulk.bulk_write_stores(sc2, GlobalPtr(1, 0x100000), 0x10000, 4 * KB)
    uncached_rate = mb_per_s(4 * KB, sc2.ctx.clock - before)
    assert cached_rate > uncached_rate


def test_bulk_write_delivers_data(machine):
    sc = make_sc(machine)
    for i in range(16):
        sc.ctx.node.memsys.memory.store(0x10000 + i * 8, i * i)
    sc.bulk_write(GlobalPtr(1, 0x50000), 0x10000, 128)
    assert machine.node(1).memsys.memory.load_range(0x50000, 16) == [
        i * i for i in range(16)]


def test_bulk_get_small_uses_prefetch_large_uses_blt(machine):
    sc = make_sc(machine)
    fill_remote(machine, 0x10000, 4096)
    sc.bulk_get(0x80000, GlobalPtr(1, 0x10000), 1 * KB)
    assert sc.ctx.node.blt.transfers_started == 0
    sc.bulk_get(0x90000, GlobalPtr(1, 0x10000), 16 * KB)
    assert sc.ctx.node.blt.transfers_started == 1
    assert len(sc._pending_blt) == 1
    sc.sync()
    assert not sc._pending_blt


def test_bulk_get_blt_overlaps_computation(machine):
    """Initiation charges only the OS call; sync absorbs the flight."""
    sc = make_sc(machine)
    before = sc.ctx.clock
    sc.bulk_get(0x80000, GlobalPtr(1, 0x10000), 64 * KB)
    initiate_cost = sc.ctx.clock - before
    assert initiate_cost == pytest.approx(27_000.0, rel=0.01)
    sc.ctx.charge(100_000.0)               # plenty of local work
    before = sc.ctx.clock
    sc.sync()
    assert sc.ctx.clock - before < 100.0   # transfer long since done


def test_bulk_put_delivers_at_sync(machine):
    sc = make_sc(machine)
    for i in range(4):
        sc.ctx.node.memsys.memory.store(0x10000 + i * 8, f"p{i}")
    sc.bulk_put(GlobalPtr(1, 0x60000), 0x10000, 32)
    sc.sync()
    assert machine.node(1).memsys.memory.load_range(0x60000, 4) == [
        "p0", "p1", "p2", "p3"]


def test_local_bulk_is_plain_copy(machine):
    sc = make_sc(machine)
    for i in range(8):
        sc.ctx.node.memsys.memory.store(0x10000 + i * 8, i)
    sc.bulk_read(0x20000, GlobalPtr(0, 0x10000), 64)
    sc.ctx.memory_barrier()
    assert sc.ctx.node.memsys.memory.load_range(0x20000, 8) == list(range(8))
    assert sc.ctx.node.remote.reads == 0


def test_partial_word_rejected(machine):
    sc = make_sc(machine)
    with pytest.raises(ValueError):
        sc.bulk_read(0x20000, GlobalPtr(1, 0), 12)


@pytest.mark.parametrize("fast", [True, False], ids=["batch", "reference"])
@pytest.mark.parametrize("nbytes", [64, 512])
@pytest.mark.parametrize("src_offset", [0, 8, 16, 24])
def test_cached_read_fetches_each_line_once(monkeypatch, fast, nbytes,
                                            src_offset):
    """The per-line flush follows the source's lines, not the loop
    index: an unaligned 64-byte transfer touching three lines fetches
    three, not four (section 6.2).  512 bytes is long enough for the
    batch path."""
    from repro.simkernel import fastpath

    monkeypatch.setattr(fastpath, "ENABLED", fast)
    machine = Machine(t3d_machine_params((2, 1, 1)))
    nwords = nbytes // 8
    fill_remote(machine, 0, nwords + 4)
    sc = make_sc(machine)
    bulk.bulk_read_cached(sc, 0x80000, GlobalPtr(1, src_offset), nbytes)
    line = machine.node(0).params.node.l1.line_bytes
    lines = len({a // line
                 for a in range(src_offset, src_offset + nbytes, 8)})
    assert sc.ctx.node.remote.cached_reads == lines
    assert sc.ctx.node.memsys.l1.misses == lines
    sc.ctx.memory_barrier()
    assert (sc.ctx.node.memsys.memory.load_range(0x80000, nwords)
            == [1000 + src_offset // 8 + i for i in range(nwords)])
