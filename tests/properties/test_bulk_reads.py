"""Batched bulk reads ≡ the reference word loops, as a property.

``repro.vector.bulk`` computes a whole uncached, prefetch or cached bulk
read from the unit batch methods.  Hypothesis draws the mechanism, the
source and destination offsets (line-aligned or not), the size —
including cached transfers past the whole-cache-flush threshold and
destinations that cross a 16 KB DRAM page — and a warm pre-state built
from ordinary operations: local reads and writes (L1 tags, open rows,
pending write-buffer entries), remote uncached and cached reads (target
rows, resident remote lines and their snapshots), remote stores,
prefetches left in the queue, clock advances, a machine settle, and a
store just before the destination, whose line the transfer continues.

Each example runs the batch kernel on one twin and the reference loop
on the other: clocks, counters, unit state and every memory word with
its type must match.  A kernel that declines must leave the machine
exactly as it found it.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from hypothesis import event, example, given, settings, strategies as st

from repro.machine.machine import Machine
from repro.params import WORD_BYTES, t3d_machine_params
from repro.shell.annex import ReadMode
from repro.simkernel import fastpath
from repro.splitc import bulk
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC
from repro.vector import UnsupportedStimulus
from repro.vector import bulk as vector_bulk
from tests.test_fastpath_equivalence import _machine_fingerprint

DST = 0x4000 - 64 * WORD_BYTES   # destinations near a 16 KB page edge

#: Warm-up operations; the ones that make every kernel decline (a
#: remote store in the buffer, a prefetch left in the queue) are drawn
#: less often than the ones that only warm the units.
warm_op = st.tuples(
    st.sampled_from(["local_read", "local_write", "uncached_read",
                     "cached_read", "tick", "settle", "before_dst"] * 3
                    + ["put", "prefetch"]),
    st.integers(0, 160))


def _machine(warm, dst):
    machine = Machine(t3d_machine_params((2, 1, 1)))
    sc = SplitC(machine.make_contexts()[0])
    for pe in range(2):
        memory = machine.node(pe).memsys.memory
        for i in range(0, 160, 3):
            memory.store(i * WORD_BYTES, float(i) if i % 2 else i)
    ctx = sc.ctx
    node = ctx.node
    for kind, arg in warm:
        addr = arg * WORD_BYTES
        if kind == "local_read":
            ctx.local_read(DST + addr)
        elif kind == "local_write":
            ctx.local_write(DST + addr, arg + 0.5)
        elif kind == "before_dst":
            # The transfer then continues this store's line.
            ctx.local_write(dst - WORD_BYTES * (1 + arg % 4), arg)
        elif kind == "uncached_read":
            sc.read(GlobalPtr(1, addr))
        elif kind == "cached_read":
            index = sc._setup_annex(1, ReadMode.CACHED)
            cycles, _ = node.remote.cached_read(
                ctx.clock, 1, addr, sc._full_addr(index, addr))
            ctx.charge(cycles)
        elif kind == "put":
            sc.put(GlobalPtr(1, 0x8000 + addr), arg)
        elif kind == "prefetch":
            if node.prefetch.outstanding() < node.prefetch.depth:
                ctx.charge(node.prefetch.issue(ctx.clock, 1, addr))
        elif kind == "tick":
            ctx.charge(arg * 2.5)
        else:
            machine.settle()
    return machine, sc


@settings(max_examples=150, deadline=None)
@given(mechanism=st.sampled_from(["uncached", "prefetch", "cached"]),
       src_word=st.integers(0, 160),
       dst_word=st.integers(0, 80),
       nwords=st.one_of(st.integers(1, 6), st.integers(1, 90),
                        st.integers(1020, 1090)),
       warm=st.lists(warm_op, max_size=8))
# A small prefetch group's memory barrier drains the store the
# transfer would otherwise continue.
@example(mechanism="prefetch", src_word=0, dst_word=3, nwords=2,
         warm=[("before_dst", 0)])
def test_batched_bulk_read_matches_reference(mechanism, src_word, dst_word,
                                             nwords, warm):
    src = GlobalPtr(1, src_word * WORD_BYTES)
    dst = DST + dst_word * WORD_BYTES
    nbytes = nwords * WORD_BYTES

    batch, sc = _machine(warm, dst)
    mode = ReadMode.CACHED if mechanism == "cached" else ReadMode.UNCACHED
    index = sc._setup_annex(1, mode)
    extra = ((index, nbytes >= sc.plan.batch_flush_threshold)
             if mechanism == "cached" else ())
    before = _machine_fingerprint(batch, sc)
    try:
        getattr(vector_bulk, "read_" + mechanism)(
            sc.ctx, 1, src.addr, dst, nwords, *extra)
    except UnsupportedStimulus as why:
        event(f"declined: {why}")
        assert _machine_fingerprint(batch, sc) == before
        return
    event(f"batch {mechanism}, {'over' if nwords > 1000 else 'under'} "
          "1000 words")

    saved = fastpath.ENABLED
    fastpath.ENABLED = False
    try:
        reference, ref_sc = _machine(warm, dst)
        getattr(bulk, "bulk_read_" + mechanism)(ref_sc, dst, src, nbytes)
    finally:
        fastpath.ENABLED = saved
    assert (_machine_fingerprint(batch, sc)
            == _machine_fingerprint(reference, ref_sc))
