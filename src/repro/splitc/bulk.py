"""Bulk transfer: every mechanism, and the dispatch between them
(paper section 6).

Four bulk-read implementations are provided — uncached reads, cached
reads (with the coherence flushes they force), the pipelined prefetch
queue, and the block-transfer engine — plus two bulk-write
implementations (non-blocking stores, BLT).  The public entry points
``bulk_read`` / ``bulk_write`` / ``bulk_get`` / ``bulk_put`` dispatch
on transfer size using the :class:`~repro.splitc.codegen.CodegenPlan`
crossovers, exactly as the Split-C library of section 6.3 does:

* 8 bytes: one uncached read;
* up to ~16 KB: the prefetch pipeline;
* beyond: the BLT, whose 180 microsecond start-up has amortized;
* writes: non-blocking stores at every size;
* non-blocking gets switch to the BLT near 7,900 bytes.

All transfers are word-granularity and contiguous (the compiler lowers
structure assignment to these routines); the BLT path additionally
supports strided gathers, tested separately.

The word loops below are the reference model.  Uncached, prefetch and
cached reads and the store stream of :data:`repro.vector.bulk.MIN_WORDS`
words or more run as whole-transfer array arithmetic
(:mod:`repro.vector.bulk`) when the numpy tier may, with identical
results.
"""

from __future__ import annotations

from repro import vector as _vector
from repro.params import WORD_BYTES
from repro.shell.annex import ReadMode
from repro.simkernel import fastpath
from repro.splitc.gptr import GlobalPtr
from repro.trace import tracer as _trace

__all__ = [
    "bulk_gather",
    "bulk_gather_blt",
    "bulk_gather_prefetch",
    "bulk_read",
    "bulk_read_blt",
    "bulk_read_cached",
    "bulk_read_prefetch",
    "bulk_read_uncached",
    "bulk_write",
    "bulk_write_blt",
    "bulk_write_stores",
    "bulk_get",
    "bulk_put",
]


def _words(nbytes: int) -> int:
    if nbytes <= 0 or nbytes % WORD_BYTES:
        raise ValueError("bulk transfers are whole positive words")
    return nbytes // WORD_BYTES


def _local_copy(sc, dst_offset: int, src_offset: int, nbytes: int) -> None:
    ctx = sc.ctx
    for i in range(_words(nbytes)):
        value = ctx.local_read(src_offset + i * WORD_BYTES)
        ctx.local_write(dst_offset + i * WORD_BYTES, value)
        ctx.charge(ctx.node.alpha.loop_iteration())


# ----------------------------------------------------------------------
# Bulk read mechanisms (Figure 8, left)
# ----------------------------------------------------------------------

def _batched(kernel: str, ctx, pe: int, remote_addr: int, local_addr: int,
             nwords: int, *args) -> bool:
    """Run one whole transfer of at least
    :data:`repro.vector.bulk.MIN_WORDS` words between processor ``pe``
    at ``remote_addr`` and this one at ``local_addr`` on the numpy
    kernel ``repro.vector.bulk.<kernel>`` when the fast paths
    (:data:`repro.simkernel.fastpath.ENABLED`) and the vector tier are
    on and no tracer is attached; False (nothing changed) otherwise,
    or when the kernel declines the transfer."""
    if not fastpath.ENABLED or _trace.TRACE_ENABLED or not _vector.enabled():
        return False
    from repro.vector import bulk as _vector_bulk
    if nwords < _vector_bulk.MIN_WORDS:
        return False
    try:
        getattr(_vector_bulk, kernel)(ctx, pe, remote_addr, local_addr,
                                      nwords, *args)
    except _vector.UnsupportedStimulus:
        return False
    return True


def bulk_read_uncached(sc, dst_offset: int, src: GlobalPtr,
                       nbytes: int) -> None:
    """One blocking uncached read per word (~13 MB/s)."""
    sc._setup_annex(src.pe)
    nwords = _words(nbytes)
    ctx = sc.ctx
    if _batched("read_uncached", ctx, src.pe, src.addr, dst_offset, nwords):
        return
    for i in range(nwords):
        cycles, value = ctx.node.remote.uncached_read(
            ctx.clock, src.pe, src.addr + i * WORD_BYTES)
        ctx.charge(cycles + ctx.node.alpha.loop_iteration())
        ctx.local_write(dst_offset + i * WORD_BYTES, value)


def bulk_read_cached(sc, dst_offset: int, src: GlobalPtr,
                     nbytes: int) -> None:
    """Cached remote reads: a line per fetch, flushed for coherence.

    Each line is flushed after the last word the transfer reads from
    it; transfers at or above the plan's batch threshold batch those
    flushes into one whole-cache flush (the 8 KB inflection of section
    6.2, footnote 3).
    """
    index = sc._setup_annex(src.pe, ReadMode.CACHED)
    batch = nbytes >= sc.plan.batch_flush_threshold
    nwords = _words(nbytes)
    ctx = sc.ctx
    if _batched("read_cached", ctx, src.pe, src.addr, dst_offset, nwords,
                index, batch):
        return
    unit = ctx.node.remote
    line_bytes = ctx.node.params.node.l1.line_bytes
    for i in range(nwords):
        offset = src.addr + i * WORD_BYTES
        full = sc._full_addr(index, offset)
        cycles, value = unit.cached_read(ctx.clock, src.pe, offset, full)
        ctx.charge(cycles + ctx.node.alpha.loop_iteration())
        ctx.local_write(dst_offset + i * WORD_BYTES, value)
        line_done = (i + 1 == nwords
                     or (full + WORD_BYTES) // line_bytes
                     != full // line_bytes)
        if line_done and not batch:
            ctx.charge(unit.invalidate_cached_line(full))
    if batch:
        ctx.charge(unit.flush_all_cached())


def bulk_read_prefetch(sc, dst_offset: int, src: GlobalPtr,
                       nbytes: int) -> None:
    """The pipelined prefetch queue: the paper's mid-range winner.

    Issues fill the 16-entry queue; thereafter each pop frees a slot
    for the next issue, so round trips stay overlapped throughout.
    """
    sc._setup_annex(src.pe)
    nwords = _words(nbytes)
    if _batched("read_prefetch", sc.ctx, src.pe, src.addr, dst_offset,
                nwords):
        return
    pf = sc.ctx.node.prefetch
    issued = 0
    popped = 0
    window = min(pf.depth - pf.outstanding(), nwords)
    while issued < window:
        sc.ctx.charge(pf.issue(sc.ctx.clock, src.pe,
                               src.addr + issued * WORD_BYTES))
        issued += 1
    if pf.needs_barrier_before_pop():
        sc.ctx.memory_barrier()
    while popped < nwords:
        cycles, value = pf.pop(sc.ctx.clock)
        sc.ctx.charge(cycles)
        sc.ctx.local_write(dst_offset + popped * WORD_BYTES, value)
        sc.ctx.charge(sc.ctx.node.alpha.loop_iteration())
        popped += 1
        if issued < nwords:
            sc.ctx.charge(pf.issue(sc.ctx.clock, src.pe,
                                   src.addr + issued * WORD_BYTES))
            issued += 1


def bulk_read_blt(sc, dst_offset: int, src: GlobalPtr, nbytes: int,
                  stride_bytes: int | None = None) -> None:
    """Blocking BLT read: huge start-up, highest streaming rate."""
    sc.ctx.charge(sc.ctx.node.blt.read_blocking(
        sc.ctx.clock, src.pe, src.addr, dst_offset, nbytes, stride_bytes))


# ----------------------------------------------------------------------
# Bulk write mechanisms (Figure 8, right)
# ----------------------------------------------------------------------

def _store_stream(sc, dst: GlobalPtr, src_offset: int, nbytes: int) -> None:
    """The non-blocking store loop of :func:`bulk_write_stores` and
    :func:`bulk_put`: read each local word, store it remotely.  No
    memory barrier or acknowledgement wait."""
    index = sc._setup_annex(dst.pe)
    nwords = _words(nbytes)
    ctx = sc.ctx
    if _batched("write_stores", ctx, dst.pe, dst.addr, src_offset, nwords,
                index):
        return
    unit = ctx.node.remote
    bus = unit.params.bus_interference_cycles
    for i in range(nwords):
        read_cycles, value = ctx.node.memsys.read(
            ctx.clock, src_offset + i * WORD_BYTES)
        ctx.charge(read_cycles)
        if read_cycles > 2.0:      # source missed the cache
            ctx.charge(bus)
        offset = dst.addr + i * WORD_BYTES
        full = sc._full_addr(index, offset)
        ctx.charge(unit.store(ctx.clock, dst.pe, offset, value, full))
        ctx.charge(ctx.node.alpha.loop_iteration())


def bulk_write_stores(sc, dst: GlobalPtr, src_offset: int,
                      nbytes: int) -> None:
    """Non-blocking stores: read each local word, store it remotely.

    Contiguous stores merge into line-sized packets; when the source
    streams from memory the line fills contend with packet injection
    on the node bus, capping bandwidth near the measured 90 MB/s.
    The routine waits for all acknowledgements before returning.
    """
    _store_stream(sc, dst, src_offset, nbytes)
    sc.ctx.memory_barrier()
    sc.ctx.clock = sc.ctx.node.remote.wait_for_acks(sc.ctx.clock)


def bulk_write_blt(sc, dst: GlobalPtr, src_offset: int, nbytes: int,
                   stride_bytes: int | None = None) -> None:
    """Blocking BLT write (loses to stores at every size, section 6.2)."""
    sc.ctx.charge(sc.ctx.node.blt.write_blocking(
        sc.ctx.clock, dst.pe, dst.addr, src_offset, nbytes, stride_bytes))


# ----------------------------------------------------------------------
# Strided gathers (the BLT's strided-DMA capability, section 6.2)
# ----------------------------------------------------------------------

def bulk_gather_prefetch(sc, dst_offset: int, src: GlobalPtr,
                         nelems: int, stride_bytes: int) -> None:
    """Gather ``nelems`` strided remote words through the prefetch
    pipe.  Large strides pay the remote DRAM off-page penalty on every
    element — the cost the BLT's strided mode amortizes differently."""
    if nelems <= 0:
        raise ValueError("gather needs at least one element")
    sc._setup_annex(src.pe)
    pf = sc.ctx.node.prefetch
    issued = popped = 0
    window = min(pf.depth - pf.outstanding(), nelems)
    while issued < window:
        sc.ctx.charge(pf.issue(sc.ctx.clock, src.pe,
                               src.addr + issued * stride_bytes))
        issued += 1
    if pf.needs_barrier_before_pop():
        sc.ctx.memory_barrier()
    while popped < nelems:
        cycles, value = pf.pop(sc.ctx.clock)
        sc.ctx.charge(cycles)
        sc.ctx.local_write(dst_offset + popped * WORD_BYTES, value)
        sc.ctx.charge(sc.ctx.node.alpha.loop_iteration())
        popped += 1
        if issued < nelems:
            sc.ctx.charge(pf.issue(sc.ctx.clock, src.pe,
                                   src.addr + issued * stride_bytes))
            issued += 1


def bulk_gather_blt(sc, dst_offset: int, src: GlobalPtr,
                    nelems: int, stride_bytes: int) -> None:
    """Gather via the BLT's strided mode: the OS start-up plus a
    stride-setup surcharge, then the streaming rate."""
    sc.ctx.charge(sc.ctx.node.blt.read_blocking(
        sc.ctx.clock, src.pe, src.addr, dst_offset,
        nelems * WORD_BYTES, stride_bytes))


def bulk_gather(sc, dst_offset: int, src: GlobalPtr, nelems: int,
                stride_bytes: int) -> None:
    """Strided gather with the measured dispatch.

    The payload (``nelems`` words) decides: below the plan's BLT
    crossover the prefetch pipe wins despite paying per-element DRAM
    penalties; above it the BLT's strided DMA amortizes its start-up.
    Contiguous gathers fall back to the plain bulk read dispatch.
    """
    if stride_bytes == WORD_BYTES:
        bulk_read(sc, dst_offset, src, nelems * WORD_BYTES)
        return
    if src.is_local_to(sc.my_pe):
        for i in range(nelems):
            value = sc.ctx.local_read(src.addr + i * stride_bytes)
            sc.ctx.local_write(dst_offset + i * WORD_BYTES, value)
            sc.ctx.charge(sc.ctx.node.alpha.loop_iteration())
        return
    if nelems * WORD_BYTES >= sc.plan.bulk_read_blt_threshold:
        bulk_gather_blt(sc, dst_offset, src, nelems, stride_bytes)
    else:
        bulk_gather_prefetch(sc, dst_offset, src, nelems, stride_bytes)


# ----------------------------------------------------------------------
# Dispatching entry points (section 6.3)
# ----------------------------------------------------------------------

def bulk_read(sc, dst_offset: int, src: GlobalPtr, nbytes: int) -> None:
    """Blocking bulk read with the paper's size dispatch."""
    if src.is_local_to(sc.my_pe):
        _local_copy(sc, dst_offset, src.addr, nbytes)
    elif nbytes <= sc.plan.bulk_read_single_limit:
        bulk_read_uncached(sc, dst_offset, src, nbytes)
    elif nbytes >= sc.plan.bulk_read_blt_threshold:
        bulk_read_blt(sc, dst_offset, src, nbytes)
    else:
        bulk_read_prefetch(sc, dst_offset, src, nbytes)


def bulk_write(sc, dst: GlobalPtr, src_offset: int, nbytes: int) -> None:
    """Blocking bulk write: non-blocking stores at every size."""
    if dst.is_local_to(sc.my_pe):
        _local_copy(sc, dst.addr, src_offset, nbytes)
    elif (sc.plan.bulk_write_blt_threshold is not None
          and nbytes >= sc.plan.bulk_write_blt_threshold):
        bulk_write_blt(sc, dst, src_offset, nbytes)
    else:
        bulk_write_stores(sc, dst, src_offset, nbytes)


def bulk_get(sc, dst_offset: int, src: GlobalPtr, nbytes: int) -> None:
    """Split-phase bulk read; completion at the next ``sync``.

    Below the ~7,900-byte crossover the prefetch pipeline is used (its
    16-request window makes deferred completion worthless, so it runs
    to completion immediately, section 6.3); above it, the BLT is
    started non-blocking and ``sync`` awaits it.
    """
    if src.is_local_to(sc.my_pe):
        _local_copy(sc, dst_offset, src.addr, nbytes)
    elif nbytes < sc.plan.bulk_get_blt_threshold:
        bulk_read_prefetch(sc, dst_offset, src, nbytes)
    else:
        initiate, transfer = sc.ctx.node.blt.start_read(
            sc.ctx.clock, src.pe, src.addr, dst_offset, nbytes)
        sc.ctx.charge(initiate)
        sc._pending_blt.append(transfer)


def bulk_put(sc, dst: GlobalPtr, src_offset: int, nbytes: int) -> None:
    """Split-phase bulk write; completion at the next ``sync``.

    Non-blocking stores are already split-phase (the acknowledgement
    wait moves into ``sync``); very large puts use the non-blocking
    BLT for the same reason as bulk_get.
    """
    if dst.is_local_to(sc.my_pe):
        _local_copy(sc, dst.addr, src_offset, nbytes)
        return
    if nbytes >= sc.plan.bulk_get_blt_threshold:
        initiate, transfer = sc.ctx.node.blt.start_write(
            sc.ctx.clock, dst.pe, dst.addr, src_offset, nbytes)
        sc.ctx.charge(initiate)
        sc._pending_blt.append(transfer)
        return
    _store_stream(sc, dst, src_offset, nbytes)
