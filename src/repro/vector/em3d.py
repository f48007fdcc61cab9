"""The EM3D compute phase as whole-phase array arithmetic.

One processor's compute phase (``repro.apps.em3d.kernels``) walks its
adjacency array: per edge it loads the neighbour reference, the
weight and the neighbour value, then charges a flop pair and the loop
overhead; per node it stores the accumulated value.  Every load and
store address is known before the phase starts — the references sit in
the adjacency array and the outputs are consecutive — so the clock
stream depends on addresses only and follows from the unit kernels in
closed form:

1. The loads, in program order, run through the direct-mapped L1
   kernel starting from the live tags (:meth:`Cache.access_fill_batch`).
2. The L1 misses and each node's output-store drain merge, in program
   order, into one DRAM stream starting from the live open rows
   (:meth:`Dram.access_batch`).
3. The clock is one ``np.cumsum`` over the per-operation increments
   laid out in the reference loop's exact order (load, load, load, flop,
   overhead, ..., store issue); cumulative sums add strictly left to
   right, so every partial clock carries the reference loop's bits.
4. The write buffer is a self-consistency check
   (:meth:`WriteBuffer.isolated_run_retires`): if every output store
   lands on its own line and each entry retires before the next store
   issues, no store merges or stalls and each retire time is closed
   form.  Entries pending before the phase must retire by the first
   output store and share no line with an output; they are flushed up
   front, which changes nothing observable — their ``on_retire``
   callbacks read ``entry.retire_time`` rather than the flush time,
   and no other processor runs during the phase.
5. Neighbour values come from one segment gather
   (:meth:`WordMemory.gather_floats`), with the words of entries
   pending before the phase patched in (the reference loop sees them by
   forwarding or after their commit — the same value).  ``acc`` is a
   zeros array accumulated one degree column at a time, in edge
   order, so each node's sum adds in the reference loop's order.

Anything outside these conditions raises
:class:`~repro.vector.UnsupportedStimulus` before any unit changes;
the caller then runs the reference loop.  Long phases are processed in
chunks of nodes carrying the unit state forward, bounding the
transient arrays; the units are committed once, at the end.
"""

from __future__ import annotations

import numpy as np

from repro.node.write_buffer import PendingWrite
from repro.params import LOCAL_ADDR_MASK, WORD_BYTES
from repro.vector import UnsupportedStimulus

__all__ = ["compute_phase"]

#: Edges per chunk.  Bounds the transient arrays to about 1 MB each;
#: on the 65536-node capacity point 8K-edge chunks also ran faster than
#: 64K-edge ones (0.19 s vs 0.32 s; the arrays stay cache-resident).
CHUNK_EDGES = 1 << 13


def _pending_words(pending, reads: np.ndarray, adj_lo: int, adj_hi: int):
    """Words of the already-pending entries as ``{word: value}``
    patches for the value gather, youngest last.

    A plain (Annex-free), word-aligned, committing key holding a float
    reads the same before and after its entry retires (forwarded, then
    committed).  Any other key — a remote store, a synonym, an
    unaligned or non-float word — reads differently before and after
    the flush, so the phase must not read it; nor may any entry land
    in the adjacency array, which the loop reads from memory directly.
    """
    patches = {}
    forbidden = []
    for entry in pending:
        for key, value in entry.words.items():
            local = key & LOCAL_ADDR_MASK
            word = local - local % WORD_BYTES
            if entry.apply_words and adj_lo <= word < adj_hi:
                raise UnsupportedStimulus("write buffer holds an "
                                          "adjacency word")
            if entry.apply_words and key == word and type(value) is float:
                patches[key] = value
            else:
                forbidden += (key - key % WORD_BYTES, word)
    if forbidden and _matches(reads, forbidden).any():
        raise UnsupportedStimulus("phase reads a word held by the write "
                                  "buffer")
    return patches


def _matches(reads: np.ndarray, words) -> np.ndarray:
    """Where ``reads`` hits one of a handful of ``words`` (at most the
    buffer's few entries' words, so a compare per word beats
    ``np.isin``'s sort)."""
    hit = np.zeros(len(reads), dtype=bool)
    for word in words:
        hit |= reads == word
    return hit


def compute_phase(ctx, n: int, degree: int, adj_base: int, out_base: int,
                  per_edge_overhead: float, value_bytes: int) -> None:
    """Run one processor's local compute phase (every version but
    "simple"): identical clocks, values, unit state and counters to
    the reference loop, or :class:`UnsupportedStimulus` with nothing
    changed."""
    memsys = ctx.node.memsys
    if memsys.l2 is not None or not memsys.params.tlb.never_misses:
        raise UnsupportedStimulus("not the T3D node shape")
    if n < 1 or degree < 1:
        raise UnsupportedStimulus("empty phase")
    l1 = memsys.l1
    dram = memsys.dram
    wb = memsys.write_buffer
    mem = memsys.memory
    nedges = n * degree
    estep = 2 * WORD_BYTES
    refs_run = mem.typed_run(adj_base, estep, nedges, "i8")
    weights_run = mem.typed_run(adj_base + WORD_BYTES, estep, nedges, "f8")
    out_run = mem.typed_run(out_base, value_bytes, n, "f8")
    if refs_run is None or weights_run is None or out_run is None:
        raise UnsupportedStimulus("adjacency or outputs not in segments")
    rseg, r0 = refs_run
    wseg, w0 = weights_run
    if not (rseg.all_plain(r0, nedges) and wseg.all_plain(w0, nedges)):
        raise UnsupportedStimulus("adjacency has unwritten or "
                                  "overridden words")
    refs = rseg.np_view()[r0:r0 + nedges]
    weights = wseg.np_view()[w0:w0 + nedges]
    if (int(refs.min()) < 0 or int(refs.max()) > LOCAL_ADDR_MASK
            or (refs % WORD_BYTES).any()):
        raise UnsupportedStimulus("value reference not a plain local word")
    out_end = out_base + n * value_bytes
    if out_end > LOCAL_ADDR_MASK:
        raise UnsupportedStimulus("outputs not plain local words")
    if ((refs >= out_base) & (refs < out_end)).any():
        raise UnsupportedStimulus("phase reads its own outputs")
    out_addrs = out_base + value_bytes * np.arange(n, dtype=np.int64)
    out_lines = out_addrs - out_addrs % wb.line_bytes
    pending = wb.pending_entries
    if wb.params.merging:
        if (out_lines[1:] == out_lines[:-1]).any():
            raise UnsupportedStimulus("output stores merge")
        lo, hi = int(out_lines[0]), int(out_lines[-1])
        if any(lo <= entry.line_addr <= hi for entry in pending):
            raise UnsupportedStimulus("pending entry shares an output line")
    patches = _pending_words(pending, refs, adj_base,
                             adj_base + nedges * estep)
    ready = max((entry.retire_time for entry in pending),
                default=float("-inf"))

    hit_cycles = memsys.params.l1.hit_cycles
    flop = ctx.node.alpha.flop_pair()
    issue = wb.params.issue_cycles
    tags = l1.tag_array()
    rows = dram.row_state()
    clock = ctx.clock
    last_retire = None
    l1_hits = dram_n = dram_rm = dram_cf = 0
    acc = np.empty(n, dtype=np.float64)
    loads_per_node = 3 * degree
    steps_per_node = 5 * degree + 1
    chunk = max(1, CHUNK_EDGES // degree)
    for c0 in range(0, n, chunk):
        c1 = min(n, c0 + chunk)
        m = c1 - c0
        e0, e1 = c0 * degree, c1 * degree
        # Loads in program order: reference, weight, value per edge.
        loads = np.empty((e1 - e0, 3), dtype=np.int64)
        loads[:, 0] = adj_base + estep * np.arange(e0, e1, dtype=np.int64)
        loads[:, 1] = loads[:, 0] + WORD_BYTES
        loads[:, 2] = refs[e0:e1]
        loads = loads.reshape(m, loads_per_node)
        hits, tags = l1.access_fill_batch(loads.ravel(), tags)
        l1_hits += int(hits.sum())
        # One DRAM stream: each node's load misses, then its store drain.
        events = np.empty((m, loads_per_node + 1), dtype=np.int64)
        events[:, :-1] = loads
        events[:, -1] = out_lines[c0:c1]
        to_dram = np.empty(events.shape, dtype=bool)
        to_dram[:, :-1] = ~hits.reshape(m, loads_per_node)
        to_dram[:, -1] = True
        stream = dram.access_batch(events[to_dram], rows)
        rows = (stream.open_row, stream.last_bank)
        dram_n += len(stream.costs)
        dram_rm += stream.row_misses
        dram_cf += stream.same_bank_conflicts
        cost = np.full(events.shape, hit_cycles, dtype=np.float64)
        cost[to_dram] = stream.costs
        # Clock increments in the reference loop's order, then one running sum.
        per_edge = np.empty((m, degree, 5), dtype=np.float64)
        per_edge[:, :, :3] = cost[:, :-1].reshape(m, degree, 3)
        per_edge[:, :, 3] = flop
        per_edge[:, :, 4] = per_edge_overhead
        steps = np.empty((m, steps_per_node), dtype=np.float64)
        steps[:, :-1] = per_edge.reshape(m, 5 * degree)
        steps[:, -1] = issue
        clocks = np.cumsum(np.concatenate(([clock], steps.ravel())))
        starts = clocks[steps_per_node - 1::steps_per_node]
        clock = float(clocks[-1])
        if last_retire is None:
            first_start = float(starts[0])
            retires = wb.isolated_run_retires(starts, cost[:, -1],
                                              ready=ready)
        else:
            retires = wb.isolated_run_retires(starts, cost[:, -1],
                                              last_retire, last_retire)
        last_retire = float(retires[-1])
        last_start = float(starts[-1])
        # Values: one gather, pending words patched in, edge-order sum.
        reads = refs[e0:e1]
        held = _matches(reads, patches) if patches else None
        if held is not None and not held.any():
            held = None
        values = mem.gather_floats(reads, skip=held)
        if values is None:
            raise UnsupportedStimulus("neighbour value not a plain float "
                                      "segment word")
        if held is not None:
            for word, value in patches.items():
                values[reads == word] = value
        # Python float arithmetic overflows to inf/nan silently; so
        # does this, minus numpy's warning.
        with np.errstate(over="ignore", invalid="ignore"):
            products = (weights[e0:e1] * values).reshape(m, degree)
            total = np.zeros(m, dtype=np.float64)
            for d in range(degree):
                total += products[:, d]
        acc[c0:c1] = total

    # Every check passed: commit, in the reference loop's order of effects.
    wb.flush_retired(first_start)
    out_seg, out_i = out_run
    out_seg.write_floats(out_i, acc[:-1])
    wb.append_isolated_run(n - 1, PendingWrite(
        int(out_lines[-1]), last_start, last_retire,
        {int(out_addrs[-1]): float(acc[-1])}))
    nloads = nedges * 3
    l1.commit_batch(tags, l1_hits, nloads - l1_hits)
    dram.commit_batch(rows[0], rows[1], accesses=dram_n,
                      row_misses=dram_rm, same_bank_conflicts=dram_cf)
    ctx.clock = clock
