"""The six EM3D versions of Figure 9.

Every version runs the same leapfrog and is verified against the
sequential reference; they differ only in how remote neighbor values
reach the compute loop:

* **simple** — a blocking Split-C read per edge, duplicates re-read;
* **bundle** — ghost nodes filled with one blocking read per distinct
  remote value, then a pure-local compute phase;
* **unroll** — bundle with the compute loop unrolled and software-
  pipelined (lower per-edge loop/address overhead);
* **get** — ghost fill pipelined through split-phase gets;
* **put** — the *owners* push values into consumers' ghosts with puts,
  cheaper per element than gets (no target-table or pop);
* **bulk** — owners gather per-consumer buffers, consumers fetch them
  with one bulk transfer per source, avoiding per-element Annex
  set-ups entirely;
* **msg** — the message-driven style section 7 motivates: owners push
  with one-way stores and each consumer proceeds the moment *its* ghost
  bytes have arrived (region-scoped ``store_sync``), with only one
  barrier per whole step instead of per phase.

The compute phase walks a real adjacency array resident in simulated
memory — two words (value address, weight) per edge — so its cost
includes the cache misses of streaming a >8 KB structure, which is
what makes the paper's all-local 0.37 microseconds/edge come out of
the model rather than being pasted in.
"""

from __future__ import annotations

from array import array as _array
from dataclasses import dataclass

from repro import vector as _vector
from repro.apps.em3d.graph import Em3dGraph, initial_values
from repro.params import CYCLE_NS, LINE_BYTES, LOCAL_ADDR_MASK, WORD_BYTES
from repro.splitc.gptr import ADDR_MASK as GPTR_ADDR_MASK
from repro.splitc.gptr import PE_SHIFT as GPTR_PE_SHIFT
from repro.splitc.gptr import GlobalPtr
from repro.node.write_buffer import PendingWrite
from repro.simkernel import fastpath
from repro.splitc.runtime import run_splitc
from repro.trace import tracer as _trace

__all__ = ["Em3dResult", "Layout", "VERSIONS", "compute_phase", "run_em3d"]

VERSIONS = ("simple", "bundle", "unroll", "get", "put", "bulk", "msg")

#: Field values live embedded in 32-byte node structures (as in the
#: real EM3D's linked graph), so neighbor-value loads are scattered —
#: one value per cache line.  The bulk version's ghosts are the dense
#: landing buffer of its gathered transfer, a locality bonus on top of
#: the Annex savings.
VALUE_BYTES = LINE_BYTES

#: Versions whose compute loop is unrolled/software-pipelined.
_OPTIMIZED_COMPUTE = {"unroll", "get", "put", "bulk", "msg"}


@dataclass(frozen=True)
class Layout:
    """Symmetric memory offsets shared by all processors."""

    e_vals: int
    h_vals: int
    e_ghosts: int          # ghosts of H values (for the E update)
    h_ghosts: int          # ghosts of E values (for the H update)
    e_adj: int
    h_adj: int
    gather: int            # per-consumer gather buffers (bulk version)
    gather_pair_words: int


@dataclass
class Em3dResult:
    """Outcome of one EM3D run."""

    version: str
    us_per_edge: float
    cycles_per_edge: float
    per_pe_cycles_per_edge: list
    e_values: list         # final E values, [pe][idx]
    h_values: list
    #: Machine-wide operation breakdown (merged over processors).
    stats: object = None


def _plan_max_ghosts(graph: Em3dGraph) -> int:
    return max(
        max((graph.e_plan.ghost_count(pe) for pe in range(graph.num_pes)),
            default=0),
        max((graph.h_plan.ghost_count(pe) for pe in range(graph.num_pes)),
            default=0),
        1,
    )


def _setup(machine, graph: Em3dGraph, version: str,
           seed: int = 7) -> Layout:
    """Place values, ghosts, adjacency, and gather buffers in memory.

    Setup is untimed (the paper's preprocessing step); it uses the
    backing stores directly.
    """
    n = graph.nodes_per_pe
    entry_words = 2
    adj_words = n * graph.degree * entry_words
    max_ghosts = _plan_max_ghosts(graph)
    gather_pair_words = max(
        (len(idxs)
         for plan in (graph.e_plan, graph.h_plan)
         for by_src in plan.needed
         for idxs in by_src.values()),
        default=1,
    ) or 1

    layout = Layout(
        e_vals=machine.symmetric_segment(n, "f8", VALUE_BYTES),
        h_vals=machine.symmetric_segment(n, "f8", VALUE_BYTES),
        e_ghosts=machine.symmetric_alloc(max_ghosts * VALUE_BYTES),
        h_ghosts=machine.symmetric_alloc(max_ghosts * VALUE_BYTES),
        e_adj=machine.symmetric_alloc(adj_words * WORD_BYTES),
        h_adj=machine.symmetric_alloc(adj_words * WORD_BYTES),
        gather=machine.symmetric_segment(
            graph.num_pes * gather_pair_words, "f8", WORD_BYTES),
        gather_pair_words=gather_pair_words,
    )

    ghost_stride = WORD_BYTES if version == "bulk" else VALUE_BYTES
    nedges = n * graph.degree
    e0 = initial_values(graph, "e", seed)
    h0 = initial_values(graph, "h", seed)
    for pe in range(graph.num_pes):
        mem = machine.node(pe).memsys.memory
        # Fields, ghosts, and adjacency live in flat typed segments;
        # setup (the paper's untimed preprocessing) fills the segment
        # buffers directly.  The adjacency region interleaves two
        # stride-16 segments: int64 neighbor references at even words,
        # float64 weights at odd words.
        mem.alloc_segment(layout.e_ghosts, max_ghosts, "f8", ghost_stride)
        mem.alloc_segment(layout.h_ghosts, max_ghosts, "f8", ghost_stride)
        ev = mem.segment_at(layout.e_vals)
        hv = mem.segment_at(layout.h_vals)
        ev.data[0:n] = _array("d", e0[pe])
        hv.data[0:n] = _array("d", h0[pe])
        ev.define_range(0, n)
        hv.define_range(0, n)
        for direction in ("e", "h"):
            adj = graph.e_adj if direction == "e" else graph.h_adj
            plan = graph.e_plan if direction == "e" else graph.h_plan
            vals = layout.h_vals if direction == "e" else layout.e_vals
            ghosts = layout.e_ghosts if direction == "e" else layout.h_ghosts
            base = layout.e_adj if direction == "e" else layout.h_adj
            ref_list = []
            weight_list = []
            slots = plan.ghost_slot[pe]
            for edges in adj[pe]:
                for owner, idx, weight in edges:
                    if version == "simple":
                        ref = GlobalPtr(owner,
                                        vals + idx * VALUE_BYTES).encode()
                    elif owner == pe:
                        ref = vals + idx * VALUE_BYTES
                    else:
                        ref = ghosts + slots[(owner, idx)] * ghost_stride
                    ref_list.append(ref)
                    weight_list.append(weight)
            _fill_segment(mem.alloc_segment(base, nedges, "i8",
                                            entry_words * WORD_BYTES),
                          ref_list)
            _fill_segment(mem.alloc_segment(base + WORD_BYTES, nedges, "f8",
                                            entry_words * WORD_BYTES),
                          weight_list)
    return layout


def _fill_segment(seg, values: list) -> None:
    """Store ``values`` at word indices ``0, 1, ...`` of a fresh typed
    segment: one typed slice when every value round-trips through the
    buffer (the segment's exact type, in range), else per word — the
    same words and Python types either way."""
    vtype = seg.vtype
    if set(map(type, values)) == {vtype}:
        try:
            seg.data[0:len(values)] = _array(seg.data.typecode, values)
        except OverflowError:
            pass
        else:
            seg.define_range(0, len(values))
            return
    for i, value in enumerate(values):
        seg.write(i, value)


def _compute_phase(sc, graph: Em3dGraph, layout: Layout, direction: str,
                   optimized: bool, simple: bool):
    """Recompute this processor's values for one direction."""
    ctx = sc.ctx
    compute_phase(ctx, graph.nodes_per_pe, graph.degree,
                  layout.e_adj if direction == "e" else layout.h_adj,
                  layout.e_vals if direction == "e" else layout.h_vals,
                  0.5 if optimized else ctx.node.alpha.loop_iteration() + 1.0,
                  sc if simple else None)


def compute_phase(ctx, n: int, degree: int, adj_base: int, out_base: int,
                  per_edge_overhead: float, simple_sc=None) -> None:
    """One processor's compute phase over ``n`` nodes of ``degree``
    edges: the adjacency array at ``adj_base`` (reference, weight
    word pairs), outputs every :data:`VALUE_BYTES` from ``out_base``.

    The single dispatcher over the three spellings, all bit-identical.
    With the fast paths on (:data:`repro.simkernel.fastpath.ENABLED`)
    and the T3D node shape (direct-mapped power-of-two L1, no L2, a
    never-missing TLB):

    * the "simple" version (``simple_sc`` set: each neighbour value is
      a Split-C blocking read through that runtime) runs the inlined
      scalar loop :func:`_compute_phase_simple`;
    * every other version runs the numpy whole-phase kernel
      :func:`repro.vector.em3d.compute_phase` when the vector tier is
      enabled.  It declines with
      :class:`~repro.vector.UnsupportedStimulus` (changing nothing) on
      any phase it cannot prove equal.

    Everything else — other shapes, declines, ``REPRO_VECTOR=0``, no
    numpy — runs the reference loop below.
    """
    memsys = ctx.node.memsys
    lb = memsys.params.l1.line_bytes
    nsets = memsys.params.l1.num_sets
    if fastpath.ENABLED and (memsys.params.l1.associativity == 1
                             and memsys.l2 is None
                             and memsys.params.tlb.never_misses
                             and lb & (lb - 1) == 0
                             and nsets & (nsets - 1) == 0):
        if simple_sc is not None:
            _compute_phase_simple(ctx, n, degree, adj_base, out_base,
                                  per_edge_overhead, simple_sc)
            return
        if _vector.enabled():
            from repro.vector import em3d as _vector_em3d
            try:
                _vector_em3d.compute_phase(ctx, n, degree, adj_base,
                                           out_base, per_edge_overhead,
                                           VALUE_BYTES)
                return
            except _vector.UnsupportedStimulus:
                pass
    flop = ctx.node.alpha.flop_pair()
    cursor = adj_base
    for i in range(n):
        acc = 0.0
        for _ in range(degree):
            ref = ctx.local_read(cursor)
            weight = ctx.local_read(cursor + WORD_BYTES)
            cursor += 2 * WORD_BYTES
            if simple_sc is not None:
                value = simple_sc.read(GlobalPtr.decode(ref))
            else:
                value = ctx.local_read(ref)
            acc += weight * value
            ctx.charge(flop)
            ctx.charge(per_edge_overhead)
        ctx.local_write(out_base + i * VALUE_BYTES, acc)


def _compute_phase_simple(ctx, n: int, degree: int, adj_base: int,
                          out_base: int, per_edge_overhead: float,
                          simple_sc):
    """The "simple" version's compute loop with the T3D read pipeline
    inlined.

    Exactly equivalent to the reference loop above for a node with a
    direct-mapped power-of-two L1, no L2, and a never-missing TLB: each
    load makes the same L1 tag/DRAM state transitions and the same
    clock additions in the same order; only the Python call chain is
    flattened and the power-of-two address arithmetic uses shifts and
    masks.  Value loads keep the write-buffer forwarding probe (they
    can hit values stored earlier in the phase); adjacency loads skip
    it because adjacency words are written only at setup, never
    through the write buffer, so the probe could not match — and the
    retired-entry flush it would perform is performed identically (same
    entries, same retire timestamps, no intervening yield) by the next
    value probe or store.  Cache/DRAM counters accumulate locally and
    are committed at the end (stores inside the loop update the shared
    DRAM state directly, so only the *deltas* are local).

    Each neighbor value is read through the Split-C blocking read of
    ``simple_sc``; its local branch (the common case) is flattened
    here too, remote references go through the runtime.
    """
    memsys = ctx.node.memsys
    wb = memsys.write_buffer
    l1 = memsys.l1
    dram = memsys.dram
    mem = memsys.memory
    mem_get = mem.word_get
    lb = l1._line_bytes
    nsets = l1._num_sets
    tags = l1._tags
    tags_get = tags.get
    hit_cycles = memsys.params.l1.hit_cycles
    wb_pending = wb._pending         # flush_retired trims it in place
    wb_flush = wb.flush_retired
    wb_push = wb.push
    issue_cycles = wb._issue_cycles
    merging = wb._merging
    capacity = wb._capacity
    # Power-of-two geometry (asserted by the caller's gate): line and
    # set arithmetic reduce to shifts and masks, exact for ints.
    line_mask = -lb                      # addr & -lb == addr - addr % lb
    lb_shift = lb.bit_length() - 1
    set_mask = nsets - 1
    interleave = dram._interleave
    banks = dram._banks
    dpage = dram._page_bytes
    dcycles = dram._access_cycles
    off_page = dram.params.off_page_cycles
    same_bank = dram.params.same_bank_cycles
    open_row = dram._open_row
    # When the DRAM interleave equals the page size (the T3D shape),
    # row = ((block // banks) * interleave + addr % interleave) // page
    # collapses to block // banks exactly (the remainder term is
    # < page and cannot carry).
    geom_flat = (interleave == dpage
                 and interleave & (interleave - 1) == 0
                 and banks & (banks - 1) == 0)
    il_shift = interleave.bit_length() - 1
    bank_mask = banks - 1
    bank_shift = banks.bit_length() - 1
    mask = LOCAL_ADDR_MASK
    flop = ctx.node.alpha.flop_pair()
    wbytes = WORD_BYTES
    word_mask = -wbytes              # addr & -w == addr - addr % w
    estep = 2 * wbytes
    deg_range = range(degree)
    l1_h = l1_m = 0
    dram_n = dram_rm = dram_cf = 0
    clock = ctx.clock
    cursor = adj_base
    # Adjacency normally lives in two interleaved typed segments
    # (int64 refs / float64 weights, stride 16); when it does, read
    # the buffers directly instead of resolving each word.  Values are
    # identical by the segment tier's equivalence contract — this only
    # skips the per-word resolution (timing is charged above either
    # way).  Any override/undefined word (never the case after
    # ``_setup``) falls back to the generic accessor.
    nedges = n * degree
    _rseg = mem.segment_at(adj_base)
    _wseg = mem.segment_at(adj_base + wbytes)
    adj_direct = (
        _rseg is not None and _wseg is not None
        and _rseg.base == adj_base and _wseg.base == adj_base + wbytes
        and _rseg.stride == estep and _wseg.stride == estep
        and _rseg.nwords >= nedges and _wseg.nwords >= nedges
        and not _rseg.overrides and not _wseg.overrides
        and not _rseg.undefined and not _wseg.undefined)
    rdata = _rseg.data if adj_direct else None
    wdata = _wseg.data if adj_direct else None
    j = 0
    # The local case of the Split-C blocking read (decode, local load,
    # stats record) is inlined below when no span trace is attached;
    # remote references still go through the runtime.
    my_pe = ctx.pe
    simple_fast = simple_sc.trace is None
    record_stat = simple_sc.stats.record
    stats_ops = simple_sc.stats.ops
    local_rec = None
    gaddr_mask = GPTR_ADDR_MASK
    for i in range(n):
        acc = 0.0
        for _ in deg_range:
            # --- adjacency word 1: the neighbor reference.  Adjacency
            # addresses are plain word-aligned heap offsets, so the
            # ``& LOCAL_ADDR_MASK`` and word alignment of the generic
            # path are identities and are dropped.
            addr = cursor
            line = addr & line_mask
            index = (addr >> lb_shift) & set_mask
            if tags_get(index) == line:
                l1_h += 1
                clock += hit_cycles
            else:
                l1_m += 1
                tags[index] = line
                if geom_flat:
                    block = addr >> il_shift
                    bank = block & bank_mask
                    row = block >> bank_shift
                else:
                    block = addr // interleave
                    bank = block % banks
                    row = ((block // banks) * interleave
                           + addr % interleave) // dpage
                cyc = dcycles
                dram_n += 1
                if open_row[bank] != row:
                    dram_rm += 1
                    cyc += off_page
                    if bank == dram._last_bank:
                        dram_cf += 1
                        cyc += same_bank
                    open_row[bank] = row
                dram._last_bank = bank
                clock += cyc
            ref = rdata[j] if adj_direct else mem_get(addr, 0)
            # --- adjacency word 2: the weight.  When it shares word
            # 1's line (the usual case) it is a guaranteed L1 hit:
            # word 1 just filled or confirmed that line. ---
            addr = cursor + wbytes
            if (addr & line_mask) == line:
                l1_h += 1
                clock += hit_cycles
            else:
                line2 = addr & line_mask
                index = (addr >> lb_shift) & set_mask
                if tags_get(index) == line2:
                    l1_h += 1
                    clock += hit_cycles
                else:
                    l1_m += 1
                    tags[index] = line2
                    if geom_flat:
                        block = addr >> il_shift
                        bank = block & bank_mask
                        row = block >> bank_shift
                    else:
                        block = addr // interleave
                        bank = block % banks
                        row = ((block // banks) * interleave
                               + addr % interleave) // dpage
                    cyc = dcycles
                    dram_n += 1
                    if open_row[bank] != row:
                        dram_rm += 1
                        cyc += off_page
                        if bank == dram._last_bank:
                            dram_cf += 1
                            cyc += same_bank
                        open_row[bank] = row
                    dram._last_bank = bank
                    clock += cyc
            weight = wdata[j] if adj_direct else mem_get(addr, 0)
            cursor += estep
            j += 1
            if simple_fast and (ref >> GPTR_PE_SHIFT) == my_pe:
                # runtime.read's local branch, flattened: a local
                # load plus a "read (local)" stats record.
                addr = ref & gaddr_mask
                before = clock
                found = False
                if wb_pending:
                    if wb_pending[0].retire_time <= clock:
                        wb_flush(clock)
                    w = addr & word_mask
                    for entry in reversed(wb_pending):
                        if w in entry.words:
                            found = True
                            fv = entry.words[w]
                            break
                line = addr & line_mask
                index = (addr >> lb_shift) & set_mask
                if tags_get(index) == line:
                    l1_h += 1
                    clock += hit_cycles
                else:
                    l1_m += 1
                    tags[index] = line
                    a = addr & mask
                    if geom_flat:
                        block = a >> il_shift
                        bank = block & bank_mask
                        row = block >> bank_shift
                    else:
                        block = a // interleave
                        bank = block % banks
                        row = ((block // banks) * interleave
                               + a % interleave) // dpage
                    cyc = dcycles
                    dram_n += 1
                    if open_row[bank] != row:
                        dram_rm += 1
                        cyc += off_page
                        if bank == dram._last_bank:
                            dram_cf += 1
                            cyc += same_bank
                        open_row[bank] = row
                    dram._last_bank = bank
                    clock += cyc
                if found:
                    value = fv
                else:
                    a = addr & mask
                    value = mem_get(a - (a % wbytes), 0)
                if local_rec is None:
                    record_stat("read (local)", clock - before)
                    local_rec = stats_ops["read (local)"]
                else:
                    local_rec.count += 1
                    local_rec.cycles += clock - before
            else:
                ctx.clock = clock
                value = simple_sc.read_from(ref >> GPTR_PE_SHIFT,
                                            ref & gaddr_mask)
                clock = ctx.clock
            acc += weight * value
            clock = clock + flop + per_edge_overhead
        # memsys.write_cycles, destructured onto the local clock: the
        # never-miss TLB charges nothing, then the same merge-scan /
        # DRAM-drain / push sequence in the same order (the merging
        # pre-scan runs *before* any flush, preserving the quirk that
        # a match on an already-retired entry falls through push's
        # re-scan into a zero-drain enqueue).
        a = out_base + i * VALUE_BYTES
        line = a & line_mask
        matched = False
        if merging:
            for entry in wb_pending:
                if entry.line_addr == line:
                    matched = True
                    break
        if matched:
            clock += wb_push(clock, a, acc, 0.0)
        else:
            la = line & mask
            if geom_flat:
                block = la >> il_shift
                bank = block & bank_mask
                row = block >> bank_shift
            else:
                block = la // interleave
                bank = block % banks
                row = ((block // banks) * interleave
                       + la % interleave) // dpage
            drain = dcycles
            dram_n += 1
            if open_row[bank] != row:
                dram_rm += 1
                drain += off_page
                if bank == dram._last_bank:
                    dram_cf += 1
                    drain += same_bank
                open_row[bank] = row
            dram._last_bank = bank
            # write_buffer.push_new, inlined.
            if wb_pending and wb_pending[0].retire_time <= clock:
                wb_flush(clock)
            stall = 0.0
            if len(wb_pending) >= capacity:
                stall = wb_pending[0].retire_time - clock
                if stall < 0.0:
                    stall = 0.0
                wb_flush(clock + stall)
            start = clock + stall
            retire = wb._last_retire
            if start > retire:
                retire = start
            retire += drain / capacity
            wb._last_retire = retire
            wb_pending.append(PendingWrite(line, start, retire, {a: acc}))
            if len(wb_pending) == 1:
                wb.mark_dirty()
            clock += issue_cycles + stall
    ctx.clock = clock
    l1.hits += l1_h
    l1.misses += l1_m
    dram.accesses += dram_n
    dram.row_misses += dram_rm
    dram.same_bank_conflicts += dram_cf


def _ghost_fill_reads(sc, graph, layout, direction: str, use_get: bool):
    """Fill ghosts with blocking reads (bundle/unroll) or gets.

    The blocking reads run :func:`_ghost_reads_fast` when the fast
    paths are on; the cached-read ablation and span-traced runs take
    the generic ``read_from`` path.
    """
    ctx = sc.ctx
    plan = graph.e_plan if direction == "e" else graph.h_plan
    vals = layout.h_vals if direction == "e" else layout.e_vals
    ghosts = layout.e_ghosts if direction == "e" else layout.h_ghosts
    me = sc.my_pe
    slots = plan.ghost_slot[me]
    start_clock = ctx.clock if _trace.TRACE_ENABLED else 0.0
    reads = [(src, vals + idx * VALUE_BYTES,
              ghosts + slots[(src, idx)] * VALUE_BYTES)
             for src in sorted(plan.needed[me])
             for idx in plan.needed[me][src]]
    if use_get:
        for src, addr, ghost in reads:
            sc.get_from(src, addr, ghost)
        sc.sync()
    elif (fastpath.ENABLED and sc.trace is None
          and sc.plan.read_mechanism != "cached"):
        _ghost_reads_fast(sc, reads)
    else:
        local_write = ctx.local_write
        for src, addr, ghost in reads:
            local_write(ghost, sc.read_from(src, addr))
    if _trace.TRACE_ENABLED:
        _trace.emit("annex_ghost_fill", t=start_clock, pe=me,
                    direction=direction,
                    mechanism="get" if use_get else "read",
                    count=len(reads), cycles=sc.ctx.clock - start_clock)


def _ghost_reads_fast(sc, reads) -> None:
    """Blocking ghost reads over ``(src, addr, ghost)`` triples with
    ``read_from``'s remote branch inlined: the same Annex set-up,
    uncached read, and extra-cycle charges in the same order — only
    the per-element Python call chain (``read_from`` ->
    ``_setup_annex`` -> ``charge`` x2 -> ``_record``) is flattened and
    its attribute lookups hoisted out of the loop.  Sources in a ghost
    plan are always remote and the read mechanism must be the adopted
    uncached one.
    """
    ctx = sc.ctx
    local_write = ctx.local_write
    annex = ctx.node.annex
    annex_setup = sc.annex_policy.setup
    uncached_read = ctx.node.remote.uncached_read
    read_extra = ctx.node.params.shell.remote.splitc_read_extra_cycles
    record_stat = sc.stats.record
    rec = None
    for src, addr, ghost in reads:
        before = ctx.clock
        _index, cyc = annex_setup(annex, src)
        clock = before + cyc
        cycles, value = uncached_read(clock, src, addr)
        ctx.clock = clock + cycles + read_extra
        if rec is None:
            record_stat("read (remote)", ctx.clock - before)
            rec = sc.stats.ops["read (remote)"]
        else:
            rec.count += 1
            rec.cycles += ctx.clock - before
        local_write(ghost, value)


def _ghost_fill_puts(sc, graph, layout, direction: str):
    """Owners push their values into consumers' ghost slots, the whole
    phase in one :meth:`~repro.splitc.runtime.SplitC.put_scatter` call
    so its set-up amortizes across every consumer group (groups are
    tiny at high processor counts)."""
    ctx = sc.ctx
    plan = graph.e_plan if direction == "e" else graph.h_plan
    vals = layout.h_vals if direction == "e" else layout.e_vals
    ghosts = layout.e_ghosts if direction == "e" else layout.h_ghosts
    me = sc.my_pe
    start_clock = ctx.clock if _trace.TRACE_ENABLED else 0.0
    # The plan's sender lists invert the needed[][] map: each producer
    # iterates only its own consumers instead of scanning every
    # processor, and a consumer's ghost slots for this source are
    # ``slot_base + k`` in list order — the same (consumer, idx)
    # sequence the full scan visited.
    groups = []
    pushed = 0
    for consumer, idxs, base in plan.senders[me]:
        pairs = [(vals + idx * VALUE_BYTES,
                  ghosts + (base + k) * VALUE_BYTES)
                 for k, idx in enumerate(idxs)]
        groups.append((consumer, pairs))
        pushed += len(pairs)
    sc.put_scatter(groups)
    # Completion is deferred to the all_store_sync that follows.
    if _trace.TRACE_ENABLED:
        _trace.emit("annex_ghost_fill", t=start_clock, pe=me,
                    direction=direction, mechanism="put",
                    count=pushed, cycles=sc.ctx.clock - start_clock)


def _gather_and_bulk(sc, graph, layout, direction: str):
    """Bulk version: gather per-consumer buffers, then one bulk
    transfer per (consumer, source) pair.  Generator (barriers)."""
    plan = graph.e_plan if direction == "e" else graph.h_plan
    vals = layout.h_vals if direction == "e" else layout.e_vals
    ghosts = layout.e_ghosts if direction == "e" else layout.h_ghosts
    me = sc.my_pe
    # Gather: my values needed by each consumer, in the agreed order
    # (the plan's sender lists replace the all-processor scan).
    for consumer, idxs, _base in plan.senders[me]:
        buf = layout.gather + consumer * layout.gather_pair_words * WORD_BYTES
        for k, idx in enumerate(idxs):
            value = sc.ctx.local_read(vals + idx * VALUE_BYTES)
            sc.ctx.local_write(buf + k * WORD_BYTES, value)
    sc.ctx.memory_barrier()
    yield from sc.barrier()            # all gather buffers ready
    # Fetch: one bulk get per source processor.
    start_clock = sc.ctx.clock if _trace.TRACE_ENABLED else 0.0
    fetched = 0
    for src in sorted(plan.needed[me]):
        idxs = plan.needed[me][src]
        buf = layout.gather + me * layout.gather_pair_words * WORD_BYTES
        dst = ghosts + plan.slot_base(me, src) * WORD_BYTES
        sc.bulk_get(dst, GlobalPtr(src, buf), len(idxs) * WORD_BYTES)
        fetched += len(idxs)
    sc.sync()
    if _trace.TRACE_ENABLED:
        _trace.emit("annex_ghost_fill", t=start_clock, pe=me,
                    direction=direction, mechanism="bulk",
                    count=fetched, cycles=sc.ctx.clock - start_clock)


def _ghost_region(graph, layout, direction: str):
    """The consumer-side ghost address region for one direction."""
    base = layout.e_ghosts if direction == "e" else layout.h_ghosts
    return (base, base + _plan_max_ghosts(graph) * VALUE_BYTES)


def _half_step(sc, graph, layout, version: str, direction: str,
               end_barrier: bool = True):
    """Communication + compute for one direction.  Generator."""
    if version == "simple":
        pass                           # reads happen inside compute
    elif version in ("bundle", "unroll"):
        _ghost_fill_reads(sc, graph, layout, direction, use_get=False)
    elif version == "get":
        _ghost_fill_reads(sc, graph, layout, direction, use_get=True)
    elif version == "put":
        _ghost_fill_puts(sc, graph, layout, direction)
        yield from sc.all_store_sync()
    elif version == "bulk":
        yield from _gather_and_bulk(sc, graph, layout, direction)
    elif version == "msg":
        # Message-driven: one-way stores + local completion detection.
        # The memory barrier only pushes the stores out of the write
        # buffer; no acknowledgements are awaited (section 7.1).
        _ghost_fill_puts(sc, graph, layout, direction)
        sc.ctx.memory_barrier()
        plan = graph.e_plan if direction == "e" else graph.h_plan
        expected = plan.ghost_count(sc.my_pe) * WORD_BYTES
        yield from sc.store_sync(expected,
                                 region=_ghost_region(graph, layout,
                                                      direction))
    else:
        raise ValueError(f"unknown EM3D version {version!r}")
    _compute_phase(sc, graph, layout, direction,
                   optimized=version in _OPTIMIZED_COMPUTE,
                   simple=version == "simple")
    if end_barrier:
        yield from sc.barrier()


def run_em3d(machine, graph: Em3dGraph, version: str, steps: int = 2,
             warmup_steps: int = 1, seed: int = 7) -> Em3dResult:
    """Run one EM3D version; returns timing and final field values.

    The machine must be freshly constructed (symmetric heaps).  The
    warm-up steps populate caches and open DRAM rows, as the paper's
    timed region follows untimed iterations.
    """
    if version not in VERSIONS:
        raise ValueError(f"version must be one of {VERSIONS}")
    layout = _setup(machine, graph, version, seed)

    def program(sc):
        # The message-driven version needs no barrier between the two
        # half-steps: each consumer's region-scoped store_sync orders
        # it; a single barrier per whole step bounds phase skew.
        e_barrier = version != "msg"
        for _ in range(warmup_steps):
            yield from _half_step(sc, graph, layout, version, "e",
                                  end_barrier=e_barrier)
            yield from _half_step(sc, graph, layout, version, "h")
        yield from sc.barrier()
        start = sc.ctx.clock
        for _ in range(steps):
            yield from _half_step(sc, graph, layout, version, "e",
                                  end_barrier=e_barrier)
            yield from _half_step(sc, graph, layout, version, "h")
        elapsed = sc.ctx.clock - start
        sc.ctx.memory_barrier()
        n = graph.nodes_per_pe
        final_e = [sc.ctx.node.memsys.memory.load(
            layout.e_vals + i * VALUE_BYTES) for i in range(n)]
        final_h = [sc.ctx.node.memsys.memory.load(
            layout.h_vals + i * VALUE_BYTES) for i in range(n)]
        return elapsed, final_e, final_h

    results, runtimes = run_splitc(machine, program)
    edges = steps * graph.edges_per_pe
    per_pe = [elapsed / edges for elapsed, _e, _h in results]
    cycles_per_edge = sum(per_pe) / len(per_pe)
    merged = runtimes[0].stats
    for sc in runtimes[1:]:
        merged = merged.merge(sc.stats)
    return Em3dResult(
        version=version,
        us_per_edge=cycles_per_edge * CYCLE_NS / 1000.0,
        cycles_per_edge=cycles_per_edge,
        per_pe_cycles_per_edge=per_pe,
        e_values=[e for _t, e, _h in results],
        h_values=[h for _t, _e, h in results],
        stats=merged,
    )
