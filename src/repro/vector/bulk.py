"""Figure 8's bulk reads and store stream as whole-transfer array
arithmetic.

The three word-at-a-time bulk-read mechanisms of
:mod:`repro.splitc.bulk` — uncached reads, the prefetch pipeline and
cached reads — move ``nwords`` consecutive words from a remote node
into consecutive local words; the store stream (:func:`write_stores`,
described there) moves them the other way.  Every address of the
transfer is known before it starts, so each whole transfer follows in
closed form from the unit batch methods:

* **Remote reads.**  The target DRAM sees one access per uncached read
  or prefetch issue, and one per cached line fill, in word order
  (:meth:`Dram.access_batch <repro.node.dram.Dram.access_batch>` with
  the remote controller's penalties).  Cached reads run through the
  local L1 on their full, Annex-bearing addresses
  (:meth:`Cache.access_fill_batch
  <repro.node.cache.Cache.access_fill_batch>`): each line misses on
  its first word and hits on the rest.  The values are one
  :meth:`WordMemory.load_range <repro.node.memory.WordMemory.load_range>`
  of the target memory, which no one writes during the transfer.
* **Local stores** (:class:`_Destination`).  One store per word, to
  non-decreasing lines: a store finding no entry for its line drains
  through the local DRAM, the others merge or open a zero-drain entry
  (:meth:`WriteBuffer.run_openers
  <repro.node.write_buffer.WriteBuffer.run_openers>` and
  :meth:`~repro.node.write_buffer.WriteBuffer.run_schedule`).  Merges
  are exact; only entries that would meet (a stall or a queued drain)
  decline.
* **The clock** is one ``np.cumsum`` over the per-operation increments
  laid out in the reference loop's order, so every partial clock
  carries the reference loop's bits.  The prefetch pipeline is the
  exception: a pop waits for its reply (``max(clock, ready)``), a
  max-plus recurrence with lag equal to the queue depth.  Only the
  initial window's replies can arrive late; the waits they cause fold
  into one running maximum, and every later reply is checked to have
  arrived before its pop.  That arithmetic regroups additions, so the
  prefetch path also requires every cost on a 1/256-cycle grid with
  clocks below 2**40 cycles, where float64 sums are exact in any
  order.

Anything outside these conditions raises
:class:`~repro.vector.UnsupportedStimulus` before any unit changes,
and the caller runs the reference loop: the T3D node shape is
required; a read from the reading processor itself, a write buffer
holding a remote store or an entry on a destination line (other than
the youngest entry ending on the first one, which the run continues)
or a store merging into an entry pending before the run, a prefetch
FIFO that is not empty, a cached source line resident when its first
word is read, and a destination sharing a segment with the source
memory all decline.  Transfers are processed in chunks of
:data:`CHUNK_WORDS` words that carry the unit state forward, bounding
the transient arrays; the units are committed once, at the end.
"""

from __future__ import annotations

import numpy as np

from repro.node.write_buffer import PendingWrite
from repro.shell.remote import InboundStoreRun
from repro.params import ANNEX_BIT_SHIFT, LOCAL_ADDR_MASK, WORD_BYTES
from repro.vector import UnsupportedStimulus

__all__ = ["CHUNK_WORDS", "MIN_WORDS", "read_cached", "read_prefetch",
           "read_uncached", "write_stores"]

#: Words per chunk: bounds the transient arrays to about 64 KB each.
#: A multiple of the words in a line, so the store stream's chunks
#: after the first begin on a line.
CHUNK_WORDS = 1 << 13

#: Shortest transfer the dispatcher hands to these kernels.  A kernel
#: call costs 150-300 us whatever its length, while the reference loop
#: costs 5-8 us a word, so below about 32 words the loop is faster
#: (measured on a 2-vCPU VM for every mechanism).  The kernels accept
#: any length; the dispatcher's choice only matters where short
#: transfers dominate: ``spmd_apps`` makes about 8,800 two-word
#: prefetch reads and 1,000 one-word uncached reads.
MIN_WORDS = 32

#: Exact-arithmetic grid of the prefetch recurrence: costs in
#: multiples of 1/256 cycle and clocks below 2**40 cycles keep every
#: float64 sum exact (integers below 2**48 grid units).
_GRID = 256.0
_CLOCK_LIMIT = 2.0 ** 40


def _decline(why: str):
    raise UnsupportedStimulus(why)


def _on_grid(*values: float) -> bool:
    return all(abs(v) < _CLOCK_LIMIT and (v * _GRID).is_integer()
               for v in values)


def _source(ctx, pe: int, src_addr: int, nwords: int):
    """The target's shared bindings, after the checks every mechanism
    makes on the source side."""
    if pe == ctx.pe:
        _decline("read from the reading processor")
    if src_addr < 0 or src_addr + (nwords - 1) * WORD_BYTES > LOCAL_ADDR_MASK:
        _decline("source outside the segment reach")
    return ctx.node.remote.peer(pe)


class _Destination:
    """The local half of a bulk read: word ``i`` stored to ``dst + 8 i``
    right after it is read, through the write buffer, in order.

    :meth:`add` schedules the stores of one chunk from their issue
    times; :meth:`commit` installs the result.  Entries pending before
    the run must be local, on other lines, and retired by its first
    store; they are flushed up front, which changes nothing observable
    (their words are local words the transfer neither reads nor
    writes).
    """

    def __init__(self, ctx, dst: int, nwords: int, source_memory):
        memsys = ctx.node.memsys
        params = memsys.params
        if (memsys.l2 is not None or not params.tlb.never_misses
                or params.l1.associativity != 1):
            _decline("not the T3D node shape")
        if dst < 0 or dst + (nwords - 1) * WORD_BYTES > LOCAL_ADDR_MASK:
            _decline("destination outside the local reach")
        self.memsys = memsys
        self.wb = wb = memsys.write_buffer
        self.dst = dst
        self.nwords = nwords
        lo = dst - dst % wb.line_bytes
        hi = dst + (nwords - 1) * WORD_BYTES
        pending = wb.pending_entries
        #: The line of the latest store before the run, when the run
        #: continues it (see below).
        self.prev_line = None
        for entry in pending:
            if not entry.apply_words or entry.on_retire is not None:
                _decline("write buffer holds a remote store")
            if lo <= entry.line_addr <= hi:
                # The youngest entry may hold the first destination
                # line (the previous transfer ended on it), as long as
                # it holds none of this transfer's words: the run then
                # continues that entry's line.
                if (entry is not pending[-1] or entry.line_addr != lo
                        or any(w >= dst - dst % WORD_BYTES
                               for w in entry.words)):
                    _decline("write buffer holds a destination line")
                self.prev_line = lo
        shared = {id(seg) for seg in source_memory.segments}
        if any(id(seg) in shared for seg in memsys.memory.segments
               if seg.base <= hi and dst <= seg.base + seg.limit):
            _decline("destination shares a segment with the source")
        self.ready = max((entry.retire_time for entry in pending),
                         default=float("-inf"))
        self.rows = memsys.dram.row_state()
        self.dram_n = self.dram_rm = self.dram_cf = 0
        self.last_retire = None        # the buffer's own, until a chunk
        self.first_start = None
        self.entries = 0
        self.last_new = self.last_start = None

    def drained(self) -> None:
        """The buffer drained before the first store (a memory
        barrier): no entry is pending, and none continues a line."""
        self.ready = float("-inf")
        self.prev_line = None

    def add(self, i0: int, starts: np.ndarray) -> None:
        """Schedule stores ``i0 .. i0 + len(starts) - 1`` issued at
        ``starts``."""
        wb = self.wb
        addrs = self.dst + WORD_BYTES * np.arange(
            i0, i0 + len(starts), dtype=np.int64)
        lines = addrs - addrs % wb.line_bytes
        opener = wb.run_openers(lines, self.prev_line)
        drains = np.zeros(len(starts), dtype=np.float64)
        stream = self.memsys.dram.access_batch(lines[opener], self.rows)
        self.rows = (stream.open_row, stream.last_bank)
        self.dram_n += len(stream.costs)
        self.dram_rm += stream.row_misses
        self.dram_cf += stream.same_bank_conflicts
        drains[opener] = stream.costs
        ready = self.ready if self.first_start is None else self.last_retire
        new, retires = wb.run_schedule(starts, opener, drains,
                                       self.last_retire, ready)
        if self.first_start is None:
            if not new[0]:
                _decline("a store merges into an entry pending before "
                         "the transfer")
            self.first_start = float(starts[0])
        if len(retires):
            last = int(np.flatnonzero(new)[-1])
            self.last_new = i0 + last
            self.last_start = float(starts[last])
            self.last_retire = float(retires[-1])
            self.entries += len(retires)
        self.prev_line = int(lines[-1])

    def commit(self, values: list) -> None:
        """Install the run: commit every word but the last entry's to
        memory, leave that entry pending, and add the DRAM counters."""
        wb = self.wb
        wb.flush_retired(self.first_start)
        k = self.last_new
        if k:
            self.memsys.memory.store_range(self.dst, values[:k])
        first = self.dst + k * WORD_BYTES
        words = {}
        for j in range(k, self.nwords):
            addr = self.dst + j * WORD_BYTES
            words[addr - addr % WORD_BYTES] = values[j]
        wb.append_isolated_run(
            self.entries - 1,
            PendingWrite(first - first % wb.line_bytes, self.last_start,
                         self.last_retire, words),
            merged=self.nwords - self.entries)
        self.memsys.dram.commit_batch(
            self.rows[0], self.rows[1], accesses=self.dram_n,
            row_misses=self.dram_rm, same_bank_conflicts=self.dram_cf)


def _clock_run(clock: float, steps: np.ndarray):
    """Running clock over ``steps`` (one row per word, increments in
    the reference loop's order): ``(clocks after each word's first
    step, final clock)``."""
    clocks = np.cumsum(np.concatenate(([clock], steps.ravel())))
    width = steps.shape[1]
    return clocks[1::width], float(clocks[-1])


def read_uncached(ctx, pe: int, src_addr: int, dst: int,
                  nwords: int) -> None:
    """:func:`repro.splitc.bulk.bulk_read_uncached`'s word loop (after
    the Annex set-up): one blocking uncached read per word, each
    stored locally."""
    peer = _source(ctx, pe, src_addr, nwords)
    dest = _Destination(ctx, dst, nwords, peer.memory)
    node = ctx.node
    unit = node.remote
    rparams = unit.params
    # uncached_read charges ``overhead + 2*flight + mem`` left to right.
    base = rparams.read_overhead_cycles + 2 * unit.flight(pe)
    loop_it = node.alpha.loop_iteration()
    store = dest.wb.params.issue_cycles
    rows = peer.dram.row_state()
    t_n = t_rm = t_cf = 0
    clock = ctx.clock
    for i0 in range(0, nwords, CHUNK_WORDS):
        m = min(CHUNK_WORDS, nwords - i0)
        local = src_addr + WORD_BYTES * np.arange(i0, i0 + m,
                                                  dtype=np.int64)
        stream = peer.dram.access_batch(
            local, rows, rparams.remote_off_page_cycles, peer.same_bank)
        rows = (stream.open_row, stream.last_bank)
        t_n += m
        t_rm += stream.row_misses
        t_cf += stream.same_bank_conflicts
        steps = np.empty((m, 2), dtype=np.float64)
        steps[:, 0] = (base + stream.costs) + loop_it
        steps[:, 1] = store
        starts, clock = _clock_run(clock, steps)
        dest.add(i0, starts)

    # Every check passed: commit.
    dest.commit(peer.memory.load_range(src_addr, nwords))
    peer.dram.commit_batch(rows[0], rows[1], accesses=t_n, row_misses=t_rm,
                           same_bank_conflicts=t_cf)
    unit.commit_read_run(reads=nwords)
    ctx.clock = clock


def read_prefetch(ctx, pe: int, src_addr: int, dst: int,
                  nwords: int) -> None:
    """:func:`repro.splitc.bulk.bulk_read_prefetch`'s pipeline (after
    the Annex set-up): issue a window of prefetches, then per word pop,
    store, and issue the next word while any remain."""
    peer = _source(ctx, pe, src_addr, nwords)
    node = ctx.node
    pf = node.prefetch
    if pf.outstanding() or pf.needs_barrier_before_pop():
        _decline("prefetch queue in use")
    dest = _Destination(ctx, dst, nwords, peer.memory)
    p = pf.params
    issue, pop = p.issue_cycles, p.pop_cycles
    store = dest.wb.params.issue_cycles
    loop_it = node.alpha.loop_iteration()
    extra = pf.extra_hop_cycles(pe)
    off_page = pf.remote_off_page_cycles
    barrier = node.memsys.params.alpha.memory_barrier_cycles
    clock = ctx.clock
    if not _on_grid(clock, issue, p.round_trip_cycles, pop, store, loop_it,
                    extra, off_page, barrier, peer.access_cycles,
                    peer.same_bank, max(dest.ready, 0.0)):
        _decline("costs off the exact-arithmetic grid")
    # A reply is ready ``lead + (mem - access) + extra`` after its
    # issue; an issue inside the loop comes ``lag`` after its pop began.
    lead = issue + p.round_trip_cycles
    lag = pop + store + loop_it
    window = min(p.queue_depth, nwords)
    issued = clock + issue * np.arange(window)        # the window's issues
    clock += issue * window
    if window < p.small_group_barrier_threshold:
        # The memory barrier before the first pop drains the buffer.
        clock = max(clock + barrier, max(clock, dest.ready))
        dest.drained()
    chunk = max(CHUNK_WORDS, window)
    rows = peer.dram.row_state()
    t_n = t_rm = t_cf = 0
    tail = None      # pop starts of the previous chunk's last `window`
    for k0 in range(0, nwords, chunk):
        m = min(chunk, nwords - k0)
        local = src_addr + WORD_BYTES * np.arange(k0, k0 + m,
                                                  dtype=np.int64)
        stream = peer.dram.access_batch(local, rows, off_page,
                                        peer.same_bank)
        rows = (stream.open_row, stream.last_bank)
        t_n += m
        t_rm += stream.row_misses
        t_cf += stream.same_bank_conflicts
        late = (stream.costs - peer.access_cycles) + extra
        # Pop k begins at ``begins[k]`` if no reply is late: each step is
        # pop, store, loop, plus an issue while words remain to issue.
        steps = np.full(m, lag)
        steps[k0 + np.arange(m) + window < nwords] += issue
        begins = np.empty(m)
        begins[0] = clock
        np.cumsum(steps[:-1], out=begins[1:])
        begins[1:] += clock
        if tail is None:
            # Only the window's replies can be late: a pop waiting for
            # one delays every later step by the same amount.
            ready = (issued + lead) + late[:window]
            wait = np.maximum.accumulate(
                np.maximum(ready - begins[:window], 0.0))
            begins[:window] += wait
            begins[window:] += wait[-1]
            back = begins[:m - window]
            check = slice(window, m)
        else:
            back = np.concatenate((tail, begins))[:m]
            check = slice(0, m)
        # Every later reply must be in before its pop begins.
        if ((back + lag + lead) + late[check] > begins[check]).any():
            _decline("a prefetch reply arrives after its pop")
        tail = begins[-window:]
        clock = float(begins[-1] + steps[-1])
        dest.add(k0, begins + pop)
    if not _on_grid(clock):
        _decline("costs off the exact-arithmetic grid")

    # Every check passed: commit.
    dest.commit(peer.memory.load_range(src_addr, nwords))
    peer.dram.commit_batch(rows[0], rows[1], accesses=t_n, row_misses=t_rm,
                           same_bank_conflicts=t_cf)
    pf.commit_run(nwords)
    ctx.clock = clock


def read_cached(ctx, pe: int, src_addr: int, dst: int, nwords: int,
                index: int, batch_flush: bool) -> None:
    """:func:`repro.splitc.bulk.bulk_read_cached`'s word loop (after
    the Annex set-up to ``index``): a cached read per word, each stored
    locally; a line flush after each line's last word, or one
    whole-cache flush at the end with ``batch_flush``."""
    peer = _source(ctx, pe, src_addr, nwords)
    dest = _Destination(ctx, dst, nwords, peer.memory)
    node = ctx.node
    unit = node.remote
    l1 = node.memsys.l1
    l1p = node.memsys.params.l1
    lb = l1p.line_bytes
    rparams = unit.params
    # cached_read charges ``overhead + line extra + 2*flight + mem``.
    base = (rparams.read_overhead_cycles + rparams.cached_line_extra_cycles
            + 2 * unit.flight(pe))
    loop_it = node.alpha.loop_iteration()
    store = dest.wb.params.issue_cycles
    flush = 0.0 if batch_flush else l1p.flush_line_cycles
    tags_before = l1.tag_array()
    tags = tags_before
    touched = np.zeros(len(tags), dtype=bool)
    rows = peer.dram.row_state()
    t_n = t_rm = t_cf = hits_n = 0
    prev_line = None
    annex = index << ANNEX_BIT_SHIFT     # offsets stay below it
    first_line = annex + src_addr - src_addr % lb
    last = annex + src_addr + (nwords - 1) * WORD_BYTES
    clock = ctx.clock
    for i0 in range(0, nwords, CHUNK_WORDS):
        m = min(CHUNK_WORDS, nwords - i0)
        offsets = src_addr + WORD_BYTES * np.arange(i0, i0 + m,
                                                    dtype=np.int64)
        fulls = annex + offsets
        lines = fulls - fulls % lb
        hits, tags = l1.access_fill_batch(fulls, tags)
        starts_line = np.empty(m, dtype=bool)
        starts_line[0] = int(lines[0]) != prev_line
        np.not_equal(lines[1:], lines[:-1], out=starts_line[1:])
        if (hits == starts_line).any():
            _decline("a cached source line is resident")
        hits_n += m - int(starts_line.sum())
        touched[(lines[starts_line] // lb) % len(tags)] = True
        stream = peer.dram.access_batch(
            offsets[starts_line], rows, rparams.remote_off_page_cycles,
            peer.same_bank)
        rows = (stream.open_row, stream.last_bank)
        t_n += len(stream.costs)
        t_rm += stream.row_misses
        t_cf += stream.same_bank_conflicts
        steps = np.empty((m, 3), dtype=np.float64)
        steps[:, 0] = l1p.hit_cycles
        steps[starts_line, 0] = base + stream.costs
        steps[:, 0] += loop_it
        steps[:, 1] = store
        # The fixed flush rule: after the word whose successor is on
        # another line (or that ends the transfer).
        ends_line = np.empty(m, dtype=bool)
        ends_line[:-1] = starts_line[1:]
        ends_line[-1] = (i0 + m == nwords
                         or (int(fulls[-1]) + WORD_BYTES) // lb
                         != int(lines[-1]) // lb)
        steps[:, 2] = np.where(ends_line, flush, 0.0)
        starts, clock = _clock_run(clock, steps)
        dest.add(i0, starts)
        prev_line = int(lines[-1])
    if batch_flush:
        clock += l1p.flush_all_cycles

    # Every check passed: commit.  Each line's fill evicted its set's
    # resident line — the pre-run one at the set's first fill, a line
    # this run already flushed after that — and every fetched line is
    # flushed by the end, singly or with the whole cache.
    dest.commit(peer.memory.load_range(src_addr, nwords))
    peer.dram.commit_batch(rows[0], rows[1], accesses=t_n, row_misses=t_rm,
                           same_bank_conflicts=t_cf)
    evicted = tags_before[touched]
    l1.commit_batch(np.full(len(tags), -1, dtype=np.int64) if batch_flush
                    else np.where(touched, -1, tags_before),
                    hits_n, nwords - hits_n)
    unit.commit_read_run(
        line_fills=nwords - hits_n, dropped=evicted[evicted >= 0].tolist(),
        fetched=(first_line, last - last % lb), flush_all=batch_flush)
    ctx.clock = clock


def write_stores(ctx, pe: int, dst: int, src: int, nwords: int,
                 index: int) -> None:
    """:func:`repro.splitc.bulk.bulk_write_stores`'s word loop (after
    the Annex set-up to ``index``): read each local word from ``src``
    on and store it to processor ``pe`` at ``dst`` on, through the
    write buffer.  The caller's memory barrier and acknowledgement wait
    are not part of it: the run's last entry stays pending with its
    real retirement callback.

    * **Source reads** go through the local L1
      (:meth:`Cache.access_fill_batch
      <repro.node.cache.Cache.access_fill_batch>`), the misses through
      the local DRAM (:meth:`Dram.access_batch
      <repro.node.dram.Dram.access_batch>`), and a read costing more
      than 2 cycles adds the bus interference.
    * **Remote stores.**  A line's first store opens an entry whose
      drain is the packet hand-off plus the target DRAM access it will
      make; later stores merge while it is pending and open another
      (a row hit) once it has retired (:meth:`WriteBuffer.run_schedule
      <repro.node.write_buffer.WriteBuffer.run_schedule>` with
      ``reopen_drain``).  While no entry meets another, each entry has
      retired — and its packet made its target DRAM access — by the
      next entry's drain peek, so one target DRAM stream over the
      lines gives both every peek and every access.  The only other
      case the kernel takes is a peek before the retirement of an
      entry that reopened its line, whose access changes nothing.
    * **The clock** is one ``np.cumsum`` over read, bus, store issue
      and loop per word.
    * **Target side.**  Every entry but the last retires inside the
      run; :class:`~repro.shell.remote.InboundStoreRun` does what their
      callbacks would: arrivals behind the target interface, the
      target DRAM, memory words and L1 lines, the arrival log (and
      wake list) and the sender's acknowledgements.

    Declines (before any unit changes): a store to the storing
    processor, not the T3D node shape, a transfer outside the segment
    reach, differing sender and target shells, a remote-store entry or
    an entry holding a source word in the buffer, a destination that
    shares memory with the source, entries that would meet (a stall
    or a queued drain), any other drain peek that precedes the previous
    entry's retirement, and a packet queueing behind the sender's own
    stream.
    """
    if pe == ctx.pe:
        _decline("store to the storing processor")
    node = ctx.node
    memsys = node.memsys
    params = memsys.params
    wb = memsys.write_buffer
    lb = wb.line_bytes
    if (memsys.l2 is not None or not params.tlb.never_misses
            or params.l1.associativity != 1 or not wb.params.merging
            or lb % WORD_BYTES):
        _decline("not the T3D node shape")
    span = (nwords - 1) * WORD_BYTES
    if (src < 0 or src + span > LOCAL_ADDR_MASK
            or dst < 0 or dst + span > LOCAL_ADDR_MASK):
        _decline("transfer outside the segment reach")
    unit = node.remote
    rparams = unit.params
    peer = unit.peer(pe)
    if peer.node.remote.params != rparams:
        _decline("sender and target shells differ")
    first_src = src - src % WORD_BYTES
    pending = wb.pending_entries
    for entry in pending:
        if not entry.apply_words or entry.on_retire is not None:
            _decline("write buffer holds a remote store")
        if any(first_src <= w <= first_src + span for w in entry.words):
            _decline("write buffer holds a source word")
    first_dst = dst - dst % WORD_BYTES
    shared = {id(seg) for seg in memsys.memory.segments}
    if peer.memory is memsys.memory or any(
            id(seg) in shared for seg in peer.memory.segments
            if seg.base <= first_dst + span
            and first_dst <= seg.base + seg.limit):
        _decline("destination shares memory with the source")

    hit = params.l1.hit_cycles
    bus = rparams.bus_interference_cycles
    issue = wb.params.issue_cycles
    loop_it = node.alpha.loop_iteration()
    access = peer.access_cycles
    off_page = rparams.remote_off_page_cycles
    drain = rparams.store_drain_cycles
    l1 = memsys.l1
    tags = l1.tag_array()
    lrows = memsys.dram.row_state()
    l_n = l_rm = l_cf = hits_n = 0
    trows = peer.dram.row_state()
    t_rm = t_cf = 0
    full_base = (index << ANNEX_BIT_SHIFT) + dst
    # The latest entry before each chunk: its retire time (before the
    # run, that of the local entries pending, which must all retire by
    # the first store) and whether it opened its line.
    prev_retire = max((e.retire_time for e in pending),
                      default=float("-inf"))
    prev_opens_line = False
    last_retire = None                 # the buffer's own, until a chunk
    retires, mems, sizes, openers = [], [], [], []
    clock = ctx.clock
    first_start = None
    # Chunks after the first begin on a destination line, so no
    # write-buffer entry spans two chunks.
    head = (lb - full_base % lb + WORD_BYTES - 1) // WORD_BYTES
    edges = [0] + list(range(head + CHUNK_WORDS, nwords, CHUNK_WORDS))
    for c, i0 in enumerate(edges):
        final = c + 1 == len(edges)
        m = (nwords if final else edges[c + 1]) - i0
        words = np.arange(i0, i0 + m, dtype=np.int64) * WORD_BYTES
        # Source reads: the L1, then the local DRAM on a miss, plus the
        # bus interference whenever the read went to memory.
        saddrs = src + words
        hits, tags = l1.access_fill_batch(saddrs, tags)
        hits_n += int(hits.sum())
        stream = memsys.dram.access_batch(saddrs[~hits] & LOCAL_ADDR_MASK,
                                          lrows)
        lrows = (stream.open_row, stream.last_bank)
        l_n += len(stream.costs)
        l_rm += stream.row_misses
        l_cf += stream.same_bank_conflicts
        steps = np.empty((m, 4), dtype=np.float64)
        steps[:, 0] = hit
        steps[~hits, 0] = stream.costs
        steps[:, 1] = np.where(steps[:, 0] > 2.0, bus, 0.0)
        steps[:, 2] = issue
        steps[:, 3] = loop_it
        clocks = np.cumsum(np.concatenate(([clock], steps.ravel())))
        reads = clocks[0:4 * m:4]          # each word's source read
        starts = clocks[2:4 * m:4]         # ... and its store's issue
        clock = float(clocks[-1])
        if first_start is None:
            first_start = float(starts[0])
        # Remote stores.  A line's first store opens an entry whose
        # drain peeks at the target DRAM access it will make; the run's
        # accesses are one stream, in order.  The pending entry's
        # access (the last line's, if that entry opened it) happens
        # after the run: the state before it is kept for the commit.
        lines = (full_base + words) // lb * lb
        opens_line = wb.run_openers(lines)
        tlines = lines[opens_line] & LOCAL_ADDR_MASK
        stream = peer.dram.access_batch(tlines[:-1] if final else tlines,
                                        trows, off_page, peer.same_bank)
        costs = stream.costs
        trows = (stream.open_row, stream.last_bank)
        t_rm += stream.row_misses
        t_cf += stream.same_bank_conflicts
        if final:
            kept = trows, t_rm, t_cf
            stream = peer.dram.access_batch(tlines[-1:], trows, off_page,
                                            peer.same_bank)
            costs = np.concatenate((costs, stream.costs))
            trows = (stream.open_row, stream.last_bank)
            t_rm += stream.row_misses
            t_cf += stream.same_bank_conflicts
        drains = np.zeros(m, dtype=np.float64)
        drains[opens_line] = drain + (costs - access)
        # A store finding its line's entry retired opens another; its
        # peek finds the row that entry's access left open: a hit.
        new, entry_retire = wb.run_schedule(
            starts, opens_line, drains, last_retire, prev_retire,
            reopen_drain=drain + (access - access))
        opened = np.flatnonzero(new)
        entry_opens_line = opens_line[opened]
        # A drain peek sees the previous entry's DRAM access only if
        # the source read before the store flushed that entry; if not,
        # the entry must have reopened its line, an access that leaves
        # the controller as it found it.
        before = np.concatenate(([prev_retire], entry_retire[:-1]))
        early = before > reads[opened]
        early &= np.concatenate(([prev_opens_line], entry_opens_line[:-1]))
        if early.any():
            _decline("a drain peek precedes the previous entry's retirement")
        mem = np.full(len(opened), access, dtype=np.float64)
        mem[entry_opens_line] = costs
        retires.append(entry_retire)
        mems.append(mem)
        sizes.append(np.diff(np.append(opened, m)) * WORD_BYTES)
        openers.append(opened + i0)
        prev_retire = last_retire = float(entry_retire[-1])
        prev_opens_line = bool(entry_opens_line[-1])
        last_start = float(starts[opened[-1]])

    retires = np.concatenate(retires)
    openers = np.concatenate(openers)
    entries = len(retires)
    if prev_opens_line:
        trows, t_rm, t_cf = kept
    inbound = InboundStoreRun(
        peer, unit, retires[:-1], np.concatenate(mems)[:-1],
        np.concatenate(sizes)[:-1],
        (full_base + WORD_BYTES * openers[:-1]) // lb * lb)

    # Every check passed: commit.
    values = memsys.memory.load_range(src, nwords)
    kept_from = int(openers[-1])
    inbound.commit(trows, dict(accesses=entries - 1, row_misses=t_rm,
                               same_bank_conflicts=t_cf),
                   first_dst, values[:kept_from], nwords)
    l1.commit_batch(tags, hits_n, nwords - hits_n)
    memsys.dram.commit_batch(lrows[0], lrows[1], accesses=l_n,
                             row_misses=l_rm, same_bank_conflicts=l_cf)
    wb.flush_retired(first_start)
    words = {}
    for j in range(kept_from, nwords):
        addr = full_base + j * WORD_BYTES
        words[addr - addr % WORD_BYTES] = values[j]
    first = full_base + kept_from * WORD_BYTES
    wb.append_isolated_run(
        entries - 1,
        PendingWrite(first - first % lb, last_start, float(retires[-1]),
                     words, apply_words=False, on_retire=peer.on_retire,
                     meta=unit),
        merged=nwords - entries)
    ctx.clock = clock
