"""Remote reads and writes through the shell (paper sections 4, 5.3).

The unit models the four data-movement flavors the shell gives a
single node:

* **Uncached remote read** — fetches one word from the target node's
  DRAM; ~91 cycles to an adjacent node.
* **Cached remote read** — fetches a whole 32-byte line and installs it
  in the local L1; ~114 cycles, after which local hits cost 1 cycle.
  The hardware keeps **no coherence**: the installed line is a snapshot
  and goes stale if the owner writes (section 4.4).
* **Non-blocking remote write** — the store drains through the write
  buffer to the shell (~17 cycles each in steady state, Figure 7) and
  is acknowledged by the target; the shell status register counts
  outstanding acknowledgements.
* **Acknowledged (blocking) write** — store + memory barrier + status
  polling; ~130 cycles (section 4.3), including the subtlety that the
  status bit is *clear while the write is still in the write buffer*,
  so polling without a barrier reports completion prematurely.

The unit reaches other nodes through a ``fabric`` object (implemented
by :class:`repro.machine.machine.Machine`) providing ``hops(src, dst)``,
``node(pe)`` and ``notify_store_arrival(...)``.
"""

from __future__ import annotations

from array import array

from repro.params import (
    LOCAL_ADDR_MASK,
    NetworkParams,
    RemoteAccessParams,
    WORD_BYTES,
)
from repro.trace import tracer as _trace

__all__ = ["AckRecord", "InboundStoreRun", "PeerExports",
           "RemoteAccessUnit", "make_inbound_on_retire"]


def make_inbound_on_retire(node, rparams: RemoteAccessParams):
    """Build the write-retirement callback for stores *into* ``node``.

    One closure per target serves every sender: the sending unit —
    whose acknowledgement list the ack joins, and whose flight row gives
    the packet's flight time — travels on the entry itself as
    ``entry.meta``.  Hot target-side state is bound here once; the
    flat-geometry DRAM access and the direct-mapped invalidate are
    inlined (falling back to the generic methods for other
    configurations).

    Every binding is stable across :meth:`Machine.reset`: the open-row
    list and the tag dict are cleared in place by their units' resets.
    """
    ms = node.memsys
    dram = ms.dram
    l1 = ms.l1
    access_with = dram.access_with
    same_bank = ms.params.dram.same_bank_cycles
    access_cycles = ms.params.dram.access_cycles
    mem_store = ms.memory.store
    l1_invalidate = l1.invalidate
    l1_tags = l1._tags if l1._assoc == 1 else None
    l1_lb = l1._line_bytes
    l1_sets = l1._num_sets
    record_arrival = node.record_store_arrival
    interleave = dram._interleave
    banks = dram._banks
    geom_flat = (interleave == dram._page_bytes
                 and interleave & (interleave - 1) == 0
                 and banks & (banks - 1) == 0)
    il_shift = interleave.bit_length() - 1
    bank_mask = banks - 1
    bank_shift = banks.bit_length() - 1
    open_row = dram._open_row
    service = rparams.target_service_cycles
    off_page = rparams.remote_off_page_cycles
    ack_overhead = rparams.write_ack_overhead_cycles
    target_pe = node.pe
    mask = LOCAL_ADDR_MASK

    def on_retire(entry):
        src = entry.meta
        flight = src._flights[target_pe]
        # Target-interface serialization: one sender's stream never
        # queues (service rate = injection rate), but converging
        # senders do — incast congestion.
        arrival = entry.retire_time + flight
        if arrival < node.inbound_busy_until:
            arrival = node.inbound_busy_until
        node.inbound_busy_until = arrival + service
        line_local = entry.line_addr & mask
        if geom_flat:
            # Inlined Dram.access_with for the flat T3D geometry
            # (interleave == page size, powers of two): row is simply
            # block // banks, so shifts replace the divmod chain.
            block = line_local >> il_shift
            bank = block & bank_mask
            row = block >> bank_shift
            mem_cycles = access_cycles
            dram.accesses += 1
            if open_row[bank] != row:
                dram.row_misses += 1
                mem_cycles += off_page
                if bank == dram._last_bank:
                    dram.same_bank_conflicts += 1
                    mem_cycles += same_bank
                open_row[bank] = row
            dram._last_bank = bank
        else:
            mem_cycles = access_with(line_local, off_page, same_bank)
        nbytes = 0
        for waddr, wvalue in entry.words.items():
            local = waddr & mask
            mem_store(local, wvalue)
            if l1_tags is not None:
                # Inlined direct-mapped Cache.invalidate.
                index = (local // l1_lb) % l1_sets
                if l1_tags.get(index) == local - (local % l1_lb):
                    del l1_tags[index]
            else:
                l1_invalidate(local)
            nbytes += WORD_BYTES
        ack_time = arrival + mem_cycles + flight + ack_overhead
        src._acks.append(
            AckRecord(entry.retire_time, ack_time, nbytes))
        if _trace.TRACE_ENABLED:
            _trace.emit("remote_ack", t=entry.retire_time,
                        pe=src.my_pe, target=target_pe, nbytes=nbytes,
                        ack_time=ack_time)
        record_arrival(nbytes, arrival + mem_cycles, line_local)

    return on_retire


class InboundStoreRun:
    """Batch counterpart of :func:`make_inbound_on_retire`: the
    retirement of a run of one sender's store packets into ``peer``'s
    node, in retire order, computed whole (:mod:`repro.vector.bulk`).

    Construction is pure: it places each packet's arrival behind the
    target interface's serialization and raises
    :class:`~repro.vector.UnsupportedStimulus` unless only the first
    can queue (behind earlier traffic) — one sender's stream, drained
    at least ``target_service_cycles`` apart, never queues behind
    itself.  ``retires`` are the entries' retire times, ``mem_cycles``
    the target DRAM cost of each packet's access (the caller computes
    the access stream) and ``nbytes`` its payload; all are numpy
    arrays.  :meth:`commit` then does what the per-line callbacks
    would have done.
    """

    def __init__(self, peer: "PeerExports", sender: "RemoteAccessUnit",
                 retires, mem_cycles, nbytes, lines):
        from repro.vector import UnsupportedStimulus
        node = peer.node
        rparams = node.remote.params
        flight = sender.flight(node.pe)
        arrivals = retires + flight
        if len(arrivals) and arrivals[0] < node.inbound_busy_until:
            arrivals[0] = node.inbound_busy_until
        if (arrivals[1:] < arrivals[:-1]
                + rparams.target_service_cycles).any():
            raise UnsupportedStimulus("a store packet queues behind the "
                                      "sender's own stream")
        self.peer = peer
        self.sender = sender
        self.retires = retires
        self.arrivals = arrivals
        # on_retire's order: arrival + mem, then + flight, + overhead.
        self.landed = arrivals + mem_cycles
        self.acks = (self.landed + flight) + rparams.write_ack_overhead_cycles
        self.nbytes = nbytes
        self.lines = lines & LOCAL_ADDR_MASK
        self.service = rparams.target_service_cycles

    def commit(self, dram_state, dram_counts: dict, first_word: int,
               values: list, stores: int) -> None:
        """Install the run: the target interface's busy time, the
        target DRAM's final ``dram_state`` and ``dram_counts``
        (:meth:`Dram.commit_batch <repro.node.dram.Dram.commit_batch>`),
        the payload ``values`` stored from local word ``first_word`` on
        with the target L1 lines they cover invalidated, the arrival
        log, and the sender's ``stores`` stores and acknowledgements."""
        peer = self.peer
        node = peer.node
        if len(self.arrivals):
            node.inbound_busy_until = float(self.arrivals[-1]) + self.service
        peer.dram.commit_batch(dram_state[0], dram_state[1], **dram_counts)
        if values:
            peer.memory.store_range(first_word, values)
            node.memsys.l1.invalidate_range(first_word,
                                            len(values) * WORD_BYTES)
        nbytes = self.nbytes.tolist()
        node.record_store_arrivals(self.landed, nbytes, self.lines.tolist())
        self.sender.commit_store_run(stores, self.retires.tolist(),
                                     self.acks.tolist(), nbytes)


class AckRecord:
    """An in-flight remote-write acknowledgement."""

    __slots__ = ("drain_time", "ack_time", "nbytes")

    def __init__(self, drain_time: float, ack_time: float, nbytes: int):
        self.drain_time = drain_time   # when the store left the buffer
        self.ack_time = ack_time       # when the ack clears the status bit
        self.nbytes = nbytes

    def __repr__(self) -> str:   # debugging aid only
        return (f"AckRecord(drain_time={self.drain_time}, "
                f"ack_time={self.ack_time}, nbytes={self.nbytes})")


class PeerExports:
    """Target-side bindings for the remote hot paths, built once per
    *target* node (:meth:`Node.peer_exports
    <repro.machine.node.Node.peer_exports>`) and shared by every sender.

    Everything here is stable for the machine's life (nodes, units and
    DRAM geometry are created once; ``open_row`` is the controller's
    live row list, which its reset clears in place), so the bundle
    collapses the attribute-chain walks and the DRAM geometry
    derivation that ``put_scatter`` would otherwise repeat per group.
    Nothing in it is per pair: a sender's flight time comes from the
    machine's hop table (:meth:`RemoteAccessUnit.flight`) and the
    sender rides on each retiring entry as ``entry.meta``.
    """

    __slots__ = ("node", "dram", "memory", "access_with",
                 "peek_access_with", "same_bank", "access_cycles",
                 "mem_load", "on_retire", "geom_flat", "il_shift",
                 "bank_mask", "bank_shift", "open_row")

    def __init__(self, node, rparams: RemoteAccessParams):
        ms = node.memsys
        dram = ms.dram
        interleave = dram.params.bank_interleave_bytes
        banks = dram.params.banks
        self.node = node
        self.dram = dram
        self.memory = ms.memory
        self.access_with = dram.access_with
        self.peek_access_with = dram.peek_access_with
        self.same_bank = ms.params.dram.same_bank_cycles
        self.access_cycles = ms.params.dram.access_cycles
        self.mem_load = ms.memory.load
        self.on_retire = make_inbound_on_retire(node, rparams)
        # Power-of-two controller geometry: when the interleave equals
        # the page size, row = block // banks exactly, and bank/row
        # extraction reduces to shifts and masks.
        self.geom_flat = (interleave == dram.params.page_bytes
                          and interleave & (interleave - 1) == 0
                          and banks & (banks - 1) == 0)
        self.il_shift = interleave.bit_length() - 1
        self.bank_mask = banks - 1
        self.bank_shift = banks.bit_length() - 1
        self.open_row = dram._open_row


class RemoteAccessUnit:
    """Per-node remote load/store engine."""

    def __init__(self, params: RemoteAccessParams, network: NetworkParams,
                 my_pe: int, memsys, fabric):
        self.params = params
        self.network = network
        self.my_pe = my_pe
        self.memsys = memsys
        self.fabric = fabric
        # The machine's shared target bundles, and the one-way flight
        # time to each processor (this processor's row of the hop
        # table, in cycles), bound on first use (see peer).
        self._peers = None
        self._flights = None
        self._acks: list[AckRecord] = []
        #: Data snapshots for remotely-fetched cache lines, keyed by the
        #: full (annex-bearing) line address.  Snapshot staleness *is*
        #: the non-coherence of cached remote reads.
        self._line_snapshots: dict[int, dict[int, object]] = {}
        self.reads = 0
        self.cached_reads = 0
        self.stores = 0
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("remote", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals."""
        return {"uncached_reads": self.reads,
                "cached_line_fills": self.cached_reads,
                "stores": self.stores}

    def reset(self) -> None:
        self._acks = []
        self._line_snapshots = {}
        self.reads = 0
        self.cached_reads = 0
        self.stores = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def peer(self, pe: int) -> PeerExports:
        """The target-side bindings of processor ``pe`` (shared by every
        sender).  Also binds this unit's flight row, which every remote
        store's retirement reads (``entry.meta._flights``)."""
        peers = self._peers
        if peers is None:
            peers = self._peers = self.fabric.peer_exports()
            hop = self.network.hop_cycles
            self._flights = array("d", [hops * hop for hops in
                                        self.fabric.hops_row(self.my_pe)])
        if not 0 <= pe < len(peers):
            self.fabric.node(pe)          # raises the fabric's error
        peer = peers[pe]
        if peer is None:
            peer = peers[pe] = self.fabric.node(pe).peer_exports()
        return peer

    def flight(self, pe: int) -> float:
        """One-way network time to processor ``pe``, in cycles."""
        self.peer(pe)
        return self._flights[pe]

    def _target_memory_cycles(self, pe: int, offset: int) -> float:
        """A remote memory-controller access at the target node.

        The off-page penalty through the remote controller is larger
        than the local one (~15 vs ~9 cycles, section 4.2).
        """
        peer = self.peer(pe)
        return peer.access_with(offset & LOCAL_ADDR_MASK,
                                self.params.remote_off_page_cycles,
                                peer.same_bank)

    def commit_read_run(self, reads: int = 0, line_fills: int = 0,
                        dropped=(), fetched=None,
                        flush_all: bool = False) -> None:
        """Record a batch of remote reads computed elsewhere
        (:mod:`repro.vector.bulk`): add ``reads`` uncached reads and
        ``line_fills`` cached line fills, and drop the snapshots the
        batch's evictions and flushes dropped — the lines in
        ``dropped``, every line in the inclusive ``fetched`` range
        ``(first, last)`` (lines the batch fetched and flushed), or all
        of them with ``flush_all``."""
        self.reads += reads
        self.cached_reads += line_fills
        snapshots = self._line_snapshots
        if flush_all:
            snapshots.clear()
            return
        for line in dropped:
            snapshots.pop(line, None)
        if fetched is not None and snapshots:
            first, last = fetched
            for line in [k for k in snapshots if first <= k <= last]:
                del snapshots[line]

    def commit_store_run(self, stores: int, drain_times, ack_times,
                         nbytes) -> None:
        """Record a batch of remote stores computed elsewhere
        (:mod:`repro.vector.bulk`): add ``stores`` stores and one
        acknowledgement per drained entry, in drain order."""
        self.stores += stores
        self._acks.extend(map(AckRecord, drain_times, ack_times, nbytes))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def uncached_read(self, now: float, pe: int, offset: int):
        """Fetch one word from a remote node; returns (cycles, value)."""
        self.reads += 1
        peer = self.peer(pe)
        local = offset & LOCAL_ADDR_MASK
        cycles = (
            self.params.read_overhead_cycles
            + 2 * self._flights[pe]
            + peer.access_with(local, self.params.remote_off_page_cycles,
                               peer.same_bank)
        )
        if _trace.TRACE_ENABLED:
            _trace.emit("remote_read", t=now, pe=self.my_pe,
                        target=pe, offset=local, cycles=cycles)
        return cycles, peer.mem_load(local)

    def cached_read(self, now: float, pe: int, offset: int, full_addr: int):
        """Read via a cached remote access; returns (cycles, value).

        A local hit on a previously-fetched line costs one cycle and
        returns the *snapshot* value — stale if the owner has written
        since (the section 4.4 coherence pitfall).  A miss fetches the
        whole line (+23 cycles over an uncached read) and installs it.
        """
        l1 = self.memsys.l1
        if l1.lookup(full_addr):
            snapshot = self._line_snapshots.get(l1.line_addr(full_addr))
            word = full_addr - (full_addr % WORD_BYTES)
            if snapshot is not None and word in snapshot:
                return self.memsys.params.l1.hit_cycles, snapshot[word]
            # Locally-owned or snapshot-less line: fall back to memory.
            return self.memsys.params.l1.hit_cycles, self.peer(
                pe).mem_load(offset & LOCAL_ADDR_MASK)

        self.cached_reads += 1
        cycles = (
            self.params.read_overhead_cycles
            + self.params.cached_line_extra_cycles
            + 2 * self.flight(pe)
            + self._target_memory_cycles(pe, offset)
        )
        if _trace.TRACE_ENABLED:
            _trace.emit("remote_read_cached", t=now, pe=self.my_pe,
                        target=pe, offset=offset & LOCAL_ADDR_MASK,
                        cycles=cycles)
        target_mem = self.peer(pe).memory
        line_full = l1.line_addr(full_addr)
        line_local = line_full & LOCAL_ADDR_MASK
        snapshot = {
            line_full + i * WORD_BYTES: target_mem.load(line_local + i * WORD_BYTES)
            for i in range(self.memsys.params.l1.line_bytes // WORD_BYTES)
        }
        evicted = l1.fill(full_addr)
        if evicted is not None:
            self._line_snapshots.pop(evicted, None)
        self._line_snapshots[line_full] = snapshot
        word = full_addr - (full_addr % WORD_BYTES)
        return cycles, snapshot[word]

    def invalidate_cached_line(self, full_addr: int) -> float:
        """Coherence flush of a remotely-fetched line (23 cycles)."""
        self._line_snapshots.pop(self.memsys.l1.line_addr(full_addr), None)
        return self.memsys.invalidate_line(full_addr)

    def flush_all_cached(self) -> float:
        """Whole-cache flush; drops every snapshot (section 6.2 note 3)."""
        self._line_snapshots.clear()
        return self.memsys.flush_all_lines()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def store(self, now: float, pe: int, offset: int, value,
              full_addr: int) -> float:
        """Non-blocking remote store; returns the CPU cycles charged.

        The store enters the node's write buffer (merging with an open
        entry for the same line) and, on drain, becomes a packet whose
        arrival writes the target memory, invalidates the target's
        cached copy (cache-invalidate mode, section 4.4), and sends an
        acknowledgement back toward the status register.
        """
        self.stores += 1
        # The drain rate feels the target memory controller: a store
        # stream that misses the remote DRAM page on every line (16 KB
        # strides) backs the pipeline up — Figure 7's inflection.
        peer = self.peer(pe)
        drain = self.params.store_drain_cycles + (
            peer.peek_access_with(
                offset & LOCAL_ADDR_MASK,
                self.params.remote_off_page_cycles,
                peer.same_bank,
            ) - peer.access_cycles
        )
        cycles = self.memsys.write_buffer.push(
            now, full_addr, value, drain,
            apply_words=False, on_retire=peer.on_retire, meta=self,
        )
        if _trace.TRACE_ENABLED:
            _trace.emit("remote_store", t=now, pe=self.my_pe, target=pe,
                        offset=offset & LOCAL_ADDR_MASK, cycles=cycles)
        return cycles

    def outstanding(self, now: float) -> int:
        """Remote writes the status register counts at time ``now``.

        Only stores that have *left the write buffer* are visible;
        stores still buffered are invisible — the section 4.3 hazard.
        """
        self.memsys.write_buffer.flush_retired(now)
        self._acks = [a for a in self._acks if a.ack_time > now]
        return sum(1 for a in self._acks if a.drain_time <= now)

    def status_says_complete(self, now: float) -> bool:
        """One status-register read: True if no writes appear pending."""
        return self.outstanding(now) == 0

    def wait_for_acks(self, now: float) -> float:
        """Poll the status register until every acknowledged write has
        completed; returns the completion time."""
        self.memsys.write_buffer.flush_retired(now)
        pending = [a.ack_time for a in self._acks if a.ack_time > now]
        done = max(pending) if pending else now
        self._acks = [a for a in self._acks if a.ack_time > done]
        return done + self.params.status_poll_cycles

    def blocking_write(self, now: float, pe: int, offset: int, value,
                       full_addr: int) -> float:
        """Acknowledged remote write (section 4.3); returns total cycles.

        Store, then a memory barrier to force the write out of the
        buffer (otherwise the status bit lies), then poll to the ack.
        """
        t = now + self.store(now, pe, offset, value, full_addr)
        t = self.memsys.memory_barrier(t)
        t = self.wait_for_acks(t)
        return t - now
