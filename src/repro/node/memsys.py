"""The composed node memory system: TLB -> L1 (-> L2) -> write buffer
-> page-mode DRAM, over a functional word store.

Two standard configurations mirror the two machines of Figure 1:

* :func:`t3d_memory_system` — the CRAY-T3D node: 8 KB direct-mapped L1,
  no L2, huge pages (TLB never misses), fast 4-bank page-mode DRAM.
* :func:`workstation_memory_system` — the DEC Alpha workstation: same
  L1, 512 KB L2, 8 KB pages with a finite TLB, slower main memory.

Every access method takes the current node time (cycles) and returns
the cycles the access costs; probes call the ``*_cycles`` timing paths,
programs call :meth:`read` / :meth:`write` which also move data.
"""

from __future__ import annotations

from repro.node.cache import Cache
from repro.node.dram import Dram
from repro.node.memory import WordMemory
from repro.node.tlb import Tlb
from repro.node.write_buffer import WriteBuffer
from repro.params import (
    LOCAL_ADDR_MASK,
    NodeParams,
    t3d_node_params,
    workstation_node_params,
)
from repro.trace import tracer as _trace

__all__ = ["MemorySystem", "t3d_memory_system", "workstation_memory_system"]


class MemorySystem:
    """Stateful latency + functional model of one node's memory."""

    def __init__(self, params: NodeParams, memory: WordMemory | None = None):
        self.params = params
        self.memory = memory if memory is not None else WordMemory()
        self.tlb = Tlb(params.tlb)
        self.l1 = Cache(params.l1)
        self.l2 = Cache(params.l2) if params.l2 is not None else None
        self.dram = Dram(params.dram)
        # Write-buffer entries are tagged with the full (possibly
        # Annex-bearing) address — that exact-match tagging is the
        # synonym hazard — but commits land at the canonical location.
        _store = self.memory.store
        self.write_buffer = WriteBuffer(
            params.write_buffer,
            apply=lambda addr, value: _store(addr & LOCAL_ADDR_MASK, value),
            line_bytes=params.l1.line_bytes,
        )
        # The common T3D node shape (direct-mapped L1, no L2, TLB that
        # never misses) gets a flattened read path in :meth:`read`.
        self._fast_read = (self.l1._assoc == 1 and self.l2 is None
                           and self.tlb._never_misses)
        #: Processor identity for trace attribution; set by the owning
        #: Node (a bare memory system has none).
        self.owner_pe: int | None = None

    def counters(self) -> dict:
        """Counter-registry hook: the composed units' totals, prefixed
        by unit name (``l1.hits``, ``dram.row_misses``, ...)."""
        merged = {}
        units = [("tlb", self.tlb), ("l1", self.l1), ("l2", self.l2),
                 ("dram", self.dram), ("wb", self.write_buffer)]
        for prefix, unit in units:
            if unit is None:
                continue
            for key, value in unit.counters().items():
                merged[f"{prefix}.{key}"] = value
        return merged

    @staticmethod
    def local_addr(addr: int) -> int:
        """Canonical local location of a possibly Annex-bearing address.

        Two synonyms (addresses differing only in Annex-index bits,
        section 3.4) canonicalize to the same location: DRAM banks/rows
        and the backing store see this address, while cache tags and
        write-buffer entries see the raw one.
        """
        return addr & LOCAL_ADDR_MASK

    def reset(self) -> None:
        """Cold-start all stateful units (between probe runs)."""
        self.tlb.reset()
        self.l1.reset()
        if self.l2 is not None:
            self.l2.reset()
        self.dram.reset()
        self.write_buffer.reset()

    # ------------------------------------------------------------------
    # Timing paths (state-mutating, value-free; used by probes and by
    # the functional paths below).
    # ------------------------------------------------------------------

    def read_cycles(self, now: float, addr: int) -> float:
        """Latency of a load issued at ``now``.

        Uses the caches' fused probe-and-fill (read-allocate), which is
        state- and counter-identical to a lookup followed by a fill on
        miss.
        """
        cycles = self.tlb.translate(addr)
        if self.l1.access_fill(addr):
            return cycles + self.params.l1.hit_cycles
        if self.l2 is not None:
            if self.l2.access_fill(addr):
                return cycles + self.params.l2.hit_cycles
            return cycles + self.dram.access(addr & LOCAL_ADDR_MASK)
        return cycles + self.dram.access(addr & LOCAL_ADDR_MASK)

    def write_cycles(self, now: float, addr: int, value=None) -> float:
        """Latency charged to the CPU for a store issued at ``now``.

        Write-through, no-write-allocate: a hit updates the cached line
        (tags unchanged, data lives in the backing store), and every
        store is pushed toward memory through the write buffer.  The
        drain cost is the DRAM access the entry will perform, evaluated
        in stream order.
        """
        tlb = self.tlb
        cycles = 0.0 if tlb._never_misses else tlb.translate(addr)
        wb = self.write_buffer
        line = addr - (addr % wb.line_bytes)
        if wb._merging:
            for entry in wb._pending:
                if entry.line_addr == line:
                    return cycles + wb.push(now + cycles, addr, value, 0.0)
        drain = self.dram.access(line & LOCAL_ADDR_MASK)
        return cycles + wb.push_new(now + cycles, addr, value, drain)

    # ------------------------------------------------------------------
    # Functional paths (timing + data movement).
    # ------------------------------------------------------------------

    def read(self, now: float, addr: int):
        """Load a word: returns ``(cycles, value)``.

        A pending write-buffer store to *exactly* this word is
        forwarded; a pending store to a synonym address is not, so the
        caller reads the stale memory value — the section 3.4 hazard.
        """
        # The load checks the write buffer when it *issues* — this is
        # the bypass point: a concurrent pending write to a synonym is
        # invisible here and the load proceeds to (stale) memory.
        found = False
        if self.write_buffer._pending:
            found, value = self.write_buffer.find_word(now, addr)
        if self._fast_read:
            # Flattened read_cycles for the T3D shape: TLB never
            # misses (no counters), direct-mapped L1, then DRAM.
            l1 = self.l1
            lb = l1._line_bytes
            line = addr - (addr % lb)
            index = (addr // lb) % l1._num_sets
            if l1._tags.get(index) == line:
                l1.hits += 1
                cycles = self.params.l1.hit_cycles
            else:
                l1.misses += 1
                l1._tags[index] = line
                cycles = self.dram.access(addr & LOCAL_ADDR_MASK)
        else:
            cycles = self.read_cycles(now, addr)
        if found:
            return cycles, value
        return cycles, self.memory.load(addr & LOCAL_ADDR_MASK)

    def write(self, now: float, addr: int, value) -> float:
        """Store a word; value commits to memory when its write-buffer
        entry drains.  Returns the CPU cycles charged."""
        return self.write_cycles(now, addr, value)

    def memory_barrier(self, now: float) -> float:
        """Drain the write buffer; return the new node time.

        Models the ``mb`` instruction: its own issue cost plus waiting
        for every pending write to reach memory.
        """
        done = self.write_buffer.drain_all(now)
        done = max(now + self.params.alpha.memory_barrier_cycles, done)
        if _trace.TRACE_ENABLED:
            _trace.emit("mem_barrier", t=now, pe=self.owner_pe, done=done)
        return done

    # ------------------------------------------------------------------
    # Hooks for the shell (remote access to / through this node).
    # ------------------------------------------------------------------

    def dram_access(self, addr: int) -> float:
        """A memory-controller access on behalf of a remote requester.

        Remote reads and writes hit the target node's DRAM directly
        (they do not allocate in the target's cache); the off-page
        behaviour of the *remote* memory controller is what the remote
        probes of Figures 4/5/7 observe.
        """
        return self.dram.access(self.local_addr(addr))

    def fill_remote_line(self, addr: int) -> None:
        """Install a remote line into the local L1 (cached remote read)."""
        self.l1.fill(addr)

    def invalidate_line(self, addr: int) -> float:
        """Flush one line (coherence flush); returns its cost."""
        self.l1.invalidate(addr)
        return self.params.l1.flush_line_cycles

    def flush_all_lines(self) -> float:
        """Whole-cache flush; cheaper than many line flushes."""
        self.l1.flush_all()
        return self.params.l1.flush_all_cycles


def t3d_memory_system() -> MemorySystem:
    """A fresh CRAY-T3D node memory system (section 2 configuration)."""
    return MemorySystem(t3d_node_params())


def workstation_memory_system() -> MemorySystem:
    """A fresh DEC Alpha workstation memory system (Figure 1, right)."""
    return MemorySystem(workstation_node_params())
