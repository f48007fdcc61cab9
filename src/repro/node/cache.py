"""Set-associative cache timing/state model.

The T3D node has a single on-chip 8 KB direct-mapped, write-through,
read-allocate data cache with 32-byte lines (sections 1.2 and 2.2).
The DEC Alpha workstation used for comparison in Figure 1 adds a 512 KB
board-level cache.  Both are instances of this model.

The model tracks tags only (data lives in the node's backing memory);
it answers hit/miss and implements fills, invalidations and flushes.
Because tags store the *full* address, two Annex synonyms — physical
addresses differing only in their Annex-index bits — map to the same
set (the index bits are low-order) but can never both be resident,
which is exactly why the paper found cache synonyms harmless on the
direct-mapped 21064 (section 3.4).

Tag storage is dict-backed so every probe is O(1): a direct-mapped
cache keeps one ``set index -> line address`` mapping, and a
set-associative cache keeps one insertion-ordered ``line -> None``
dict per set (oldest first), giving O(1) LRU touch and eviction.
"""

from __future__ import annotations

from repro.params import CacheParams
from repro.trace import tracer as _trace

__all__ = ["Cache"]


class Cache:
    """Tag-array model of one cache level with LRU replacement."""

    def __init__(self, params: CacheParams):
        self.params = params
        self._line_bytes = params.line_bytes
        self._num_sets = params.num_sets
        self._assoc = params.associativity
        # Direct-mapped (the common case): set index -> resident line
        # address.  Set-associative: set index -> {line: None} in LRU
        # order, most recent last.
        if self._assoc == 1:
            self._tags: dict[int, int] = {}
        else:
            self._ways: dict[int, dict[int, None]] = {}
        self.hits = 0
        self.misses = 0
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("cache", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals.

        Hit/miss counts are maintained identically by the reference
        path and every batched fast path (PR 1 commits its local
        deltas here), so they are safe to harvest after any run.
        """
        return {"hits": self.hits, "misses": self.misses,
                "resident_lines": self.resident_lines}

    def reset(self) -> None:
        """Empty the cache (e.g. between probe runs)."""
        if self._assoc == 1:
            self._tags.clear()
        else:
            self._ways.clear()
        self.hits = 0
        self.misses = 0

    @property
    def _sets(self) -> list[list[int]]:
        """Per-set resident lines, LRU order (compatibility view)."""
        sets: list[list[int]] = [[] for _ in range(self._num_sets)]
        if self._assoc == 1:
            for index, line in self._tags.items():
                sets[index].append(line)
        else:
            for index, ways in self._ways.items():
                sets[index].extend(ways)
        return sets

    def line_addr(self, addr: int) -> int:
        """Address of the line containing ``addr``."""
        return addr - (addr % self._line_bytes)

    def set_index(self, addr: int) -> int:
        """Set an address maps to (indexed by low-order line bits)."""
        return (addr // self._line_bytes) % self._num_sets

    def lookup(self, addr: int) -> bool:
        """Probe the cache; updates LRU order and hit/miss counters."""
        line = addr - (addr % self._line_bytes)
        index = (addr // self._line_bytes) % self._num_sets
        if self._assoc == 1:
            if self._tags.get(index) == line:
                self.hits += 1
                return True
        else:
            ways = self._ways.get(index)
            if ways is not None and line in ways:
                self.hits += 1
                del ways[line]
                ways[line] = None
                return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Non-destructive residency check (no LRU or counter update)."""
        line = addr - (addr % self._line_bytes)
        index = (addr // self._line_bytes) % self._num_sets
        if self._assoc == 1:
            return self._tags.get(index) == line
        ways = self._ways.get(index)
        return ways is not None and line in ways

    def fill(self, addr: int) -> int | None:
        """Bring the line holding ``addr`` in; return the evicted line
        address, or ``None`` if no eviction happened."""
        line = addr - (addr % self._line_bytes)
        index = (addr // self._line_bytes) % self._num_sets
        if self._assoc == 1:
            evicted = self._tags.get(index)
            if evicted == line:
                return None
            self._tags[index] = line
            return evicted
        ways = self._ways.get(index)
        if ways is None:
            ways = self._ways[index] = {}
        elif line in ways:
            return None
        evicted = None
        if len(ways) >= self._assoc:
            evicted = next(iter(ways))
            del ways[evicted]
        ways[line] = None
        return evicted

    def access_fill(self, addr: int) -> bool:
        """Fused ``lookup`` + ``fill``-on-miss; returns whether it hit.

        State, counters, and eviction choice are identical to a
        ``lookup`` followed (on miss) by a ``fill`` — this is the
        single-call fast path the memory system's read pipeline uses.
        """
        line = addr - (addr % self._line_bytes)
        index = (addr // self._line_bytes) % self._num_sets
        if self._assoc == 1:
            if self._tags.get(index) == line:
                self.hits += 1
                return True
            self.misses += 1
            self._tags[index] = line
            return False
        ways = self._ways.get(index)
        if ways is None:
            ways = self._ways[index] = {}
        elif line in ways:
            self.hits += 1
            del ways[line]
            ways[line] = None
            return True
        self.misses += 1
        if len(ways) >= self._assoc:
            del ways[next(iter(ways))]
        ways[line] = None
        return False

    def tag_array(self):
        """The direct-mapped tag state as an int64 numpy array: the
        resident line address of each set, ``-1`` for an empty set.
        This is the state :meth:`access_fill_batch` starts from."""
        import numpy as np
        self._require_direct_mapped()
        tags = np.full(self._num_sets, -1, dtype=np.int64)
        count = len(self._tags)
        if count:
            tags[np.fromiter(self._tags.keys(), np.int64, count)] = \
                np.fromiter(self._tags.values(), np.int64, count)
        return tags

    def access_fill_batch(self, addrs, tags):
        """:meth:`access_fill` over a whole int64 address array, starting
        from ``tags`` (a :meth:`tag_array`-shaped state): returns
        ``(hits, tags_after)``.

        Pure: the cache is untouched until :meth:`commit_batch`
        installs ``tags_after`` and the hit/miss counts — exactly the
        state and counters the per-access calls would leave.
        Direct-mapped caches only; others raise
        :class:`~repro.vector.UnsupportedStimulus`.
        """
        from repro.vector.kernels import direct_mapped_access
        self._require_direct_mapped()
        return direct_mapped_access(addrs, self._line_bytes, self._num_sets,
                                    tags)

    def commit_batch(self, tags, hits: int, misses: int) -> None:
        """Install a batch's final :meth:`tag_array` state and add its
        hit/miss counts.  The tag dict is rebuilt in place: peer units
        bind it directly."""
        import numpy as np
        self._require_direct_mapped()
        occupied = np.flatnonzero(tags >= 0)
        self._tags.clear()
        self._tags.update(zip(occupied.tolist(), tags[occupied].tolist()))
        self.hits += hits
        self.misses += misses

    def _require_direct_mapped(self) -> None:
        if self._assoc != 1:
            from repro.vector import UnsupportedStimulus
            raise UnsupportedStimulus("batch access needs a direct-mapped "
                                      "cache")

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr``; return whether it was present.

        This is the per-line flush used to keep non-coherent remote
        cached reads safe (section 4.4) and the remote-write-induced
        invalidation of cache-invalidate mode.
        """
        line = addr - (addr % self._line_bytes)
        index = (addr // self._line_bytes) % self._num_sets
        if self._assoc == 1:
            if self._tags.get(index) == line:
                del self._tags[index]
                return True
            return False
        ways = self._ways.get(index)
        if ways is not None and line in ways:
            del ways[line]
            return True
        return False

    def invalidate_range(self, addr: int, nbytes: int) -> None:
        """Drop every line overlapping ``[addr, addr + nbytes)``.

        Equivalent to calling :meth:`invalidate` on each covered line;
        used by bulk-transfer paths so invalidation cost is one call
        per line rather than one per word.
        """
        line_bytes = self._line_bytes
        first = addr - (addr % line_bytes)
        last = (addr + max(nbytes, 1) - 1)
        last -= last % line_bytes
        if self._assoc == 1 and (last - first) // line_bytes >= len(self._tags):
            # Cheaper to scan the resident tags than the address range.
            for index, line in list(self._tags.items()):
                if first <= line <= last:
                    del self._tags[index]
            return
        for line in range(first, last + line_bytes, line_bytes):
            self.invalidate(line)

    def flush_all(self) -> int:
        """Empty the whole cache; return the number of lines dropped.

        Models the batched whole-cache flush the paper found cheaper
        than per-line flushes for transfers of 8 KB or more
        (section 6.2, footnote 3).
        """
        dropped = self.resident_lines
        if self._assoc == 1:
            self._tags.clear()
        else:
            self._ways.clear()
        return dropped

    @property
    def resident_lines(self) -> int:
        if self._assoc == 1:
            return len(self._tags)
        return sum(len(ways) for ways in self._ways.values())
