"""Vectorized tag-arithmetic twins of the :mod:`repro.node` unit models.

Each function here computes, over a whole pre-generated address stream,
exactly what the corresponding stateful model computes one access at a
time:

================================  ===================================
:func:`direct_mapped_access`      :meth:`repro.node.cache.Cache.access_fill`
                                  (direct-mapped)
:func:`dram_access_stream`        :meth:`repro.node.dram.Dram.access_with`
:func:`isolated_store_retires`    :meth:`repro.node.write_buffer.WriteBuffer.push_new`
                                  (stores that never meet in the buffer)
:func:`store_run_schedule`        :meth:`repro.node.memsys.MemorySystem.write_cycles`
                                  (a run that may merge, entries isolated)
:func:`tlb_cost_stream`           :meth:`repro.node.tlb.Tlb.translate`
                                  (fully-associative LRU)
================================  ===================================

The correspondence is lock-step, not approximate — the unit tests in
``tests/vector/test_kernels.py`` replay random streams through both
spellings and require identical outputs.  The cache and DRAM kernels
start from any unit state (warm tags, open rows, last bank) and return
the state they leave; ``None`` means the reset state, which is what
the probe sweeps pass (their ``reset_fn`` cold-starts the machine).
:meth:`Cache.access_fill_batch <repro.node.cache.Cache.access_fill_batch>`
and :meth:`Dram.access_batch <repro.node.dram.Dram.access_batch>` expose
them on the units themselves.  Streams are non-negative integer
addresses.

Why the results are bit-identical, not just numerically close: every
per-access cost in the calibrated model is a small dyadic rational
(integers on the read paths; quarter-integer write-buffer drain
intervals at worst, since ``drain / capacity`` divides by the
power-of-two buffer depth 4), and probe totals stay many orders of
magnitude below 2**53 — so every float64 addition is exact, and any
summation order (including numpy's pairwise reduction) produces the
same bits as the reference model's sequential accumulation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.vector import UnsupportedStimulus

__all__ = [
    "DramStream",
    "direct_mapped_access",
    "direct_mapped_hit_mask",
    "dram_access_stream",
    "dram_cost_stream",
    "isolated_store_retires",
    "sawtooth_addresses",
    "store_run_schedule",
    "tlb_cost_stream",
    "validate_point",
]


def validate_point(base: int, stride: int, count: int,
                   warmup_passes: int, measure_passes: int) -> None:
    """Reject point geometry the kernels do not claim.

    The reference loop technically accepts degenerate inputs (a
    negative stride walks addresses downward; ``range`` raises on a
    zero stride), so anything outside the canonical sawtooth —
    positive stride, at least one access, non-negative base, at least
    one measured pass — is routed back to a lower tier rather than
    silently reinterpreted.
    """
    if stride <= 0 or count <= 0 or base < 0 \
            or warmup_passes < 0 or measure_passes < 1:
        raise UnsupportedStimulus(
            f"non-canonical point geometry: base={base} stride={stride} "
            f"count={count} passes={warmup_passes}+{measure_passes}")


def sawtooth_addresses(base: int, stride: int, count: int,
                       npasses: int) -> np.ndarray:
    """The full probe stimulus as one int64 array: ``npasses``
    repetitions of ``base, base+stride, ..., base+(count-1)*stride``.

    int64 is exact here: probe addresses stay far below 2**63 (the
    largest composed address is one annex bit at 2**32 plus a sub-GB
    offset).
    """
    one_pass = base + stride * np.arange(count, dtype=np.int64)
    if npasses == 1:
        return one_pass
    return np.tile(one_pass, npasses)


def _repeat_mask(keys: np.ndarray, values: np.ndarray,
                 initial: np.ndarray):
    """The shared closed form of every "one resident value per slot"
    unit: a direct-mapped cache (slot = set, value = line) and a
    page-mode DRAM (slot = bank, value = open row).

    Returns ``(same, final)``: ``same[i]`` is whether ``values[i]``
    equals the value most recently seen in slot ``keys[i]`` — the
    previous position with the same key, or ``initial[key]`` at a
    key's first position — and ``final`` is ``initial`` with each
    touched slot set to its last value.  A stable sort by key groups
    the stream by slot while preserving program order inside each
    group, turning "same as my predecessor?" into one shifted compare.
    Keys are small slot indices, so they sort as int16 where they fit
    (numpy's stable sort is then a linear radix sort).
    """
    n = len(keys)
    final = initial.copy()
    if not n:
        return np.zeros(0, dtype=bool), final
    sort_keys = keys.astype(np.int16) if len(initial) <= 1 << 15 else keys
    order = np.argsort(sort_keys, kind="stable")
    ks = keys[order]
    vs = values[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ks[1:], ks[:-1], out=first[1:])
    prev = np.empty_like(vs)
    prev[1:] = vs[:-1]
    prev[first] = initial[ks[first]]
    same = np.empty(n, dtype=bool)
    same[order] = vs == prev
    last = np.empty(n, dtype=bool)
    last[:-1] = first[1:]
    last[-1] = True
    final[ks[last]] = vs[last]
    return same, final


def direct_mapped_access(addrs: np.ndarray, line_bytes: int,
                         num_sets: int, tags: np.ndarray | None = None):
    """Hits of a stream through a direct-mapped read-allocate cache,
    and the tag state it leaves: ``(hits, tags_after)``.

    Twin of :meth:`Cache.access_fill` with ``associativity == 1``.
    ``tags`` holds the resident line address of each set (``-1`` for
    an empty set); ``None`` starts from a cold cache.  The resident
    line of a set is always the line of the most recent prior access
    mapping to that set (a hit leaves it, a miss overwrites it), so
    access *i* hits iff the previous access to its set touched the same
    line, or, for a set's first access in the stream, iff the set
    already holds that line.
    """
    lines = addrs // line_bytes         # line *number*; non-negative
    sets = lines % num_sets             # ints, so // and % are exact
    if tags is None:
        tags = np.full(num_sets, -1, dtype=np.int64)
    return _repeat_mask(sets, lines * line_bytes, tags)


def direct_mapped_hit_mask(addrs: np.ndarray, line_bytes: int,
                           num_sets: int) -> np.ndarray:
    """Hit/miss of each access against a cold direct-mapped cache
    (:func:`direct_mapped_access` from reset state)."""
    return direct_mapped_access(addrs, line_bytes, num_sets)[0]


class DramStream(NamedTuple):
    """What :func:`dram_access_stream` computes for one stream."""

    #: Per-access latency, cycles.
    costs: np.ndarray
    row_misses: int
    same_bank_conflicts: int
    #: Open row per bank after the stream (``-1``: none yet).
    open_row: np.ndarray
    last_bank: int


def dram_access_stream(addrs: np.ndarray, *, interleave: int, banks: int,
                       page_bytes: int, access_cycles: float,
                       off_page_cycles: float, same_bank_cycles: float,
                       open_row: np.ndarray | None = None,
                       last_bank: int = -1) -> DramStream:
    """A stream of accesses through a page-mode DRAM, starting from
    ``open_row`` (per bank, ``-1`` for none; ``None`` is the reset
    state) and ``last_bank``.

    Twin of :meth:`Dram.access_with`: after any access to a bank that
    bank's open row equals that access's row (a hit means it already
    did; a miss installs it), so an access row-misses iff its row
    differs from the previous access *to the same bank*, or from the
    bank's open row at its first access in the stream.  The same-bank
    conflict additionally requires the immediately preceding access
    (across all banks; ``last_bank`` before the first) to have used
    this bank.  Costs add in the reference order: access, then
    off-page, then same-bank.
    """
    n = len(addrs)
    block = addrs // interleave
    bank = block % banks
    row = ((block // banks) * interleave + addrs % interleave) // page_bytes
    if open_row is None:
        open_row = np.full(banks, -1, dtype=np.int64)
    same, final = _repeat_mask(bank, row, open_row)
    miss = ~same
    prev_bank = np.empty(n, dtype=np.int64)
    if n:
        prev_bank[0] = last_bank
        prev_bank[1:] = bank[:-1]
    conflict = miss & (bank == prev_bank)
    costs = np.full(n, access_cycles, dtype=np.float64)
    costs[miss] += off_page_cycles
    costs[conflict] += same_bank_cycles
    return DramStream(costs, int(miss.sum()), int(conflict.sum()), final,
                      int(bank[-1]) if n else last_bank)


def dram_cost_stream(addrs: np.ndarray, *, interleave: int, banks: int,
                     page_bytes: int, access_cycles: float,
                     off_page_cycles: float,
                     same_bank_cycles: float) -> np.ndarray:
    """Per-access cost of a stream through a cold page-mode DRAM
    (:func:`dram_access_stream` from reset state)."""
    return dram_access_stream(
        addrs, interleave=interleave, banks=banks, page_bytes=page_bytes,
        access_cycles=access_cycles, off_page_cycles=off_page_cycles,
        same_bank_cycles=same_bank_cycles).costs


def isolated_store_retires(starts: np.ndarray, drains: np.ndarray,
                           capacity: int, last_retire: float,
                           ready: float) -> np.ndarray | None:
    """Write-buffer retire times of a run of stores that never meet
    each other in the buffer, or ``None`` when they would.

    Twin of :meth:`WriteBuffer.push_new` for stores issued at
    ``starts`` with DRAM drain costs ``drains``, under a
    self-consistency condition: every earlier entry (of the run, or
    already pending and retiring by ``ready``) has retired by the time
    the next store issues.  The buffer then holds nothing live at any
    store, so no store stalls, and each entry is scheduled exactly
    ``drain / capacity`` after its own issue — except the first, which
    queues behind ``last_retire``.  The condition is checked on the
    computed times, so a ``None`` never hides a wrong answer.
    """
    retires = starts + drains / capacity
    retires[0] = max(starts[0], last_retire) + drains[0] / capacity
    if ready > starts[0] or bool((retires[:-1] > starts[1:]).any()):
        return None
    return retires


def store_run_schedule(starts: np.ndarray, opener: np.ndarray,
                       drains: np.ndarray, capacity: int,
                       last_retire: float, ready: float,
                       reopen_drain: float = 0.0):
    """Write-buffer schedule of a run of stores that may merge:
    ``(new, retires)`` — which stores open an entry, and the retire
    times of those entries — or ``None`` when entries would meet.

    Twin of :meth:`WriteBuffer.push <repro.node.write_buffer.WriteBuffer.push>`
    for stores issued at ``starts`` to lines in non-decreasing order,
    where ``opener`` marks the stores that find no entry for their line
    (they drain at cost ``drains``; the array is ignored elsewhere).  A
    non-opening store finds its line's latest entry: it merges while
    that entry is still pending (retire time after the store), and
    opens a fresh entry with drain ``reopen_drain`` once the entry has
    retired — zero for local stores (:meth:`MemorySystem.write_cycles
    <repro.node.memsys.MemorySystem.write_cycles>` skips the DRAM
    access), the packet hand-off for remote ones, whose later stores
    then merge into it.  While every entry retires before the next one
    opens (the :func:`isolated_store_retires` condition), no store
    stalls and each entry retires at ``start + drain / capacity`` —
    which fixes every merge decision, a few word positions per line at
    a time.  Merges are exact, never a reason to decline; the condition
    is checked on the computed times, so ``None`` never hides a wrong
    answer.  ``last_retire`` is the buffer's drain schedule before the
    run (the retire time of the entry leading non-openers continue);
    ``ready`` the latest retire time of entries pending before it.
    """
    n = len(starts)
    firsts = np.flatnonzero(opener)
    retires = np.zeros(n, dtype=np.float64)
    retires[firsts] = starts[firsts] + drains[firsts] / capacity
    if len(firsts):
        f = int(firsts[0])
        retires[f] = (max(float(starts[f]), last_retire)
                      + drains[f] / capacity)
    # Stores before the first opener continue the entry pending before
    # the run: line -1, whose entry retires at ``last_retire``.
    line = np.cumsum(opener) - 1
    current = np.append(retires[firsts], last_retire)
    position = np.arange(n) - np.append(firsts, -1)[line]
    new = opener.copy()
    interval = reopen_drain / capacity
    for j in range(1, int(position.max(initial=0)) + 1):
        at = np.flatnonzero(position == j)
        owner = line[at]
        reopen = current[owner] <= starts[at]
        at, owner = at[reopen], owner[reopen]
        current[owner] = starts[at] + interval
        new[at] = True
        retires[at] = current[owner]
    retires = retires[new]
    opened = starts[new]
    if len(retires) and (ready > opened[0] or bool(
            (retires[:-1] > opened[1:]).any())):
        return None
    return new, retires


def tlb_cost_stream(addrs_one_pass: np.ndarray, npasses: int, *,
                    page_bytes: int, capacity: int,
                    miss_cycles: float) -> np.ndarray:
    """Per-access translation cost over ``npasses`` repetitions of one
    pass, against a cold fully-associative LRU TLB.

    Twin of :meth:`Tlb.translate`.  The sawtooth stimulus makes the
    reuse pattern analytic instead of needing an LRU replay.  Within a
    pass the page sequence is non-decreasing, so its first-touch
    positions are exactly the page transitions (plus position 0), and
    the number of distinct pages ``P`` is transitions + 1:

    * ``P <= capacity`` — pass 1 misses at each first touch; by the end
      of the pass all ``P`` pages are resident (inserting the P-th page
      finds ``P-1 < capacity`` entries, so even ``P == capacity`` fits
      without an eviction) and every later pass hits everywhere.
    * ``P > capacity`` — repeat accesses to a page still hit (the page
      was just touched, hence most-recent in LRU order), but by the
      time a pass returns to a page's first-touch position ``P-1 >=
      capacity`` other distinct pages have been touched, so LRU has
      evicted it: **every** first-touch position misses in **every**
      pass.  (Position 0 of passes 2+ is a first touch here because
      ``P >= 2`` makes the previous access's page — the pass's last,
      largest page — differ from the base page.)
    """
    count = len(addrs_one_pass)
    pages = addrs_one_pass // page_bytes
    newpage = np.empty(count, dtype=bool)
    if count:
        newpage[0] = True
        newpage[1:] = pages[1:] != pages[:-1]
    distinct = int(newpage.sum())
    costs = np.zeros(count * npasses, dtype=np.float64)
    if distinct > capacity:
        miss_mask = np.tile(newpage, npasses)
        costs[miss_mask] = miss_cycles
    else:
        costs[:count][newpage] = miss_cycles
    return costs
