"""Warm-state batch kernels ≡ per-access unit replay, as properties.

``Cache.access_fill_batch`` and ``Dram.access_batch`` start from a
unit's *live* state — resident tags, open rows, the last bank — not
from reset.  Hypothesis draws that state and an address stream, then
runs the stream twice: once through the batch method followed by
``commit_batch`` (as ``repro.vector.em3d`` drives them), once through ``Cache.access_fill`` / ``Dram.access_with`` one access
at a time on an identically prepared twin.  Hits, per-access costs,
final state and counters must all be identical.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.node.cache import Cache
from repro.node.dram import Dram
from repro.params import CacheParams, DramParams
from repro.vector import UnsupportedStimulus

KB = 1024

cache_geometry = st.sampled_from([
    (8 * KB, 32), (8 * KB, 64), (1 * KB, 32), (256, 16)])
addresses = st.lists(st.integers(0, 64 * KB // 8).map(lambda w: w * 8),
                     max_size=200)


def _twin_caches(params, resident):
    caches = [Cache(params), Cache(params)]
    for cache in caches:
        for addr in resident:
            cache.fill(addr)
        cache.hits, cache.misses = 3, 5
    return caches


@settings(max_examples=60, deadline=None)
@given(geometry=cache_geometry,
       resident=st.lists(st.integers(0, 1 << 20), max_size=64),
       stream=addresses)
def test_cache_batch_matches_access_fill_replay(geometry, resident, stream):
    size, line = geometry
    params = CacheParams(size_bytes=size, line_bytes=line)
    batch, replay = _twin_caches(params, resident)
    before = batch.tag_array()
    hits, after = batch.access_fill_batch(
        np.asarray(stream, dtype=np.int64), before)
    # The batch call alone changes nothing.
    assert batch.tag_array().tolist() == before.tolist()
    assert (batch.hits, batch.misses) == (3, 5)
    nhits = int(hits.sum())
    batch.commit_batch(after, nhits, len(stream) - nhits)
    expected = [replay.access_fill(addr) for addr in stream]
    assert hits.tolist() == expected
    assert batch._tags == replay._tags
    assert after.tolist() == replay.tag_array().tolist()
    assert (batch.hits, batch.misses) == (replay.hits, replay.misses)
    # The start state alone determines the result.
    again, after2 = Cache(params).access_fill_batch(
        np.asarray(stream, dtype=np.int64), tags=before)
    assert again.tolist() == expected
    assert after2.tolist() == after.tolist()


dram_geometry = st.sampled_from([
    DramParams(),
    DramParams(banks=2, bank_interleave_bytes=4 * KB, page_bytes=2 * KB),
    DramParams(banks=8, bank_interleave_bytes=1 * KB, page_bytes=4 * KB),
    DramParams(banks=3, bank_interleave_bytes=4 * KB, page_bytes=4 * KB),
])


@settings(max_examples=60, deadline=None)
@given(params=dram_geometry, data=st.data(),
       stream=st.lists(st.integers(0, 1 << 22).map(lambda w: w * 8),
                       max_size=200))
def test_dram_batch_matches_access_with_replay(params, data, stream):
    rows = data.draw(st.lists(st.integers(-1, 40), min_size=params.banks,
                              max_size=params.banks))
    last_bank = data.draw(st.integers(-1, params.banks - 1))
    batch, replay = Dram(params), Dram(params)
    for dram in (batch, replay):
        dram._open_row[:] = rows
        dram._last_bank = last_bank
        dram.accesses, dram.row_misses, dram.same_bank_conflicts = 7, 2, 1
    bound = batch._open_row
    result = batch.access_batch(np.asarray(stream, dtype=np.int64),
                                batch.row_state())
    assert batch._open_row == rows and batch.accesses == 7
    batch.commit_batch(result.open_row, result.last_bank,
                       accesses=len(stream), row_misses=result.row_misses,
                       same_bank_conflicts=result.same_bank_conflicts)
    expected = [replay.access_with(addr, params.off_page_cycles,
                                   params.same_bank_cycles)
                for addr in stream]
    assert result.costs.tolist() == expected
    assert batch._open_row == replay._open_row
    assert batch._open_row is bound          # updated in place
    assert batch._last_bank == replay._last_bank
    assert batch.counters() == replay.counters()


def test_set_associative_cache_declines_batch():
    cache = Cache(CacheParams(size_bytes=8 * KB, associativity=2))
    with pytest.raises(UnsupportedStimulus):
        cache.access_fill_batch(np.zeros(4, dtype=np.int64),
                                np.full(128, -1, dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(gaps=st.lists(st.integers(0, 40), min_size=1, max_size=30),
       drains=st.data(), capacity=st.sampled_from([1, 2, 4]),
       last_retire=st.integers(0, 120))
def test_isolated_store_retires_matches_push_new(gaps, drains, capacity,
                                                 last_retire):
    """The closed-form write-buffer schedule equals ``push_new``
    replay whenever it claims the run, and declines exactly when some
    store would find an earlier entry still live."""
    from repro.node.write_buffer import WriteBuffer
    from repro.params import WriteBufferParams
    from repro.vector.kernels import isolated_store_retires

    starts = np.cumsum(np.asarray(gaps, dtype=np.float64)) + 50.0
    costs = np.asarray(drains.draw(st.lists(
        st.sampled_from([22.0, 31.0, 40.0]), min_size=len(gaps),
        max_size=len(gaps))))
    got = isolated_store_retires(starts, costs, capacity,
                                 float(last_retire), float("-inf"))
    wb = WriteBuffer(WriteBufferParams(entries=capacity))
    wb._last_retire = float(last_retire)
    met = False
    for k, (start, cost) in enumerate(zip(starts.tolist(), costs.tolist())):
        wb.flush_retired(start)
        met = met or bool(wb.pending_entries)
        assert wb.push_new(start, k * 64, 0.0, cost) >= 0
    replay = [e.retire_time for e in wb.pending_entries]
    if got is None:
        assert met
    else:
        assert not met
        assert replay[-1] == got[-1]
        assert wb._last_retire == float(got[-1])


@settings(max_examples=80, deadline=None)
@given(lines=st.lists(st.integers(1, 4), min_size=1, max_size=12),
       gaps=st.data(), capacity=st.sampled_from([1, 2, 4]),
       reopen_drain=st.sampled_from([0.0, 68.0]),
       last_retire=st.integers(0, 120))
def test_store_run_schedule_matches_push(lines, gaps, capacity,
                                         reopen_drain, last_retire):
    """The merging write-buffer schedule equals ``push`` replay
    whenever it claims the run: each line's first store drains at its
    own cost, and a later store merges while its line's latest entry
    is pending and opens one draining ``reopen_drain`` once it has
    retired.  It declines exactly when an opening store finds an
    entry still live."""
    from repro.node.write_buffer import WriteBuffer
    from repro.params import WriteBufferParams
    from repro.vector.kernels import store_run_schedule

    count = sum(lines)
    starts = np.cumsum(np.asarray(gaps.draw(st.lists(
        st.integers(1, 30), min_size=count, max_size=count)),
        dtype=np.float64)) + 50.0
    addrs = np.asarray([32 * k + 8 * j for k, n in enumerate(lines)
                        for j in range(n)], dtype=np.int64)
    opener = np.ones(count, dtype=bool)
    opener[1:] = addrs[1:] // 32 != addrs[:-1] // 32
    drains = np.where(opener, np.asarray(gaps.draw(st.lists(
        st.sampled_from([22.0, 68.0, 83.0]), min_size=count,
        max_size=count))), 0.0)
    got = store_run_schedule(starts, opener, drains, capacity,
                             float(last_retire), float("-inf"),
                             reopen_drain)
    wb = WriteBuffer(WriteBufferParams(entries=capacity))
    wb._last_retire = float(last_retire)
    new, retires, met = [], [], False
    for start, addr, first, drain in zip(starts.tolist(), addrs.tolist(),
                                         opener.tolist(), drains.tolist()):
        wb.flush_retired(start)
        live = [e.line_addr for e in wb.pending_entries]
        new.append(addr // 32 * 32 not in live)
        met = met or (new[-1] and bool(live))
        wb.push(start, addr, 0.0, drain if first else reopen_drain)
        if new[-1]:
            retires.append(wb.pending_entries[-1].retire_time)
    if got is None:
        assert met
    else:
        assert not met
        assert got[0].tolist() == new
        assert got[1].tolist() == retires


def test_store_run_schedule_continues_the_pending_entry():
    """A run without an opening store (every store on the line of the
    entry pending before it) merges until that entry retires, then
    opens one."""
    from repro.vector.kernels import store_run_schedule

    new, retires = store_run_schedule(
        np.array([10.0, 16.0]), np.zeros(2, dtype=bool), np.zeros(2), 4,
        12.0, float("-inf"))
    assert new.tolist() == [False, True]
    assert retires.tolist() == [16.0]
