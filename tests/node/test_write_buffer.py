"""Unit tests for the 21064 write-buffer model (paper section 2.3)."""

import pytest

from repro.node.write_buffer import WriteBuffer
from repro.params import WriteBufferParams


def make_wb(store=None, **overrides):
    applied = {}
    wb = WriteBuffer(
        WriteBufferParams(**overrides),
        apply=(store if store is not None else applied.__setitem__),
    )
    return wb, applied


def test_merging_same_line_is_cheap():
    wb, _ = make_wb()
    cost0 = wb.push(0.0, 0, "a", drain_cost=145.0)
    cost1 = wb.push(3.0, 8, "b", drain_cost=145.0)
    cost2 = wb.push(6.0, 16, "c", drain_cost=145.0)
    assert cost0 == pytest.approx(3.0)
    assert cost1 == pytest.approx(3.0)
    assert cost2 == pytest.approx(3.0)
    assert wb.merged_writes == 2


def test_no_merging_across_lines():
    wb, _ = make_wb()
    wb.push(0.0, 0, "a", drain_cost=145.0)
    wb.push(3.0, 32, "b", drain_cost=145.0)
    assert wb.merged_writes == 0
    assert len(wb._pending) == 2


def test_pipelined_drain_interval_is_cost_over_depth():
    wb, _ = make_wb()
    wb.push(0.0, 0, "a", drain_cost=22.0)
    entry = wb._pending[0]
    assert entry.retire_time == pytest.approx(22.0 / 4)


def test_full_buffer_stalls_until_retire():
    wb, _ = make_wb()
    for i in range(4):
        wb.push(0.0, i * 32, i, drain_cost=22.0)
    # Fifth distinct-line store at t=0: all 4 slots busy; the oldest
    # retires at 5.5, so the store stalls 5.5 cycles on top of issue.
    cost = wb.push(0.0, 4 * 32, 4, drain_cost=22.0)
    assert cost == pytest.approx(3.0 + 5.5)


def test_steady_state_throughput_matches_paper_inference():
    # Distinct lines at back-to-back issue: steady-state cost per write
    # approaches drain/depth (145/4 ~= 36 ns ~= 5.4 cycles) once full.
    wb, _ = make_wb()
    now = 0.0
    costs = []
    for i in range(64):
        c = wb.push(now, i * 32, i, drain_cost=22.0)
        costs.append(c)
        now += c
    steady = sum(costs[8:]) / len(costs[8:])
    assert steady == pytest.approx(22.0 / 4, abs=0.6)


def test_values_invisible_until_retire_then_commit():
    committed = {}
    wb, _ = make_wb(store=lambda a, v: committed.__setitem__(a, v))
    wb.push(0.0, 0, "new", drain_cost=145.0)
    assert committed == {}
    wb.flush_retired(1.0)
    assert committed == {}          # retire at 36.25
    wb.flush_retired(40.0)
    assert committed == {0: "new"}


def test_forwarding_exact_word_only():
    wb, _ = make_wb()
    wb.push(0.0, 0, "pending", drain_cost=145.0)
    found, value = wb.find_word(1.0, 0)
    assert found and value == "pending"
    # A synonym address (same location, different Annex bits) misses.
    synonym = 0 | (1 << 32)
    found, _ = wb.find_word(1.0, synonym)
    assert not found


def test_drain_all_returns_last_retire_and_commits():
    committed = {}
    wb, _ = make_wb(store=lambda a, v: committed.__setitem__(a, v))
    wb.push(0.0, 0, 1, drain_cost=145.0)
    wb.push(3.0, 32, 2, drain_cost=145.0)
    done = wb.drain_all(6.0)
    assert done == pytest.approx(2 * 145.0 / 4)
    assert committed == {0: 1, 32: 2}
    assert wb.occupancy(done) == 0


def test_merge_after_retire_creates_new_entry():
    wb, _ = make_wb()
    wb.push(0.0, 0, "a", drain_cost=22.0)
    wb.drain_all(0.0)
    wb.push(100.0, 8, "b", drain_cost=22.0)
    assert wb.merged_writes == 0
    assert len(wb._pending) == 1


def test_reset():
    wb, _ = make_wb()
    wb.push(0.0, 0, "a", drain_cost=22.0)
    wb.reset()
    assert wb.occupancy(0.0) == 0
    assert wb._last_retire == 0.0


def test_registry_lists_a_buffer_once_at_its_latest_transition():
    """Each empty->nonempty transition lists the buffer in the shared
    dirty registry; a buffer already listed moves to the newest
    position instead of being listed twice, so a settle (newest first)
    visits buffers in the order of their latest transitions."""
    registry = {}
    a, _ = make_wb()
    b, _ = make_wb()
    a.settle_queue = b.settle_queue = registry
    a.push(0.0, 0, "a", drain_cost=22.0)
    b.push(0.0, 0, "b", drain_cost=22.0)
    a.flush_retired(100.0)                  # a drains, then refills
    a.push(100.0, 64, "a2", drain_cost=22.0)
    assert list(registry) == [b, a]
    assert registry.popitem()[0] is a
