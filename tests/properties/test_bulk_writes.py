"""The batched store stream ≡ the reference word loop, as a property.

``repro.vector.bulk.write_stores`` computes a whole non-blocking store
stream (``bulk_write_stores`` / ``bulk_put``) from the unit batch
methods.  Hypothesis draws the size, the source and destination
offsets (line-aligned or not, destinations near a 16 KB DRAM page
edge), and a pre-state built from ordinary operations: source reads
that warm the L1, local writes, earlier store streams (with and
without their acknowledgement wait, so a back-to-back transfer finds
the previous one's last entry pending), single remote puts, another
processor's stores into the same target (its inbound interface busy,
its arrival log ahead of the run), clock advances, a machine settle,
and a cohort-style wake list on the target.

Each example runs the batch kernel on one twin and the reference loop
on the other: clocks, counters, unit state, the target's arrival log
and every memory word with its type must match, both right after the
loop (the last entry still pending) and after the memory barrier and
acknowledgement wait that retire it.  A kernel that declines must leave
the machine exactly as it found it.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from hypothesis import event, given, settings, strategies as st

from repro.machine.machine import Machine
from repro.params import WORD_BYTES, t3d_machine_params
from repro.simkernel import fastpath
from repro.splitc import bulk
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import SplitC
from repro.vector import UnsupportedStimulus
from repro.vector import bulk as vector_bulk
from tests.test_fastpath_equivalence import _machine_fingerprint

DST = 0x4000 - 64 * WORD_BYTES   # destinations near a 16 KB page edge

#: Warm-up operations; the ones that leave a remote store pending (and
#: so make the kernel decline) are drawn less often.
warm_op = st.tuples(
    st.sampled_from(["source_read", "local_write", "stream", "incast",
                     "tick", "settle"] * 3 + ["put", "put_stream"]),
    st.integers(0, 160))


def _machine(warm, src, wake):
    machine = Machine(t3d_machine_params((2, 2, 1)))
    contexts = machine.make_contexts()
    sc, other = SplitC(contexts[0]), SplitC(contexts[2])
    for pe in range(machine.num_nodes):
        memory = machine.node(pe).memsys.memory
        for i in range(0, 320, 3):
            memory.store(i * WORD_BYTES, float(i) if i % 2 else i)
    if wake:
        machine.node(1).wake_sink = []
    ctx = sc.ctx
    for kind, arg in warm:
        addr = arg * WORD_BYTES
        if kind == "source_read":
            for k in range(arg % 40):
                ctx.local_read(src + (arg + k) * WORD_BYTES)
        elif kind == "local_write":
            ctx.local_write(0x8000 + addr, arg + 0.5)
        elif kind == "stream":
            bulk.bulk_write_stores(sc, GlobalPtr(1, 0x9000 + addr),
                                   addr, (arg % 48 + 1) * WORD_BYTES)
        elif kind == "put_stream":
            sc.bulk_put(GlobalPtr(1, 0x9000 + addr), addr,
                        (arg % 48 + 1) * WORD_BYTES)
        elif kind == "put":
            sc.put(GlobalPtr(1, 0x9000 + addr), arg)
        elif kind == "incast":
            other.ctx.clock = max(other.ctx.clock, ctx.clock + arg * 4.0)
            other.bulk_put(GlobalPtr(1, 0xa000), 0, (arg % 8 + 1) * WORD_BYTES)
            machine.settle()
        elif kind == "tick":
            ctx.charge(arg * 2.5)
        else:
            machine.settle()
    return machine, sc


def _retire_all(sc):
    sc.ctx.memory_barrier()
    sc.ctx.clock = sc.ctx.node.remote.wait_for_acks(sc.ctx.clock)


@settings(max_examples=150, deadline=None)
@given(src_word=st.one_of(st.integers(0, 160), st.integers(0, 40).map(
           lambda k: 4 * k)),
       dst_word=st.one_of(st.integers(0, 80), st.integers(0, 20).map(
           lambda k: 4 * k)),
       nwords=st.one_of(st.integers(1, 6), st.integers(1, 90),
                        st.integers(1020, 1090)),
       warm=st.lists(warm_op, max_size=6),
       wake=st.booleans(),
       chunk_words=st.sampled_from([vector_bulk.CHUNK_WORDS, 4, 12]))
def test_batched_store_stream_matches_reference(src_word, dst_word, nwords,
                                                warm, wake, chunk_words):
    src = src_word * WORD_BYTES
    dst = DST + dst_word * WORD_BYTES
    nbytes = nwords * WORD_BYTES

    batch, sc = _machine(warm, src, wake)
    index = sc._setup_annex(1)
    before = _machine_fingerprint(batch, sc)
    saved = vector_bulk.CHUNK_WORDS
    vector_bulk.CHUNK_WORDS = chunk_words      # many chunks, or one
    try:
        vector_bulk.write_stores(sc.ctx, 1, dst, src, nwords, index)
    except UnsupportedStimulus as why:
        event(f"declined: {why}")
        assert _machine_fingerprint(batch, sc) == before
        return
    finally:
        vector_bulk.CHUNK_WORDS = saved
    event(f"batch, {'over' if nwords > 1000 else 'under'} 1000 words")

    saved = fastpath.ENABLED
    fastpath.ENABLED = False
    try:
        reference, ref_sc = _machine(warm, src, wake)
        bulk._store_stream(ref_sc, GlobalPtr(1, dst), src, nbytes)
    finally:
        fastpath.ENABLED = saved
    assert (_machine_fingerprint(batch, sc)
            == _machine_fingerprint(reference, ref_sc))
    _retire_all(sc)
    _retire_all(ref_sc)
    assert (_machine_fingerprint(batch, sc)
            == _machine_fingerprint(reference, ref_sc))


def test_cohort_fft_bulk_exchange_matches_reference(monkeypatch):
    """FFT's ``bulk`` exchange under the cohort scheduler, whose wake
    list is installed on every node: the cross-processor stages whose
    store streams the kernel serves (the first, from a source no one
    has read) match the reference loop bit for bit — spectrum, clocks,
    counters, arrival logs and memory."""
    from repro.apps.fft import run_fft

    monkeypatch.delenv("REPRO_COHORT", raising=False)
    served = []
    real = vector_bulk.write_stores

    def spy(ctx, *args):
        real(ctx, *args)
        served.append(ctx.node.wake_sink is not None)

    monkeypatch.setattr(vector_bulk, "write_stores", spy)

    def run():
        machine = Machine(t3d_machine_params((2, 2, 1)))
        result = run_fft(machine, points_per_pe=64, exchange="bulk")
        return result, [
            (node.inbound_busy_until, list(node._arrivals),
             node.memsys.counters(), node.remote.counters(),
             sorted((a, repr(v)) for a, v in node.memsys.memory.items()))
            for node in machine.nodes]

    fast = run()
    assert served and all(served)
    monkeypatch.setattr(fastpath, "ENABLED", False)
    assert fast == run()
