"""The binding prefetch queue (paper section 5.2).

The Alpha ``fetch`` hint is interpreted by the shell as a *binding*
prefetch: the addressed remote word is fetched into a 16-entry
memory-mapped FIFO, which the processor later pops with an ordinary
load.  The measured cost breakdown the model reproduces:

====================  =========
prefetch issue        4 cycles
memory barrier        4 cycles
network round trip    80 cycles
pop from queue        23 cycles
====================  =========

Issues pipeline: a group of k prefetches overlaps k round trips, so
per-element cost falls from ~111 cycles (k=1) toward ~31 cycles at
k=16, which is why the paper judges the 16-entry FIFO depth adequate.
A memory barrier must precede the first pop when fewer than four
prefetches were issued, to guarantee the fetch has left the processor.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

from repro.params import LOCAL_ADDR_MASK, NetworkParams, PrefetchParams
from repro.trace import tracer as _trace

__all__ = ["PrefetchQueue", "QueueFullError"]


class QueueFullError(RuntimeError):
    """Raised when a 17th prefetch is issued without popping.

    The real hardware would overwrite or stall unpredictably; the
    Split-C runtime (section 5.4) never lets this happen, dequeuing
    whenever 16 fetches are outstanding.
    """


@dataclass
class _InFlight:
    ready_time: float
    value: object


class PrefetchQueue:
    """Per-node binding prefetch FIFO."""

    def __init__(self, params: PrefetchParams, network: NetworkParams,
                 my_pe: int, fabric, remote_off_page_cycles: float):
        self.params = params
        self.network = network
        self.my_pe = my_pe
        self.fabric = fabric
        #: The remote memory controller's off-page penalty
        #: (:attr:`RemoteAccessParams.remote_off_page_cycles
        #: <repro.params.RemoteAccessParams.remote_off_page_cycles>`).
        self.remote_off_page_cycles = remote_off_page_cycles
        # The machine's shared target bundles, and the round-trip time
        # to each processor beyond the one hop the calibrated round
        # trip covers, bound on first use.
        self._peers = None
        self._extra = None
        self._fifo: deque[_InFlight] = deque()
        self._issued_since_pop = 0
        self.issues = 0
        self.pops = 0
        if _trace.TRACE_ENABLED:
            _trace.TRACER.register_provider("prefetch", self)

    def counters(self) -> dict:
        """Counter-registry hook: this unit's lifetime totals."""
        return {"issues": self.issues, "pops": self.pops,
                "outstanding": len(self._fifo)}

    def reset(self) -> None:
        self._fifo.clear()
        self._issued_since_pop = 0
        self.issues = 0
        self.pops = 0

    def outstanding(self) -> int:
        return len(self._fifo)

    @property
    def depth(self) -> int:
        return self.params.queue_depth

    def issue(self, now: float, pe: int, offset: int) -> float:
        """Issue one binding prefetch; returns the 4-cycle issue cost.

        The reply lands in the FIFO after the round trip; the
        calibrated 80-cycle round trip covers an adjacent-node hop and
        an on-page remote access, so extra hops and remote off-page
        penalties are added on top (Figures 4 and 6 behaviour).
        """
        if len(self._fifo) >= self.params.queue_depth:
            raise QueueFullError(
                f"prefetch queue already holds {self.params.queue_depth}"
            )
        self.issues += 1
        self._issued_since_pop += 1
        peers = self._peers or self._bind()
        if not 0 <= pe < len(peers):
            self.fabric.node(pe)          # raises the fabric's error
        peer = peers[pe]
        if peer is None:
            peer = peers[pe] = self.fabric.node(pe).peer_exports()
        local = offset & LOCAL_ADDR_MASK
        mem = peer.access_with(local, self.remote_off_page_cycles,
                               peer.same_bank)
        ready = (
            now
            + self.params.issue_cycles
            + self.params.round_trip_cycles
            + (mem - peer.access_cycles)        # remote off-page penalty
            + self._extra[pe]
        )
        self._fifo.append(_InFlight(ready_time=ready,
                                    value=peer.mem_load(local)))
        if _trace.TRACE_ENABLED:
            _trace.emit("prefetch_issue", t=now, pe=self.my_pe, target=pe,
                        offset=local, depth=len(self._fifo), ready=ready)
        return self.params.issue_cycles

    def _bind(self) -> list:
        hop = self.network.hop_cycles
        self._extra = array("d", [2 * max(0, hops - 1) * hop for hops in
                                  self.fabric.hops_row(self.my_pe)])
        self._peers = self.fabric.peer_exports()
        return self._peers

    def extra_hop_cycles(self, pe: int) -> float:
        """Round-trip network time to ``pe`` beyond the adjacent-node
        hop the calibrated round trip already covers."""
        if self._extra is None:
            self._bind()
        return self._extra[pe]

    def commit_run(self, issues: int) -> None:
        """Record a batch computed elsewhere (:mod:`repro.vector.bulk`)
        that issued ``issues`` prefetches and popped each one, leaving
        the FIFO empty as it found it."""
        if self._fifo:
            raise ValueError("prefetch run committed to a busy queue")
        self.issues += issues
        self.pops += issues
        self._issued_since_pop = 0

    def needs_barrier_before_pop(self) -> bool:
        """True when fewer than four prefetches were issued since the
        last pop — the paper's condition for an explicit ``mb``."""
        return 0 < self._issued_since_pop < self.params.small_group_barrier_threshold

    def pop(self, now: float):
        """Pop the FIFO head; returns (cycles, value).

        The pop is a 23-cycle memory-mapped load; if the head's reply
        has not arrived the processor stalls until it has.
        """
        if not self._fifo:
            raise RuntimeError("pop from empty prefetch queue")
        self.pops += 1
        self._issued_since_pop = 0
        head = self._fifo.popleft()
        completion = max(now, head.ready_time) + self.params.pop_cycles
        if _trace.TRACE_ENABLED:
            _trace.emit("prefetch_pop", t=now, pe=self.my_pe,
                        cycles=completion - now, depth=len(self._fifo))
        return completion - now, head.value
