"""The vectorized compute tier: numpy structure-of-arrays probe kernels.

The probe and figure hot loops have **two** compute tiers, selected
per point and always bit-identical:

1. **reference** — the per-access loop in
   :func:`repro.microbench.harness.run_stride_point`, one simulated
   memory operation per Python iteration.  Always available; the
   golden source of truth.
2. **vectorized** (this package) — the whole address stream of one
   (size, stride) point is generated up front as numpy arrays and the
   cache/TLB/DRAM-page/write-buffer timing is computed with vectorized
   tag arithmetic (set-index diffs, per-bank row diffs, modular
   sawtooth structure).  Exactness is an argument, not a hope: every
   per-access cost in the model is a small dyadic rational (integers
   for reads; quarter-integers for the pipelined write drain), and all
   totals stay far below 2**53, so float64 addition never rounds and
   any summation order reproduces the reference total bit for bit.

Tier selection
--------------
``REPRO_VECTOR=0`` disables the tier (``1``/unset enables it).  When
numpy is not importable the tier silently degrades to the reference
loop after a one-line warning — the package never *requires* numpy (it
is the ``vector`` optional dependency in ``pyproject.toml``).

A stimulus the kernels cannot express — state-coupled write-buffer
timing, set-associative caches, a machine shape outside the probe's
claim — raises :class:`UnsupportedStimulus`; the harness catches it
and runs the reference loop for that point.  :data:`CLAIMED_FAMILIES`
records, per probe family, whether the tier claims it at all; the
unclaimed families are claimed *not to be claimed* by
``tests/vector/test_fallback.py``.

Beyond the probe sweeps, the tier also computes the EM3D compute
phase (:mod:`repro.vector.em3d`): one processor's whole phase from the
warm-state cache and DRAM kernels, which start from a unit's live
state rather than a reset one.  Its clock stream depends on addresses
only; a phase whose write-buffer traffic would couple stores, or whose
words the segment tier cannot vouch for, declines with
:class:`UnsupportedStimulus` before changing anything and runs on the
reference loop.

Figure 8's uncached, prefetch and cached bulk reads and its store
stream run on the tier too (:mod:`repro.vector.bulk`): each whole
transfer is computed from the unit batch methods, and a transfer the
kernels cannot prove equal declines the same way and runs on the
reference loop.

This module imports neither numpy nor the kernel modules at import
time, so ``import repro`` works on a numpy-less interpreter.
"""

from __future__ import annotations

import os
import warnings

__all__ = [
    "CLAIMED_FAMILIES",
    "UnsupportedStimulus",
    "claims",
    "enabled",
    "numpy_available",
    "streaming_read_total",
    "stride_sweep_fn",
]


class UnsupportedStimulus(Exception):
    """A stimulus (or machine shape) the vectorized kernels do not
    claim.  Raising it is the tier's *only* failure mode: the harness
    treats it as "compute this point on a lower tier", never as a
    wrong answer."""


#: Probe family -> does the vectorized tier claim it?  The unclaimed
#: families all have timing that is coupled to observable machine
#: state or to data-dependent control flow:
#:
#: * ``remote_write`` / ``nonblocking_write`` — every store schedules a
#:   write-buffer ``on_retire`` callback that appends acknowledgement
#:   records and bumps the target's inbound-interface busy time; the
#:   blocking variant additionally interleaves memory barriers and
#:   status polls with the drain schedule.
#: * ``bulk_transfer`` — not a stride-sweep family.  Its uncached,
#:   prefetch and cached reads and its store stream are claimed per
#:   call by :mod:`repro.vector.bulk`, which commits every unit's state
#:   (``tests/test_fastpath_equivalence.py`` fingerprints it).
#: * ``em3d`` — not a stride-sweep family.  Its compute phase is
#:   claimed per call by :func:`repro.vector.em3d.compute_phase`, which
#:   the EM3D dispatcher calls directly: the phase's clock stream
#:   depends only on addresses (the adjacency array fixes every load,
#:   the outputs are consecutive), so it has a closed form wherever the
#:   write buffer never couples two stores, and declines elsewhere.
CLAIMED_FAMILIES = {
    "local_read": True,
    "local_write": True,
    "remote_read": True,
    "streaming_bandwidth": True,
    "remote_write": False,
    "nonblocking_write": False,
    "bulk_transfer": False,
    "em3d": False,
}

_warned_missing_numpy = False


def claims(family: str) -> bool:
    """Whether the vectorized tier claims a probe family at all."""
    return CLAIMED_FAMILIES.get(family, False)


def numpy_available() -> bool:
    """True when numpy is importable (cheap after the first import)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def enabled() -> bool:
    """Tier switch: ``REPRO_VECTOR=0`` disables; numpy must import.

    Consulted when a probe *builds* its sweep function (not per
    access), so flipping the environment variable between probe calls
    is enough to switch tiers — the equivalence tests rely on that.
    """
    if os.environ.get("REPRO_VECTOR", "1").lower() in (
            "0", "false", "no", "off"):
        return False
    if not numpy_available():
        global _warned_missing_numpy
        if not _warned_missing_numpy:
            warnings.warn(
                "repro.vector: numpy is not installed; falling back to "
                "the reference loop (pip install 'repro-t3d[vector]')",
                RuntimeWarning, stacklevel=2)
            _warned_missing_numpy = True
        return False
    return True


def stride_sweep_fn(family: str, **geometry):
    """Build a batched ``sweep_fn`` for one probe family, or ``None``
    when the tier is off, unavailable, or does not claim the
    family/geometry.

    The returned callable has the
    :func:`repro.microbench.harness.run_stride_point` contract
    ``sweep_fn(base, stride, count, warmup_passes, measure_passes) ->
    (total, accesses)`` and assumes the probe's ``reset_fn`` has
    cold-started the machine (every stride probe does).  A per-point
    :class:`UnsupportedStimulus` propagates to the harness, which runs
    the reference loop for that point instead.
    """
    if not claims(family) or not enabled():
        return None
    from repro.vector import sweeps
    try:
        return sweeps.build(family, **geometry)
    except UnsupportedStimulus:
        return None


def streaming_read_total(node_params, nbytes: int):
    """Total read cycles of the sequential streaming-bandwidth stimulus
    (one pass, word stride, cold machine), or ``None`` when the point
    must run on a lower tier."""
    if not enabled() or not claims("streaming_bandwidth"):
        return None
    from repro.vector import sweeps
    try:
        return sweeps.streaming_read_total(node_params, nbytes)
    except UnsupportedStimulus:
        return None
