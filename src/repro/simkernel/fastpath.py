"""The one switch over the hand-batched fast paths.

Several hot loops have a flattened spelling that makes the same state
transitions, clock additions and counter bumps as the per-operation
reference model, only with fewer Python frames: the numpy bulk reads
and store stream (:mod:`repro.vector.bulk`, called from
:mod:`repro.splitc.bulk`), the BLT range copies
(:mod:`repro.shell.blt`), the flat ``SplitC.put_scatter`` exchange, the
EM3D ghost fill and the EM3D compute phase (both the numpy kernel and
the scalar ``simple`` loop).  Every one of them reads :data:`ENABLED`
at call time; with it False they all run the reference model.

Only the golden-equivalence suites flip it, to prove the two
spellings bit-identical.  The numpy vectorized tier has its own
switch, ``REPRO_VECTOR`` (:func:`repro.vector.enabled`).
"""

#: Run the flattened fast paths (True) or the reference model (False).
ENABLED = True
