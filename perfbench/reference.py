"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark shares a few cores of a busy host, whose speed for the same
code moves by a fifth within seconds and between minutes.  `run.py` times a
chunk of this kernel between every two passes and divides each pass's wall
time by the mean rep time of the chunks on either side of it, so that a
slow stretch of the machine slows both sides of the ratio alike.

One rep does the two kinds of work a `twoboson` pass does: interpreted
Python on small objects (dicts, tuples, complex scalars) and many small
numpy calls.  It never changes, so a change to the package moves the pass
time and not the reference.

The ratio cancels most, not all, of the machine's drift.  In one quiet
stretch of the host, fresh interpreters (`setup_s`) ran 30% faster and
`verify` passes 10% faster while this kernel, `sweep_exact` and `hom_noisy`
kept their speed, so `verify`'s ratio fell by 15% for those runs.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

#: interpreted-Python iterations of one rep
PY_ITERS = 8000
#: small numpy iterations of one rep
NP_ITERS = 300
_BASE = np.eye(4) + 0.1


def rep() -> complex:
    """One rep of the kernel, about 10 ms on a 2-CPU Xeon."""
    acc = 0j
    table = {}
    for i in range(PY_ITERS):
        z = complex(i % 7, i % 5) * 0.5
        table[i % 97, i % 13] = z
        acc += z * z.conjugate()
    for i in range(NP_ITERS):
        a = _BASE * (i % 3 + 1)
        acc += float(np.linalg.eigvalsh(a @ a.T)[0]) + float(np.exp(-a).sum())
    return acc + len(table)


def chunk(seconds: float, min_reps: int) -> float:
    """Run reps for at least `seconds` and `min_reps`; returns the mean wall
    time of one rep.  The garbage collector is off meanwhile, so that the
    garbage a pass leaves is collected, and timed, in the passes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reps = 0
        start = perf_counter()
        while reps < min_reps or perf_counter() < start + seconds:
            rep()
            reps += 1
        return (perf_counter() - start) / reps
    finally:
        if enabled:
            gc.enable()
