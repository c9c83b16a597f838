"""A fixed probe of the machine's current speed.

Other tenants of a shared machine slow the CPU by tens of percent for
seconds to minutes, and not uniformly: a call that spans tens of
milliseconds is slowed by the average contention over that span.  The
benchmark therefore runs the probe for a comparable span (PASSES passes,
about 16 ms on a 2-vCPU x86-64 VM) right before every call, and divides
the call's time by the probe's time per pass.  Over ten 20-s runs the
median of that ratio spread by 3-9% (IQR over median) while raw call
times spread by up to 45%.

The probe never touches protofilter, so any change to the library shows
fully in the ratio.  Its mix resembles the library's per-episode work:
small matrix products, row means, a small symmetric eigensolve and a
scalar Python loop.  Do not change it: figures taken with different
probes cannot be compared.
"""

from __future__ import annotations

import time

import numpy as np

PASSES = 16

_MATRICES = [m @ m.T for m in np.random.default_rng(0).standard_normal((64, 6, 6))]


def probe_s() -> float:
    """Mean wall time of one pass over the fixed probe work."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(PASSES):
        for m in _MATRICES:
            row = m.mean(axis=1)
            total += float(row @ row) + float(np.linalg.eigvalsh(m)[0])
            for i in range(m.shape[0]):
                total += m[i, i] * 0.5
    return (time.perf_counter() - start) / PASSES
