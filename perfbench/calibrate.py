"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of this process drifts by 20 % and more over
minutes, in wall and CPU time alike, while the ratio between two adjacent
pieces of CPU work stays within a few per cent.  So every timed unit of a
workload sits between two runs of one fixed calibration chunk, and the
unit's time is reported in reference seconds:

    unit seconds * REFERENCE_S / mean of the two chunks' seconds

The chunk mixes the two kinds of work miclab does: small dense LAPACK
calls through numpy, and Python-level float formatting.  It calls nothing
in miclab, so a change to miclab moves the reported times in full.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Median chunk time on the reference machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).  A constant: it only sets
# the scale of the reported times.
REFERENCE_S = 0.005

_rng = np.random.default_rng(20181221)
_basis = _rng.standard_normal((9, 3, 3)) + 1j * _rng.standard_normal((9, 3, 3))
_basis = _basis @ _basis.conj().transpose(0, 2, 1)
_floats = _rng.standard_normal(150).tolist()


def _kernel() -> float:
    w, v = np.linalg.eigh(_basis.sum(axis=0))
    r = (v / np.sqrt(w)) @ v.conj().T
    effects = r @ _basis @ r
    g = np.einsum("iab,jba->ij", effects, effects).real
    s = np.linalg.svd(g, compute_uv=False)
    for e in effects:
        np.linalg.eigvalsh(e)
    text = json.dumps([f"{x:.16e}" for x in _floats])
    return float(np.linalg.eigvalsh(g)[0] + s[0]) + len(text)


def chunk() -> float:
    """Seconds taken by one calibration chunk."""
    t0 = time.perf_counter()
    for _ in range(12):
        _kernel()
    return time.perf_counter() - t0
