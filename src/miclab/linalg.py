"""Dense linear algebra kernel.

Thin wrappers around numpy's LAPACK bindings that enforce the library's
tolerance conventions: eigenvalues always come back in ascending order,
Hermiticity is checked before any eigendecomposition, and rank/singularity
decisions are made relative to the largest singular value.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    ConvergenceFailure,
    NonFinite,
    NotHermitian,
    ShapeMismatch,
    SingularOperator,
)


def _as_square(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a.astype(complex, copy=False)


def hermiticity_defect(a):
    """Largest absolute entry of A - A^dagger; an array of one per matrix for a stack.

    A matrix with a NaN or infinite entry has defect inf.  Finiteness is
    tested first, so A - A^dagger never meets inf - inf.
    """
    a = _as_square(a)
    finite = None
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1))
        a = np.where(finite[..., None, None], a, 0)
    defect = np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)
    if finite is not None:
        defect = np.where(finite, defect, np.inf)
    return float(defect) if a.ndim == 2 else defect


def eigh(h, tol: ToleranceConfig = DEFAULT_TOL, vectors: bool = True):
    """Eigendecomposition of a Hermitian matrix or a (..., n, n) stack of them.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in ascending
    order along the last axis and eigenvectors as columns.  vectors=False
    returns None for the eigenvectors and uses LAPACK's values-only driver,
    whose eigenvalues can differ from the full one's in the last bits.
    The first matrix (in C order of the leading axes) that has a non-finite
    entry raises NonFinite, or that deviates from its own adjoint by more
    than hermitian_tol NotHermitian, either naming its index; LAPACK not
    converging raises ConvergenceFailure.
    """
    h = _as_square(h)
    defect = np.ravel(hermiticity_defect(h))
    if not defect.max(initial=0.0) <= tol.hermitian_tol:  # NaN fails too
        i = int(np.argmax(~(defect <= tol.hermitian_tol)))
        if not np.isfinite(h.reshape(-1, *h.shape[-2:])[i]).all():
            raise NonFinite(i)
        raise NotHermitian(f"hermiticity defect {defect[i]:.3e} exceeds "
                           f"{tol.hermitian_tol:.1e}", index=i)
    try:
        if not vectors:
            return np.linalg.eigvalsh(h), None
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return w, v


def eigvalsh(h, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each in a stack."""
    # the full driver, so the values match eigh's bit for bit
    return eigh(h, tol)[0]


def inv_sqrt_psd(h, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix.

    The result R is Hermitian and satisfies R @ H @ R = I.  Raises
    SingularOperator if the smallest eigenvalue does not clear
    rank_tol times the largest.
    """
    w, v = eigh(h, tol)
    scale = w[-1]
    if scale <= 0 or w[0] <= tol.rank_tol * scale:
        raise SingularOperator(
            f"eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}] is not safely positive"
        )
    return (v / np.sqrt(w)) @ v.conj().T


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above rank_tol times the largest."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {a.shape}")
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * s[0]))
