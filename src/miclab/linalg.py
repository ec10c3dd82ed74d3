"""Dense linear algebra kernel.

Thin wrappers around numpy's LAPACK bindings that enforce the library's
tolerance conventions: eigenvalues always come back in ascending order,
Hermiticity is checked before any eigendecomposition, and rank/singularity
decisions are made relative to the largest singular value.
"""

from __future__ import annotations

import functools
import pathlib
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    ConvergenceFailure,
    NonFinite,
    NotHermitian,
    ShapeMismatch,
)


_COMPLEX, _FLOAT = np.dtype(complex), np.dtype(float)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, through
    ctypes, or None where numpy has none (system OpenBLAS, MKL, Accelerate)."""
    import ctypes
    root = pathlib.Path(np.__file__).resolve().parent
    for lib in sorted([*(root.parent / "numpy.libs").glob("libscipy_openblas*"),
                       *(root / ".dylibs").glob("libscipy_openblas*")]):
        try:
            blas = ctypes.CDLL(str(lib))
            get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, put.argtypes = ctypes.c_int, (ctypes.c_int,)
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """numpy's bundled OpenBLAS on one thread inside the block, and back on its
    old count after it.  LAPACK's sums then run in one order whatever the
    thread count; where numpy has no bundled OpenBLAS, nothing is pinned.
    The count is the whole process's, so two threads must not be inside at once."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def _as_array(x, what: str, error=ShapeMismatch, dtype=_COMPLEX) -> np.ndarray:
    """The one reader of array arguments: x as an ndarray of dtype (numpy's choice
    for None), an iterator read once; error for what numpy cannot read as numbers."""
    if type(x) is np.ndarray and x.dtype is (_FLOAT if dtype is None else dtype):
        return x
    try:
        a = np.asarray(list(x) if isinstance(x, Iterator) else x, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} is no array of numbers: {exc}") from exc
    if a.dtype.kind not in "biufc":
        raise error(f"{what} holds {a.dtype} entries, not numbers")
    return a


def _as_square(a) -> np.ndarray:
    a = _as_array(a, "matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def hermiticity_defect(a):
    """Largest absolute entry of A - A^dagger; an array of one per matrix for a stack.

    A matrix with a NaN or infinite entry has defect inf, and so has a finite
    one whose A - A^dagger overflows; neither makes numpy warn.
    """
    a = _as_square(a)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN, read as inf below
        defect = np.abs(a - a.mT.conj()).max(axis=(-2, -1), initial=0.0)
    if a.ndim == 2:
        defect = float(defect)
        return defect if defect == defect else np.inf
    return np.where(np.isnan(defect), np.inf, defect)


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _rounding(n: int) -> float:
    """48 n^2 u, with u = 2^-53: the rounding allowance, relative to the
    Frobenius norm of an n x n matrix (or stack), that the Cholesky
    certificate of povm._psd grants LAPACK; ensembles._squash_spectra's
    rounding argument takes its eigvalsh and svdvals constants.

    It covers together, with the constants of Higham, Accuracy and
    Stability of Numerical Algorithms (2nd ed.), doubled for complex
    arithmetic: a Cholesky factorization that completes is exact for a
    matrix within 8 (n + 1) u tr(A) of A (Theorem 10.3, with ||R||_F^2 =
    tr(R^* R)); eigvalsh (zheevd) and svdvals (dgesdd) are exact for a
    matrix within 16 n^2 u ||A||_F (the Householder reductions of Lemma
    19.3, taken with a constant of 16); and the one rounding of forming a
    shifted or symmetrized matrix.  Measured at n = 2 .. 1024, each of the
    three errors stays below a ninth of its share, and below 1/200 of it
    from n = 25 on.
    """
    return 48 * n * n * _UNIT_ROUNDOFF


# povm._psd's certificate runs on stacks of at least this many entries.
# Below it eigvalsh decides sooner than the certificate's fixed cost of
# about 8 us; the measured crossover is 80 to 100 complex entries (one BLAS
# thread).
_CERTIFY_MIN_ENTRIES = 128


def _factors(a: np.ndarray) -> bool:
    """Whether np.linalg.cholesky factors every matrix of the stack a."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _lapack(f, a):
    """f(a) for a numpy.linalg routine f, with LAPACK not converging raised
    as ConvergenceFailure."""
    try:
        return f(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def eigh(h, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix or a (..., n, n) stack of them.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in ascending
    order along the last axis and eigenvectors as columns.  The first matrix
    (in C order of the leading axes) that has a non-finite entry raises
    NonFinite, or that deviates from its own adjoint by more than
    hermitian_tol NotHermitian, either naming its index; LAPACK not
    converging raises ConvergenceFailure, and no square matrix ShapeMismatch.
    """
    h = _as_square(h)
    defect = np.ravel(hermiticity_defect(h))
    if not defect.max(initial=0.0) <= tol.hermitian_tol:  # NaN fails too
        i = int(np.argmax(~(defect <= tol.hermitian_tol)))
        if not np.isfinite(h.reshape(-1, *h.shape[-2:])[i]).all():
            raise NonFinite(i)
        raise NotHermitian(f"hermiticity defect {defect[i]:.3e} exceeds "
                           f"{tol.hermitian_tol:.1e}", index=i)
    return tuple(_lapack(np.linalg.eigh, h))


def eigvalsh(h, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each in a stack."""
    return eigh(h, tol)[0]


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL):
    """Number of singular values above rank_tol times the largest; an array
    of one per matrix for a (..., m, n) stack; a real matrix stays real."""
    a = _as_array(a, "matrix", dtype=None)
    if a.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of them, got shape {a.shape}")
    s = _lapack(np.linalg.svdvals, a)
    # s is non-negative and descending, so a zero matrix has rank 0
    rank = np.count_nonzero(s > tol.rank_tol * s[..., :1], axis=-1)
    return int(rank) if a.ndim == 2 else rank
