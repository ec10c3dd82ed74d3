"""Dense linear algebra kernel.

Thin wrappers around numpy's LAPACK bindings that enforce the library's
tolerance conventions: eigenvalues always come back in ascending order,
Hermiticity is checked before any eigendecomposition, and rank/singularity
decisions are made relative to the largest singular value.

The library reaches three parts of numpy through one entry point each, by
the private names that numpy's public functions themselves call, without
their Python around them:

* _lapack, for LAPACK: the compiled routine (gufunc) of numpy.linalg's
  public function, from numpy.linalg._umath_linalg (eigvalsh_lo, eigh_lo,
  svd, cholesky_lo, solve1 and inv), with numpy's signature strings,
  casting and error state (2-3 us a call less);
* _einsum, for einsum: numpy._core.multiarray.c_einsum, which np.einsum
  returns from without optimize, numpy's default (1-2 us a call less);
* _under, for error states: each state is built once, at import, by
  numpy._core.umath._make_extobj, and entered through numpy's
  _extobj_contextvar, as np.errstate enters the state it rebuilds on
  every entry (about 1 us a block).  _quietly runs a function with every
  floating-point error ignored, where the caller reads a non-finite
  result itself; each LAPACK routine runs under numpy.linalg's own state.
  Each state names all four errors and numpy's default buffer size, so
  none depends on the state the importing program left.

The same routine on the same input gives the same bits, so every result,
and every pinned output, is what the public function gives.  A numpy that
renames one of these names fails at import, and so in tier-1: there is no
fallback path.  acceptance.py's oracles keep numpy's public functions.

A fourth entry point is public numpy: _pairing computes every trace pairing
tr(X_i Y_j) of two stacks (the Gram matrices of effects and of bases, the
dual basis's biorthogonality check, Phi's conditional matrix and the
cascade's) as one matmul, a BLAS product for each stack of the leading
axes, so a stack has the same bits alone as in a batch.
"""

from __future__ import annotations

import functools
import pathlib
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np
from numpy._core.umath import UFUNC_BUFSIZE_DEFAULT, _extobj_contextvar, _make_extobj
from numpy._core.multiarray import c_einsum as _einsum
from numpy.linalg import _umath_linalg

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import ConvergenceFailure, NonFinite, NotHermitian, ShapeMismatch


_COMPLEX, _FLOAT = np.dtype(complex), np.dtype(float)


def _under(state, f, *args, **kwargs):
    """f(*args, **kwargs) under numpy's error state state, as a with block of
    np.errstate runs it, without building the state again."""
    token = _extobj_contextvar.set(state)
    try:
        return f(*args, **kwargs)
    finally:
        _extobj_contextvar.reset(token)


# f(*args) with every floating-point error ignored, as np.errstate with all="ignore"
# runs it, where the caller reads a non-finite result itself
_quietly = functools.partial(_under, _make_extobj(all="ignore", bufsize=UFUNC_BUFSIZE_DEFAULT))


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
    # inf - inf is NaN, read as inf below
    defect = _quietly(lambda: np.abs(a - a.mT.conj()).max(axis=(-2, -1), initial=0.0))
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


def _routine(gufunc, real: str, complex_: str, message: str):
    """(gufunc under numpy.linalg's error state, its signature for real input,
    for complex input).  The gufunc reports LAPACK failing as an invalid
    operation, which raises ConvergenceFailure(message), numpy's message."""
    def fail(err, flag):
        raise ConvergenceFailure(message)
    state = _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore",
                         under="ignore", bufsize=UFUNC_BUFSIZE_DEFAULT)
    return functools.partial(_under, state, gufunc), real, complex_


_ROUTINES = {
    "eigvalsh": _routine(_umath_linalg.eigvalsh_lo, "d->d", "D->d", "Eigenvalues did not converge"),
    "eigh": _routine(_umath_linalg.eigh_lo, "d->dd", "D->dD", "Eigenvalues did not converge"),
    "svdvals": _routine(_umath_linalg.svd, "d->d", "D->d", "SVD did not converge"),
    "cholesky": _routine(_umath_linalg.cholesky_lo, "d->d", "D->D", "Matrix is not positive definite"),
    "solve1": _routine(_umath_linalg.solve1, "dd->d", "DD->D", "Singular matrix"),
    "inv": _routine(_umath_linalg.inv, "d->d", "D->D", "Singular matrix"),
}
_SINGLE = {"d": np.float32, "D": np.complex64}


def _lapack(name: str, a: np.ndarray, *b: np.ndarray):
    """np.linalg.name(a, *b) of an (..., n, n) stack a (svdvals: (..., m, n)),
    by the same gufunc (solve1 is solve with a vector b of a's dtype), so
    with the same bits; LAPACK failing raises ConvergenceFailure.  Integers
    and bools are read as float64 and single precision comes back single,
    as numpy casts them."""
    call, real, complex_ = _ROUTINES[name]
    t = a.dtype
    if t.char in "egG":
        raise TypeError(f"array type {t.name} is unsupported in linalg")
    out = call(a, *b, signature=complex_ if t.kind == "c" else real)
    if t.char in "fF":  # one output: numerical_rank's svdvals is the only single-precision call
        return out.astype(_SINGLE[out.dtype.char])
    return out


def _pairing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """tr(X_i Y_j) for an (..., n, d, d) stack x and an (..., m, d, d) stack y,
    as an (..., n, m) array: one matrix product (BLAS) of x's rows flattened
    by y's transposes flattened.  Each stack of the leading axes is its own
    product of the same shapes, so a row has the same bits in any batch.  A
    non-finite entry gives a non-finite result without a warning."""
    *lead, n, d, _ = x.shape
    yt = np.swapaxes(y, -1, -2).reshape(*y.shape[:-2], d * d)
    return _quietly(np.matmul, x.reshape(*lead, n, d * d), yt.mT)


def _factors(a: np.ndarray) -> bool:
    """Whether numpy's Cholesky factorization factors every matrix of the stack a."""
    try:
        _lapack("cholesky", a)
    except ConvergenceFailure:
        return False
    return True


def _cond(a: np.ndarray) -> float:
    """np.linalg.cond(a) of one non-empty matrix: its largest over its least
    singular value, inf where that is NaN and a holds no NaN."""
    s = _lapack("svdvals", a)
    cond = float(_quietly(np.divide, s[0], s[-1]))
    return np.inf if cond != cond and not np.isnan(a).any() else cond


def _hermitian(h, tol: ToleranceConfig) -> np.ndarray:
    """h as a square matrix or stack that is Hermitian within hermitian_tol.

    The first matrix (in C order of the leading axes) that has a non-finite
    entry raises NonFinite, or that deviates from its own adjoint by more
    than hermitian_tol NotHermitian, either naming its index; no square
    matrix raises ShapeMismatch.
    """
    h = _as_square(h)
    defect = np.ravel(hermiticity_defect(h))
    if not defect.max(initial=0.0) <= tol.hermitian_tol:  # NaN fails too
        i = int(np.argmax(~(defect <= tol.hermitian_tol)))
        if not np.isfinite(h.reshape(-1, *h.shape[-2:])[i]).all():
            raise NonFinite(i)
        raise NotHermitian(f"hermiticity defect {defect[i]:.3e} exceeds "
                           f"{tol.hermitian_tol:.1e}", index=i)
    return h


def eigh(h, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix or a (..., n, n) stack of them.

    Returns (eigenvalues, eigenvectors) with real eigenvalues in ascending
    order along the last axis and eigenvectors as columns.  h is checked as
    _hermitian checks it; LAPACK not converging raises ConvergenceFailure.
    """
    return _lapack("eigh", _hermitian(h, tol))


def eigvalsh(h, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each in a stack,
    checked and raising as eigh, by LAPACK's eigenvalues-only routine."""
    return _lapack("eigvalsh", _hermitian(h, tol))


def numerical_rank(a, tol: ToleranceConfig = DEFAULT_TOL):
    """Number of singular values above rank_tol times the largest; an array
    of one per matrix for a (..., m, n) stack; a real matrix stays real."""
    a = _as_array(a, "matrix", dtype=None)
    if a.ndim < 2:
        raise ShapeMismatch(f"expected a matrix or a stack of them, got shape {a.shape}")
    s = _lapack("svdvals", a)
    # s is non-negative and descending, so a zero matrix has rank 0
    rank = np.count_nonzero(s > tol.rank_tol * s[..., :1], axis=-1)
    return int(rank) if a.ndim == 2 else rank
