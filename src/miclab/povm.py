"""POVMs, MICs, Gram matrices and dual bases.

A POVM is a finite collection of positive semidefinite effects summing to the
identity on a d-dimensional Hilbert space.  A MIC (minimal informationally
complete POVM) has exactly d^2 effects that are linearly independent as
operators, so every density matrix is determined by its outcome probabilities.

The central object throughout is the Gram matrix G with entries
tr(E_i E_j), one matrix product (linalg._pairing).  It is real, symmetric,
positive definite for a MIC, and its entries sum to d.  The dual basis
{E~_i}, defined by tr(E_i E~_j) = delta_ij, is what turns measured
probabilities back into operators.  A validated POVM holds its N effects
as one read-only (N, d, d) array beside their weights tr E_i.

A MIC makes one inversion, on first use and behind the condition gate
cond(G) <= 1e12, and keeps it: Y = (A W)^-1, where the rows of A are the
effects' real coordinates (the diagonal, then 2 Re and 2 Im of the upper
triangle) and W weights them so that tr(X Y) = x . W y (_coordinates).
The duals' coordinates are Y's columns, so the duals are exactly Hermitian
and miss biorthogonality by about u sqrt(cond(G)), where duals taken from
G^-1 missed it by u cond(G); they are checked to 1e-8 and kept as one
read-only (d^2, d, d) array.  G = A W A^T, so the inverse Gram matrix is
Y^T W Y, which the inverse-Gram distance and the half-integer probe read.
The purity form passes the same gate, which remembers the last Gram matrix
it passed by comparing bytes, and solves on every call.  A finite p whose
reconstruction or purity form overflows float64 raises ValueError.  All
LAPACK calls go through linalg._lapack.

The PSD rule, least eigenvalue at least -zero_tol, is decided for a whole
stack (the effects of validate_povm and of the generic spectra batch, the
states of the covariant batch and of phi_matrix) by _psd: one Cholesky
certificate where its rounding allows, eigvalsh otherwise, so every verdict
is eigvalsh's, and NotPsd's value is eigvalsh's least eigenvalue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import CONDITION_LIMIT, DEFAULT_TOL, ToleranceConfig
from .errors import (
    IllConditionedGram,
    InvalidState,
    LinearlyDependent,
    NonFinite,
    NotHermitian,
    NotNormalized,
    NotPsd,
    ShapeMismatch,
    SumNotIdentity,
    WrongCount,
)
from .linalg import (_CERTIFY_MIN_ENTRIES, _as_array, _cond, _einsum, _factors, _lapack,
                     _pairing, _quietly, _rounding, eigh, eigvalsh, hermiticity_defect,
                     numerical_rank)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Effect:
    """One POVM element: a positive semidefinite matrix E and its weight tr E."""

    matrix: np.ndarray
    weight: float


@dataclass(frozen=True, eq=False)
class Povm:
    """A validated POVM.  matrices() and weights() return the stored read-only
    arrays, not copies; effects views them as Effect objects on first use."""

    dim: int
    stack: np.ndarray
    traces: np.ndarray

    def __len__(self) -> int:
        return len(self.stack)

    @functools.cached_property
    def effects(self) -> tuple[Effect, ...]:
        return tuple(Effect(m, float(w)) for m, w in zip(self.stack, self.traces))

    def matrices(self) -> np.ndarray:
        return self.stack

    def weights(self) -> np.ndarray:
        return self.traces


@dataclass(frozen=True, eq=False)
class DualBasis:
    """Operator basis dual to a MIC's effects: tr(E_i E~_j) = delta_ij.

    Every element is Hermitian with unit trace, and by the structure of MICs
    none of them is ever positive or negative semidefinite.  stack holds the
    elements as one read-only (d^2, d, d) array; elements views its rows.
    """

    dim: int
    stack: np.ndarray

    @functools.cached_property
    def elements(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack)


@dataclass(frozen=True, eq=False)
class Mic(Povm):
    """A validated MIC with its d^2 x d^2 Gram matrix.

    duals is the dual basis, computed and checked on first use and then
    kept, like the one inversion it is built from: stack and gram are
    read-only, so neither goes stale.  A MIC whose Gram matrix is refused
    raises IllConditionedGram on every access.
    """

    gram: np.ndarray

    @functools.cached_property
    def _coordinate_inverse(self) -> np.ndarray:
        # Y = (A W)^-1 behind the condition gate, once per MIC (see _coordinates)
        _gram_condition(self.gram)
        gather = _coordinates(self.dim)[0]
        return _lapack("inv", self.stack.reshape(len(self.stack), -1).view(float) @ gather)

    @functools.cached_property
    def _inverse_gram(self) -> np.ndarray:
        # G = A W A^T, so G^-1 = Y^T W Y
        y = self._coordinate_inverse
        return _frozen((y.T * _coordinates(self.dim)[1]) @ y)

    @functools.cached_property
    def duals(self) -> DualBasis:
        mats = self.matrices()
        n, d = len(mats), self.dim
        # column j of Y holds the coordinates of E~_j, so the duals are exactly Hermitian
        duals = (self._coordinate_inverse.T @ _coordinates(d)[2]).view(complex).reshape(n, d, d)
        defect = float(np.abs(_pairing(mats, duals) - np.eye(n)).max())
        if defect > 1e-8:
            raise IllConditionedGram(_gram_condition(self.gram),
                                     f"biorthogonality defect {defect:.3e} exceeds 1e-8")
        return DualBasis(dim=self.dim, stack=_frozen(duals))


@functools.cache
def _coordinates(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gather, w, scatter) of the real coordinates of d x d Hermitian matrices.

    A matrix X's coordinates x are its diagonal, then 2 Re and 2 Im of its
    upper triangle (row-major), so tr(X Y) = x . W y, with W = diag(w) one
    on the diagonal's coordinates and 1/2 on the others.  gather maps the
    real view (re, im interleaved) of a flattened matrix, or of the rows of
    a stack, to x W; scatter maps coordinates back to that view, with
    halves, and makes the lower triangle the conjugate of the upper.  Both
    hold one nonzero (0, +-1/2 or 1) per output entry, so either product is
    exact.  A MIC whose effects have coordinates A then has G = A W A^T, and
    with Y = (A W)^-1 the duals' coordinates are Y's columns and G^-1 is
    Y^T W Y.
    """
    n = d * d
    i, j = np.triu_indices(d, 1)
    diag, upper, lower = np.arange(d) * (d + 1), i * d + j, j * d + i
    k = np.arange(n)
    w = np.where(k < d, 1.0, 0.5)
    # positions in the real view: diagonal real parts, upper real parts, upper imaginary parts
    source = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
    gather = np.zeros((2 * n, n))
    gather[source, k] = 1.0
    scatter = np.zeros((n, 2 * n))
    scatter[k, source] = w
    scatter[k[d:], np.concatenate([2 * lower, 2 * lower + 1])] = np.repeat([0.5, -0.5], len(i))
    return _frozen(gather), _frozen(w), _frozen(scatter)


# ((shape, bytes), cond) of the last Gram matrix that passed the gate
_PASSED = [(None, 0.0)]


def _gram_condition(g: np.ndarray) -> float:
    """cond(g), or IllConditionedGram if it is not finite or exceeds
    CONDITION_LIMIT; NonFinite names the first row of g with a NaN or an
    infinity, which the SVD is not given.

    The checks run only when g differs from the last Gram that passed, by
    shape and bytes, so a Gram changed in place is checked again, and a
    refused one is checked, and refused, on every call.
    """
    a = np.ascontiguousarray(g, dtype=float)
    key = a.shape, a.tobytes()
    passed, cond = _PASSED[0]
    if key != passed:
        _check_finite(a)
        cond = _cond(a)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise IllConditionedGram(cond)
        _PASSED[0] = key, cond
    return cond


def _stack(effects, what: str = "effect", error=ShapeMismatch, d: int | None = None, least=1):
    """The effects as a fresh complex (N, d, d) array: an ndarray of numbers
    of that shape (d >= 1, N >= 0) copied whole, anything else read item by
    item (an iterator once) up to the first that is no d x d array of
    numbers, whose error, of type error, comes back too, raised at once for
    item 0.  Unless the caller or the array's shape gives d, it is item 0's
    size, and an item 0 that is no nonempty square matrix, or no item at all
    (WrongCount(0, least)), raises."""
    if (isinstance(effects, np.ndarray) and effects.dtype.kind in "biufc" and effects.ndim == 3
            and effects.shape[1] and effects.shape[1] == effects.shape[2]
            and d in (None, effects.shape[1])):
        return np.array(effects, dtype=complex, order="C"), None
    if not np.iterable(effects):
        raise ShapeMismatch(f"expected a sequence of {what}s, got {type(effects).__name__}")
    rows, fault = [], None
    for i, e in enumerate(effects):
        try:
            e = _as_array(e, f"{what} {i}", error)
            if d is None and e.ndim == 2 and e.shape[0] == e.shape[1] and e.size:
                d = e.shape[0]
            if e.shape != (d, d):
                expected = "a nonempty square matrix" if d is None else (d, d)
                raise error(f"{what} {i} has shape {e.shape}, expected {expected}")
        except error as exc:
            fault = exc
            break
        rows.append(e)
    if fault is not None and not rows:
        raise fault
    if d is None:
        raise WrongCount(0, least)
    return np.array(rows, dtype=complex).reshape(len(rows), d, d), fault


def _first(mask: np.ndarray) -> np.ndarray:
    # index of the first True along the last axis, its length if none
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), mask.shape[-1])


def _psd(h: np.ndarray, zero_tol: float) -> np.ndarray:
    """Whether each matrix of a finite (..., n, n) stack has, by eigvalsh, a
    least eigenvalue of at least -zero_tol, read as LAPACK reads it: the
    Hermitian matrix H of its lower triangle.

    One Cholesky factorization of the whole stack shifted by s = zero_tol / 2
    certifies every verdict.  With F the largest Frobenius norm in the stack,
    ||H||_F <= sqrt(2) F.  If h + sI factors, each H has least eigenvalue at
    least -s - d_c, where d_c = u (sqrt(2) F + s) for forming the shift and
    8 (n + 1) u tr(H + sI) <= 8 (n + 1) u (sqrt(2 n) F + n s) for the
    factorization; eigvalsh then returns at least -s - d_c - d_e, with
    d_e = 16 n^2 u sqrt(2) F its own rounding.  All three are within
    linalg._rounding(n) (F + s) = 48 n^2 u (F + s), so where that is at most
    s, a stack that factors has every least eigenvalue at or above
    -zero_tol by eigvalsh too.  Otherwise (a large F, a tiny zero_tol, or a
    stack that does not factor) eigvalsh decides, so every verdict is its;
    it also decides a stack of fewer than linalg._CERTIFY_MIN_ENTRIES
    entries, which it answers sooner.
    """
    n = h.shape[-1]
    s = zero_tol / 2
    if h.size >= _CERTIFY_MIN_ENTRIES:
        flat = h.reshape(-1, n * n)
        # an inf norm steps aside
        f = _quietly(lambda: float(np.sqrt(np.vecdot(flat, flat).real.max())))
        if _rounding(n) * (f + s) <= s and _factors(h + s * np.eye(n)):
            return np.ones(h.shape[:-2], dtype=bool)
    return _lapack("eigvalsh", h)[..., 0] >= -zero_tol


def _effect_rules(e: np.ndarray, tol: ToleranceConfig):
    """validate_povm's rules on each set of N effects of a (..., N, d, d) stack:
    the index of its lowest effect that is non-finite, beyond hermitian_tol
    of its adjoint or below -zero_tol in an eigenvalue (N if none), whether
    the Frobenius norm of the sum minus the identity is within zero_tol * d,
    and that norm.  The eigenvalue rule is _psd's, certified by Cholesky."""
    hermitian = hermiticity_defect(e) <= tol.hermitian_tol
    # only finite Hermitian effects reach LAPACK
    h = e if hermitian.all() else np.where(hermitian[..., None, None], e, 0)
    d = e.shape[-1]
    # a sum that overflows fails below
    deficit = _quietly(lambda: np.linalg.norm(e.sum(axis=-3) - np.eye(d), axis=(-2, -1)))
    return _first(~hermitian | ~_psd(h, tol.zero_tol)), deficit <= tol.zero_tol * d, deficit


def validate_povm(effects, tol: ToleranceConfig = DEFAULT_TOL) -> Povm:
    """Check that effects, an (N, d, d) array or a sequence or iterator of
    d x d matrices, form a POVM, with the PSD rule decided for all effects at
    once (see _psd).  Effects that are no sequence raise ShapeMismatch.

    Of several faulty effects the lowest index raises: ShapeMismatch for one
    that is no d x d array of numbers (d from effect 0; see _stack),
    NonFinite, NotHermitian, or NotPsd for an eigenvalue below -zero_tol.
    Then SumNotIdentity if the sum misses the identity by more than
    zero_tol * d in Frobenius norm.
    """
    mats, ragged = _stack(effects)
    if not len(mats):
        raise WrongCount(0, 1)
    first, summed, deficit = _effect_rules(mats, tol)
    if first < len(mats):
        eigh(mats[:first + 1], tol)  # raises NonFinite or NotHermitian for a non-Hermitian one
        raise NotPsd(int(first), float(_lapack("eigvalsh", mats[first])[0]))
    if ragged is not None:
        raise ragged
    if not summed:
        raise SumNotIdentity(float(deficit))
    traces = mats.trace(axis1=1, axis2=2).real
    return Povm(dim=mats.shape[1], stack=_frozen(mats), traces=_frozen(traces))


def _negligible(weights: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    # validate_mic's weight rule: each (..., n) set's first weight <= zero_tol, n if none
    return _first(weights <= tol.zero_tol)


def _gram_rules(mats: np.ndarray, tol: ToleranceConfig):
    """gram's rules on each set of effects of a (..., n, d, d) stack: whether
    its Gram matrix tr(E_i E_j) is finite with imaginary residue at most
    zero_tol, and that matrix's real part, symmetrized."""
    g = _pairing(mats, mats)
    real = np.isfinite(g).all(axis=(-2, -1))
    real &= np.abs(g.imag).max(axis=(-2, -1), initial=0.0) <= tol.zero_tol
    g = g.real
    return real, _quietly(lambda: (g + g.mT) / 2)  # a non-finite Gram is refused above


def _gram_rank(g: np.ndarray, tol: ToleranceConfig):
    """Ascending eigenvalues and numerical rank of each real symmetric matrix
    of a (..., n, n) stack.  Its singular values are its |eigenvalues|, so
    its rank is n wherever the least clears rank_tol times the largest by a
    factor of 1e3, far beyond any rounding between the two; numerical_rank's
    SVD decides the rest."""
    eigs = _lapack("eigvalsh", g)
    s = np.abs(eigs)
    rank = np.full(eigs.shape[:-1], eigs.shape[-1])
    near = ~(s.min(axis=-1) > 1e3 * tol.rank_tol * s.max(axis=-1))
    if near.any():
        rank[near] = numerical_rank(g[near], tol)
    return eigs, rank


def gram(povm: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Gram matrix [G]_ij = tr(E_i E_j).

    The matrix is real for Hermitian effects; an imaginary residue beyond
    zero_tol raises NotHermitian.  NonFinite(i) names the first effect with a
    NaN or infinite entry or, if all are finite but overflow, the first
    non-finite Gram row.  The entries of a POVM Gram matrix always sum to d.
    """
    mats = povm.matrices()
    real, g = _gram_rules(mats, tol)
    if not real:
        c = _pairing(mats, mats)
        finite = np.isfinite(mats).all(axis=(1, 2))
        finite = np.isfinite(c).all(axis=1) if finite.all() else finite
        if not finite.all():
            raise NonFinite(int(np.argmin(finite)))
        raise NotHermitian(f"Gram matrix has imaginary residue {np.abs(c.imag).max():.3e}")
    return _frozen(g)


def validate_mic(povm: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Promote a POVM to a MIC after checking informational completeness.

    Requires exactly d^2 effects (WrongCount), each with weight above
    zero_tol, and a full-rank Gram matrix (LinearlyDependent otherwise).
    """
    d = povm.dim
    n = len(povm)
    if n != d * d:
        raise WrongCount(n, d * d)
    light = _negligible(povm.weights(), tol)
    if light < n:
        raise LinearlyDependent(n - 1, n, f"effect {light} has negligible weight")
    g = gram(povm, tol)
    rank = int(_gram_rank(g, tol)[1])
    if rank != n:
        raise LinearlyDependent(rank, n)
    return Mic(dim=d, stack=povm.stack, traces=povm.traces, gram=g)


def mic_from_matrices(effects, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """validate_povm followed by validate_mic."""
    return validate_mic(validate_povm(effects, tol), tol)


def is_unbiased(mic: Mic, tol: float = 1e-9) -> bool:
    """True iff every weight equals 1/d within tol."""
    return bool(np.abs(mic.weights() - 1.0 / mic.dim).max() <= tol)


def dual_basis(mic: Mic, tol: ToleranceConfig = DEFAULT_TOL) -> DualBasis:
    """Basis dual to the MIC's effects, E~_i = sum_j [G^-1]_ij E_j, taken
    from the inverse of the effects' real coordinates (see Mic.duals).

    Refuses Gram matrices with condition number above 1e12 and verifies the
    biorthogonality relation tr(E_i E~_j) = delta_ij to 1e-8, both once per
    MIC: the result is mic.duals, cached on the MIC.  tol is not read.
    """
    return mic.duals


def _check_state(rho, d: int, tol: ToleranceConfig, what: str = "state") -> np.ndarray:
    rho = _as_array(rho, what, InvalidState)
    if rho.shape != (d, d):
        raise InvalidState(f"{what} has shape {rho.shape}, expected {(d, d)}")
    # a non-finite entry makes the defect NaN or inf, and an overflow makes it inf
    defect, tr = _quietly(lambda: (np.abs(rho - rho.conj().T).max(), complex(rho.trace())))
    if not defect <= tol.hermitian_tol:
        if not np.isfinite(rho).all():
            raise InvalidState(f"{what} has a non-finite entry")
        raise InvalidState(f"{what} is not Hermitian (defect {defect:.3e})")
    if not abs(tr - 1.0) <= 1e-10:
        raise InvalidState(f"{what} has trace {tr!r}, expected 1")
    half = rho / 2  # a sum of two halves cannot overflow
    w = _lapack("eigvalsh", half + half.conj().T)
    if w[0] < -tol.zero_tol:
        raise InvalidState(f"{what} has negative eigenvalue {w[0]:.3e}")
    return rho


def _valid_states(rhos: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Mask of the states of a (B, d, d) stack that _check_state accepts, by its rules."""
    ok = hermiticity_defect(rhos) <= tol.hermitian_tol
    rhos = np.where(ok[:, None, None], rhos, 0)  # only finite states reach the sums below
    ok &= _quietly(lambda: np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0) <= 1e-10)
    half = rhos / 2
    ok &= _psd(half + half.conj().transpose(0, 2, 1), tol.zero_tol)
    return ok


def _real(a, what: str, error=ValueError) -> np.ndarray:
    # a as floats; error if complex with a nonzero (or NaN) imaginary part
    a = _as_array(a, what, dtype=None)
    if a.dtype.kind == "c":
        residue = np.abs(a.imag).max(initial=0.0)
        if residue:
            raise error(f"{what} has imaginary part {residue:.3e}")
        a = a.real
    return a.astype(float, copy=False)


def _check_finite(a: np.ndarray) -> None:
    # NonFinite naming the first entry of a vector, or row of a matrix, that
    # holds a NaN or an infinity
    finite = np.isfinite(a)
    if finite.ndim > 1:
        finite = finite.all(axis=1)
    if not finite.all():
        raise NonFinite(int(np.argmin(finite)))


def born_probabilities(rho, povm: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Outcome probabilities p_i = tr(rho E_i) of a state under a POVM."""
    rho = _check_state(rho, povm.dim, tol)
    p = _einsum("ab,iba->i", rho, povm.matrices()).real
    return _frozen(p)


def reconstruct_state(p, mic: Mic, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Operator sum_i p_i E~_i expanded in the MIC's dual basis.

    For p produced by born_probabilities this inverts the measurement map.
    The result is always Hermitian with trace equal to sum(p); it need not be
    positive semidefinite for an arbitrary probability vector.  A NaN or
    infinite p_i raises NonFinite(i), and a complex p with a nonzero
    imaginary part, or a finite p whose operator overflows, ValueError;
    a MIC without a dual basis raises before p's entries are read.
    """
    p = _real(p, "probability vector")
    n = mic.dim * mic.dim
    if p.shape != (n,):
        raise ShapeMismatch(f"expected {n} probabilities, got shape {p.shape}")
    out = _einsum("i,iab->ab", p, dual_basis(mic, tol).stack)
    # einsum flags no overflow, and the sum below can overflow only where an
    # entry exceeds about 1e154, as the sum of squares then does.  A NaN or
    # infinite p_i makes every entry non-finite, so p is checked only here.
    if not math.isfinite(np.vdot(out, out).real):
        _check_finite(p)
        if not _quietly(lambda: np.isfinite(out + out.conj().T).all()):
            raise ValueError("the reconstructed operator overflows float64")
    out += out.conj().T
    out /= 2
    return _frozen(out)


def purity_form(p, g) -> float:
    """Quadratic form sum_ij p_i p_j [G^-1]_ij.

    When p comes from measuring rho with the MIC whose Gram matrix is g this
    equals tr(rho^2), so it is 1 exactly for pure states and smaller for
    mixed ones.  A NaN or infinite p_i raises NonFinite(i), and then one in
    row i of g NonFinite(i); an empty or non-square g, or a p of another
    length, raises ShapeMismatch.  A complex p with a nonzero imaginary part
    raises ValueError, and such a g NotHermitian, and a finite p whose form
    overflows float64 ValueError.  g passes the condition gate of a MIC's
    inverse Gram matrix, whose checks run only when g differs, by shape or
    bytes, from the last Gram it passed (see _gram_condition); the solve
    runs on every call.
    """
    p = _real(p, "probability vector")
    g = _real(g, "Gram matrix", NotHermitian)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or not len(g) or p.shape != (g.shape[0],):
        raise ShapeMismatch(f"probability shape {p.shape} vs Gram shape {g.shape}")
    _check_finite(p)
    _gram_condition(g)
    value = float(_quietly(np.matmul, p, _lapack("solve1", g, p)))
    if not math.isfinite(value):
        raise ValueError("the purity form overflows float64")
    return value


def _check_unit(i: int, v: np.ndarray) -> None:
    # NotNormalized(i, |v|) unless |v| is 1 within 1e-10; a non-finite norm,
    # or one that overflows, fails too
    norm = _quietly(lambda: float(np.linalg.norm(v)))
    if not abs(norm - 1.0) <= 1e-10:
        raise NotNormalized(i, norm)


def _vector_rows(vectors) -> np.ndarray:
    """The vectors, read one at a time, as the rows of an (n, d) complex
    array, d from the first: ShapeMismatch for the first vector of another
    length or of no numbers, or for no sequence, and WrongCount(0, 1) for none."""
    if not np.iterable(vectors):
        raise ShapeMismatch(f"expected a sequence of vectors, got {type(vectors).__name__}")
    rows = []
    for i, v in enumerate(vectors):
        rows.append(_as_array(v, f"vector {i}").ravel())
        if len(rows[i]) != len(rows[0]):
            raise ShapeMismatch(f"vector {i} has length {len(rows[i])}, expected {len(rows[0])}")
    if not rows:
        raise WrongCount(0, 1)
    return np.array(rows)


def rescaled_vector_gram(vectors, weights, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Gram matrix of the rescaled vectors sqrt(e_i) |phi_i>.

    vectors must be unit vectors (NotNormalized otherwise) and weights must
    lie in [0, 1].  The result g_ij = sqrt(e_i e_j) <phi_i|phi_j> is complex
    Hermitian and positive semidefinite; its entrywise product with its own
    conjugate reproduces the POVM Gram matrix when the effects are
    E_i = e_i |phi_i><phi_i|.  No vectors at all raise WrongCount, and
    vectors of different lengths, or weights that are not one number per
    vector, ShapeMismatch, and complex weights ValueError.
    """
    v = _vector_rows(vectors)
    ws = _real(weights, "weights")
    if ws.shape != (len(v),):
        raise ShapeMismatch(f"{len(v)} vectors but weights of shape {ws.shape}")
    if not ((ws >= 0) & (ws <= 1 + tol.zero_tol)).all():  # a NaN weight fails too
        raise ValueError("weights must lie in [0, 1]")
    for i, row in enumerate(v):
        _check_unit(i, row)
    scaled = v * np.sqrt(ws)[:, None]
    g = scaled.conj() @ scaled.T
    return _frozen((g + g.conj().T) / 2)


def rank1_mic_check(vectors, weights, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, bool]:
    """Test whether rank-1 effects e_i |phi_i><phi_i| form a POVM, then a MIC.

    The first flag holds iff the rescaled-vector Gram matrix g is a rank-d
    projector (g @ g = g entrywise within zero_tol), which is equivalent to
    the effects summing to the identity.  The second additionally requires
    d^2 vectors and full rank of the entrywise product of g with its
    conjugate, the POVM Gram matrix.  Raises as rescaled_vector_gram does.
    """
    v = _vector_rows(vectors)
    g = rescaled_vector_gram(v, weights, tol)
    d = v.shape[1]
    projector_defect = float(np.abs(g @ g - g).max())
    is_povm = projector_defect <= tol.zero_tol and numerical_rank(g, tol) == d
    if not is_povm:
        return False, False
    n = g.shape[0]
    # the Hadamard (entrywise) product of g with its conjugate is the POVM Gram
    is_mic = n == d * d and numerical_rank((g * g.conj()).real, tol) == d * d
    return True, is_mic


def effect_ranks(povm: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Numerical rank of each effect."""
    return numerical_rank(povm.matrices(), tol).tolist()


def effect_eigenvalue_ranges(povm: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> list[tuple[float, float]]:
    """(min, max) eigenvalue of each effect."""
    w = eigvalsh(povm.matrices(), tol)
    return [(float(lo), float(hi)) for lo, hi in zip(w[:, 0], w[:, -1])]
