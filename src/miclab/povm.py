"""POVMs, MICs, Gram matrices and dual bases.

A POVM is a finite collection of positive semidefinite effects summing to the
identity on a d-dimensional Hilbert space.  A MIC (minimal informationally
complete POVM) has exactly d^2 effects that are linearly independent as
operators, so every density matrix is determined by its outcome probabilities.

The central object throughout is the Gram matrix G with entries
tr(E_i E_j).  It is real, symmetric, positive definite for a MIC, and its
entries sum to d.  The dual basis {E~_i}, defined by tr(E_i E~_j) = delta_ij,
is obtained by applying the inverse Gram matrix to the effects and is what
turns measured probabilities back into operators.  A validated POVM holds
its N effects as one read-only (N, d, d) array beside their weights tr E_i.
A MIC computes its dual basis, with the conditioning and biorthogonality
checks, on first use and keeps it as one read-only (d^2, d, d) array, so
reconstructing many states from one MIC inverts its Gram matrix once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import sqrt

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
from .linalg import eigh, eigvalsh, numerical_rank


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
    kept: stack and gram are read-only, so it never goes stale.  A MIC whose
    Gram matrix is refused raises IllConditionedGram on every access.
    """

    gram: np.ndarray

    @functools.cached_property
    def duals(self) -> DualBasis:
        g = self.gram
        cond = float(np.linalg.cond(g))
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise IllConditionedGram(cond)
        mats = self.matrices()
        n = mats.shape[0]
        coeffs = np.linalg.solve(g, np.eye(n))
        # the exact inverse is symmetric; averaging halves the solve error
        # that otherwise concentrates in the small-eigenvalue subspace
        coeffs = (coeffs + coeffs.T) / 2.0
        duals = np.einsum("ij,jab->iab", coeffs, mats)
        # exactly Hermitian in theory; large inverse-Gram coefficients can
        # leave rounding asymmetry big enough to trip downstream eigh gates
        duals = (duals + duals.conj().transpose(0, 2, 1)) / 2.0
        check = np.einsum("iab,jba->ij", mats, duals)
        defect = float(np.abs(check - np.eye(n)).max())
        if defect > 1e-8:
            raise IllConditionedGram(cond, f"biorthogonality defect {defect:.3e} exceeds 1e-8")
        return DualBasis(dim=self.dim, stack=_frozen(duals))


def _stack(effects) -> tuple[np.ndarray, ShapeMismatch | None]:
    """The effects as a fresh complex (N, d, d) array, d from the first, cut
    before the first effect of another shape, with the ShapeMismatch for it."""
    try:
        mats = np.array(effects, dtype=complex, order="C")
        if mats.ndim == 3 and len(mats) and mats.shape[1] == mats.shape[2] > 0:
            return mats, None
    except ValueError:  # ragged input does not stack
        pass
    rows = [np.asarray(e, dtype=complex) for e in effects]
    if not rows:
        raise WrongCount(0, 1)
    d = rows[0].shape[0] if rows[0].ndim else 0
    i = next(i for i, e in enumerate(rows) if e.shape != (d, d) or d == 0)
    error = ShapeMismatch(f"effect {i} has shape {rows[i].shape}, expected {(d, d)}")
    if i == 0:
        raise error
    return np.array(rows[:i]), error


def validate_povm(effects, tol: ToleranceConfig = DEFAULT_TOL) -> Povm:
    """Check that effects, an (N, d, d) array or a sequence of d x d
    matrices, form a POVM, with one batched eigendecomposition.

    Of several faulty effects the lowest index raises: ShapeMismatch,
    NonFinite, NotHermitian, or NotPsd for an eigenvalue below -zero_tol.
    Then SumNotIdentity if the sum misses the identity by more than
    zero_tol * d in Frobenius norm.
    """
    mats, ragged = _stack(effects)
    try:
        low, fault = eigh(mats, tol, vectors=False)[0][:, 0], ragged
    except (NonFinite, NotHermitian) as exc:
        # an effect before the faulty one may still fail first
        low, fault = eigh(mats[:exc.index], tol, vectors=False)[0][:, 0], exc
    if low.min(initial=0.0) < -tol.zero_tol:
        i = int(np.argmax(low < -tol.zero_tol))
        raise NotPsd(i, float(low[i]))
    if fault is not None:
        raise fault
    d = mats.shape[1]
    rest = mats.sum(axis=0) - np.eye(d)
    deficit = sqrt(np.vdot(rest, rest).real)  # Frobenius norm
    if deficit > tol.zero_tol * d:
        raise SumNotIdentity(deficit)
    traces = mats.trace(axis1=1, axis2=2).real
    return Povm(dim=d, stack=_frozen(mats), traces=_frozen(traces))


def gram(povm: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Gram matrix [G]_ij = tr(E_i E_j).

    The matrix is real for Hermitian effects; any imaginary residue beyond
    zero_tol indicates corrupted input and raises NotHermitian, or
    NonFinite(i) for the first effect with a NaN or infinite entry.  The
    entries of a POVM Gram matrix always sum to d.
    """
    mats = povm.matrices()
    g = np.einsum("iab,jba->ij", mats, mats)
    residue = float(np.abs(g.imag).max(initial=0.0))
    if not residue <= tol.zero_tol:  # NaN fails too
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():
            raise NonFinite(int(np.argmin(finite)))
        raise NotHermitian(f"Gram matrix has imaginary residue {residue:.3e}")
    g = g.real
    return _frozen((g + g.T) / 2)


def validate_mic(povm: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Promote a POVM to a MIC after checking informational completeness.

    Requires exactly d^2 effects (WrongCount), each with weight above
    zero_tol, and a full-rank Gram matrix (LinearlyDependent otherwise).
    """
    d = povm.dim
    n = len(povm)
    if n != d * d:
        raise WrongCount(n, d * d)
    negligible = povm.weights() <= tol.zero_tol
    if negligible.any():
        i = int(np.argmax(negligible))
        raise LinearlyDependent(n - 1, n, f"effect {i} has negligible weight")
    g = gram(povm, tol)
    rank = numerical_rank(g, tol)
    if rank != d * d:
        raise LinearlyDependent(rank, d * d)
    return Mic(dim=d, stack=povm.stack, traces=povm.traces, gram=g)


def mic_from_matrices(effects, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """validate_povm followed by validate_mic."""
    return validate_mic(validate_povm(effects, tol), tol)


def is_unbiased(mic: Mic, tol: float = 1e-9) -> bool:
    """True iff every weight equals 1/d within tol."""
    return bool(np.abs(mic.weights() - 1.0 / mic.dim).max() <= tol)


def dual_basis(mic: Mic, tol: ToleranceConfig = DEFAULT_TOL) -> DualBasis:
    """Basis dual to the MIC's effects, E~_i = sum_j [G^-1]_ij E_j.

    Refuses Gram matrices with condition number above 1e12 and verifies the
    biorthogonality relation tr(E_i E~_j) = delta_ij to 1e-8, both once per
    MIC: the result is mic.duals, cached on the MIC.  tol is not read.
    """
    return mic.duals


def _check_state(rho, d: int, tol: ToleranceConfig) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise InvalidState(f"state has shape {rho.shape}, expected {(d, d)}")
    if not np.isfinite(rho).all():  # before rho - rho^dagger can meet inf - inf
        raise InvalidState("state has a non-finite entry")
    defect = float(np.abs(rho - rho.conj().T).max())
    if defect > tol.hermitian_tol:
        raise InvalidState(f"state is not Hermitian (defect {defect:.3e})")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= 1e-10:
        raise InvalidState(f"state has trace {tr!r}, expected 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w[0] < -tol.zero_tol:
        raise InvalidState(f"state has negative eigenvalue {w[0]:.3e}")
    return rho


def _check_finite(p: np.ndarray) -> None:
    finite = np.isfinite(p)
    if not finite.all():
        raise NonFinite(int(np.argmin(finite)))


def born_probabilities(rho, povm: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Outcome probabilities p_i = tr(rho E_i) of a state under a POVM."""
    rho = _check_state(rho, povm.dim, tol)
    p = np.einsum("ab,iba->i", rho, povm.matrices()).real
    return _frozen(p)


def reconstruct_state(p, mic: Mic, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Operator sum_i p_i E~_i expanded in the MIC's dual basis.

    For p produced by born_probabilities this inverts the measurement map.
    The result is always Hermitian with trace equal to sum(p); it need not be
    positive semidefinite for an arbitrary probability vector.  A NaN or
    infinite p_i raises NonFinite(i).
    """
    p = np.asarray(p, dtype=float)
    n = mic.dim * mic.dim
    if p.shape != (n,):
        raise ShapeMismatch(f"expected {n} probabilities, got shape {p.shape}")
    _check_finite(p)
    out = np.einsum("i,iab->ab", p, dual_basis(mic, tol).stack)
    return _frozen((out + out.conj().T) / 2)


def purity_form(p, g, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Quadratic form sum_ij p_i p_j [G^-1]_ij.

    When p comes from measuring rho with the MIC whose Gram matrix is g this
    equals tr(rho^2), so it is 1 exactly for pure states and smaller for
    mixed ones.  A NaN or infinite p_i raises NonFinite(i).
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or p.shape != (g.shape[0],):
        raise ShapeMismatch(f"probability shape {p.shape} vs Gram shape {g.shape}")
    _check_finite(p)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedGram(cond)
    return float(p @ np.linalg.solve(g, p))


def collision_probability(p) -> float:
    """sum_i p_i^2 for a probability vector (bounded below by 1/d^2 on MICs)."""
    p = np.asarray(p, dtype=float)
    if p.min(initial=0.0) < -DEFAULT_TOL.zero_tol:
        raise ValueError(f"negative probability {p.min():.3e}")
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
    return float(p @ p)


def rescaled_vector_gram(vectors, weights, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Gram matrix of the rescaled vectors sqrt(e_i) |phi_i>.

    vectors must be unit vectors (NotNormalized otherwise) and weights must
    lie in [0, 1].  The result g_ij = sqrt(e_i e_j) <phi_i|phi_j> is complex
    Hermitian and positive semidefinite; its entrywise product with its own
    conjugate reproduces the POVM Gram matrix when the effects are
    E_i = e_i |phi_i><phi_i|.
    """
    vs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    ws = np.asarray(weights, dtype=float)
    if len(vs) != ws.shape[0]:
        raise ShapeMismatch(f"{len(vs)} vectors but {ws.shape[0]} weights")
    if ws.min(initial=0.0) < 0 or ws.max(initial=0.0) > 1 + tol.zero_tol:
        raise ValueError("weights must lie in [0, 1]")
    for i, v in enumerate(vs):
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-10:
            raise NotNormalized(i, norm)
    v = np.array(vs)
    scaled = v * np.sqrt(ws)[:, None]
    g = scaled.conj() @ scaled.T
    return _frozen((g + g.conj().T) / 2)


def rank1_mic_check(vectors, weights, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, bool]:
    """Test whether rank-1 effects e_i |phi_i><phi_i| form a POVM, then a MIC.

    The first flag holds iff the rescaled-vector Gram matrix g is a rank-d
    projector (g @ g = g entrywise within zero_tol), which is equivalent to
    the effects summing to the identity.  The second additionally requires
    d^2 vectors and full rank of the entrywise product of g with its
    conjugate, which is the POVM Gram matrix.
    """
    g = rescaled_vector_gram(vectors, weights, tol)
    d = len(np.asarray(vectors[0]).ravel())
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
    return [numerical_rank(m, tol) for m in povm.matrices()]


def effect_eigenvalue_ranges(povm: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> list[tuple[float, float]]:
    """(min, max) eigenvalue of each effect."""
    w = eigvalsh(povm.matrices(), tol)
    return [(float(lo), float(hi)) for lo, hi in zip(w[:, 0], w[:, -1])]
