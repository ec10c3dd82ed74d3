"""Constructions of specific MIC families.

Covers the symmetric (SIC) measurements in low dimensions, group-covariant
MICs built from Weyl-Heisenberg orbits, the orthocross family derived from
computational-basis and superposition projectors, generic MICs obtained by
squashing any positive semidefinite operator basis with the inverse square
root of its sum, equiangular interpolations, a rank-(d+1)/2 covariant family
for odd dimensions, tensor products, and a hand-built rank-1 unbiased MIC in
dimension three with exactly seven orthogonal pairs of effects.

mic_from_psd_basis checks the basis Gram's rank first, by numerical_rank's
SVD, then squashes (_squash).  The generic spectra batch builds the basis
Gram only for the rows whose squashed spectra do not already certify its
full rank (ensembles._squash_spectra).
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .config import DEFAULT_TOL, MAX_DIMENSION, ToleranceConfig
from .errors import (
    BetaOutOfRange,
    BetaZero,
    DegenerateFiducial,
    EnvelopeExceeded,
    EvenDimension,
    InvalidState,
    LinearlyDependent,
    NotSic,
    ShapeMismatch,
    SingularOperator,
    WrongCount,
    WrongDimension,
)
from .linalg import _as_array, _as_square, _lapack, eigh, hermiticity_defect, numerical_rank
from .povm import (Mic, _check_finite, _check_state, _check_unit, _frozen, _stack,
                   mic_from_matrices, validate_povm)


@dataclass(frozen=True, eq=False)
class SicFiducial:
    """A unit vector whose Weyl-Heisenberg orbit forms a SIC."""

    dim: int
    vector: np.ndarray

    @staticmethod
    def from_vector(v) -> "SicFiducial":
        v = _as_array(v, "fiducial vector").ravel()
        _check_unit(0, v)
        return SicFiducial(dim=v.shape[0], vector=_frozen(v))


def _is_integer(x) -> bool:
    # a Python or numpy integer, and not a bool
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_dimension(d: int, least: int = 1) -> None:
    if not _is_integer(d):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if d > MAX_DIMENSION:
        raise EnvelopeExceeded(d, MAX_DIMENSION)
    if d < least:
        raise ValueError(f"d must be at least {least}, got {d}")


def sic_gram_matrix(d: int) -> np.ndarray:
    """Gram matrix of a SIC in dimension d: (d delta_ij + 1) / (d^2 (d+1))."""
    _check_dimension(d)
    n = d * d
    g = (d * np.eye(n) + np.ones((n, n))) / (d * d * (d + 1))
    return _frozen(g)


# ----------------------------------------------------------------- qubit SIC

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def sic_qubit(tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """The qubit SIC: four effects pointing at tetrahedron vertices.

    E_ss' = (1/2) P_ss' with P_ss' the projector along the Bloch vector
    (s, s', s s') / sqrt(3), enumerated in the order
    (+,+), (+,-), (-,+), (-,-).
    """
    effects = []
    for s in (1, -1):
        for sp in (1, -1):
            bloch = (s * _PAULI_X + sp * _PAULI_Y + s * sp * _PAULI_Z) / np.sqrt(3)
            effects.append((np.eye(2) + bloch) / 4)
    return mic_from_matrices(effects, tol)


# ------------------------------------------------------- Weyl-Heisenberg MICs

def wh_displacement(d: int, k: int, l: int) -> np.ndarray:
    """Displacement operator D_kl = (-e^{i pi/d})^{kl} X^k Z^l.

    X is the cyclic shift |j> -> |j+1 mod d> and Z the modulation
    |j> -> e^{2 pi i j / d} |j>.  Indices are reduced mod d; for odd d the
    operators are strictly periodic in both indices, for even d the
    reduction fixes a canonical sign.  k and l must be integers (ValueError).
    """
    _check_dimension(d)
    if not (_is_integer(k) and _is_integer(l)):
        raise ValueError(f"displacement indices must be integers, got ({k!r}, {l!r})")
    k = k % d
    l = l % d
    tau = -np.exp(1j * np.pi / d)
    j = np.arange(d)
    z_phases = np.exp(2j * np.pi * j * l / d)
    m = np.zeros((d, d), dtype=complex)
    m[(j + k) % d, j] = tau ** (k * l) * z_phases
    return _frozen(m)


@functools.lru_cache(maxsize=None)
def _displacement_basis(d: int) -> np.ndarray:
    """All d^2 displacement operators, row-major in (k, l)."""
    ops = np.array([wh_displacement(d, k, l) for k in range(d) for l in range(d)])
    return _frozen(ops)


def _displacement_components(rho: np.ndarray) -> np.ndarray:
    """tr(D_kl^dagger rho), row-major in (k, l), of a (d, d) state or each of a (..., d, d) stack."""
    ops = _displacement_basis(rho.shape[-1])
    return np.einsum("kba,...ba->...k", ops.conj(), rho)


def wh_mic(rho, overlap_tol: float = 1e-8, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Weyl-Heisenberg orbit MIC of a density matrix rho.

    The effects are E_kl = (1/d) D_kl rho D_kl^dagger, ordered row-major in
    (k, l).  The orbit spans operator space exactly when every displacement
    component tr(D_kl^dagger rho) is nonzero; components smaller in magnitude
    than overlap_tol raise DegenerateFiducial, and a rho that is no valid
    state, a scalar included, InvalidState.  An overlap_tol that is no
    finite number at least 0 raises ValueError.  The result is always
    unbiased, and every row of its Gram matrix is a permutation of the first.
    """
    if not (isinstance(overlap_tol, numbers.Real) and 0 <= overlap_tol < np.inf):
        raise ValueError(f"overlap_tol must be a finite number at least 0, got {overlap_tol!r}")
    rho = _as_array(rho, "state", InvalidState)
    if rho.ndim != 2 or not rho.size:
        raise InvalidState(f"state has shape {rho.shape}, expected a square matrix")
    d = rho.shape[0]
    _check_dimension(d)
    rho = _check_state(rho, d, tol)
    components = _displacement_components(rho)
    small = np.abs(components) <= overlap_tol
    if small.any():
        idx = int(np.argmax(small))
        raise DegenerateFiducial(idx // d, idx % d, float(np.abs(components[idx])))
    ops = _displacement_basis(d)
    effects = np.einsum("kab,bc,kdc->kad", ops, rho, ops.conj()) / d
    return mic_from_matrices(effects, tol)


@functools.lru_cache(maxsize=None)
def builtin_fiducial(d: int) -> SicFiducial:
    """A fiducial vector for dimensions 2 through 5, verified on first use.

    The d = 2 vector is exact (the principal eigenvector of a tetrahedron
    projector); the others are stored numerically to 40 digits and were
    found by the search in scripts/find_fiducials.py.  The orbit is checked
    against the SIC Gram form once per process before the vector is handed
    out.
    """
    if d == 2:
        c = np.sqrt((1 + 1 / np.sqrt(3)) / 2)
        s = np.sqrt((1 - 1 / np.sqrt(3)) / 2)
        v = np.array([c, np.exp(1j * np.pi / 4) * s])
        fid = SicFiducial.from_vector(v)
    elif d in (3, 4, 5):
        text = resources.files("miclab").joinpath("data/fiducials.json").read_text()
        record = json.loads(text)[str(d)]
        v = np.array([float(re) + 1j * float(im) for re, im in record["vector"]])
        v = v / np.linalg.norm(v)
        fid = SicFiducial.from_vector(v)
    else:
        raise WrongDimension(f"no built-in fiducial for d={d}; supported: 2..5")
    sic_from_fiducial(fid)
    return fid


def sic_from_fiducial(f, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """SIC built as the Weyl-Heisenberg orbit of a fiducial vector.

    Accepts a SicFiducial or a raw unit vector.  Raises NotSic if the orbit
    Gram matrix deviates from the symmetric form by more than 1e-8 in any
    entry.
    """
    if not isinstance(f, SicFiducial):
        f = SicFiducial.from_vector(f)
    rho = np.outer(f.vector, f.vector.conj())
    mic = wh_mic(rho, tol=tol)
    deviation = float(np.abs(mic.gram - sic_gram_matrix(f.dim)).max())
    if deviation > 1e-8:
        raise NotSic(deviation)
    return mic


def sic_mic(d: int, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Built-in SIC for d in 2..5, as a Weyl-Heisenberg fiducial orbit."""
    return sic_from_fiducial(builtin_fiducial(d), tol)


# ------------------------------------------------------------ orthocross MIC

def orthocross_projectors(d: int) -> np.ndarray:
    """The d^2 projectors generating the orthocross MIC, as one complex
    (d^2, d, d) array.

    First the d computational-basis projectors |j><j|, then projectors onto
    (|j> + |k>)/sqrt(2) for j < k in lexicographic order, then onto
    (|j> + i |k>)/sqrt(2), same ordering.  d must be at least 2.
    """
    _check_dimension(d, 2)
    e = np.eye(d, dtype=complex)
    j, k = np.triu_indices(d, 1)
    v = np.concatenate([e, (e[j] + e[k]) / np.sqrt(2), (e[j] + 1j * e[k]) / np.sqrt(2)])
    return v[:, :, None] * v[:, None, :].conj()


def orthocross_mic(d: int, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """MIC obtained by squashing the orthocross projectors.

    With Omega the sum of the projectors, the effects are
    E_a = Omega^{-1/2} P_a Omega^{-1/2}.  Omega has every diagonal entry
    equal to d, every entry above the diagonal (1-i)/2 and every entry
    below (1+i)/2, so its spectrum is available in closed form
    (orthocross_omega_spectrum).  The resulting MIC is biased: no outcome
    can ever have probability 1, or even probability above
    1 / (d - (1 + cot(3 pi / 4d)) / 2).
    """
    return mic_from_psd_basis(orthocross_projectors(d), tol)


def orthocross_omega_spectrum(d: int) -> np.ndarray:
    """Eigenvalues of the orthocross Omega matrix, ascending.

    lambda_m = d + (cot(pi (4m+1) / 4d) - 1) / 2 for m = 0 .. d-1.
    They sum to d^2.
    """
    _check_dimension(d)
    m = np.arange(d)
    lam = d + 0.5 * (1.0 / np.tan(np.pi * (4 * m + 1) / (4 * d)) - 1.0)
    return _frozen(np.sort(lam))


def orthocross_probability_bound(d: int) -> float:
    """Largest probability any state can assign to any orthocross outcome."""
    lam_min = float(orthocross_omega_spectrum(d)[0])
    return 1.0 / lam_min


# ----------------------------------------------- generic squashed-basis MICs

def _basis_gram(a: np.ndarray) -> np.ndarray:
    # the real part of tr(A_i A_j) for each basis of a (..., n, d, d) stack
    return np.einsum("...iab,...jba->...ij", a, a).real


def _squash(a: np.ndarray, tol: ToleranceConfig):
    """mic_from_psd_basis's squash of each basis of a (..., n, d, d) stack:
    the ascending eigenvalues w of Omega = sum_i A_i, whether Omega is within
    hermitian_tol of its adjoint and safely positive (least eigenvalue above
    rank_tol times the largest), and the effects Omega^{-1/2} A_i Omega^{-1/2}.
    Where Omega is not safe, w is all ones and the effects mean nothing."""
    omega = a.sum(axis=-3)
    safe = np.asarray(hermiticity_defect(omega) <= tol.hermitian_tol)
    # only finite Hermitian Omegas reach LAPACK
    w, v = _lapack("eigh", np.where(safe[..., None, None], omega, np.eye(a.shape[-1])))
    safe &= (w[..., -1] > 0) & (w[..., 0] > tol.rank_tol * w[..., -1])
    w = np.where(safe[..., None], w, 1.0)
    r = (v / np.sqrt(w)[..., None, :]) @ v.conj().mT
    # The operands are copied with their contracted axes outermost in memory
    # (A's b, c and R's column, row), so numpy's iterator makes b and c the
    # outer loops and its inner loop runs over the whole batch.  Each entry
    # still adds its d^2 terms in (b, c) order: the same bits, in one half to
    # two thirds of the time at d = 5.  An out= array would set the iteration
    # order by its own layout and change the bits; a result left in this
    # layout slows every later gate, hence the C-ordered copy.
    a = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1))), (0, 1), (-2, -1))
    r = np.moveaxis(np.ascontiguousarray(np.moveaxis(r, (-1, -2), (0, 1))), (0, 1), (-1, -2))
    return w, safe, np.ascontiguousarray(np.einsum("...ab,...kbc,...cd->...kad", r, a, r))


def mic_from_psd_basis(basis, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """MIC from a linearly independent (d^2, d, d) stack or list of PSD operators.

    With Omega the sum of the basis elements, the effects are
    E_i = Omega^{-1/2} A_i Omega^{-1/2}.  MICs themselves are fixed points
    of this map (their Omega is the identity), and rank-1 inputs give
    rank-1 MICs.  The basis is read as validate_povm reads effects (an
    iterator once; ShapeMismatch for a basis that is no sequence, or for
    its lowest element that is no d x d array of numbers, d from element
    0), then it raises WrongCount for another number than d^2, NonFinite(i)
    for the first element with a NaN or infinite entry, LinearlyDependent if
    the basis does not span, NotPsd for a bad element, SingularOperator if
    Omega is singular.
    """
    stack, ragged = _stack(basis, "basis element")
    if ragged is not None:
        raise ragged
    d = stack.shape[1]
    _check_dimension(d)
    if len(stack) != d * d:
        raise WrongCount(len(stack), d * d)
    _check_finite(stack.reshape(len(stack), -1))
    rank = numerical_rank(_basis_gram(stack), tol)
    if rank != d * d:
        raise LinearlyDependent(rank, d * d, "input basis")
    _, safe, effects = _squash(stack, tol)
    if not safe:
        w = eigh(stack.sum(axis=0), tol)[0]  # NonFinite or NotHermitian for a non-Hermitian Omega
        raise SingularOperator(f"eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}] is not safely positive")
    return mic_from_matrices(effects, tol)


# ------------------------------------------------------------ equiangular MICs

def equiangular_mic(sic: Mic, beta: float, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Depolarized SIC: E_i = (beta/d) P_i + (1-beta)/d^2 I.

    P_i are the SIC projectors (d times the SIC effects).  beta must be a
    real number in [-1/(d-1), 1] (BetaOutOfRange otherwise) and nonzero
    (BetaZero); the endpoints keep every effect positive semidefinite.  The
    Gram matrix keeps the equiangular form alpha delta_ij + zeta with
    alpha = 1/d - d^2 zeta and 1/(d^2 (d+1)) <= zeta < 1/d^3.
    """
    d = sic.dim
    deviation = float(np.abs(sic.gram - sic_gram_matrix(d)).max())
    if deviation > 1e-8:
        raise NotSic(deviation)
    lo = -1.0 / (d - 1) if d > 1 else -1.0
    if not (isinstance(beta, numbers.Real) and lo - 1e-12 <= beta <= 1 + 1e-12):
        raise BetaOutOfRange(f"beta={beta!r} outside [{lo!r}, 1]")
    if beta == 0:
        raise BetaZero("beta must be nonzero")
    effects = (beta / d) * (d * sic.matrices()) + (1 - beta) / (d * d) * np.eye(d)
    return mic_from_matrices(effects, tol)


# ------------------------------------------------ odd-dimension covariant MIC

def appleby_mic(d: int, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Weyl-Heisenberg covariant MIC with rank-(d+1)/2 effects, d odd.

    B is the normalized sum of all nonidentity displacement operators,
    B_kl its displacement conjugates, and
    E_kl = (1/d^2)(I + B_kl / sqrt(d+1)), row-major in (k, l).
    The MIC is unbiased, and the quasiprobability transform built on it
    (see analysis.wigner_quasiprobs) is a discrete Wigner function.
    """
    _check_dimension(d)
    if d % 2 == 0:
        raise EvenDimension(f"odd dimension required, got {d}")
    if d < 3:
        raise ValueError(f"defined for d >= 3, got {d}")
    ops = _displacement_basis(d)
    b = ops[1:].sum(axis=0) / np.sqrt(d + 1)
    b = (b + b.conj().T) / 2
    conjugates = np.einsum("kab,bc,kdc->kad", ops, b, ops.conj())
    eye = np.eye(d)
    effects = (eye[None, :, :] + conjugates / np.sqrt(d + 1)) / (d * d)
    return mic_from_matrices(effects, tol)


# ------------------------------------------------------------- tensor products

def tensorhedron_mic(component: Mic, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """n-fold tensor product MIC, factor indices ordered row-major.

    The effect at flat index (i_1, ..., i_n) is E_{i_1} x ... x E_{i_n},
    with the first factor varying slowest.  The Gram matrix is the n-fold
    Kronecker power of the component Gram matrix, so the spectrum consists
    of all n-fold products of component eigenvalues.  Raises ValueError
    unless n is an integer of at least 1 (a bool is refused too) and the
    component's dimension at least 2, and EnvelopeExceeded if d^n exceeds
    MAX_DIMENSION.
    """
    if not _is_integer(n) or n < 1:
        raise ValueError(f"need n >= 1 factors, got {n!r}")
    d = component.dim
    _check_dimension(d, 2)
    # d^n > MAX_DIMENSION once n reaches its bit length, so no larger power is
    # taken: neither the power nor its message grows with n
    if n >= MAX_DIMENSION.bit_length():
        raise EnvelopeExceeded(f"{d}**{n}", MAX_DIMENSION)
    if d ** n > MAX_DIMENSION:
        raise EnvelopeExceeded(d ** n, MAX_DIMENSION)
    mats = effects = component.matrices()
    for _ in range(n - 1):
        effects = np.kron(effects, mats)
    return mic_from_matrices(effects, tol)


# ------------------------------------------- a rank-1 MIC with orthogonal pairs

def example_seven_orthogonal(tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Rank-1 unbiased MIC in d = 3 whose Gram matrix has exactly seven
    vanishing off-diagonal pairs.

    Each effect is (1/3) |v><v| for the nine unit vectors below.  The MIC is
    not group covariant, which shows orthogonal pairs do not require any
    group structure; seven is conjectured to be the maximum for d = 3.
    """
    s2 = 1 / np.sqrt(2)
    s3 = 1 / np.sqrt(3)
    raw = [
        [1, 0, 0],
        [0, 1, 0],
        [s2, 0, s2],
        [0, s2, s2],
        [s2, 0, -1j * s2],
        [0, s2, -1j * s2],
        [s3, -1j * s3, 1j * s3],
        [5 / np.sqrt(40), (-1 + 2j) / np.sqrt(40), (-3 + 1j) / np.sqrt(40)],
        [1 / np.sqrt(24), (3 + 2j) / np.sqrt(24), (-3 + 1j) / np.sqrt(24)],
    ]
    effects = [np.outer(v, np.conj(v)) / 3 for v in (np.asarray(v) for v in raw)]
    return mic_from_matrices(effects, tol)


# ----------------------------------------------------- near-orthogonal family

def eigenprojector_basis(h, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Rank-1 eigenprojectors of a Hermitian matrix as one (d, d, d) array.

    The projectors sum to the identity, so placed among d^2 - d zero
    matrices they form a valid POVM (of deficient operator span) suitable
    as the orthogonal end of near_orthogonal_family.  h must be one
    nonempty square matrix of numbers (ShapeMismatch otherwise).
    """
    h = _as_square(h)
    if h.ndim != 2 or not h.size:
        raise ShapeMismatch(f"expected one nonempty square matrix, got shape {h.shape}")
    _check_dimension(h.shape[0])
    v = eigh(h, tol)[1].T
    return v[:, :, None] * v.conj()[:, None, :]


def near_orthogonal_family(a_basis, b: Mic, t: float,
                           tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Convex interpolation E_i = t A_i + (1-t) B_i toward an orthogonal set.

    a_basis must be d^2 PSD matrices summing to the identity (typically
    the eigenprojector_basis output among zeros) and b a MIC.  For
    0 < t < 1 the mixture is a valid POVM; it remains a MIC as long as the
    interpolated effects stay linearly independent, so the Gram matrix can
    be pushed arbitrarily close to the diagonal matrix of weights while
    informational completeness survives.  Raises LinearlyDependent at
    parameter values where the span collapses, and ValueError for a t that
    is no real number strictly between 0 and 1.
    """
    if not (isinstance(t, numbers.Real) and 0 < t < 1):
        raise ValueError(f"t must lie strictly between 0 and 1, got {t!r}")
    a_povm = validate_povm(a_basis, tol)
    if a_povm.dim != b.dim:
        raise WrongDimension(f"basis dimension {a_povm.dim} vs MIC dimension {b.dim}")
    n = b.dim * b.dim
    if len(a_povm) != n:
        raise WrongCount(len(a_povm), n)
    effects = t * a_povm.matrices() + (1 - t) * b.matrices()
    return mic_from_matrices(effects, tol)
