"""Structural analysis of MICs.

Implements the numerical checks behind the library's structural claims:

* the three equivalent characterizations of unbiasedness (uniform weights,
  doubly stochastic d G, maximal Gram eigenvalue exactly 1/d);
* indefiniteness of every dual-basis element, with its corollaries (no MIC
  is an orthogonal basis, no outcome can be certain, an effect can never be
  an unscaled projector, and d = 2 MICs admit no orthogonal pair at all);
* distance measures from the SIC ideal: the squared Frobenius gap between
  the Gram matrix and the orthogonality target (1/d) delta_ij, bounded below
  by (d-1)/(d+1) with equality exactly for SICs, and norms of
  I - (1/d) G^{-1}, minimized by SICs for every unitarily invariant norm;
* the conditional-probability matrix Phi that rewrites cascaded two-step
  probabilities in terms of measured MIC outcome probabilities, which is
  column-quasistochastic and never entirely nonnegative;
* a discrete Wigner quasiprobability transform for the odd-dimensional
  covariant construction;
* numerical probes of three open conjectures, one function each
  (orthocross_min_gram_probe, orthocross_half_int_probe and
  rank1_pair_search_probe), reported and never asserted.

CLAIMS maps each claim `miclab analyze` reports, in report order, to its
evaluator (mic, tol) -> (report entry, verdict), which alone holds the
claim's constants; the acceptance criteria read the same entries and verdicts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import sqrt

import numpy as np

from .config import CONDITION_LIMIT, DEFAULT_TOL, ToleranceConfig
from .errors import (
    BiasedMic,
    InvalidState,
    NotHermitian,
    ShapeMismatch,
    SingularConditionalMatrix,
    WrongCount,
)
from .linalg import _as_array, _cond, _lapack, eigvalsh
from .povm import (Mic, Povm, _check_finite, _check_state, _real, _stack, _valid_states,
                   born_probabilities, dual_basis, is_unbiased, validate_povm)


@dataclass(frozen=True)
class UnbiasedEquivalence:
    """The three unbiasedness predicates with their numerical witnesses."""

    weights_uniform: bool
    doubly_stochastic: bool
    max_eigenvalue_pinned: bool
    max_weight_deviation: float
    max_sum_deviation: float
    max_eigenvalue_gap: float

    @property
    def consistent(self) -> bool:
        return self.weights_uniform == self.doubly_stochastic == self.max_eigenvalue_pinned


@dataclass(frozen=True)
class OrthogonalityReport:
    """Vanishing off-diagonal Gram entries of a MIC, fields in report order."""

    count: int
    pairs: tuple[tuple[int, int], ...]
    min_offdiagonal: float


@dataclass(frozen=True, eq=False)
class PhiMatrix:
    """Born-matrix inverse mapping MIC probabilities to cascade predictions."""

    matrix: np.ndarray
    condition_number: float


def unbiased_equivalence_report(mic: Mic, tol: ToleranceConfig = DEFAULT_TOL
                                ) -> UnbiasedEquivalence:
    """Evaluate the three equivalent unbiasedness tests on one MIC.

    Uniform weights are tested within 1e-9; double stochasticity of
    d G by max row/column-sum deviation from 1 within d * zero_tol; the
    eigenvalue test asks |lambda_max(G) - 1/d| <= 1e-9.  The largest
    Gram eigenvalue can never fall below 1/d, so the last test is one-sided
    in practice.
    """
    d = mic.dim
    weight_dev = float(np.abs(mic.weights() - 1.0 / d).max())
    dg = d * mic.gram
    sums = np.concatenate([dg.sum(axis=0) - 1.0, dg.sum(axis=1) - 1.0])
    sum_dev = float(np.abs(sums).max())
    lam_max = float(eigvalsh(mic.gram, tol)[-1])
    eig_gap = abs(lam_max - 1.0 / d)
    return UnbiasedEquivalence(
        weights_uniform=weight_dev <= 1e-9,
        doubly_stochastic=sum_dev <= d * tol.zero_tol,
        max_eigenvalue_pinned=eig_gap <= 1e-9,
        max_weight_deviation=weight_dev,
        max_sum_deviation=sum_dev,
        max_eigenvalue_gap=eig_gap,
    )


def dual_indefiniteness(mic: Mic, tol: ToleranceConfig = DEFAULT_TOL
                        ) -> tuple[bool, list[tuple[float, float]]]:
    """Check that every dual element is indefinite.

    Returns (all_indefinite, eigenvalue ranges).  An element counts as
    indefinite when its smallest eigenvalue is below -zero_tol and its
    largest above +zero_tol.  For any valid MIC this always holds; a False
    here signals a numerical breakdown, not a counterexample.
    """
    w = eigvalsh(dual_basis(mic, tol).stack, tol)
    low, high = w[:, 0], w[:, -1]
    all_indefinite = bool(((low < -tol.zero_tol) & (high > tol.zero_tol)).all())
    return all_indefinite, [(float(lo), float(hi)) for lo, hi in zip(low, high)]


def _square_gram(g) -> np.ndarray:
    # g as a square float matrix: ShapeMismatch otherwise, NotHermitian for a
    # nonzero imaginary part, and NonFinite names its first row with a
    # non-finite entry
    g = _real(g, "Gram matrix", NotHermitian)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ShapeMismatch(f"expected a square Gram matrix, got {g.shape}")
    _check_finite(g)
    return g


def orthogonal_pairs(g) -> OrthogonalityReport:
    """Index pairs i < j with [G]_ij at most zero_tol (1e-10).

    Off-diagonal Gram entries of a POVM are traces of products of PSD
    operators, hence nonnegative; an entry that small marks an orthogonal
    pair of effects.
    """
    g = _square_gram(g)
    iu, ju = np.triu_indices(g.shape[0], k=1)
    off = g[iu, ju]
    mask = off <= DEFAULT_TOL.zero_tol
    pairs = tuple((int(i), int(j)) for i, j in zip(iu[mask], ju[mask]))
    return OrthogonalityReport(
        count=len(pairs),
        pairs=pairs,
        min_offdiagonal=float(off.min()) if off.size else float("inf"),
    )


def frobenius_orthogonality_gap(mic: Mic) -> float:
    """Squared Frobenius distance of the Gram matrix from (1/d) delta_ij.

    Defined for unbiased MICs (BiasedMic otherwise).  The gap is bounded
    below by (d-1)/(d+1), with equality exactly for SICs, so no unbiased
    MIC can have an orthogonal (or nearly orthogonal) effect set.
    """
    if not is_unbiased(mic):
        raise BiasedMic("frobenius_orthogonality_gap requires an unbiased MIC")
    d = mic.dim
    target = np.eye(d * d) / d
    return float(((target - mic.gram) ** 2).sum())


def inv_gram_distance(mic: Mic) -> float:
    """Frobenius norm of I - (1/d) G^{-1} for an unbiased MIC.

    SICs minimize this distance over unbiased MICs for every unitarily
    invariant norm; the Frobenius value for a SIC is d sqrt(d^2 - 1).
    """
    if not is_unbiased(mic):
        raise BiasedMic("inv_gram_distance requires an unbiased MIC")
    g_inv = mic._inverse_gram
    a = np.eye(len(g_inv)) - g_inv / mic.dim
    a = (a + a.T) / 2
    w = _lapack("eigvalsh", a)
    return float(np.sqrt((w ** 2).sum()))


def phi_matrix(mic: Mic, post_states, tol: ToleranceConfig = DEFAULT_TOL) -> PhiMatrix:
    """Inverse of the conditional Born matrix [M]_ij = tr(H_i sigma_j).

    H_i are the MIC effects and sigma_j the d^2 post-measurement states.
    Phi = M^{-1} rewrites cascaded probabilities in terms of first-stage
    MIC probabilities (see cascaded_probability).  Its columns always sum
    to 1, and for quantum inputs it always contains a negative entry.
    Raises SingularConditionalMatrix when cond(M) reaches 1e12, InvalidState
    for the lowest bad post-state, one of no numbers too, WrongCount for
    other than d^2 of them and ShapeMismatch for no sequence.
    """
    d = mic.dim
    n = d * d
    post_states = list(post_states) if np.iterable(post_states) else post_states  # read twice
    states, ragged = _stack(post_states, "post-state", InvalidState)
    if ragged is not None or states.shape != (n, d, d) or not _valid_states(states, tol).all():
        # one state at a time, so the lowest bad index raises its own error
        states = np.array([_check_state(s, d, tol) for s in post_states])
        if len(states) != n:
            raise WrongCount(len(states), n)
    m = np.einsum("iab,jba->ij", mic.matrices(), states).real
    cond = _cond(m)
    if not np.isfinite(cond) or cond >= CONDITION_LIMIT:
        raise SingularConditionalMatrix(cond)
    phi = _lapack("inv", m)
    return PhiMatrix(matrix=phi, condition_number=cond)


def cascaded_probability(rho, mic: Mic, post_states, second_povm,
                         tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Two-step outcome distribution computed through the Phi matrix.

    Measure the MIC on rho, prepare sigma_i on outcome i, then measure the
    second POVM: Q_j = sum_ik tr(sigma_i D_j) [Phi]_ik tr(rho H_k).  The
    result reproduces the direct Born probabilities tr(rho D_j) of the
    second POVM exactly, which is the consistency condition the Phi matrix
    encodes.  second_povm may be a Povm or a plain sequence of effects,
    which validate_povm checks (NonFinite(i) names the first effect with a
    NaN or infinite entry); effects of another dimension than the MIC's
    raise ShapeMismatch.  post_states may be any iterable of states.
    """
    post_states = list(post_states) if np.iterable(post_states) else post_states  # read twice
    phi = phi_matrix(mic, post_states, tol)
    p_first = born_probabilities(rho, mic, tol)
    second = second_povm if isinstance(second_povm, Povm) else validate_povm(second_povm, tol)
    if second.dim != mic.dim:
        raise ShapeMismatch(f"second POVM has dimension {second.dim}, expected {mic.dim}")
    cond_second = np.einsum("jab,iba->ji", second.matrices(),
                            _as_array(post_states, "post-states")).real
    return cond_second @ phi.matrix @ p_first


def wigner_quasiprobs(rho, mic: Mic, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Quasiprobability representation W_i = (d+1) tr(E_i rho) - 1/d.

    Designed for the odd-dimension covariant MIC (appleby_mic), where it is
    a discrete Wigner function.  The entries always sum to 1 and can be
    negative; for the maximally mixed state every entry is 1/d^2.
    """
    p = born_probabilities(rho, mic, tol)
    return (mic.dim + 1.0) * p - 1.0 / mic.dim


def group_covariance_check(g) -> bool:
    """True iff every Gram row is, within 1e-9, a permutation of the first row.

    Group-covariant MICs always pass (conjugation by the group permutes
    effects), so a False certifies non-covariance; True is necessary but
    not sufficient.  An empty Gram matrix has no first row: ShapeMismatch.
    """
    rows = np.sort(_square_gram(g), axis=1)
    if not len(rows):
        raise ShapeMismatch("expected a nonempty Gram matrix, got (0, 0)")
    return bool(np.abs(rows - rows[0]).max() <= 1e-9)


# ------------------------------------------------------------------ claims
# evaluators call the functions above by their module names, so a wrapper set
# on this module sees every call; the gap and the distance raise BiasedMic

def _claim_unbiased_equivalence(mic: Mic, tol: ToleranceConfig):
    rep = unbiased_equivalence_report(mic, tol)
    # the three predicates are provably equivalent; disagreement is failure
    return asdict(rep), rep.consistent


def _claim_dual_indefiniteness(mic: Mic, tol: ToleranceConfig):
    all_indefinite, ranges = dual_indefiniteness(mic, tol)
    low, high = zip(*ranges)
    return {"all_indefinite": all_indefinite, "min_eigenvalue": min(low),
            "max_eigenvalue": max(high)}, all_indefinite


def _claim_ortho_pairs(mic: Mic, tol: ToleranceConfig):
    rep = orthogonal_pairs(mic.gram)
    # d = 2 rules out orthogonal pairs entirely; higher d only reports
    return asdict(rep), mic.dim != 2 or rep.count == 0


def _claim_frobenius_gap(mic: Mic, tol: ToleranceConfig):
    gap = frobenius_orthogonality_gap(mic)
    bound = (mic.dim - 1) / (mic.dim + 1)
    entry = {"gap": gap, "bound": bound, "saturates_bound": abs(gap - bound) <= 1e-9}
    return entry, gap >= bound - 1e-9


def _claim_inv_gram_distance(mic: Mic, tol: ToleranceConfig):
    d = mic.dim
    return {"distance": inv_gram_distance(mic), "sic_value": d * sqrt(d * d - 1.0)}, True


def _claim_covariance(mic: Mic, tol: ToleranceConfig):
    return {"group_covariant": group_covariance_check(mic.gram)}, True


def _claim_phi(mic: Mic, tol: ToleranceConfig):
    # conditional states: the MIC's own effects, trace-normalized
    posts = mic.matrices() / mic.weights()[:, None, None]
    rep = phi_matrix(mic, posts, tol)
    col_dev = float(np.abs(rep.matrix.sum(axis=0) - 1.0).max())
    min_entry = float(rep.matrix.min())
    return {"condition_number": rep.condition_number, "column_sum_deviation": col_dev,
            "min_entry": min_entry}, col_dev <= 1e-8 and min_entry < 0.0


CLAIMS = {
    "unbiased-equivalence": _claim_unbiased_equivalence,
    "dual-indefiniteness": _claim_dual_indefiniteness,
    "ortho-pairs": _claim_ortho_pairs,
    "frobenius-gap": _claim_frobenius_gap,
    "inv-gram-distance": _claim_inv_gram_distance,
    "covariance": _claim_covariance,
    "phi": _claim_phi,
}


# ------------------------------------------------------------ conjecture probes
# each probe reports evidence for one open conjecture; nothing here is ever
# asserted as a theorem

_PROBE_DIMENSIONS = (2, 3, 4, 5, 6)


def orthocross_min_gram_probe() -> dict:
    """Smallest off-diagonal Gram entry of the orthocross MIC for d = 2..6;
    conjectured positive but approaching zero."""
    from .constructions import orthocross_mic

    report: dict = {"probe": "orthocross-min-gram"}
    values = []
    for d in _PROBE_DIMENSIONS:
        values.append(orthogonal_pairs(orthocross_mic(d).gram).min_offdiagonal)
        report[f"min_offdiagonal_d{d}"] = values[-1]
    report["all_positive"] = bool(min(values) > 0)
    report["decreasing_in_d"] = bool(
        all(a > b for a, b in zip(values, values[1:])))
    return report


def orthocross_half_int_probe() -> dict:
    """Largest deviation of the entries of 2 G^{-1} from integers for the
    orthocross MIC, d = 2..6; conjectured to vanish, i.e. the inverse Gram
    entries are conjectured to be half-integers."""
    from .constructions import orthocross_mic

    report: dict = {"probe": "orthocross-invgram-halfint"}
    worst = 0.0
    for d in _PROBE_DIMENSIONS:
        doubled = 2 * orthocross_mic(d)._inverse_gram
        residue = float(np.abs(doubled - np.round(doubled)).max())
        report[f"residue_d{d}"] = residue
        worst = max(worst, residue)
    report["max_residue"] = worst
    return report


def rank1_pair_search_probe(restarts: int, seed: int) -> dict:
    """Randomized search over rank-1 MICs in d = 3 for Gram zeros.

    The known seven-pair example is always included as a seed candidate;
    the report states the best count found and where.
    """
    from .constructions import example_seven_orthogonal
    from .ensembles import MicKind, random_mic

    rng = np.random.default_rng(seed)
    best_count = orthogonal_pairs(example_seven_orthogonal().gram).count
    best_source = "seven-orthogonal-example"
    random_best = 0
    for i in range(restarts):
        count = orthogonal_pairs(random_mic(MicKind.GENERIC_RANK1, 3, rng).gram).count
        random_best = max(random_best, count)
        if count > best_count:
            best_count, best_source = count, f"random-{i}"
    return {
        "probe": "rank1-orthopair-search",
        "restarts": restarts,
        "seed": seed,
        "pair_tolerance": DEFAULT_TOL.zero_tol,
        "best_count": best_count,
        "best_source": best_source,
        "random_best_count": random_best,
    }
