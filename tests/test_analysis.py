"""Gram-matrix analyses: unbiasedness, duals, distances, Phi, probes."""

import numpy as np
import pytest

from miclab.analysis import (
    ProbeKind,
    cascaded_probability,
    classicality_scores,
    conjecture_probes,
    dual_indefiniteness,
    frobenius_orthogonality_gap,
    group_covariance_check,
    inv_gram_distance,
    orthogonal_pairs,
    phi_matrix,
    unbiased_equivalence_report,
    wigner_quasiprobs,
)
from miclab.constructions import (
    example_seven_orthogonal,
    mic_from_psd_basis,
    orthocross_mic,
    sic_mic,
    sic_qubit,
)
from miclab.errors import BiasedMic
from miclab.povm import DualBasis, born_probabilities


def random_psd(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a @ a.conj().T


def biased_mic(d=2, seed=0):
    rng = np.random.default_rng(seed)
    return mic_from_psd_basis([random_psd(d, rng) for _ in range(d * d)])


def random_state(d, rng):
    rho = random_psd(d, rng)
    return rho / np.trace(rho)


# ------------------------------------------------------------ unbiasedness

def test_equivalence_report_on_unbiased_mic():
    rep = unbiased_equivalence_report(sic_mic(3))
    assert rep.weights_uniform and rep.doubly_stochastic and rep.max_eigenvalue_pinned
    assert rep.consistent


def test_equivalence_report_on_biased_mic():
    rep = unbiased_equivalence_report(biased_mic())
    assert not rep.weights_uniform
    assert not rep.doubly_stochastic
    assert not rep.max_eigenvalue_pinned
    assert rep.consistent
    # biased MICs exceed the 1/d floor strictly
    assert rep.max_eigenvalue_gap > 1e-9


# ------------------------------------------------------------------- duals

def test_all_duals_indefinite_across_kinds():
    for mic in (sic_qubit(), orthocross_mic(3), biased_mic(3, 2)):
        all_indefinite, ranges = dual_indefiniteness(mic)
        assert all_indefinite
        for lo, hi in ranges:
            assert lo < 0 < hi


def test_dual_indefiniteness_needs_both_signs_beyond_zero_tol():
    # no valid MIC has a semidefinite dual, so stand-in duals are planted in
    # the MIC's cache: PSD, PSD up to -1e-11 (within zero_tol), NSD, indefinite
    mic = sic_qubit()
    planted = np.array([np.diag(w) for w in
                        ([1.0, 2.0], [1.0, -1e-11], [-1.0, -2.0], [1.0, -2.0])], dtype=complex)
    mic.__dict__["duals"] = DualBasis(dim=2, stack=planted)
    all_indefinite, ranges = dual_indefiniteness(mic)
    assert not all_indefinite
    assert ranges == [(1.0, 2.0), (-1e-11, 1.0), (-2.0, -1.0), (-2.0, 1.0)]
    mic.__dict__["duals"] = DualBasis(dim=2, stack=planted[[3, 3, 3, 3]])
    assert dual_indefiniteness(mic)[0]


# ------------------------------------------------------------- ortho pairs

def test_orthogonal_pairs_of_the_seven_pair_example():
    rep = orthogonal_pairs(example_seven_orthogonal().gram)
    assert rep.count == 7
    assert len(rep.pairs) == 7
    assert rep.min_offdiagonal < 1e-10


def test_orthogonal_pairs_absent_for_sic():
    rep = orthogonal_pairs(sic_qubit().gram)
    assert rep.count == 0
    assert rep.min_offdiagonal == pytest.approx(1 / 12)


# --------------------------------------------------------------- distances

def test_frobenius_gap_saturated_only_by_sic():
    scores = frobenius_orthogonality_gap(sic_qubit())
    assert scores.frobenius_gap == pytest.approx(scores.bound, abs=1e-12)
    assert scores.bound == pytest.approx(1 / 3)

    wh = sic_mic(3)
    assert frobenius_orthogonality_gap(wh).frobenius_gap == pytest.approx(0.5, abs=1e-8)


def test_frobenius_gap_rejects_biased_mic():
    with pytest.raises(BiasedMic):
        frobenius_orthogonality_gap(biased_mic())


def test_inv_gram_distance_sic_value():
    # d sqrt(d^2 - 1) at the SIC minimum
    assert inv_gram_distance(sic_qubit()) == pytest.approx(2 * np.sqrt(3), abs=1e-9)
    assert inv_gram_distance(sic_mic(3)) == pytest.approx(3 * np.sqrt(8), abs=1e-7)


def test_inv_gram_distance_norm_validation():
    with pytest.raises(ValueError):
        inv_gram_distance(sic_qubit(), norm="nuclear")


def test_classicality_scores_bundle():
    scores = classicality_scores(sic_qubit())
    assert scores.inv_gram_distance == pytest.approx(2 * np.sqrt(3), abs=1e-9)
    assert scores.frobenius_gap >= scores.bound - 1e-12


# -------------------------------------------------------------- covariance

def test_group_covariance_check():
    assert group_covariance_check(sic_mic(3).gram)
    assert not group_covariance_check(example_seven_orthogonal().gram)


# -------------------------------------------------------------- Phi matrix

def test_phi_matrix_sic_closed_form():
    mic = sic_qubit()
    posts = [e.matrix / e.weight for e in mic.effects]
    rep = phi_matrix(mic, posts)
    d = 2
    expected = (d + 1) * np.eye(d * d) - np.ones((d * d, d * d)) / d
    assert np.abs(rep.matrix - expected).max() < 1e-9
    assert np.abs(rep.matrix.sum(axis=0) - 1.0).max() < 1e-10
    assert rep.matrix.min() < 0


def test_cascaded_probability_equals_direct_born():
    # the Phi matrix undoes the first measurement, so the cascade formula
    # reproduces the Born probabilities of the second POVM on rho itself
    rng = np.random.default_rng(8)
    mic = biased_mic(2, 9)
    posts = [random_state(2, rng) for _ in range(4)]
    second = sic_qubit()
    rho = random_state(2, rng)
    q = cascaded_probability(rho, mic, posts, second)
    direct = born_probabilities(rho, second)
    assert np.abs(q - direct).max() < 1e-10


def test_cascaded_probability_accepts_plain_effect_list():
    rng = np.random.default_rng(12)
    mic = biased_mic(2, 13)
    posts = [random_state(2, rng) for _ in range(4)]
    # three-outcome POVM given as a bare list of matrices
    a = random_psd(2, rng)
    b = random_psd(2, rng)
    s = a + b
    w, v = np.linalg.eigh(s)
    r = v @ np.diag(1 / np.sqrt(w)) @ v.conj().T
    second = [r @ a @ r, r @ b @ r / 2, r @ b @ r / 2]
    rho = random_state(2, rng)
    q = cascaded_probability(rho, mic, posts, second)
    direct = np.array([np.trace(rho @ e).real for e in second])
    assert np.abs(q - direct).max() < 1e-10
    assert q.sum() == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------------ Wigner

def test_wigner_quasiprobs_sum_to_one_and_flat_on_mixed():
    mic = sic_mic(3)
    rng = np.random.default_rng(11)
    rho = random_state(3, rng)
    w = wigner_quasiprobs(rho, mic)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
    flat = wigner_quasiprobs(np.eye(3) / 3, mic)
    assert np.abs(flat - 1 / 9).max() < 1e-10


# ------------------------------------------------------------------ probes

def test_conjecture_probe_min_gram():
    rep = conjecture_probes(ProbeKind.ORTHOCROSS_MIN_GRAM, d_values=(2, 3, 4))
    assert rep["all_positive"]
    assert rep["decreasing_in_d"]
    assert rep["min_offdiagonal_d2"] > rep["min_offdiagonal_d4"] > 0


def test_conjecture_probe_half_integers():
    rep = conjecture_probes(ProbeKind.ORTHOCROSS_INV_GRAM_HALF_INT, d_values=(2, 3))
    assert rep["max_residue"] < 1e-10


def test_conjecture_probe_pair_search_finds_seeded_example():
    rep = conjecture_probes(ProbeKind.RANK1_ORTHO_PAIR_SEARCH, restarts=20, seed=3)
    assert rep["best_count"] >= 7
    assert rep["restarts"] == 20


def test_conjecture_probe_unknown_kind():
    with pytest.raises(ValueError):
        conjecture_probes("tetrahedral-telepathy")
