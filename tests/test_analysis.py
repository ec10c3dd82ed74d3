"""Gram-matrix analyses: unbiasedness, duals, distances, Phi, probes."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miclab import analysis, linalg
from miclab.analysis import (
    CLAIMS,
    OrthogonalityReport,
    PhiMatrix,
    cascaded_probability,
    dual_indefiniteness,
    frobenius_orthogonality_gap,
    group_covariance_check,
    inv_gram_distance,
    orthocross_half_int_probe,
    orthocross_min_gram_probe,
    orthogonal_pairs,
    phi_matrix,
    rank1_pair_search_probe,
    unbiased_equivalence_report,
    wigner_quasiprobs,
)
from miclab.constructions import (
    appleby_mic,
    equiangular_mic,
    example_seven_orthogonal,
    mic_from_psd_basis,
    orthocross_mic,
    sic_mic,
    sic_qubit,
    tensorhedron_mic,
)
from miclab.config import DEFAULT_TOL
from miclab.ensembles import MicKind, random_mic
from miclab.errors import (BiasedMic, IllConditionedGram, InvalidState, NonFinite, NotHermitian,
                           ShapeMismatch, WrongCount)
from miclab.povm import (DualBasis, Mic, _check_state, born_probabilities, dual_basis,
                         is_unbiased, purity_form)


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
    # the bound (d - 1)/(d + 1) is 1/3 at d = 2 and 1/2 at d = 3
    assert frobenius_orthogonality_gap(sic_qubit()) == pytest.approx(1 / 3, abs=1e-12)

    wh = sic_mic(3)
    assert frobenius_orthogonality_gap(wh) == pytest.approx(0.5, abs=1e-8)


def test_frobenius_gap_rejects_biased_mic():
    with pytest.raises(BiasedMic):
        frobenius_orthogonality_gap(biased_mic())


# The SIC in dimension d has Gram eigenvalues 1/d once and 1/(d(d+1))
# d^2 - 1 times, so cond(G) = d + 1.  Each field below comes from G or the
# effects through one backward-stable inverse, solve or eigendecomposition
# of a d^2 x d^2 matrix: about cond(G) eps of error per entry, summed over
# d^2 terms.  So every SIC closed form is asserted to cond(G) eps d^2
# (3.3e-14 at d = 5); the largest deviation seen is 0.67 of that.
SICS = [pytest.param(sic_qubit, id="qubit")] + [
    pytest.param(functools.partial(sic_mic, d), id=f"sic{d}") for d in (2, 3, 4, 5)]


def sic_tol(d):
    return (d + 1) * np.finfo(float).eps * d * d


@pytest.mark.parametrize("build", SICS)
def test_inv_gram_distance_sic_value(build):
    # d sqrt(d^2 - 1) at the SIC minimum
    mic = build()
    d = mic.dim
    assert inv_gram_distance(mic) == pytest.approx(d * np.sqrt(d * d - 1), rel=0, abs=sic_tol(d))


def _ky_fan_norms(mic):
    # the Ky Fan k-norms of I - G^-1/d, k = 1..d^2: the sums of its k largest
    # singular values, by numpy's own inverse and SVD
    n = len(mic.gram)
    return np.cumsum(np.linalg.svd(np.eye(n) - np.linalg.inv(mic.gram) / mic.dim, compute_uv=False))


def _ky_fan_bounds(d):
    # a SIC's I - G^-1/d has the eigenvalue 0 once and -d with multiplicity d^2 - 1
    return d * np.minimum(np.arange(1, d * d + 1), d * d - 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sics_meet_every_ky_fan_bound(d):
    # SICs minimize ||I - G^-1/d|| over unbiased MICs in every unitarily
    # invariant norm, and by Fan's dominance theorem those are all decided by
    # the Ky Fan k-norms
    assert np.abs(_ky_fan_norms(sic_mic(d)) - _ky_fan_bounds(d)).max() <= 1e-12


@pytest.mark.parametrize("kind", [MicKind.WH_GENERIC, MicKind.WH_RANK1])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_covariant_mics_clear_every_ky_fan_bound(kind, d):
    for i in range(40):
        mic = random_mic(kind, d, np.random.default_rng([d, i]))
        assert is_unbiased(mic)
        assert (_ky_fan_norms(mic) >= _ky_fan_bounds(d)).all(), i


@pytest.mark.parametrize("build", SICS)
def test_sic_fields_match_their_closed_forms(build):
    mic = build()
    d = mic.dim
    tol = sic_tol(d)
    expected = np.full(d * d, 1 / (d * (d + 1)))
    expected[-1] = 1 / d
    assert np.abs(np.linalg.eigvalsh(mic.gram) - expected).max() <= tol
    # the duals are (d + 1) P_i - I: eigenvalue d once and -1 d - 1 times
    _, ranges = dual_indefiniteness(mic)
    assert np.abs(np.array(ranges) - [-1.0, d]).max() <= tol
    assert abs(frobenius_orthogonality_gap(mic) - (d - 1) / (d + 1)) <= tol
    # with the trace-normalized effects as post-states, M = d G
    posts = mic.matrices() / mic.weights()[:, None, None]
    assert abs(phi_matrix(mic, posts).condition_number - (d + 1)) <= tol


# The equiangular MIC E_i = (beta/d) P_i + (1 - beta)/d^2 I has Gram
# alpha I + zeta J with alpha = beta^2/(d(d+1)) and alpha + d^2 zeta = 1/d,
# so its Gram eigenvalues are alpha (d^2 - 1 times) and 1/d, and
# cond(G) = (d+1)/beta^2.  Its duals are (E_i - d zeta I)/alpha, and
# G^-1 has eigenvalues 1/alpha and d.  Appleby's MIC in odd d has a Gram of
# the same form with beta^2 = 1/(d+1): its effects (I + B_kl/sqrt(d+1))/d^2
# have eigenvalues 2/(d(d+1)) ((d+1)/2 times) and 0, as B = (d P - I)/sqrt(d+1)
# with P the parity operator.  As for the SIC each field carries about
# cond(G) eps of relative error per term, summed over d^2 terms, so each is
# asserted to cond(G) eps d^2 times max(1, |field|): at beta = 0.1 the
# inverse-Gram distance reaches 2.9e3.  The largest deviation seen is 0.37
# of that, at d = 2 and beta = -1/2.
EQUIANGULAR = [pytest.param("equiangular", d, beta, id=f"d{d}-{name}") for d in (2, 3, 4, 5)
               for name, beta in (("half", 0.5), ("tenth", 0.1),
                                  ("neg-half-end", -1 / (2 * (d - 1))), ("neg-end", -1 / (d - 1)))]
EQUIANGULAR += [pytest.param("appleby", d, (d + 1) ** -0.5, id=f"appleby{d}") for d in (3, 5)]


@pytest.mark.parametrize("build, d, beta", EQUIANGULAR)
def test_equiangular_fields_match_their_closed_forms(build, d, beta):
    # every field of the analyze report
    if build == "appleby":
        mic, effect_eigs = appleby_mic(d), np.array([0.0, 2 / (d * (d + 1))])
    else:
        # E_i has eigenvalues beta/d + (1 - beta)/d^2 and, d - 1 times, (1 - beta)/d^2
        mic = equiangular_mic(sic_mic(d), beta)
        effect_eigs = np.sort([beta / d + (1 - beta) / d ** 2, (1 - beta) / d ** 2])
    n = d * d
    alpha = beta ** 2 / (d * (d + 1))
    zeta = (1 / d - alpha) / n
    cond = (d + 1) / beta ** 2

    def close(got, want):
        scale = max(1.0, np.abs(want).max())
        return np.abs(np.asarray(got) - want).max() <= cond * np.finfo(float).eps * n * scale

    expected = np.full(n, alpha)
    expected[-1] = 1 / d
    assert close(np.linalg.eigvalsh(mic.gram), expected)
    rep = unbiased_equivalence_report(mic)
    assert rep.weights_uniform and rep.doubly_stochastic and rep.max_eigenvalue_pinned
    assert close([rep.max_weight_deviation, rep.max_sum_deviation, rep.max_eigenvalue_gap], 0.0)
    all_indefinite, ranges = dual_indefiniteness(mic)
    assert all_indefinite
    assert close(ranges, (effect_eigs - d * zeta) / alpha)
    pairs = orthogonal_pairs(mic.gram)
    assert pairs.count == 0 and close(pairs.min_offdiagonal, zeta)
    gap = n * (1 / d - alpha - zeta) ** 2 + n * (n - 1) * zeta ** 2
    assert close(frobenius_orthogonality_gap(mic), gap)
    # the analyze report's saturates_bound: only a SIC, beta^2 = 1, saturates
    # it (at d = 2, beta = -1 gives the opposite tetrahedron)
    assert (abs(gap - (d - 1) / (d + 1)) <= 1e-9) == (beta ** 2 == 1)
    assert close(inv_gram_distance(mic), np.sqrt(n - 1) * abs(1 - 1 / (d * alpha)))
    assert group_covariance_check(mic.gram)
    # with the trace-normalized effects as post-states, M = d G and
    # Phi = G^-1 / d = (I - d zeta J) / (d alpha): columns summing to 1, and
    # off-diagonal entries -zeta / alpha
    posts = mic.matrices() / mic.weights()[:, None, None]
    phi = phi_matrix(mic, posts)
    assert close(phi.condition_number, cond)
    assert close(phi.matrix.sum(axis=0), 1.0)
    assert close(phi.matrix.min(), -zeta / alpha)


# The k-th tensor power of the SIC in dimension d is a MIC in dimension
# D = d^k with n = d^(2k) effects, the products of the SIC's.  Its Gram matrix
# is the k-fold Kronecker power of the SIC's, so its eigenvalues are k-fold
# products of 1/d and 1/(d(d+1)), the largest 1/D, and cond(G) = (d+1)^k.
# Its duals are products of the SIC's (d+1) P_i - I, with eigenvalues d and
# -1, so each ranges over [-d^(k-1), d^k].  Each field is asserted to
# cond(G) eps n times max(1, |field|), as for the equiangular MIC; at
# d = 4, k = 2 the inverse-Gram distance is sqrt(130080), about 360.7.  The
# largest deviation seen is 0.22 of that tolerance, on cond(Phi) at d = 2.
SIC_POWERS = ([pytest.param(d, 1, id=f"sic{d}") for d in (2, 3, 4, 5)]
              + [pytest.param(d, 2, id=f"sic{d}-squared") for d in (2, 3, 4)])


@pytest.mark.parametrize("d, k", SIC_POWERS)
def test_sic_tensor_powers_match_their_closed_forms(d, k):
    mic = sic_mic(d) if k == 1 else tensorhedron_mic(sic_mic(d), k)
    big, n, cond = d ** k, d ** (2 * k), (d + 1) ** k

    def close(got, want):
        scale = max(1.0, np.abs(want).max())
        return np.abs(np.asarray(got) - want).max() <= cond * np.finfo(float).eps * n * scale

    sic = np.full(d * d, 1 / (d * (d + 1)))
    sic[-1] = 1 / d
    eigs = functools.reduce(np.multiply.outer, [sic] * k).ravel()
    assert close(np.linalg.eigvalsh(mic.gram), np.sort(eigs))
    rep = unbiased_equivalence_report(mic)
    assert rep.weights_uniform and rep.doubly_stochastic and rep.max_eigenvalue_pinned
    assert close([rep.max_weight_deviation, rep.max_sum_deviation, rep.max_eigenvalue_gap], 0.0)
    all_indefinite, ranges = dual_indefiniteness(mic)
    assert all_indefinite
    assert close(ranges, np.array([-big / d, big]))
    assert close(frobenius_orthogonality_gap(mic), ((eigs - 1 / big) ** 2).sum())
    assert close(inv_gram_distance(mic), np.sqrt(((1 - 1 / (big * eigs)) ** 2).sum()))
    # with the trace-normalized effects as post-states, M = D G
    posts = mic.matrices() / mic.weights()[:, None, None]
    assert close(phi_matrix(mic, posts).condition_number, cond)
    assert group_covariance_check(mic.gram)
    pairs = orthogonal_pairs(mic.gram)
    assert pairs.count == 0
    assert close(pairs.min_offdiagonal, (1 / (d * d * (d + 1))) ** k)


def _reference_inv_gram_distance(mic, g_inv):
    # inv_gram_distance of the inverse g_inv, with numpy's public eigvalsh
    a = np.eye(len(mic.gram)) - g_inv / mic.dim
    a = (a + a.T) / 2
    return float(np.sqrt((np.linalg.eigvalsh(a) ** 2).sum()))


def _coordinate_inverse(mic):
    # Y = (A W)^-1 by numpy's public inv, A W holding each effect's diagonal,
    # then the real and the imaginary parts of its upper triangle
    d, m = mic.dim, mic.matrices()
    i, j = np.triu_indices(d, 1)
    k = np.arange(d)
    aw = np.concatenate([m[:, k, k].real, m[:, i, j].real, m[:, i, j].imag], axis=1)
    return np.linalg.inv(aw)


def _mics_of_each_kind(d):
    yield sic_mic(d)
    yield orthocross_mic(d)
    for k, kind in enumerate(MicKind):
        yield random_mic(kind, d, np.random.default_rng([0, d, k]))


@pytest.mark.parametrize("mics", [pytest.param(functools.partial(_mics_of_each_kind, d), id=f"d{d}")
                                  for d in (2, 3, 4, 5)]
                         + [pytest.param(lambda: [tensorhedron_mic(sic_qubit(), 3)],
                                         id="tensorhedron-qubit-3")])
def test_shared_inverse_has_the_bits_of_np_linalg_inv(mics):
    # the dual basis, the inverse-Gram distance and the half-integer probe
    # read the MIC's one solve, bitwise np.linalg.inv's Y of the effects'
    # coordinates.  G = A W A^T, so G^-1 = Y^T W Y; its residual against G
    # is of the order of inv(G)'s own, n u cond(G), and measured at most
    # half of that on these MICs, so four times it is asserted
    u = np.finfo(float).eps / 2
    for mic in mics():
        y = _coordinate_inverse(mic)
        n = len(y)
        g_inv = (y.T * np.where(np.arange(n) < mic.dim, 1.0, 0.5)) @ y
        assert mic._inverse_gram.tobytes() == g_inv.tobytes()
        s = np.linalg.svd(mic.gram, compute_uv=False)
        assert np.abs(g_inv @ mic.gram - np.eye(n)).max() <= 4 * n * u * s[0] / s[-1]
        if is_unbiased(mic):
            got, want = inv_gram_distance(mic), _reference_inv_gram_distance(mic, g_inv)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_one_gram_inverse_per_mic(monkeypatch):
    mic = random_mic(MicKind.WH_GENERIC, 3, np.random.default_rng(7))
    calls = []
    for name in ("inv", "solve1"):
        real, *signatures = linalg._ROUTINES[name]
        monkeypatch.setitem(linalg._ROUTINES, name, (
            lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k), *signatures))
    for _ in range(2):
        dual_basis(mic)
        inv_gram_distance(mic)
    assert calls == ["inv"]


@pytest.mark.parametrize("small", [0.0, 1e-13])
def test_gram_inverses_share_one_condition_gate(small):
    # the dual basis, the purity form and the inverse-Gram distance all
    # refuse a Gram matrix with condition number above 1e12
    mic = sic_qubit()
    g = np.diag([1.0, 1.0, 1.0, small])
    object.__setattr__(mic, "gram", g)
    for call in (lambda: dual_basis(mic), lambda: purity_form(np.full(4, 0.25), g),
                 lambda: inv_gram_distance(mic)):
        with pytest.raises(IllConditionedGram):
            call()


# -------------------------------------------------------------- covariance

def test_group_covariance_check():
    assert group_covariance_check(sic_mic(3).gram)
    assert not group_covariance_check(example_seven_orthogonal().gram)
    # one off-diagonal entry raised by 1e-6 in the first, a middle or the last row
    for i, j in ((0, 4), (4, 7), (8, 0)):
        g = np.array(sic_mic(3).gram)
        g[i, j] += 1e-6
        assert not group_covariance_check(g), (i, j)


def test_empty_gram_has_no_first_row_to_compare():
    with pytest.raises(ShapeMismatch):
        group_covariance_check(np.zeros((0, 0)))
    # orthogonal_pairs has no pair to report
    assert orthogonal_pairs(np.zeros((0, 0))) == OrthogonalityReport(0, (), float("inf"))


@pytest.mark.parametrize("check", [group_covariance_check, orthogonal_pairs])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_checks_refuse_non_finite_entries(check, bad):
    g = np.eye(4)
    g[2, 1] = bad
    with pytest.raises(NonFinite) as exc:
        check(g)
    assert exc.value.index == 2  # the first row holding one
    with pytest.raises(ShapeMismatch):
        check(np.ones((2, 3)))


@pytest.mark.parametrize("check", [group_covariance_check, orthogonal_pairs])
def test_gram_checks_refuse_an_imaginary_part(check):
    g = sic_mic(3).gram
    with pytest.raises(NotHermitian, match="imaginary part"):
        check(g + 1e-3j)
    assert check(g.astype(complex)) == check(g)  # a zero imaginary part is no fault


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


BAD_POST_STATES = {
    "non-hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
    "negative": np.diag([1.5, -0.5]),
    "wrong-trace": np.eye(2),
    "wrong-shape": np.eye(3) / 3,
    "nan": np.array([[0.5, np.nan], [np.nan, 0.5]]),
}


def _post_state_error(state, k):
    # the message of _check_state's error on post-state k, which names k
    with pytest.raises(InvalidState) as want:
        _check_state(state, 2, DEFAULT_TOL)
    assert str(want.value).startswith("state ")
    return f"post-state {k}{str(want.value).removeprefix('state')}"


@pytest.mark.parametrize("k", [0, 2, 3])
@pytest.mark.parametrize("bad", sorted(BAD_POST_STATES))
def test_phi_matrix_refuses_the_first_bad_post_state(bad, k):
    # the error _check_state gives on the state at index k, the lowest bad
    # one, whether or not the states stack into one array
    mic = sic_qubit()
    posts = list(mic.matrices() / mic.weights()[:, None, None])
    posts[k] = BAD_POST_STATES[bad]
    if k < 3:
        posts[3] = 3 * np.eye(2)  # a later bad state never decides
    with pytest.raises(InvalidState) as got:
        phi_matrix(mic, posts)
    assert str(got.value) == _post_state_error(posts[k], k)


def test_phi_matrix_value_faults_name_the_post_state():
    half = np.eye(2) / 2
    with pytest.raises(InvalidState, match=r"^post-state 1 is not Hermitian \(defect 1\.000e-01\)$"):
        phi_matrix(sic_qubit(), [half, [[0.5, 0.1], [0, 0.5]], half, half])
    with pytest.raises(InvalidState, match=r"^post-state 2 has trace \(2\+0j\), expected 1$"):
        phi_matrix(sic_qubit(), [half, half, 2 * half, half])


PLANTED_POST_STATES = {**BAD_POST_STATES, "string": "ab", "objects": [object()]}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.sampled_from(sorted(PLANTED_POST_STATES))),
                max_size=3))
def test_phi_matrix_names_the_lowest_planted_fault(faults):
    # the lowest bad post-state raises InvalidState whatever follows it:
    # _check_state's error for an array, one naming the post-state otherwise
    mic = sic_qubit()
    posts = list(mic.matrices() / mic.weights()[:, None, None])
    for index, kind in faults:
        posts[index] = PLANTED_POST_STATES[kind]
    if not faults:
        got = phi_matrix(mic, posts).matrix
        assert got.tobytes() == phi_matrix(mic, np.array(posts)).matrix.tobytes()
        return
    low = min(index for index, _ in faults)
    with pytest.raises(InvalidState) as got:
        phi_matrix(mic, posts)
    if isinstance(posts[low], np.ndarray):
        assert str(got.value) == _post_state_error(posts[low], low)
    else:
        assert "is no array of numbers" in str(got.value)


def test_post_states_of_no_numbers_raise_invalid_state():
    mic = sic_qubit()
    posts = list(mic.matrices() / mic.weights()[:, None, None])
    with pytest.raises(InvalidState, match="^post-state 0 is no array of numbers"):
        phi_matrix(mic, ["ab", *posts[1:]])
    with pytest.raises(InvalidState, match="^post-state 0 is no array of numbers"):
        cascaded_probability(np.eye(2) / 2, mic, ["ab", *posts[1:]], mic)
    # an unreadable post-state 1 never pre-empts post-state 0 of the wrong shape
    with pytest.raises(InvalidState, match=r"^post-state 0 has shape \(3, 3\), expected \(2, 2\)"):
        phi_matrix(mic, [np.eye(3) / 3, "ab", *posts[2:]])


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("state", [np.full(2, 0.5), np.array(0.5), np.eye(3) / 3, np.zeros((0, 0))],
                         ids=["vector", "scalar", "3x3", "0x0"])
def test_every_post_state_shape_fault_names_its_index(state, k):
    # at post-state 0 too, where the stack has not yet read a d x d state
    mic = sic_qubit()
    posts = list(mic.matrices() / mic.weights()[:, None, None])
    posts[k] = state
    with pytest.raises(InvalidState) as got:
        phi_matrix(mic, posts)
    assert str(got.value) == f"post-state {k} has shape {state.shape}, expected (2, 2)"


def test_no_post_states_miss_all_d_squared():
    with pytest.raises(WrongCount, match="^expected 4 elements, got 0$"):
        phi_matrix(sic_qubit(), [])
    with pytest.raises(WrongCount, match="^expected 9 elements, got 0$"):
        phi_matrix(sic_mic(3), iter([]))


def test_phi_matrix_counts_the_post_states():
    mic = sic_qubit()
    posts = mic.matrices() / mic.weights()[:, None, None]
    with pytest.raises(WrongCount):
        phi_matrix(mic, posts[:3])
    assert np.array_equal(phi_matrix(mic, posts).matrix, phi_matrix(mic, list(posts)).matrix)


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


def test_cascaded_probability_reads_a_generator_of_post_states_once():
    mic = sic_qubit()
    posts = mic.matrices() / mic.weights()[:, None, None]
    rho = random_state(2, np.random.default_rng(5))
    q = cascaded_probability(rho, mic, list(posts), mic)
    assert np.array_equal(cascaded_probability(rho, mic, (s for s in posts), mic), q)


# ------------------------------------------------------------------ claims

def _planted_gram(g):
    # the qubit SIC's effects under a planted Gram matrix
    sic = sic_qubit()
    return Mic(dim=2, stack=sic.stack, traces=sic.traces, gram=np.asarray(g, dtype=float))


def _planted_psd_duals(monkeypatch):
    # no valid MIC has a semidefinite dual, so PSD duals are planted in the cache
    mic = sic_qubit()
    mic.__dict__["duals"] = DualBasis(dim=2, stack=np.array([np.eye(2)] * 4, dtype=complex))
    return mic


def _planted_nonnegative_phi(monkeypatch):
    # planted under the module name the claim calls phi_matrix by
    monkeypatch.setattr(analysis, "phi_matrix",
                        lambda mic, posts, tol: PhiMatrix(np.eye(4), condition_number=1.0))
    return sic_qubit()


def _with_orthogonal_pair():
    g = sic_qubit().gram.copy()
    g[0, 1] = g[1, 0] = 0.0
    return g


# an input on which each claim's verdict is False, except the two claims that
# only report and so hold on any MIC (here one that is neither a SIC nor covariant)
PLANTED = {
    # uniform weights, but d G is not doubly stochastic
    "unbiased-equivalence": lambda mp: _planted_gram(1.5 * sic_qubit().gram),
    "dual-indefiniteness": _planted_psd_duals,
    "ortho-pairs": lambda mp: _planted_gram(_with_orthogonal_pair()),
    # the orthogonal ideal itself: gap 0, below the bound 1/3
    "frobenius-gap": lambda mp: _planted_gram(np.eye(4) / 2),
    "inv-gram-distance": lambda mp: example_seven_orthogonal(),
    "covariance": lambda mp: example_seven_orthogonal(),
    "phi": _planted_nonnegative_phi,
}
HOLD_ON_ANY_MIC = {"inv-gram-distance", "covariance"}


@pytest.mark.parametrize("name", CLAIMS)
def test_each_claim_decides_false_on_its_planted_input(name, monkeypatch):
    _, ok = CLAIMS[name](PLANTED[name](monkeypatch), DEFAULT_TOL)
    assert ok is (name in HOLD_ON_ANY_MIC)


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
    rep = orthocross_min_gram_probe()
    assert rep["all_positive"]
    assert rep["decreasing_in_d"]
    assert rep["min_offdiagonal_d2"] > rep["min_offdiagonal_d4"] > rep["min_offdiagonal_d6"] > 0


def test_conjecture_probe_half_integers():
    rep = orthocross_half_int_probe()
    assert rep["max_residue"] < 1e-10


def test_conjecture_probe_pair_search_finds_seeded_example():
    rep = rank1_pair_search_probe(20, 3)
    assert rep["best_count"] >= 7
    assert rep["restarts"] == 20
    assert rep["pair_tolerance"] == 1e-10
