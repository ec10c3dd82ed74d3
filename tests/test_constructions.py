"""Closed-form checks for each MIC constructor."""

import itertools

import numpy as np
import pytest

from miclab import constructions
from miclab.analysis import group_covariance_check, orthogonal_pairs
from miclab.config import DEFAULT_TOL
from miclab.constructions import (
    SicFiducial,
    _basis_gram,
    _squash,
    appleby_mic,
    builtin_fiducial,
    eigenprojector_basis,
    equiangular_mic,
    example_seven_orthogonal,
    mic_from_psd_basis,
    near_orthogonal_family,
    orthocross_mic,
    orthocross_omega_spectrum,
    orthocross_probability_bound,
    sic_from_fiducial,
    sic_gram_matrix,
    sic_mic,
    sic_qubit,
    tensorhedron_mic,
    wh_displacement,
    wh_mic,
)
from miclab.errors import (
    BetaOutOfRange,
    BetaZero,
    DegenerateFiducial,
    EnvelopeExceeded,
    EvenDimension,
    LinearlyDependent,
    NonFinite,
    NotNormalized,
    NotSic,
    ShapeMismatch,
    SingularOperator,
    WrongCount,
    WrongDimension,
)
from miclab.linalg import numerical_rank
from miclab.povm import born_probabilities, is_unbiased, mic_from_matrices


# ------------------------------------------------------------------- SICs

def test_sic_qubit_gram_closed_form():
    assert np.abs(sic_qubit().gram - sic_gram_matrix(2)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sic_mic_gram_closed_form(d):
    mic = sic_mic(d)
    assert np.abs(mic.gram - sic_gram_matrix(d)).max() < 1e-8
    assert is_unbiased(mic)


def test_sic_gram_spectrum():
    w = np.linalg.eigvalsh(sic_gram_matrix(3))
    assert w[-1] == pytest.approx(1 / 3)
    assert np.allclose(w[:-1], 1 / 12)


def test_sic_from_fiducial_rejects_generic_vector():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = SicFiducial.from_vector(v / np.linalg.norm(v))
    with pytest.raises(NotSic):
        sic_from_fiducial(f)


@pytest.mark.parametrize("v", [[np.nan, 0], [np.inf, 0], [1, 1]])
def test_fiducial_must_be_a_finite_unit_vector(v):
    with pytest.raises(NotNormalized):
        SicFiducial.from_vector(v)


def test_builtin_fiducial_is_unit_and_reproducible():
    f = builtin_fiducial(4)
    assert np.linalg.norm(f.vector) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(f.vector, builtin_fiducial(4).vector)


def test_builtin_fiducials_stop_at_d5():
    with pytest.raises(WrongDimension, match="supported: 2..5"):
        builtin_fiducial(6)


def test_sic_from_fiducial_takes_a_raw_vector():
    mic = sic_from_fiducial(builtin_fiducial(3).vector)
    assert np.abs(mic.gram - sic_gram_matrix(3)).max() < 1e-8


# ------------------------------------------------------------ WH covariance

@pytest.mark.parametrize("k, l", [(0.5, 1), (1, 0.5), (True, 1), (1, None)])
def test_wh_displacement_requires_integer_indices(k, l):
    with pytest.raises(ValueError, match="displacement indices must be integers"):
        wh_displacement(2, k, l)


def test_wh_displacements_unitary_and_traceless():
    d = 3
    for k in range(d):
        for l in range(d):
            dd = wh_displacement(d, k, l)
            assert np.abs(dd @ dd.conj().T - np.eye(d)).max() < 1e-12
            if (k, l) != (0, 0):
                assert abs(np.trace(dd)) < 1e-12


def test_wh_mic_is_unbiased_with_permuted_gram_rows():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho)
    mic = wh_mic(rho)
    assert is_unbiased(mic)
    g = mic.gram
    row0 = np.sort(g[0])
    for row in g[1:]:
        assert np.abs(np.sort(row) - row0).max() < 1e-10
    assert group_covariance_check(g)


def test_wh_mic_rejects_degenerate_fiducial():
    with pytest.raises(DegenerateFiducial):
        wh_mic(np.eye(3) / 3)


# -------------------------------------------------------------- orthocross

@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_orthocross_spectrum_and_bound(d):
    mic = orthocross_mic(d)
    spectrum = orthocross_omega_spectrum(d)
    assert spectrum[0] > 0
    bound = orthocross_probability_bound(d)
    assert 0 < bound < 1
    # no state can exceed the bound; try eigenstates of each effect
    rng = np.random.default_rng(d)
    for _ in range(50):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        p = born_probabilities(np.outer(v, v.conj()), mic)
        assert p.max() <= bound + 1e-12


def test_orthocross_is_biased():
    assert not is_unbiased(orthocross_mic(3))


# ------------------------------------------------------------- equiangular

def test_equiangular_gram_closed_form_qubit():
    mic = equiangular_mic(sic_qubit(), 0.5)
    g = mic.gram
    off = g[~np.eye(4, dtype=bool)]
    assert np.abs(off - 11 / 96).max() < 1e-12
    assert np.abs(np.diag(g) - 5 / 32).max() < 1e-12


def test_equiangular_beta_validation():
    with pytest.raises(BetaZero):
        equiangular_mic(sic_qubit(), 0.0)
    with pytest.raises(BetaOutOfRange):
        equiangular_mic(sic_qubit(), 2.5)
    for beta in ("x", None, 0.5j, [0.5]):  # no real number
        with pytest.raises(BetaOutOfRange):
            equiangular_mic(sic_qubit(), beta)


def test_equiangular_mic_needs_a_sic():
    with pytest.raises(NotSic):
        equiangular_mic(orthocross_mic(2), 0.5)


def test_equiangular_beta_one_is_the_sic():
    mic = equiangular_mic(sic_mic(3), 1.0)
    assert np.abs(mic.gram - sic_gram_matrix(3)).max() < 1e-8


# ----------------------------------------------------------------- appleby

def test_appleby_requires_odd_dimension():
    with pytest.raises(EvenDimension, match="odd dimension required"):
        appleby_mic(4)


@pytest.mark.parametrize("d", [3, 5])
def test_appleby_rank_and_weights(d):
    mic = appleby_mic(d)
    assert is_unbiased(mic)
    for m in mic.matrices():
        w = np.linalg.eigvalsh(m)
        assert np.sum(w > 1e-9) == (d + 1) // 2


# -------------------------------------------------------------- tensor MICs

def test_tensorhedron_gram_is_kron_power():
    q = sic_qubit()
    mic = tensorhedron_mic(q, 2)
    assert mic.dim == 4
    assert np.abs(mic.gram - np.kron(q.gram, q.gram)).max() < 1e-12
    w = np.sort(np.linalg.eigvalsh(mic.gram))
    expected = np.sort([1 / 4] + [1 / 12] * 6 + [1 / 36] * 9)
    assert np.abs(w - expected).max() < 1e-12


def _kron_chain(mats, n):
    # the effects as a loop of np.kron calls, first factor slowest
    effects = []
    for combo in itertools.product(range(len(mats)), repeat=n):
        e = mats[combo[0]]
        for i in combo[1:]:
            e = np.kron(e, mats[i])
        effects.append(e)
    return np.array(effects)


@pytest.mark.parametrize("component, n", [("qubit", 1), ("qubit", 2), ("qubit", 3), ("sic3", 2)])
def test_tensorhedron_effects_are_the_kron_chain_bytewise(component, n):
    q = sic_qubit() if component == "qubit" else sic_mic(3)
    got = tensorhedron_mic(q, n).matrices()
    want = _kron_chain(q.matrices(), n)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, -1, 2.5, None, True], ids=repr)
def test_tensorhedron_refuses_a_power_that_is_no_positive_integer(n):
    with pytest.raises(ValueError, match="need n >= 1 factors"):
        tensorhedron_mic(sic_qubit(), n)


def test_tensorhedron_takes_a_numpy_integer_power():
    q = sic_qubit()
    assert tensorhedron_mic(q, np.int64(2)).gram.tobytes() == tensorhedron_mic(q, 2).gram.tobytes()


def test_tensorhedron_respects_dimension_envelope():
    with pytest.raises(EnvelopeExceeded):
        tensorhedron_mic(sic_mic(3), 4)  # 3^4 = 81 > 32
    # refused before the power is taken, with a readable message
    for n in (10 ** 5, 2 ** 64):
        with pytest.raises(EnvelopeExceeded, match=f"^dimension 2\\*\\*{n} exceeds supported limit 32$"):
            tensorhedron_mic(sic_qubit(), n)
    # a one-dimensional component, whose power would never leave the envelope
    with pytest.raises(ValueError, match="d must be at least 2, got 1"):
        tensorhedron_mic(mic_from_matrices([[[1.0]]]), 10 ** 5)


# ----------------------------------------------------- seven-pair example

def test_example_seven_orthogonal_pairs():
    mic = example_seven_orthogonal()
    assert is_unbiased(mic)
    rep = orthogonal_pairs(mic.gram)
    assert rep.count == 7
    assert not group_covariance_check(mic.gram)


# ------------------------------------------------- near-orthogonal family

def padded_basis(d, interleave=False):
    step = d if interleave else 1
    slots = np.zeros((d * d, d, d), dtype=complex)
    slots[:d * step:step] = eigenprojector_basis(np.diag(np.arange(d, dtype=float)))
    return slots


def test_eigenprojector_basis_is_one_stack_summing_to_identity():
    basis = eigenprojector_basis(np.diag([0.0, 1.0, 2.0]))
    assert basis.shape == (3, 3, 3)
    assert np.abs(basis.sum(axis=0) - np.eye(3)).max() < 1e-12


def test_near_orthogonal_distance_to_weight_diagonal():
    # frozen by direct computation; the Gram approaches diag(weights)
    # linearly in (1 - t)
    mic9 = near_orthogonal_family(padded_basis(2), sic_qubit(), 0.9)
    mic99 = near_orthogonal_family(padded_basis(2), sic_qubit(), 0.99)
    mic999 = near_orthogonal_family(padded_basis(2), sic_qubit(), 0.999)
    dists = [
        float(np.linalg.norm(m.gram - np.diag(m.weights())))
        for m in (mic9, mic99, mic999)
    ]
    assert dists[0] == pytest.approx(0.14091597365278238, abs=1e-12)
    assert dists[1] == pytest.approx(0.014962753172656438, abs=1e-12)
    assert dists[2] == pytest.approx(0.0015050014551652496, abs=1e-12)
    assert dists[2] < dists[1] < dists[0]


def test_near_orthogonal_weights_interpolate():
    t = 0.7
    base = sic_qubit()
    mic = near_orthogonal_family(padded_basis(2), base, t)
    expected = t * np.array([1.0, 1.0, 0.0, 0.0]) + (1 - t) * base.weights()
    assert np.abs(mic.weights() - expected).max() < 1e-12


def test_near_orthogonal_small_t_stays_close_to_base():
    base = sic_mic(3)
    mic = near_orthogonal_family(padded_basis(3), base, 1e-6)
    assert np.abs(mic.gram - base.gram).max() < 1e-5


def test_near_orthogonal_rejects_t_outside_unit_interval():
    with pytest.raises(ValueError):
        near_orthogonal_family(padded_basis(2), sic_qubit(), 1.5)
    with pytest.raises(ValueError):
        near_orthogonal_family(padded_basis(2), sic_qubit(), 0.0)


def test_near_orthogonal_basis_must_match_the_mic():
    with pytest.raises(WrongDimension):
        near_orthogonal_family(padded_basis(3), sic_qubit(), 0.5)
    with pytest.raises(WrongCount):
        near_orthogonal_family(padded_basis(2)[:2], sic_qubit(), 0.5)


def test_near_orthogonal_degenerate_pairing_raises():
    # pairing every projector with an equal-shift orbit element collapses
    # the span before t reaches 0.99 in d = 3
    with pytest.raises(LinearlyDependent):
        near_orthogonal_family(padded_basis(3), sic_mic(3), 0.99)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_near_orthogonal_interleaved_pairing_survives(d):
    mic = near_orthogonal_family(padded_basis(d, interleave=True), sic_mic(d), 0.99)
    lim = np.zeros((d * d, d * d))
    for m in range(d):
        lim[m * d, m * d] = 1.0
    assert np.linalg.norm(mic.gram - lim) < 0.05


def test_mic_from_psd_basis_accepts_random_operators():
    rng = np.random.default_rng(5)
    ops = []
    for _ in range(4):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ops.append(a @ a.conj().T)
    mic = mic_from_psd_basis(ops)
    assert mic.dim == 2
    assert np.abs(sum(mic.matrices()) - np.eye(2)).max() < 1e-10
    # an (N, d, d) array is taken as it is and gives the same MIC
    same = mic_from_psd_basis(np.array(ops))
    assert same.matrices().tobytes() == mic.matrices().tobytes()


def test_squash_of_a_stack_maps_each_omega_to_the_identity():
    # Omega^{-1/2} A_i Omega^{-1/2} sums to Omega^{-1/2} Omega Omega^{-1/2} = I,
    # for each basis of a stack of any leading shape as for one basis alone
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 3, 9, 3, 3)) + 1j * rng.standard_normal((2, 3, 9, 3, 3))
    a = a @ a.conj().swapaxes(-1, -2)
    w, safe, e = _squash(a, DEFAULT_TOL)
    assert safe.all() and np.abs(w - np.linalg.eigvalsh(a.sum(axis=-3))).max() < 1e-10
    assert numerical_rank(_basis_gram(a), DEFAULT_TOL).tolist() == [[9] * 3] * 2
    assert np.abs(e.sum(axis=-3) - np.eye(3)).max() < 1e-10
    one = _squash(a[1, 2], DEFAULT_TOL)
    assert np.array_equal(one[0], w[1, 2]) and one[1] and np.array_equal(one[2], e[1, 2])


def test_spanning_basis_with_a_singular_omega_is_refused():
    # I, X, Y and diag(1, 0) - I - X - Y span operator space, and sum to the
    # singular diag(1, 0); the last two elements are not PSD
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    basis = [np.eye(2), x, y, np.diag([1.0, 0.0]) - np.eye(2) - x - y]
    with pytest.raises(SingularOperator, match=r"\[0\.000e\+00, 1\.000e\+00\]"):
        mic_from_psd_basis(basis)
    w, safe, _ = _squash(np.array(basis), DEFAULT_TOL)
    assert numerical_rank(_basis_gram(np.array(basis)), DEFAULT_TOL) == 4
    assert not safe and w.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("basis", [[], np.zeros((0, 2, 2))])
def test_mic_from_psd_basis_rejects_an_empty_basis(basis):
    with pytest.raises(WrongCount):
        mic_from_psd_basis(basis)


@pytest.mark.parametrize("basis", [
    1.0, None, np.zeros((4, 2)), np.zeros((4, 2, 3)), [np.eye(2)] * 3 + [np.eye(3)],
    {"a": 1}, [object()] * 4, "abc", [[["x", "y"]] * 2] * 4],
    ids=["float", "None", "(4, 2)", "(4, 2, 3)", "ragged", "dict", "objects", "string",
         "strings"])
def test_mic_from_psd_basis_refuses_a_basis_of_no_square_stack(basis):
    with pytest.raises(ShapeMismatch):
        mic_from_psd_basis(basis)


def _spanning_psd_basis():
    # |0><0|, |1><1|, |+><+| and |+i><+i|: four PSD operators that span 2 x 2 matrices
    plus, plus_i = np.array([1, 1]) / np.sqrt(2), np.array([1, 1j]) / np.sqrt(2)
    return [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
            np.outer(plus, plus.conj()), np.outer(plus_i, plus_i.conj())]


def test_mic_from_psd_basis_reads_an_iterator_as_its_list():
    basis = _spanning_psd_basis()
    got = mic_from_psd_basis(iter(basis)).matrices()
    assert got.tobytes() == mic_from_psd_basis(basis).matrices().tobytes()
    gen = mic_from_psd_basis(b for b in basis).matrices()
    assert gen.tobytes() == got.tobytes()


def _with_entry(value, i):
    # the spanning basis with value at (0, 1) of element i and of element 3
    basis = np.array(_spanning_psd_basis(), dtype=complex)
    basis[i, 0, 1] = basis[3, 1, 1] = value
    return basis


@pytest.mark.parametrize("value", [np.nan, complex(0, np.nan)])
@pytest.mark.parametrize("i", [0, 2])
def test_mic_from_psd_basis_refuses_a_nan_element_before_the_svd(value, i, capfd, monkeypatch):
    # LAPACK's SVD of a NaN Gram complains on stderr and does not converge
    monkeypatch.setattr(constructions, "numerical_rank",
                        lambda *args: pytest.fail("the SVD was reached"))
    with pytest.raises(NonFinite) as info:
        mic_from_psd_basis(_with_entry(value, i))
    assert info.value.index == i
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("i", [0, 2])
def test_mic_from_psd_basis_refuses_an_infinite_element(value, i):
    # not as a basis that does not span
    with pytest.raises(NonFinite) as info:
        mic_from_psd_basis(_with_entry(value, i))
    assert info.value.index == i


@pytest.mark.parametrize("d", [2.0, True, "2", None])
def test_a_dimension_that_is_no_integer_is_refused(d):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        sic_gram_matrix(d)


def test_a_numpy_integer_dimension_is_taken():
    assert sic_gram_matrix(np.int64(3)).tobytes() == sic_gram_matrix(3).tobytes()


@pytest.mark.parametrize("n", [3, 5])
def test_mic_from_psd_basis_needs_d_squared_elements(n):
    basis = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2))
    with pytest.raises(WrongCount) as info:
        mic_from_psd_basis(basis)
    assert (info.value.got, info.value.expected) == (n, 4)
