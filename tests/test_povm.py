"""POVM and MIC container invariants: validation, Gram, duals, Born maps."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from miclab import linalg, povm
from miclab.constructions import mic_from_psd_basis, orthocross_mic, sic_mic, sic_qubit, wh_mic
from miclab.config import DEFAULT_TOL, ToleranceConfig
from miclab.ensembles import MicKind, haar_pure_states, random_mic
from miclab.errors import (
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
from miclab.linalg import hermiticity_defect
from miclab.povm import (
    Povm,
    _check_state,
    _gram_condition,
    _valid_states,
    born_probabilities,
    dual_basis,
    effect_eigenvalue_ranges,
    effect_ranks,
    gram,
    is_unbiased,
    mic_from_matrices,
    purity_form,
    rank1_mic_check,
    reconstruct_state,
    rescaled_vector_gram,
    validate_mic,
    validate_povm,
)


def random_psd(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a @ a.conj().T


def random_mic_fixture(d, seed):
    rng = np.random.default_rng(seed)
    return mic_from_psd_basis([random_psd(d, rng) for _ in range(d * d)])


def random_state(d, rng):
    rho = random_psd(d, rng)
    return rho / np.trace(rho)


# ------------------------------------------------------------ validation

def test_validate_povm_rejects_non_psd():
    bad = [np.diag([1.5, -0.5]).astype(complex), np.diag([-0.5, 1.5]).astype(complex)]
    with pytest.raises(NotPsd):
        validate_povm(bad)


def test_validate_povm_rejects_bad_sum():
    half = [np.eye(2, dtype=complex) / 4] * 2
    with pytest.raises(SumNotIdentity):
        validate_povm(half)


def test_validate_povm_rejects_ragged_shapes():
    with pytest.raises(ShapeMismatch):
        validate_povm([np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_validate_povm_rejects_non_finite_effect(bad):
    e = np.eye(2, dtype=complex) / 2
    f = e.copy()
    f[0, 1] = bad
    with pytest.raises(NonFinite) as info:
        validate_povm([e, f])
    assert info.value.index == 1


def test_validate_povm_rejects_nan_pair():
    # every NaN comparison is False, so NaN effects once passed every check
    nan = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(NonFinite) as info:
        validate_povm([nan, np.eye(2) - nan])
    assert info.value.index == 0


def test_validate_povm_reports_the_lowest_faulty_index():
    e = np.eye(2, dtype=complex) / 4
    not_psd = np.diag([0.5, -0.25]).astype(complex)
    not_hermitian = e + np.array([[0, 1e-3], [0, 0]])
    ragged = np.eye(3, dtype=complex)
    with pytest.raises(NotPsd) as info:
        validate_povm([e, not_psd, not_hermitian, ragged])
    assert info.value.index == 1
    with pytest.raises(NotHermitian) as info:
        validate_povm([e, not_hermitian, not_psd, ragged])
    assert info.value.index == 1
    with pytest.raises(ShapeMismatch, match="effect 1 "):
        validate_povm([e, ragged, not_psd])
    # reading stops at the first unreadable effect, so it never pre-empts
    # an earlier fault, and never a later one of its own kind
    with pytest.raises(NonFinite) as info:
        validate_povm([np.full((2, 2), np.nan), np.eye(2) / 2, "ab"])
    assert info.value.index == 0
    with pytest.raises(ShapeMismatch, match="effect 1 has shape"):
        validate_povm([e, ragged, "ab"])


@pytest.mark.parametrize("first", [1.0, [0.5, 0.5], np.ones((2, 3)), np.zeros((0, 0))],
                         ids=["scalar", "vector", "2x3", "0x0"])
def test_an_effect_0_of_no_square_shape_says_so(first):
    # no d can be read off effect 0, so its message names no (d, d)
    shape = np.shape(first)
    with pytest.raises(ShapeMismatch) as info:
        validate_povm([first, 2.0])
    assert str(info.value) == f"effect 0 has shape {shape}, expected a nonempty square matrix"
    with pytest.raises(ShapeMismatch, match=r"^basis element 0 has shape .*, expected a nonempty square matrix$"):
        mic_from_psd_basis([first, np.eye(2)])


def test_array_and_list_input_give_identical_bytes():
    stack = random_mic_fixture(3, 5).matrices()
    from_array = mic_from_matrices(np.array(stack))
    from_list = mic_from_matrices([np.array(m) for m in stack])
    assert from_array.matrices().tobytes() == from_list.matrices().tobytes()
    assert from_array.weights().tobytes() == from_list.weights().tobytes()
    assert from_array.gram.tobytes() == from_list.gram.tobytes()


@pytest.mark.parametrize("one_pass", [iter, lambda s: (m for m in s)], ids=["iter", "generator"])
def test_an_iterator_of_effects_is_read_as_its_list(one_pass):
    stack = sic_qubit().matrices()
    from_list = mic_from_matrices(list(stack))
    povm = validate_povm(one_pass(stack))
    assert povm.matrices().tobytes() == validate_povm(list(stack)).matrices().tobytes()
    assert povm.weights().tobytes() == from_list.weights().tobytes()
    mic = mic_from_matrices(one_pass(stack))
    assert mic.matrices().tobytes() == from_list.matrices().tobytes()
    assert mic.gram.tobytes() == from_list.gram.tobytes()
    # a ragged iterator is cut where a list is
    with pytest.raises(ShapeMismatch, match="effect 1 "):
        validate_povm(one_pass([stack[0], np.eye(3)]))


def test_stored_arrays_are_read_only_and_not_copied():
    mic = random_mic_fixture(2, 6)
    assert mic.matrices() is mic.matrices()
    assert mic.weights() is mic.weights()
    for a in (mic.matrices(), mic.weights(), mic.gram):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_validate_povm_copies_its_input():
    stack = np.array(sic_qubit().matrices())
    povm = validate_povm(stack)
    assert stack.flags.writeable
    stack[0] = 0
    assert povm.matrices()[0].any()


def test_effects_view_the_stored_arrays():
    mic = sic_qubit()
    assert mic.effects is mic.effects
    for e, m, w in zip(mic.effects, mic.matrices(), mic.weights()):
        assert np.shares_memory(e.matrix, mic.matrices())
        assert np.array_equal(e.matrix, m)
        assert e.weight == w


def _reference_validate(effects, tol=DEFAULT_TOL):
    """The per-effect loop that validate_povm replaces: (error type, index)
    for the first faulty effect, or (None, (matrices, weights)).  An effect
    that is no array of numbers is a ShapeMismatch at its index."""
    mats = []
    for i, e in enumerate(effects):
        try:
            e = np.asarray(e, dtype=complex)
        except (TypeError, ValueError):
            return ShapeMismatch, i
        mats.append(e)
        d = mats[0].shape[0]
        if e.shape != (d, d):
            return ShapeMismatch, i
        if not np.isfinite(e).all():
            return NonFinite, i
        if np.abs(e - e.conj().T).max() > tol.hermitian_tol:
            return NotHermitian, i
        if np.linalg.eigvalsh(e)[0] < -tol.zero_tol:
            return NotPsd, i
    if np.linalg.norm(sum(mats) - np.eye(d)) > tol.zero_tol * d:
        return SumNotIdentity, None
    return None, (np.array(mats), np.array([np.trace(m).real for m in mats]))


def _break(e, fault, rng):
    d = e.shape[0]
    if fault == "psd":
        return e - (0.5 + rng.random()) * np.eye(d)
    if fault == "hermitian":
        a = rng.standard_normal((d, d))
        return e + 1e-6 * (a - a.T)
    if fault == "ragged":
        return np.eye(d + 1, dtype=complex)
    if fault == "unreadable":
        return "ab" if rng.random() < 0.5 else [object()]
    return np.where(rng.random((d, d)) < 0.5, np.nan, e)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=20),
       st.lists(st.tuples(st.integers(min_value=0, max_value=19),
                          st.sampled_from(["psd", "hermitian", "ragged", "nan",
                                           "unreadable"])),
                max_size=3),
       st.integers(min_value=0, max_value=10_000))
def test_batched_validation_matches_per_effect_loop(d, n, faults, seed):
    rng = np.random.default_rng(seed)
    basis = [random_psd(d, rng) for _ in range(n)]
    r = np.linalg.inv(np.linalg.cholesky(sum(basis)))
    effects = [r @ a @ r.conj().T for a in basis]  # squashed to sum to I
    for index, fault in faults:
        if isinstance(effects[index % n], np.ndarray):  # an unreadable one stays so
            effects[index % n] = _break(effects[index % n], fault, rng)
    expected, detail = _reference_validate(effects)
    if expected is None:
        povm = validate_povm(effects)
        assert np.array_equal(povm.matrices(), detail[0])
        assert np.array_equal(povm.weights(), detail[1])
        return
    with pytest.raises(expected) as info:
        validate_povm(effects)
    if expected is ShapeMismatch:
        assert str(info.value).startswith(f"effect {detail} ")
    elif detail is not None:
        assert info.value.index == detail


def test_validate_mic_wrong_count():
    povm = validate_povm([np.eye(2, dtype=complex) / 3] * 3)
    with pytest.raises(WrongCount):
        validate_mic(povm)


def test_validate_mic_linearly_dependent():
    # four copies of I/4 sum to identity but span one dimension
    povm = validate_povm([np.eye(2, dtype=complex) / 4] * 4)
    with pytest.raises(LinearlyDependent):
        validate_mic(povm)


def test_validate_mic_refuses_an_effect_of_negligible_weight():
    povm = validate_povm([np.eye(2, dtype=complex) / 2] * 2 + [np.zeros((2, 2))] * 2)
    with pytest.raises(LinearlyDependent, match="effect 2 has negligible weight"):
        validate_mic(povm)


@pytest.mark.parametrize("side", [1.01, 0.99])
def test_validate_mic_decides_on_each_side_of_rank_tol(side):
    # The depolarized qubit SIC E_i = beta S_i + (1 - beta) I/4 has Gram
    # eigenvalues beta^2/6 (thrice) and 1/2, so their ratio beta^2/3 is put
    # 1% to one side of rank_tol, within 1e3 of it: the SVD decides.
    beta = np.sqrt(3 * side * DEFAULT_TOL.rank_tol)
    povm = validate_povm(beta * sic_qubit().matrices() + (1 - beta) * np.eye(2) / 4)
    s = np.linalg.svd(np.einsum("iab,jba->ij", povm.stack, povm.stack).real, compute_uv=False)
    assert abs(s[-1] / s[0] / (side * DEFAULT_TOL.rank_tol) - 1) < 1e-6
    if side > 1:
        assert validate_mic(povm).gram.shape == (4, 4)
    else:
        with pytest.raises(LinearlyDependent, match="span only 1 of 4"):
            validate_mic(povm)


# ------------------------------------------------------------------ gram

def test_gram_entries_sum_to_dimension():
    for d, seed in [(2, 0), (3, 1), (4, 2)]:
        mic = random_mic_fixture(d, seed)
        assert mic.gram.sum() == pytest.approx(d, abs=1e-10)
        assert np.abs(mic.gram - mic.gram.T).max() < 1e-14


def test_gram_of_sic_is_closed_form():
    mic = sic_qubit()
    d = 2
    expected = (d * np.eye(d * d) + 1) / (d * d * (d + 1.0))
    assert np.abs(mic.gram - expected).max() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_gram_rejects_non_finite_effects(bad):
    # NaN fails every comparison, so a residue check written `> tol` passed it
    with pytest.raises(NonFinite) as info:
        gram(Povm(dim=2, stack=np.full((4, 2, 2), bad + 0j), traces=np.ones(4)))
    assert info.value.index == 0
    stack = np.array(sic_qubit().matrices())
    stack[2, 0, 1] = bad
    with pytest.raises(NonFinite) as info:
        gram(Povm(dim=2, stack=stack, traces=np.ones(4)))
    assert info.value.index == 2


def test_gram_rejects_finite_effects_whose_products_overflow():
    # every entry is finite, so only the Gram matrix shows the overflow
    stack = np.array(sic_qubit().matrices())
    stack[:, 0, 0] = 1e200
    with pytest.raises(NonFinite) as info:
        gram(Povm(dim=2, stack=stack, traces=np.ones(4)))
    assert info.value.index == 0
    stack = np.array(sic_qubit().matrices())
    stack[3, 1, 1] = 1e200
    with pytest.raises(NonFinite) as info:
        gram(Povm(dim=2, stack=stack, traces=np.ones(4)))
    assert info.value.index == 3


def test_gram_refuses_an_imaginary_residue():
    # tr(E_0 E_1) = 1 + 1j for the non-Hermitian E_0 = diag(1, 1j), E_1 = I,
    # which only a hand-built Povm can hold
    stack = np.array([np.diag([1.0, 1j]), np.eye(2)])
    with pytest.raises(NotHermitian, match="imaginary residue 1.000e"):
        gram(Povm(dim=2, stack=stack, traces=np.ones(2)))


def test_weights_are_traces():
    mic = random_mic_fixture(3, 4)
    assert np.allclose(mic.weights(), [np.trace(m).real for m in mic.matrices()])


# ------------------------------------------------------------------ dual

def test_dual_basis_biorthogonal():
    mic = random_mic_fixture(3, 7)
    duals = dual_basis(mic)
    check = np.einsum("iab,jba->ij", mic.matrices(), np.array(duals.elements))
    assert np.abs(check - np.eye(9)).max() < 1e-8


def test_dual_basis_rejects_singular_gram():
    mic = sic_qubit()
    object.__setattr__(mic, "gram", np.diag([1.0, 1.0, 1.0, 1e-14]))
    with pytest.raises(IllConditionedGram):
        dual_basis(mic)


def test_dual_basis_is_computed_once_per_mic():
    mic = random_mic_fixture(3, 7)
    duals = dual_basis(mic)
    assert dual_basis(mic) is duals
    assert duals.stack.shape == (9, 3, 3)
    assert not duals.stack.flags.writeable
    with pytest.raises(ValueError):
        duals.stack[0] = 0
    for el, row in zip(duals.elements, duals.stack):
        assert np.shares_memory(el, duals.stack)
        assert np.array_equal(el, row)


def test_cached_reconstruction_matches_a_fresh_mic_bytewise():
    mic = random_mic_fixture(3, 8)
    rng = np.random.default_rng(9)
    for _ in range(3):  # the first call fills the cache, later ones reuse it
        p = born_probabilities(random_state(3, rng), mic)
        fresh = mic_from_matrices(mic.matrices())
        assert reconstruct_state(p, mic).tobytes() == reconstruct_state(p, fresh).tobytes()


def test_refused_dual_basis_is_refused_on_every_call():
    # a Gram above CONDITION_LIMIT, set on a built MIC: the condition gate
    # refuses it, and a refusal is an exception, which the cache never stores
    mic = sic_qubit()
    object.__setattr__(mic, "gram", np.diag([1.0, 1.0, 1.0, 1e-13]))
    for _ in range(2):
        with pytest.raises(IllConditionedGram):
            dual_basis(mic)
    with pytest.raises(IllConditionedGram):
        reconstruct_state(np.full(4, 0.25), mic)


def test_gram_well_within_the_condition_limit_has_a_dual_basis():
    # cond(G) = 3.54e8: duals taken from G missed biorthogonality by 1.391e-8
    mic = random_mic(MicKind.GENERIC_PSD, 2, np.random.default_rng([33, 2, 0]))
    check = np.einsum("iab,jba->ij", mic.matrices(), dual_basis(mic).stack)
    assert np.abs(check - np.eye(4)).max() < 1e-8


def test_coordinate_duals_miss_biorthogonality_by_the_root_of_the_condition_number():
    # The duals' coordinates are Y = (A W)^-1, and G = (A W^1/2)(A W^1/2)^T,
    # so cond(A W) <= sqrt(2 cond(G)).  Y's residual is of order n u cond(A W)
    # (Higham, Accuracy and Stability, chapter 14), and the check's pairing
    # adds sqrt(2) gamma_{d^2+2} |E_i| |E~_j|: the defect stays within
    # c n u sqrt(cond(G)) with c a small constant.  Measured: c at most 0.54
    # over these 4800 MICs, so c = 4 is asserted; duals taken from G refused
    # one of them and missed by up to 6.7e-9 on the others.
    u = np.finfo(float).eps / 2
    worst = 0.0
    for k, kind in enumerate(MicKind):
        for d in (2, 3, 4, 5):
            n = d * d
            for seed in range(300):
                mic = random_mic(kind, d, np.random.default_rng([seed, d, k]))
                duals = dual_basis(mic).stack
                assert np.array_equal(duals, duals.conj().transpose(0, 2, 1))
                s = np.linalg.svd(mic.gram, compute_uv=False)
                defect = np.abs(np.einsum("iab,jba->ij", mic.matrices(), duals) - np.eye(n)).max()
                worst = max(worst, defect / (n * u * np.sqrt(s[0] / s[-1])))
    assert worst <= 4, worst


def test_effect_ranks_and_ranges():
    mic = sic_qubit()
    assert effect_ranks(mic) == [1, 1, 1, 1]
    for lo, hi in effect_eigenvalue_ranges(mic):
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------- born and inverse

def test_born_probabilities_normalize():
    mic = random_mic_fixture(2, 9)
    rho = random_state(2, np.random.default_rng(10))
    p = born_probabilities(rho, mic)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p.min() >= -1e-12


def test_reconstruction_inverts_measurement():
    for d, seed in [(2, 11), (3, 12)]:
        mic = random_mic_fixture(d, seed)
        rho = random_state(d, np.random.default_rng(seed + 100))
        p = born_probabilities(rho, mic)
        assert np.abs(reconstruct_state(p, mic) - rho).max() < 1e-9


def test_purity_form_matches_state_purity():
    mic = random_mic_fixture(3, 13)
    rng = np.random.default_rng(14)
    rho = random_state(3, rng)
    p = born_probabilities(rho, mic)
    assert purity_form(p, mic.gram) == pytest.approx(
        np.trace(rho @ rho).real, abs=1e-9)


# ------------------------------------------------- the shared condition gate

def test_refused_gram_is_refused_on_every_call():
    g = np.diag([1.0, 1.0, 1.0, 1e-13])
    for _ in range(2):
        with pytest.raises(IllConditionedGram):
            _gram_condition(g)
        with pytest.raises(IllConditionedGram):
            purity_form(np.full(4, 0.25), g)


def test_gram_changed_in_place_is_checked_again():
    g = np.diag([1.0, 2.0, 3.0, 4.0])
    assert _gram_condition(g) == pytest.approx(4.0)
    g[3, 3] = 0.0  # the same writable array, now singular
    with pytest.raises(IllConditionedGram):
        _gram_condition(g)
    with pytest.raises(IllConditionedGram):
        purity_form(np.full(4, 0.25), g)


@pytest.fixture
def svd_calls(monkeypatch):
    """One entry per SVD through linalg._lapack, with the gate's memory emptied."""
    calls = []
    real, *signatures = linalg._ROUTINES["svdvals"]
    monkeypatch.setitem(linalg._ROUTINES, "svdvals",
                        (lambda *a, **k: calls.append(1) or real(*a, **k), *signatures))
    monkeypatch.setattr(povm, "_PASSED", [(None, 0.0)])
    return calls


def test_condition_memo_keeps_exactly_the_last_gram(svd_calls):
    a, b = np.diag([1.0, 2.0]), np.diag([1.0, 3.0])
    for g in (a, a, b, b, a):
        _gram_condition(g)
    assert len(svd_calls) == 3


def _tomography_mics(d):
    yield sic_mic(d)
    yield orthocross_mic(d)
    for k, kind in enumerate(MicKind):
        yield random_mic(kind, d, np.random.default_rng([0, d, k]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_purity_form_returns_the_bits_of_one_solve(d, svd_calls):
    # the gate's SVD runs once per Gram; the value is the solve's, on the
    # first call as on the hundredth
    rho = random_state(d, np.random.default_rng(d))
    for mic in _tomography_mics(d):
        g = mic.gram
        p = born_probabilities(rho, mic)
        expected = float(p @ np.linalg.solve(g, p))
        before = len(svd_calls)
        values = [purity_form(p, g) for _ in range(100)]
        assert len(svd_calls) == before + 1
        for value in (values[0], values[-1]):
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()


def _states_at_each_rule_edge(d):
    # valid states, and states just inside and just outside each of
    # _check_state's rules: finite, Hermitian, unit trace, PSD
    rng = np.random.default_rng(21)
    v = haar_pure_states(2, d, rng)
    out = [np.eye(d) / d, np.outer(v[0], v[0].conj()), random_state(d, rng)]
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        rho = np.eye(d, dtype=complex) / d
        rho[0, 1] = bad
        out.append(rho)
    for defect in (0.5e-12, 2e-12):
        rho = np.eye(d, dtype=complex) / d
        rho[0, 1] = defect
        out.append(rho)
    for excess in (0.5e-10, 2e-10):
        out.append((1 + excess) * np.eye(d) / d)
    for low in (-0.5e-10, -2e-10):
        w = np.full(d, (1 - low) / (d - 1))
        w[0] = low
        out.append(np.diag(w).astype(complex))
    return np.array(out, dtype=complex)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_batched_state_check_agrees_with_check_state(d):
    states = _states_at_each_rule_edge(d)
    verdicts = []
    for rho in states:
        try:
            _check_state(rho, d, DEFAULT_TOL)
            verdicts.append(True)
        except InvalidState:
            verdicts.append(False)
    assert verdicts.count(True) == 6 and verdicts.count(False) == 6
    assert _valid_states(states, DEFAULT_TOL).tolist() == verdicts


def test_finite_states_whose_sums_overflow_are_refused():
    # rho - rho^dagger, rho + rho^dagger or the trace overflows: an
    # InvalidState (or a False mask entry) and no RuntimeWarning
    states = [np.array([[0.5, 1e308j], [-1e308j, 0.5]]),  # Hermitian, not PSD
              np.array([[0.5, 1e308], [-1e308, 0.5]]),  # not Hermitian
              np.diag([1e308, 1e308]).astype(complex)]  # trace inf
    for rho in states:
        with pytest.raises(InvalidState):
            born_probabilities(rho, sic_mic(2))
    assert not _valid_states(np.array(states), DEFAULT_TOL).any()


def test_effects_whose_sum_overflows_do_not_sum_to_identity():
    big = np.diag([1e308, 0.0])
    with pytest.raises(SumNotIdentity):
        validate_povm([big, big])


# ------------------------------------------------ certified PSD verdicts

def _eigvalsh_effect_rules(e, tol):
    # _effect_rules' index and validate_povm's NotPsd value as one batched
    # eigvalsh gave them before the Cholesky certificate
    hermitian = hermiticity_defect(e) <= tol.hermitian_tol
    low = np.linalg.eigvalsh(np.where(hermitian[..., None, None], e, 0))[..., 0]
    first = povm._first(~hermitian | (low < -tol.zero_tol))
    return first, (low[first] if first < len(e) else None)


def _eigvalsh_valid_states(rhos, tol):
    # _valid_states as eigvalsh decided it before the Cholesky certificate
    ok = hermiticity_defect(rhos) <= tol.hermitian_tol
    rhos = np.where(ok[:, None, None], rhos, 0)
    with np.errstate(over="ignore"):
        ok &= np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0) <= 1e-10
    half = rhos / 2
    return ok & (np.linalg.eigvalsh(half + half.conj().transpose(0, 2, 1))[:, 0] >= -tol.zero_tol)


def _hermitian_with_spectrum(w, rng):
    # Q diag(w) Q^dagger for a random unitary Q, exactly Hermitian
    d = len(w)
    q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    h = (q * w) @ q.conj().T
    return (h + h.conj().T) / 2


def _masked(m, fault, rng):
    # a matrix that the Hermiticity rule masks: non-finite, or skew by 1e-6
    m = m.copy()
    if fault == "skew":
        m[0, -1] += 1e-6 * m.shape[0]
    else:
        m[rng.integers(len(m)), rng.integers(len(m))] = {"nan": np.nan, "inf": np.inf}[fault]
    return m


# least eigenvalues in units of zero_tol: either side of the rule at -1 and
# of the shift at -1/2, and 0
LEAST = [-(1 + 1e-3), -(1 - 1e-3), -0.5, 0.0, 0.5]
# the default, and tolerances so small that the certificate steps aside
ZERO_TOLS = [DEFAULT_TOL.zero_tol, 1e-15, 1e-300]


@settings(max_examples=150, deadline=None, derandomize=True)
@example(2, 1.0, [0.0, 0.5], DEFAULT_TOL.zero_tol, [], 40, 0)  # stacks it passes
@example(2, 1.0, [0.5, 0.0, 0.5], DEFAULT_TOL.zero_tol, ["nan", "skew"], 40, 1)
@example(5, 1e3, [0.0, 0.5], DEFAULT_TOL.zero_tol, [], 8, 2)
@example(32, 1.0, [0.5], DEFAULT_TOL.zero_tol, ["inf"], 0, 3)
@given(st.sampled_from([2, 5, 32]), st.sampled_from([1.0, 1e3, 1e6]),
       st.lists(st.sampled_from(LEAST), min_size=1, max_size=4), st.sampled_from(ZERO_TOLS),
       st.lists(st.sampled_from(["nan", "inf", "skew"]), max_size=2),
       st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=10_000))
def test_certified_psd_verdicts_are_eigvalsh_verdicts(d, scale, least, zero_tol, faults, pad,
                                                      seed):
    # _effect_rules (validate_povm and the generic batch) and _valid_states
    # (the covariant batch and phi_matrix) decide as eigvalsh does, and
    # validate_povm's NotPsd value keeps its bits; pad extra PSD matrices
    # bring a small stack to the size the certificate runs at
    rng = np.random.default_rng(seed)
    tol = ToleranceConfig(zero_tol=zero_tol)
    e = np.array([_hermitian_with_spectrum(np.r_[k * zero_tol, scale * rng.random(d - 1)], rng)
                  for k in least] + [scale * np.eye(d) / d] * pad)
    rhos = np.array([_hermitian_with_spectrum(np.r_[k * zero_tol, w * (1 - k * zero_tol) / w.sum()],
                                              rng) for k in least for w in [rng.random(d - 1)]]
                    + [np.eye(d) / d] * pad)
    for i, fault in enumerate(faults):
        e[i % len(least)] = _masked(e[i % len(least)], fault, rng)
        rhos[-1 - i % len(least)] = _masked(rhos[-1 - i % len(least)], fault, rng)
    first, low = _eigvalsh_effect_rules(e, tol)
    assert povm._effect_rules(e, tol)[0] == first
    if low is not None and np.isfinite(e[first]).all() and hermiticity_defect(e[first]) <= 1e-12:
        with pytest.raises(NotPsd) as info:
            validate_povm(e, tol)
        assert (info.value.index, info.value.min_eigenvalue) == (first, low)
    assert _valid_states(rhos, tol).tolist() == _eigvalsh_valid_states(rhos, tol).tolist()
    h = np.where(np.isfinite(e), e, 0)
    assert povm._psd(h, zero_tol).tolist() == (np.linalg.eigvalsh(h)[:, 0] >= -zero_tol).tolist()


def test_psd_certificate_steps_aside_where_its_bound_fails(monkeypatch):
    # the certificate runs only where 48 n^2 u (F + zero_tol/2) <= zero_tol/2,
    # on a stack of at least 128 entries: for unit-norm matrices at n = 32
    # and the default zero_tol, not at 1e-15, and not for 31 2 x 2 matrices
    calls = []
    real, *signatures = linalg._ROUTINES["cholesky"]
    monkeypatch.setitem(linalg._ROUTINES, "cholesky",
                        (lambda a, **k: calls.append(a.shape) or real(a, **k), *signatures))
    h = np.eye(32)[None] / np.sqrt(32)
    assert povm._psd(h, DEFAULT_TOL.zero_tol).all() and calls == [(1, 32, 32)]
    calls.clear()
    assert povm._psd(h, 1e-15).all() and calls == []
    assert povm._psd(1e6 * h, DEFAULT_TOL.zero_tol).all() and calls == []
    assert povm._psd(np.tile(np.eye(2), (31, 1, 1)), DEFAULT_TOL.zero_tol).all() and calls == []
    assert povm._psd(np.tile(np.eye(2), (32, 1, 1)), DEFAULT_TOL.zero_tol).all()
    assert calls == [(32, 2, 2)]


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE + [complex(0, np.inf)])
def test_born_probabilities_rejects_non_finite_state(bad):
    for rho in (np.full((2, 2), bad), np.array([[0.5, bad], [0.0, 0.5]])):
        with pytest.raises(InvalidState, match="non-finite"):
            born_probabilities(rho, sic_mic(2))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_reconstruct_state_rejects_non_finite_probabilities(bad):
    with pytest.raises(NonFinite) as info:
        reconstruct_state(np.array([0.25, 0.25, bad, 0.25]), sic_mic(2))
    assert info.value.index == 2
    with pytest.raises(NonFinite):
        reconstruct_state(np.full(4, bad), sic_mic(2))


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e307])
def test_reconstruct_state_returns_large_finite_operators_as_they_are(scale):
    # entries beyond about 1e154 make the overflow check look closer; an
    # operator that stays finite is still returned with the plain sum's bits
    mic = sic_mic(2)
    p = np.array([0.1, 0.2, 0.3, 0.4]) * scale
    out = np.einsum("i,iab->ab", p, dual_basis(mic).stack)
    assert reconstruct_state(p, mic).tobytes() == ((out + out.conj().T) / 2).tobytes()


@pytest.mark.parametrize("bad", NON_FINITE)
def test_purity_form_rejects_non_finite_probabilities(bad):
    mic = sic_mic(2)
    with pytest.raises(NonFinite) as info:
        purity_form(np.array([0.25, bad, 0.25, 0.25]), mic.gram)
    assert info.value.index == 1


@pytest.mark.parametrize("bad", NON_FINITE)
def test_purity_form_rejects_non_finite_gram_rows(bad):
    # the condition gate names the first row holding one, before any SVD
    g = np.array(sic_mic(2).gram)
    g[2, 1] = g[3, 0] = bad
    with pytest.raises(NonFinite) as info:
        purity_form(np.full(4, 0.25), g)
    assert info.value.index == 2


def test_purity_form_rejects_an_empty_gram():
    with pytest.raises(ShapeMismatch):
        purity_form(np.zeros(0), np.zeros((0, 0)))


def test_complex_inputs_with_an_imaginary_part_are_refused():
    # a cast to float would drop the imaginary part with only a warning
    mic = sic_mic(2)
    p = born_probabilities(np.eye(2) / 2, mic)
    with pytest.raises(NotHermitian, match="imaginary part 1.000e-03"):
        purity_form(p, mic.gram + 1e-3j)
    for bad in (1e-3j, complex(0, np.nan)):
        with pytest.raises(ValueError, match="probability vector has imaginary part"):
            purity_form(p + bad, mic.gram)
        with pytest.raises(ValueError, match="probability vector has imaginary part"):
            reconstruct_state(p + bad, mic)


def test_complex_inputs_with_no_imaginary_part_keep_working():
    mic = sic_mic(2)
    p = born_probabilities(np.eye(2) / 2, mic)
    assert purity_form(p.astype(complex), mic.gram.astype(complex)) == purity_form(p, mic.gram)
    assert np.array_equal(reconstruct_state(p.astype(complex), mic), reconstruct_state(p, mic))


# -------------------------------------------------------- rank-1 criterion

def test_rank1_mic_check_accepts_sic():
    mic = sic_qubit()
    vecs, weights = [], []
    for m in mic.matrices():
        w, v = np.linalg.eigh(m)
        vecs.append(v[:, -1])
        weights.append(w[-1])
    g = rescaled_vector_gram(vecs, weights)
    assert np.linalg.matrix_rank(g) == 2
    is_povm, is_mic = rank1_mic_check(vecs, weights)
    assert is_povm and is_mic


def test_rank1_mic_check_rejects_small_family():
    # two orthogonal projectors form a POVM but not a MIC
    vecs = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    is_povm, is_mic = rank1_mic_check(vecs, [1.0, 1.0])
    assert is_povm and not is_mic


def test_rank1_inputs_must_be_finite():
    # a NaN fails the comparisons a bound is written with, so each gate must
    # be written to hold only for finite values
    with pytest.raises(ValueError, match="weights"):
        rescaled_vector_gram([[1, 0], [0, 1]], [np.nan, 0.5])
    vecs = [np.array([1.0, 0.0]), np.array([np.nan, 0.0])]
    for check in (rescaled_vector_gram, rank1_mic_check):
        with pytest.raises(NotNormalized) as exc:
            check(vecs, [1.0, 1.0])
        assert exc.value.index == 1


def test_rank1_inputs_are_refused_with_typed_errors():
    for check in (rescaled_vector_gram, rank1_mic_check):
        with pytest.raises(WrongCount):
            check([], [])
        with pytest.raises(ShapeMismatch, match="vector 2 has length 3, expected 2"):
            check([[1, 0], [0, 1], [1, 0, 0]], [0.5, 0.5, 0.5])
        # weights must be one number per vector: not a scalar, a 2-D array or
        # a list of another length
        for weights in (1.0, [[1.0]], [[1.0, 1.0]], [1.0, 1.0]):
            with pytest.raises(ShapeMismatch, match="weights of shape"):
                check([[1, 0]], weights)


VECTOR_READER_FAULTS = {"string": "ab", "objects": [object()], "length 3": np.ones(3) / np.sqrt(3)}


@pytest.mark.parametrize("low, high", [(1, 2), (1, 3), (2, 3)])
@pytest.mark.parametrize("first, later", list(itertools.product(sorted(VECTOR_READER_FAULTS),
                                                                repeat=2)))
def test_rank1_inputs_name_their_lowest_reader_fault(first, later, low, high):
    # lengths are checked before norms, so the NaN vector 0 waits, and of
    # two unreadable or mis-sized vectors the lower is named
    vecs = [np.array([np.nan, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]),
            np.array([0.0, 1.0])]
    vecs[low], vecs[high] = VECTOR_READER_FAULTS[first], VECTOR_READER_FAULTS[later]
    for check in (rescaled_vector_gram, rank1_mic_check):
        with pytest.raises(ShapeMismatch, match=f"^vector {low} "):
            check(vecs, [0.5] * 4)


@pytest.mark.parametrize("call, error", [
    (lambda: validate_povm(1.0), ShapeMismatch),
    (lambda: validate_povm(None), ShapeMismatch),
    (lambda: mic_from_matrices(1.0), ShapeMismatch),
    (lambda: rescaled_vector_gram(1.0, [1.0]), ShapeMismatch),
    (lambda: rank1_mic_check(1.0, [1.0]), ShapeMismatch),
    (lambda: wh_mic(np.nan), InvalidState),
], ids=["validate_povm-float", "validate_povm-None", "mic_from_matrices-float",
        "rescaled_vector_gram-float", "rank1_mic_check-float", "wh_mic-nan"])
def test_scalar_inputs_are_refused_with_typed_errors(call, error):
    # a scalar or None is no sequence of effects or vectors, and no state
    with pytest.raises(error, match="expected a"):
        call()


def test_unbiasedness_predicate():
    assert is_unbiased(sic_mic(3))
    biased = random_mic_fixture(2, 20)
    assert not is_unbiased(biased)


# -------------------------------------------------------------- properties

@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10_000))
def test_measure_then_reconstruct_roundtrip(d, seed):
    rng = np.random.default_rng(seed)
    try:
        mic = mic_from_psd_basis([random_psd(d, rng) for _ in range(d * d)])
    except (LinearlyDependent, IllConditionedGram):
        # a numerically dependent draw is valid refusal, not a roundtrip bug
        assume(False)
    rho = random_state(d, rng)
    p = born_probabilities(rho, mic)
    assert p.sum() == pytest.approx(1.0, abs=1e-10)
    # reconstruction accuracy degrades with Gram conditioning
    bound = max(1e-8, 100 * np.finfo(float).eps * np.linalg.cond(mic.gram))
    assert np.abs(reconstruct_state(p, mic) - rho).max() < bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(list(MicKind)), st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=10_000), st.booleans())
def test_reconstruct_inverts_born_for_every_kind(kind, d, seed, pure):
    rng = np.random.default_rng(seed)
    mic = random_mic(kind, d, rng)
    if pure:
        v = haar_pure_states(1, d, rng)[0]
        rho = np.outer(v, v.conj())
    else:
        rho = random_state(d, rng)
    p = born_probabilities(rho, mic)
    try:
        back = reconstruct_state(p, mic)
    except IllConditionedGram:
        # a refused Gram matrix is a typed refusal, not a round-trip bug
        assume(False)
    bound = max(1e-13, np.finfo(float).eps * np.linalg.cond(mic.gram))
    assert np.abs(back - rho).max() < bound
    assert reconstruct_state(p, mic).tobytes() == back.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_gram_is_psd_and_sums_to_d(seed):
    try:
        mic = random_mic_fixture(3, seed)
    except LinearlyDependent:
        assume(False)
    w = np.linalg.eigvalsh(mic.gram)
    assert w[0] > 0
    assert mic.gram.sum() == pytest.approx(3.0, abs=1e-9)
