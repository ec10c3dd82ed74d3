"""POVM and MIC container invariants: validation, Gram, duals, Born maps."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from miclab.constructions import mic_from_psd_basis, sic_mic, sic_qubit
from miclab.config import DEFAULT_TOL
from miclab.ensembles import MicKind, haar_pure_state, random_mic
from miclab.errors import (
    IllConditionedGram,
    InvalidState,
    LinearlyDependent,
    NonFinite,
    NotHermitian,
    NotPsd,
    ShapeMismatch,
    SumNotIdentity,
    WrongCount,
)
from miclab.povm import (
    Povm,
    born_probabilities,
    collision_probability,
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


def test_array_and_list_input_give_identical_bytes():
    stack = random_mic_fixture(3, 5).matrices()
    from_array = mic_from_matrices(np.array(stack))
    from_list = mic_from_matrices([np.array(m) for m in stack])
    assert from_array.matrices().tobytes() == from_list.matrices().tobytes()
    assert from_array.weights().tobytes() == from_list.weights().tobytes()
    assert from_array.gram.tobytes() == from_list.gram.tobytes()


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
    for the first faulty effect, or (None, (matrices, weights))."""
    mats = [np.asarray(e, dtype=complex) for e in effects]
    d = mats[0].shape[0]
    for i, e in enumerate(mats):
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
    return np.where(rng.random((d, d)) < 0.5, np.nan, e)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=20),
       st.lists(st.tuples(st.integers(min_value=0, max_value=19),
                          st.sampled_from(["psd", "hermitian", "ragged", "nan"])),
                max_size=3),
       st.integers(min_value=0, max_value=10_000))
def test_batched_validation_matches_per_effect_loop(d, n, faults, seed):
    rng = np.random.default_rng(seed)
    basis = [random_psd(d, rng) for _ in range(n)]
    r = np.linalg.inv(np.linalg.cholesky(sum(basis)))
    effects = [r @ a @ r.conj().T for a in basis]  # squashed to sum to I
    for index, fault in faults:
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
        assert f"effect {detail} has shape" in str(info.value)
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
    # cond(G) is about 3.5e8: the biorthogonality gate refuses it, and a
    # refusal is an exception, which the cache never stores
    mic = random_mic(MicKind.GENERIC_PSD, 2, np.random.default_rng([33, 2, 0]))
    for _ in range(2):
        with pytest.raises(IllConditionedGram):
            dual_basis(mic)
    with pytest.raises(IllConditionedGram):
        reconstruct_state(np.full(4, 0.25), mic)


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


@pytest.mark.parametrize("bad", NON_FINITE)
def test_purity_form_rejects_non_finite_probabilities(bad):
    mic = sic_mic(2)
    with pytest.raises(NonFinite) as info:
        purity_form(np.array([0.25, bad, 0.25, 0.25]), mic.gram)
    assert info.value.index == 1


def test_collision_probability_bounds():
    assert collision_probability(np.full(4, 0.25)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        collision_probability(np.array([0.7, 0.7, -0.4]))


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
    assert 1.0 / (d * d) - 1e-12 <= collision_probability(np.abs(p) / np.abs(p).sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(list(MicKind)), st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=10_000), st.booleans())
def test_reconstruct_inverts_born_for_every_kind(kind, d, seed, pure):
    rng = np.random.default_rng(seed)
    mic = random_mic(kind, d, rng)
    if pure:
        v = haar_pure_state(d, rng)
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
