"""Every array argument is read by one reader (linalg._as_array, and
povm._stack for stacks of matrices), so every library boundary refuses bad
input with a typed error: a MicLabError, or a ValueError where the docstring
names one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miclab.analysis import (
    cascaded_probability,
    group_covariance_check,
    orthogonal_pairs,
    phi_matrix,
    wigner_quasiprobs,
)
from miclab.constructions import (
    SicFiducial,
    builtin_fiducial,
    eigenprojector_basis,
    mic_from_psd_basis,
    near_orthogonal_family,
    sic_qubit,
    wh_mic,
)
from miclab.ensembles import gue_psd_samples, haar_pure_states
from miclab.errors import (
    InvalidState,
    MicLabError,
    NonFinite,
    ShapeMismatch,
)
from miclab.linalg import _as_array, eigh, numerical_rank
from miclab.povm import (
    born_probabilities,
    mic_from_matrices,
    purity_form,
    rank1_mic_check,
    reconstruct_state,
    rescaled_vector_gram,
    validate_povm,
)

MIC = sic_qubit()
RHO = np.eye(2) / 2
P = born_probabilities(RHO, MIC)
POSTS = MIC.matrices() / MIC.weights()[:, None, None]
# the SIC's effects as weights times projectors onto unit vectors
_W, _V = np.linalg.eigh(MIC.matrices())
VECTORS, WEIGHTS = _V[:, :, -1], _W[:, -1]


# ----------------------------------------------------------------- the reader

def test_the_reader_returns_an_array_of_the_wanted_dtype_as_it_is():
    a = np.eye(2, dtype=complex)
    assert _as_array(a, "matrix") is a
    g = np.eye(2)
    assert _as_array(g, "matrix", dtype=None) is g
    assert _as_array(g, "matrix").dtype == complex


def test_the_reader_reads_an_iterator_once_as_its_list():
    rows = iter([[1, 0], [0, 1]])
    assert np.array_equal(_as_array(rows, "matrix"), np.eye(2))


@pytest.mark.parametrize("x", [[[1, 2], [3]], {"a": 1}, "ab", [object()], 10 ** 400],
                         ids=["ragged", "dict", "string", "object", "huge-int"])
@pytest.mark.parametrize("dtype", [complex, None])
def test_the_reader_raises_the_given_error_for_what_numpy_cannot_read(x, dtype):
    with pytest.raises(InvalidState, match="^state (is no array of numbers|holds)"):
        _as_array(x, "state", InvalidState, dtype)


@pytest.mark.parametrize("x", ["ab", None, [None], {}], ids=["string", "None", "[None]", "dict"])
def test_the_reader_refuses_an_array_of_no_numbers(x):
    with pytest.raises(ValueError, match="not numbers"):
        _as_array(x, "effects", ValueError, dtype=None)


# ------------------------------------------------ one case per mended probe

@pytest.mark.parametrize("call, error", [
    (lambda: validate_povm({"a": 1}), ShapeMismatch),
    (lambda: validate_povm([object()]), ShapeMismatch),
    (lambda: validate_povm("ab"), ShapeMismatch),
    (lambda: born_probabilities("ab", MIC), InvalidState),
    (lambda: eigh([["a"]]), ShapeMismatch),
    (lambda: wh_mic({}), InvalidState),
    (lambda: phi_matrix(MIC, None), ShapeMismatch),
    (lambda: eigenprojector_basis(1.0), ShapeMismatch),
    (lambda: numerical_rank([["a"]]), ShapeMismatch),
    (lambda: orthogonal_pairs([[object()]]), ShapeMismatch),
    (lambda: cascaded_probability(RHO, MIC, POSTS, [np.eye(2) / 2, np.eye(3)]), ShapeMismatch),
    (lambda: cascaded_probability(RHO, MIC, POSTS, 1.0), ShapeMismatch),
], ids=["validate_povm-dict", "validate_povm-object", "validate_povm-string",
        "born_probabilities-string", "eigh-string", "wh_mic-dict", "phi_matrix-None",
        "eigenprojector_basis-float", "numerical_rank-string", "orthogonal_pairs-object",
        "cascaded_probability-ragged", "cascaded_probability-scalar"])
def test_bad_arrays_are_refused_with_typed_errors(call, error):
    with pytest.raises(error):
        call()


# a NaN overlap_tol would turn the overlap gate off: this state's zero
# overlaps would then end in LinearlyDependent, not DegenerateFiducial
DIAGONAL = np.diag([0.7, 0.3])
RNG = np.random.default_rng(0)


@pytest.mark.parametrize("call, message", [
    (lambda: near_orthogonal_family(MIC.matrices(), MIC, "x"), "^t must lie"),
    (lambda: near_orthogonal_family(MIC.matrices(), MIC, None), "^t must lie"),
    (lambda: wh_mic(RHO, overlap_tol="x"), "^overlap_tol must be"),
    (lambda: wh_mic(DIAGONAL, overlap_tol=np.nan), "^overlap_tol must be"),
    (lambda: wh_mic(RHO, overlap_tol=np.inf), "^overlap_tol must be"),
    (lambda: wh_mic(RHO, overlap_tol=-1e-8), "^overlap_tol must be"),
    (lambda: haar_pure_states(2.0, 2, RNG), "^n must be"),
    (lambda: haar_pure_states(-1, 2, RNG), "^n must be"),
    (lambda: haar_pure_states(True, 2, RNG), "^n must be"),
    (lambda: gue_psd_samples(2.0, 2, RNG), "^n must be"),
    (lambda: gue_psd_samples(-1, 2, RNG), "^n must be"),
    (lambda: gue_psd_samples(False, 2, RNG), "^n must be"),
], ids=["near_orthogonal_family-string", "near_orthogonal_family-None", "wh_mic-string",
        "wh_mic-nan", "wh_mic-inf", "wh_mic-negative", "haar_pure_states-float",
        "haar_pure_states-negative", "haar_pure_states-bool", "gue_psd_samples-float",
        "gue_psd_samples-negative", "gue_psd_samples-bool"])
def test_bad_scalars_are_refused_with_value_error(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert info.type is ValueError


def test_the_samplers_take_zero_draws():
    assert haar_pure_states(0, 2, RNG).shape == (0, 2)
    assert gue_psd_samples(np.int64(0), 2, RNG).shape == (0, 2, 2)


def test_cascaded_probability_checks_the_second_povm_against_the_dimension():
    with pytest.raises(ShapeMismatch, match="dimension 3, expected 2"):
        cascaded_probability(RHO, MIC, POSTS, [np.eye(3) / 3] * 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cascaded_probability_names_the_first_non_finite_second_effect(bad):
    second = [np.eye(2) / 2, np.full((2, 2), bad), np.full((2, 2), bad)]
    with pytest.raises(NonFinite) as info:
        cascaded_probability(RHO, MIC, POSTS, second)
    assert info.value.index == 1


# ------------------------------------------------------ the boundary property

# (function, valid arguments, indices of the array arguments, whether its
# docstring names ValueError)
BOUNDARIES = {
    "validate_povm": (validate_povm, (MIC.matrices(),), (0,), False),
    "mic_from_matrices": (mic_from_matrices, (MIC.matrices(),), (0,), False),
    "born_probabilities": (born_probabilities, (RHO, MIC), (0,), False),
    "reconstruct_state": (reconstruct_state, (P, MIC), (0,), True),
    "purity_form": (purity_form, (P, MIC.gram), (0, 1), True),
    "wh_mic": (wh_mic, (np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]]),), (0,), False),
    "mic_from_psd_basis": (mic_from_psd_basis, (MIC.matrices(),), (0,), False),
    "rescaled_vector_gram": (rescaled_vector_gram, (VECTORS, WEIGHTS), (0, 1), True),
    "rank1_mic_check": (rank1_mic_check, (VECTORS, WEIGHTS), (0, 1), True),
    "orthogonal_pairs": (orthogonal_pairs, (MIC.gram,), (0,), False),
    "group_covariance_check": (group_covariance_check, (MIC.gram,), (0,), False),
    "phi_matrix": (phi_matrix, (MIC, POSTS), (1,), False),
    "cascaded_probability": (cascaded_probability, (RHO, MIC, POSTS, MIC.matrices()),
                             (0, 2, 3), False),
    "wigner_quasiprobs": (wigner_quasiprobs, (RHO, MIC), (0,), False),
    "eigenprojector_basis": (eigenprojector_basis, (np.diag([1.0, 2.0]),), (0,), False),
    "SicFiducial.from_vector": (SicFiducial.from_vector, (builtin_fiducial(2).vector,), (0,),
                                False),
    "eigh": (eigh, (np.diag([1.0, 2.0]),), (0,), False),
    "numerical_rank": (numerical_rank, (MIC.gram,), (0,), False),
}

# arguments that are wrong whatever is expected: scalars, None, empty and
# 0 x 0 arrays, ragged lists, dicts, strings, objects and huge integers
UNFIT = [None, 0.5, 0, True, 1 + 2j, np.nan, np.inf, -np.inf, "ab", "1", {}, {"a": 1},
         object(), [], (), np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0, 0)),
         np.zeros((1, 0, 0)), [[1, 2], [3]], [[[1]], [[1, 2]]], [object()], [[object()]],
         [["a"]], [None], [[None]], np.ones((2, 2, 2, 2)), 10 ** 400, [10 ** 400]]
ENTRIES = [np.nan, np.inf, -np.inf, 1e-3j, complex(0, np.nan)]


def _with_entry(a, index, entry):
    b = a.astype(np.result_type(a, type(entry)))
    b.flat[index] = entry
    return b


@st.composite
def bad_arguments(draw, valid):
    """A wrong value for an argument whose valid value is valid: an unfit
    value, the valid one with a non-finite or complex entry, of
    another rank or length, as bools, or cut ragged, or an iterator of
    its rows."""
    a = np.array(valid)
    return draw(st.sampled_from(UNFIT) | st.builds(
        _with_entry, st.just(a), st.integers(0, a.size - 1), st.sampled_from(ENTRIES))
        | st.sampled_from([a.ravel(), a[..., None], a[:-1], a[:1], a.astype(bool),
                           a.real, np.swapaxes(a, 0, -1), list(a[:-1]) + [np.eye(3)]])
        | st.builds(lambda: iter(list(a))))


@st.composite
def boundary_calls(draw):
    name = draw(st.sampled_from(sorted(BOUNDARIES)))
    fn, valid, positions, documents_value_error = BOUNDARIES[name]
    args = list(valid)
    for i in draw(st.lists(st.sampled_from(positions), min_size=1, unique=True)):
        args[i] = draw(bad_arguments(valid[i]))
    return name, fn, args, documents_value_error


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(boundary_calls())
def test_every_boundary_returns_or_raises_a_typed_error(call):
    name, fn, args, documents_value_error = call
    try:
        fn(*args)
    except MicLabError:
        pass
    except ValueError as exc:
        # numpy's LinAlgError subclasses ValueError, so the class is named exactly
        assert type(exc) is ValueError and documents_value_error, f"{name}: {exc!r}"


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_every_boundary_accepts_its_valid_arguments(name):
    fn, valid, _, _ = BOUNDARIES[name]
    fn(*valid)


# A finite entry so large that the result may overflow: purity_form's
# p @ G^-1 p and reconstruct_state's symmetrized sum then raise ValueError.
@pytest.mark.parametrize("name, position, entry", [
    (name, position, entry)
    for name in sorted(BOUNDARIES) for position in BOUNDARIES[name][2] for entry in (1e154, 1e308)])
def test_a_huge_finite_entry_is_returned_or_refused_with_a_typed_error(name, position, entry):
    fn, valid, _, documents_value_error = BOUNDARIES[name]
    args = list(valid)
    args[position] = _with_entry(np.array(valid[position]), 1, entry)
    try:
        fn(*args)
    except MicLabError:
        pass
    except ValueError as exc:
        assert type(exc) is ValueError and documents_value_error, f"{name}: {exc!r}"


@pytest.mark.parametrize("call", [
    lambda: purity_form(_with_entry(P, 1, 1e154), MIC.gram),
    lambda: purity_form(_with_entry(P, 1, 1e308), MIC.gram),
    lambda: reconstruct_state(_with_entry(P, 1, 1e308), MIC),
    lambda: reconstruct_state(np.full(4, 1.7e308), MIC),  # the einsum overflows, unflagged
], ids=["purity_form-1e154", "purity_form-1e308", "reconstruct_state-1e308",
        "reconstruct_state-all-1.7e308"])
def test_an_overflowing_result_raises_value_error_naming_it(call):
    with pytest.raises(ValueError, match="overflows float64") as info:
        call()
    assert info.type is ValueError
