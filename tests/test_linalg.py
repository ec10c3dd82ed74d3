import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miclab import errors
from miclab.config import ToleranceConfig
from miclab.errors import NonFinite, NotHermitian, ShapeMismatch, SingularOperator
from miclab.linalg import (
    eigh,
    eigvalsh,
    hermiticity_defect,
    inv_sqrt_psd,
    numerical_rank,
)


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def test_eigh_sorted_and_reconstructs():
    rng = np.random.default_rng(3)
    h = random_hermitian(5, rng)
    w, v = eigh(h)
    assert np.all(np.diff(w) >= 0)
    assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-12


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_rejects_non_square():
    with pytest.raises(ShapeMismatch):
        eigvalsh(np.zeros((2, 3)))


def test_eigh_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(4)
    stack = np.array([random_hermitian(3, rng) for _ in range(5)])
    w, v = eigh(stack)
    for k, h in enumerate(stack):
        wk, vk = eigh(h)
        assert np.array_equal(w[k], wk)
        assert np.array_equal(v[k], vk)
    values, none = eigh(stack, vectors=False)
    assert none is None
    assert np.abs(values - w).max() < 1e-12
    assert np.array_equal(hermiticity_defect(stack),
                          [hermiticity_defect(h) for h in stack])


def test_eigh_names_the_first_faulty_matrix_of_a_stack():
    stack = np.array([np.eye(2)] * 4, dtype=complex)
    stack[2, 0, 1] = 1.0
    stack[3, 1, 1] = np.nan
    with pytest.raises(NotHermitian) as info:
        eigvalsh(stack)
    assert info.value.index == 2
    stack[1, 0, 0] = np.inf
    with pytest.raises(NonFinite) as info:
        eigvalsh(stack)
    assert info.value.index == 1


# one instance of every error class, with its own constructor arguments
ONE_OF_EACH_ERROR = [
    errors.MicLabError("base"),
    NotHermitian("defect", index=3),
    NotHermitian("defect"),
    errors.ConvergenceFailure("no convergence"),
    SingularOperator("singular"),
    ShapeMismatch("shape"),
    NonFinite(2),
    errors.NotPsd(1, -0.5),
    errors.SumNotIdentity(1e-3),
    errors.WrongCount(3, 4),
    errors.LinearlyDependent(3, 4),
    errors.LinearlyDependent(3, 4, "effect 2 has negligible weight"),
    errors.IllConditionedGram(1e13),
    errors.IllConditionedGram(1e9, "biorthogonality defect"),
    errors.InvalidState("state has trace 2"),
    errors.NotNormalized(0, 1.5),
    errors.DegenerateFiducial(1, 2, 1e-14),
    errors.NotSic(0.1),
    errors.BetaOutOfRange("beta"),
    errors.BetaZero("beta"),
    errors.EvenDimension("odd dimension required"),
    errors.EnvelopeExceeded(40, 32),
    errors.BiasedMic("biased"),
    errors.SingularConditionalMatrix(1e13),
    errors.SamplingExhausted("generic", 3, 100),
    errors.SamplingExhausted("generic", 3, 100, sample_index=7),
    errors.WrongDimension("d=3 only"),
]


def test_every_error_class_has_a_pickling_case():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.MicLabError)}
    assert classes == {type(exc) for exc in ONE_OF_EACH_ERROR}


def test_indexed_errors_survive_pickling():
    for exc in ONE_OF_EACH_ERROR:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.__dict__ == exc.__dict__


def test_inv_sqrt_psd_inverts_square_root():
    rng = np.random.default_rng(5)
    a = random_hermitian(4, rng)
    p = a @ a.conj().T + 0.1 * np.eye(4)
    r = inv_sqrt_psd(p)
    assert np.abs(r @ p @ r - np.eye(4)).max() < 1e-10


def test_inv_sqrt_psd_rejects_singular():
    with pytest.raises(SingularOperator):
        inv_sqrt_psd(np.diag([1.0, 0.0]))


def test_numerical_rank_with_relative_threshold():
    m = np.diag([1.0, 1e-3, 1e-12])
    assert numerical_rank(m) == 2
    # tighter tolerance picks up the small direction
    assert numerical_rank(m, ToleranceConfig(rank_tol=1e-13)) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_eigh_eigenvalues_match_trace_and_norm(d, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(d, rng)
    w = eigvalsh(h)
    assert w.sum() == pytest.approx(np.trace(h).real, abs=1e-10)
    assert (w ** 2).sum() == pytest.approx((np.abs(h) ** 2).sum(), abs=1e-10)
