import pathlib
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miclab import analysis, ensembles, errors, linalg, povm
from miclab.config import DEFAULT_TOL, ToleranceConfig
from miclab.constructions import sic_mic, sic_qubit
from miclab.errors import (
    ConvergenceFailure,
    InvalidState,
    NonFinite,
    NotHermitian,
    NotNormalized,
    ShapeMismatch,
    SingularOperator,
)
from miclab.linalg import (
    _cond,
    _einsum,
    _factors,
    _lapack,
    _quietly,
    _rounding,
    eigh,
    eigvalsh,
    hermiticity_defect,
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


def test_finite_matrix_whose_adjoint_difference_overflows_is_not_hermitian():
    # A - A^dagger overflows on the diagonal: defect inf, and no RuntimeWarning
    a = np.array([[8.98846567431158e307j, 0.0], [0.0, 0.0]])
    assert hermiticity_defect(a) == np.inf
    assert hermiticity_defect(np.array([a, np.eye(2)])).tolist() == [np.inf, 0.0]
    with pytest.raises(NotHermitian):
        eigvalsh(a)
    for bad in (np.nan, np.inf):
        assert hermiticity_defect(np.array([[bad, 0.0], [0.0, 1.0]])) == np.inf


def test_numerical_rank_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((5, 4, 4))
    stack[1, 3] = stack[1, 2]  # rank 3
    stack[2] = 0.0  # rank 0
    stack[3] = np.diag([1.0, 1e-3, 1e-12, 0.0])  # rank 2
    ranks = numerical_rank(stack)
    assert ranks.tolist() == [numerical_rank(m) for m in stack] == [4, 3, 0, 2, 4]
    assert numerical_rank(stack.reshape(5, 2, 8)).shape == (5,)
    with pytest.raises(ShapeMismatch):
        numerical_rank(np.ones(3))


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


@pytest.mark.parametrize("n", [2, 5, 25, 32])
def test_lapack_rounding_stays_within_its_allowance(n):
    # _rounding(n) = 48 n^2 u grants 16 n^2 u ||A||_F to eigvalsh and to
    # svdvals, and 8 (n + 1) u tr(A) to a completed Cholesky factorization;
    # the errors measured on matrices of known spectrum stay within them
    u = np.finfo(float).eps / 2
    assert _rounding(n) == 48 * n * n * u
    rng = np.random.default_rng(n)
    for _ in range(10):
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        w = np.sort(rng.uniform(-1, 1, n) * np.logspace(0, -8, n))
        h = (q * w) @ q.conj().T
        h = (h + h.conj().T) / 2
        assert np.abs(np.linalg.eigvalsh(h) - w).max() <= 16 * n * n * u * np.linalg.norm(h)
        o = np.linalg.qr(rng.standard_normal((n, n)))[0]
        s = np.logspace(0, -8, n)
        g = (o * s) @ o.T
        assert np.abs(np.linalg.svdvals(g) - s).max() <= 16 * n * n * u * np.linalg.norm(g)
        a = (q * (np.abs(w) + 1e-3)) @ q.conj().T
        a = (a + a.conj().T) / 2
        r = np.linalg.cholesky(a)
        assert np.linalg.norm(r @ r.conj().T - a, 2) <= 8 * (n + 1) * u * np.trace(a).real


# ------------------------------------------------------- the LAPACK entry point

def _stacks(dtype, rng):
    """Matrices of dtype: a stack, a single matrix, and two non-contiguous
    views (every other row and column of a larger stack, and a transpose)."""
    def draw(*shape):
        a = rng.standard_normal(shape)
        return (a + 1j * rng.standard_normal(shape) if dtype == complex else a).astype(dtype)
    return [draw(3, 4, 4), draw(5, 5), draw(2, 8, 8)[:, ::2, ::2], draw(4, 4, 3, 3).mT]


def _positive(a):
    return a @ a.conj().mT + a.shape[-1] * np.eye(a.shape[-1])


ENTRY_POINT = {
    "eigvalsh": (lambda a: (a,), np.linalg.eigvalsh),
    "eigh": (lambda a: (a,), np.linalg.eigh),
    "svdvals": (lambda a: (a[..., 1:, :],), np.linalg.svdvals),  # (..., m, n), m < n
    "cholesky": (lambda a: (_positive(a),), np.linalg.cholesky),
    "solve1": (lambda a: (a, a[(0,) * (a.ndim - 2)][0].copy()), np.linalg.solve),
    "inv": (lambda a: (a,), np.linalg.inv),
}


def _same_bits(got, want):
    got = got if isinstance(got, tuple) else (got,)
    want = tuple(want) if isinstance(want, tuple) else (want,)
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want))


def test_entry_point_routes_every_lapack_call():
    assert sorted(linalg._ROUTINES) == sorted(ENTRY_POINT)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("name", sorted(ENTRY_POINT))
def test_entry_point_gives_numpys_bits(name, dtype):
    args, public = ENTRY_POINT[name]
    for a in _stacks(dtype, np.random.default_rng(len(name))):
        x = args(a)
        assert _same_bits(_lapack(name, *x), public(*x)), (name, a.shape, a.strides)


@pytest.mark.parametrize("dtype", [int, bool, np.float32, np.complex64, float, complex])
def test_entry_point_keeps_numpys_casting(dtype):
    # numerical_rank reads its argument with numpy's dtype: ints and bools
    # are factored as float64, and single precision comes back single
    rng = np.random.default_rng(3)
    a = (rng.standard_normal((3, 4, 4)) * 3).astype(dtype)
    a[1, 3] = a[1, 2]
    s = _lapack("svdvals", a)
    assert _same_bits(s, np.linalg.svdvals(a))
    assert numerical_rank(a).tolist() == np.count_nonzero(s > 1e-10 * s[:, :1], axis=1).tolist()


@pytest.mark.parametrize("dtype", [np.float16, np.longdouble])
def test_entry_point_refuses_what_numpy_refuses(dtype):
    with pytest.raises(TypeError, match=f"array type {np.dtype(dtype).name} is unsupported in linalg"):
        numerical_rank(np.eye(2, dtype=dtype))


@pytest.mark.parametrize("a", [np.diag([1.0, 1e-13]), np.zeros((2, 2)), np.ones((3, 3)),
                               np.array([[1.0, 2.0], [3.0, 4.0]]), np.diag([2.0, 1.0, 0.5])])
def test_entry_point_condition_number_is_numpys(a):
    assert np.float64(_cond(a)).tobytes() == np.linalg.cond(a).tobytes()


def _failing(a, *b, signature):
    # what numpy's gufuncs do where LAPACK fails: raise the invalid flag
    return np.sqrt(np.full(a.shape[:-1], -1.0))


def _fail(monkeypatch, name):
    _, real, complex_ = linalg._ROUTINES[name]
    monkeypatch.setitem(linalg._ROUTINES, name,
                        linalg._routine(_failing, real, complex_, f"{name} did not converge"))


def test_entry_point_cholesky_failure_is_no_factorization(monkeypatch):
    assert _factors(np.eye(3)[None]) and not _factors(np.array([np.eye(2), -np.eye(2)]))
    _fail(monkeypatch, "cholesky")
    assert not _factors(np.eye(3)[None])


def _refused_row_spectra(mic, monkeypatch):
    # a batch that refuses its every row, whose redraws are all mic
    monkeypatch.setattr(ensembles, "_orbit_spectrum",
                        lambda rho: (np.zeros((len(rho), 4)), np.zeros(len(rho), dtype=bool)))
    monkeypatch.setattr(ensembles, "random_mic", lambda kind, d, rng: mic)
    return ensembles._block_spectra(ensembles.MicKind.WH_RANK1, 2, 0, 3, 11)


def _purity_form(mic, monkeypatch):
    monkeypatch.setattr(povm, "_PASSED", [(None, 0.0)])
    return povm.purity_form(np.full(4, 0.25), mic.gram)


def _warm_purity_form(mic, monkeypatch):
    povm._gram_condition(mic.gram)  # the gate passes before the solve fails
    return povm.purity_form(np.full(4, 0.25), mic.gram)


def _inv_gram_distance(mic, monkeypatch):
    mic._inverse_gram  # inverted before the eigvalsh fails
    return analysis.inv_gram_distance(mic)


@pytest.mark.parametrize("name, call", [
    ("eigvalsh", lambda mic, m: povm.born_probabilities(np.eye(2) / 2, mic)),
    ("svdvals", _purity_form),
    ("solve1", _warm_purity_form),
    ("inv", lambda mic, m: povm.dual_basis(mic)),
    ("svdvals", lambda mic, m: analysis.phi_matrix(mic, mic.matrices() / mic.weights()[:, None, None])),
    ("inv", lambda mic, m: analysis.phi_matrix(mic, mic.matrices() / mic.weights()[:, None, None])),
    ("eigvalsh", _inv_gram_distance),
    ("eigvalsh", _refused_row_spectra),
], ids=["born_probabilities", "purity_form-gate", "purity_form-solve", "dual_basis",
        "phi_matrix-cond", "phi_matrix-inv", "inv_gram_distance", "spectra-refused-row"])
def test_entry_point_failure_surfaces_as_convergence_failure(name, call, monkeypatch):
    call(sic_qubit(), monkeypatch)  # each call runs through as it is
    mic = sic_qubit()  # built, with its own LAPACK calls, before the routine fails
    _fail(monkeypatch, name)
    with pytest.raises(ConvergenceFailure, match=f"^{name} did not converge$"):
        call(mic, monkeypatch)


# ------------------------------------------------ einsum and error states

SOURCES = sorted(pathlib.Path(linalg.__file__).parent.glob("*.py"))
EINSUM_CALL = re.compile(r'_einsum\(\s*"([^"]+)"')
SUBSCRIPTS = sorted({sub for path in SOURCES for sub in EINSUM_CALL.findall(path.read_text())})


def test_einsum_entry_point_sees_every_library_subscript():
    # every call names its subscripts as a literal, so SUBSCRIPTS holds them all
    texts = [path.read_text() for path in SOURCES]
    calls = sum(text.count("_einsum(") for text in texts)
    literal = sum(len(EINSUM_CALL.findall(text)) for text in texts)
    assert calls == literal == 13 and len(SUBSCRIPTS) == 9


def test_einsum_and_errstate_entry_points_are_the_only_ones():
    # acceptance.py's oracles keep numpy's public functions
    for path in SOURCES:
        if path.name != "acceptance.py":
            text = path.read_text()
            assert "np.einsum(" not in text and "np.errstate(" not in text, path.name


def _operands(subscripts, sizes, ellipsis, dtypes, layout, rng):
    ops = []
    for term, dtype in zip(subscripts.split("->")[0].split(","), dtypes):
        shape = (*(ellipsis if term.startswith("...") else ()),
                 *(sizes[c] for c in term.removeprefix("...")))
        grow = 2 if layout == "strided" else 1
        a = rng.standard_normal(tuple(grow * n for n in shape))
        if dtype == complex:
            a = a + 1j * rng.standard_normal(a.shape)
        a = a[tuple(slice(None, None, grow) for _ in shape)]  # every other entry on every axis
        ops.append(np.asfortranarray(a) if layout == "F" else a)
    return ops


@pytest.mark.parametrize("layout", ["C", "strided", "F"])
@pytest.mark.parametrize("dtypes", ["float", "complex", "mixed"])
@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
def test_einsum_entry_point_gives_numpys_bits(subscripts, dtypes, layout):
    # every letter at 2..4 and, one at a time, at 1 (a stack or a matrix of
    # one); "mixed" is a float first operand with complex others, as the
    # dual basis and reconstruct_state call it
    letters = sorted(set(subscripts) - set(",.->"))
    n_ops = subscripts.count(",") + 1
    kinds = {"float": [float] * n_ops, "complex": [complex] * n_ops,
             "mixed": [float] + [complex] * (n_ops - 1)}[dtypes]
    rng = np.random.default_rng(len(subscripts))
    base = {c: 2 + i % 3 for i, c in enumerate(letters)}
    for one in [None, *letters]:
        sizes = {**base, **({one: 1} if one else {})}
        for ellipsis in [(), (1,), (3, 2)]:
            ops = _operands(subscripts, sizes, ellipsis, kinds, layout, rng)
            assert _same_bits(_einsum(subscripts, *ops), np.einsum(subscripts, *ops)), \
                (sizes, ellipsis, [op.strides for op in ops])


def test_errstate_entry_point_ignores_every_error_and_restores_the_callers_state():
    with np.errstate(all="raise"):
        before = np.geterr()
        assert _quietly(np.geterr) == dict.fromkeys(before, "ignore")
        assert _quietly(np.divide, np.ones(2), 0.0).tolist() == [np.inf, np.inf]
        inner = _quietly(lambda: (_quietly(np.sqrt, -1.0), np.geterr()))  # nested
        assert np.isnan(inner[0]) and inner[1] == dict.fromkeys(before, "ignore")
        with pytest.raises(ZeroDivisionError):
            _quietly(lambda: 1 / 0)
        assert np.geterr() == before
        with pytest.raises(FloatingPointError):
            np.divide(1.0, 0.0)


def test_errstate_entry_point_does_not_read_the_callers_buffer_size():
    old = np.setbufsize(8192 * 2)
    try:
        assert _quietly(np.getbufsize) == 8192
    finally:
        np.setbufsize(old)


def test_errstate_entry_point_of_lapack_is_numpy_linalgs():
    # numpy.linalg calls its gufuncs with invalid="call", the call raising
    # its LinAlgError, and every other error ignored
    seen = linalg._routine(lambda *a, **k: (np.geterr(), np.geterrcall()), "d->d", "D->d", "failed")
    with np.errstate(all="raise"):
        state, call = seen[0](np.eye(2), signature="d->d")
    assert state == {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "call"}
    with pytest.raises(ConvergenceFailure, match="^failed$"):
        call("invalid value", 8)


HUGE = 1.7e308
NAN_STATE = np.array([[0.5, np.nan], [np.nan, 0.5]])


@pytest.mark.parametrize("call, outcome", [
    (lambda: povm._check_state(NAN_STATE, 2, DEFAULT_TOL), (InvalidState, "state has a non-finite entry")),
    (lambda: povm._check_state(np.diag([np.inf, 0.5]), 2, DEFAULT_TOL), (InvalidState, "non-finite")),
    (lambda: povm._check_state(np.array([[0.5, HUGE], [-HUGE, 0.5]]), 2, DEFAULT_TOL),
     (InvalidState, r"not Hermitian \(defect inf\)")),
    (lambda: povm._check_state(np.diag([HUGE, HUGE]), 2, DEFAULT_TOL), (InvalidState, r"trace \(inf\+0j\)")),
    (lambda: hermiticity_defect(NAN_STATE), np.inf),
    (lambda: hermiticity_defect(np.array([[0.0, HUGE], [-HUGE, 0.0]])), np.inf),
    (lambda: hermiticity_defect(np.array([NAN_STATE, np.eye(2)])).tolist(), [np.inf, 0.0]),
    (lambda: povm._psd(np.tile(np.diag([HUGE, 1.0]), (32, 1, 1)), 1e-10).all(), True),  # an inf norm
    (lambda: povm.purity_form(np.full(4, 1e200), sic_qubit().gram), (ValueError, "purity form overflows")),
    (lambda: povm.purity_form([0.25, np.nan, 0.25, np.inf], sic_qubit().gram), (NonFinite, "element 1 ")),
    (lambda: povm.reconstruct_state(np.full(4, HUGE), sic_qubit()), (ValueError, "operator overflows")),
    (lambda: povm.reconstruct_state([0.25, np.nan, 0.25, np.nan], sic_qubit()), (NonFinite, "element 1 ")),
    (lambda: povm.reconstruct_state([0.25, 0.25, np.inf, np.nan], sic_qubit()), (NonFinite, "element 2 ")),
    (lambda: povm.reconstruct_state([-np.inf, np.inf, 0.25, 0.25], sic_qubit()), (NonFinite, "element 0 ")),
    (lambda: povm.reconstruct_state(np.full(9, np.nan), sic_mic(3)), (NonFinite, "element 0 ")),
    (lambda: _cond(np.zeros((2, 2))), np.inf),
    (lambda: povm.validate_povm([np.diag([HUGE, 0.0])] * 2), (errors.SumNotIdentity, "deviates")),
    (lambda: povm._valid_states(np.array([np.diag([HUGE, HUGE]), np.eye(2) / 2]), DEFAULT_TOL).tolist(),
     [False, True]),
    (lambda: povm.rescaled_vector_gram([[HUGE, HUGE]], [1.0]), (NotNormalized, "norm inf")),
], ids=["check_state-nan", "check_state-inf", "check_state-defect-overflow", "check_state-trace-overflow",
        "hermiticity_defect-nan", "hermiticity_defect-overflow", "hermiticity_defect-stack",
        "psd-inf-norm", "purity_form-overflow", "purity_form-nan",
        "reconstruct_state-overflow", "reconstruct_state-nan-1-3", "reconstruct_state-inf-2-nan-3",
        "reconstruct_state-inf-0-1", "reconstruct_state-all-nan", "cond-zero", "effect-sum-overflow",
        "valid_states-trace-overflow", "unit-norm-overflow"])
def test_errstate_entry_point_boundaries_warn_nothing(call, outcome):
    # with every warning an error, each boundary returns or raises as it
    # did under np.errstate: a floating-point warning would raise instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(outcome, tuple):
            with pytest.raises(outcome[0], match=outcome[1]):
                call()
        else:
            assert call() == outcome
