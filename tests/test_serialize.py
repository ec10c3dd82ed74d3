"""Byte-stable serialization of MIC documents and histogram tables."""

import argparse
import json
import numbers
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from miclab import cli
from miclab.config import DEFAULT_TOL
from miclab.constructions import mic_from_psd_basis, sic_mic, sic_qubit
from miclab.ensembles import MicKind, spectra_study
from miclab.errors import MicLabError
from miclab.povm import Mic
from miclab.serialize import (
    dumps,
    format_float,
    histogram_to_table,
    mic_from_document,
    mic_to_document,
    read_document,
    write_document,
)


def test_format_float_round_trips_exactly():
    for x in (0.1, 1 / 3, 2 ** -52, 1e308, -1e-308, 123456.789):
        assert float(format_float(x)) == x


def test_format_float_canonicalizes_negative_zero():
    assert format_float(-0.0) == format_float(0.0)


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trip_property(x):
    assert float(format_float(x)) == x + 0.0


def test_dumps_handles_nested_structures():
    doc = {"a": [1, 2, 3], "b": {"c": 0.5, "flag": True, "none": None},
           "arr": np.array([1.0, 2.0])}
    text = dumps(doc)
    back = json.loads(text)
    assert back["a"] == [1, 2, 3]
    assert back["b"]["flag"] is True
    assert back["b"]["none"] is None
    assert back["arr"] == [1.0, 2.0]


def test_dumps_bool_not_confused_with_int():
    assert json.loads(dumps({"x": True}))["x"] is True
    assert json.loads(dumps({"x": 1}))["x"] == 1


# one document holding every leaf type the emitter writes
PINNED_DOC = {
    "float": 0.1,
    "negative_zero": -0.0,
    "subnormal": 5e-324,
    "np_float64": np.float64(1 / 3),
    "np_float32": np.float32(0.1),
    "int": -7,
    "np_int64": np.int64(2 ** 40),
    "bool": True,
    "np_bool": np.bool_(False),
    "none": None,
    "text": 'say "hé"',
    "tuple": (1, -2.5),
    "empty_list": [],
    "empty_dict": {},
    "array": np.array([[1.0, -0.0], [2.5e-300, -3.0]]),
    "mixed": [1, 0.5, "a", True, np.float32(2.0)],
    "nested": [{"pairs": [[0.25, -0.0], [1.0, 2.0]]}, [None, 3], [[]]],
}
PINNED_TEXT = """{
  "float": 1.0000000000000001e-01,
  "negative_zero": 0.0000000000000000e+00,
  "subnormal": 4.9406564584124654e-324,
  "np_float64": 3.3333333333333331e-01,
  "np_float32": 1.0000000149011612e-01,
  "int": -7,
  "np_int64": 1099511627776,
  "bool": true,
  "np_bool": false,
  "none": null,
  "text": "say \\"h\\u00e9\\"",
  "tuple": [1, -2.5000000000000000e+00],
  "empty_list": [],
  "empty_dict": {},
  "array": [
    [1.0000000000000000e+00, 0.0000000000000000e+00],
    [2.5000000000000000e-300, -3.0000000000000000e+00]
  ],
  "mixed": [1, 5.0000000000000000e-01, "a", true, 2.0000000000000000e+00],
  "nested": [
    {
      "pairs": [
        [2.5000000000000000e-01, 0.0000000000000000e+00],
        [1.0000000000000000e+00, 2.0000000000000000e+00]
      ]
    },
    [
      null,
      3
    ],
    [
      []
    ]
  ]
}"""


def test_dumps_writes_every_leaf_type_byte_for_byte():
    assert dumps(PINNED_DOC) == PINNED_TEXT


def test_dumps_writes_a_str_subclass_as_a_string():
    class Name(str):
        pass

    assert dumps(Name('a"b')) == '"a\\"b"'
    assert dumps({"k": [Name("v")]}) == '{\n  "k": ["v"]\n}'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("place", [
    lambda x: x,
    lambda x: [0.5, x],
    lambda x: [[0.5, -0.0], [1.0, x]],
    lambda x: {"a": [[[0.5, x]]]},
    lambda x: [1, "a", x],
    lambda x: np.array([[0.5, x]]),
    lambda x: [x, 0.5, -x],
    lambda x: [[0.5, -0.0], [x], [-x, x]],
    lambda x: [[[[0.5, -0.0], [1.0, 2.0]]] * 2, [[[0.5, 0.5], [0.25, 0.5]], [[1.0, 0.0], [0.0, x]]]],
])
def test_dumps_refuses_non_finite_numbers_anywhere(bad, place):
    """Every path refuses the first non-finite number with format_float's message."""
    with pytest.raises(ValueError, match=f"non-finite numbers, got {bad}$"):
        dumps(place(bad))


@pytest.mark.parametrize("bad", [1j, np.complex128(1), object(), [0.5, 1j], {"a": [object()]},
                                 np.array(0.5)])
def test_dumps_refuses_what_json_cannot_hold(bad):
    with pytest.raises(TypeError):
        dumps(bad)


def reference_format_float(x: float) -> str:
    """The emitter's first format_float, kept as the oracle."""
    x = float(x) + 0.0
    if not np.isfinite(x):
        raise ValueError(f"documents may not contain non-finite numbers, got {x}")
    return f"{x:.16e}"


def reference_dumps(doc, indent: int = 0) -> str:
    """The emitter's first recursive dumps, kept verbatim as the oracle."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = (f'{inner}{json.dumps(str(k))}: {reference_dumps(v, indent + 2)}'
                 for k, v in doc.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple, np.ndarray)):
        seq = list(doc)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (numbers.Number, str)) for v in seq)
        if flat:
            return "[" + ", ".join(reference_dumps(v) for v in seq) + "]"
        items = (inner + reference_dumps(v, indent + 2) for v in seq)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(doc, (bool, np.bool_)):
        return "true" if doc else "false"
    if doc is None:
        return "null"
    if isinstance(doc, numbers.Integral):
        return str(int(doc))
    if isinstance(doc, numbers.Real):
        return reference_format_float(doc)
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"cannot serialize {type(doc).__name__}")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
LEAVES = (FINITE | st.just(-0.0) | st.integers() | st.booleans() | st.none() | st.text(max_size=4)
          | FINITE.map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
SMALL_ARRAYS = (
    st.lists(st.lists(FINITE, min_size=1, max_size=3), min_size=1, max_size=3)
    .filter(lambda rows: len({len(r) for r in rows}) == 1).map(np.array)
    | st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=4).map(lambda v: np.array(v, dtype=np.int64))
    | st.lists(FINITE, min_size=1, max_size=4).map(np.array)
    | st.lists(st.booleans(), min_size=1, max_size=3).map(np.array))
DOCUMENTS = st.recursive(
    LEAVES | SMALL_ARRAYS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=24)
# rows of flat float lists, some with -0.0, and ragged or empty ones among them
FLOAT_ROWS = st.lists(st.lists(st.lists(FINITE | st.just(-0.0), max_size=3), max_size=3),
                      min_size=1, max_size=3)


def float_grids(shape):
    """Regular nested lists of floats of this shape."""
    grid = FINITE | st.just(-0.0)
    for n in reversed(shape):
        grid = st.lists(grid, min_size=n, max_size=n)
    return grid


# the shape a MIC document's effects take: (N, d, d, 2)
FLOAT_GRIDS = st.tuples(*[st.integers(1, 3)] * 4).flatmap(float_grids)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS | FLOAT_ROWS | FLOAT_GRIDS)
@example([[[1.0, -0.0], [0.5, 2.0]], [[], [3.0]]])
@example([[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]])  # as many leaves as a 3 x 2 grid
@example([[1.0, 2.0], (3.0, 4.0)])
@example([[1.0, 2.0], [3.0, 4]])
@example([[[0.5, -0.0], []], [[1.0, 2.0], [3.0, 4.0]]])
@example({"a": [[0.5, 1], [2.0, 3.0]], "b": [[True, 0.5]]})
@example([-0.0, 5e-324, -5e-324, -1e-300, 0.0, -0.0])
def test_dumps_matches_the_reference_emitter(doc):
    assert dumps(doc) == reference_dumps(doc)


def test_mic_document_round_trip_is_byte_identical():
    mic = sic_qubit()
    doc = mic_to_document(mic)
    text1 = dumps(doc)
    rebuilt = mic_from_document(json.loads(text1))
    assert np.array_equal(rebuilt.matrices(), mic.matrices())
    text2 = dumps(mic_to_document(rebuilt))
    assert text1 == text2


def test_mic_document_round_trip_random_mic():
    rng = np.random.default_rng(6)
    ops = []
    for _ in range(9):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ops.append(a @ a.conj().T)
    mic = mic_from_psd_basis(ops)
    text1 = dumps(mic_to_document(mic))
    text2 = dumps(mic_to_document(mic_from_document(json.loads(text1))))
    assert text1 == text2


# the dimensions each gen kind is built at here, and its own parameters
GEN_DIMENSIONS = {"appleby": (3, 5, 7), "example7": (3,), "tensorhedron": (2, 3)}


@st.composite
def gen_requests(draw):
    kind = draw(st.sampled_from(cli.GEN_KINDS + tuple(f"random:{k.value}" for k in MicKind)))
    d = draw(st.sampled_from(GEN_DIMENSIONS.get(kind, (2, 3, 4, 5))))
    # beta in [-1/(d - 1), 1] away from 0, where the effects become dependent
    beta = draw(st.floats(-1 / (d - 1), -1e-3) | st.floats(1e-3, 1.0))
    return argparse.Namespace(kind=kind, d=d, n=2 if d == 3 else draw(st.sampled_from((2, 3))),
                              seed=draw(st.integers(0, 2**32 - 1)), beta=beta,
                              t=draw(st.floats(1e-3, 0.999)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gen_requests())
def test_gen_documents_read_back_to_the_same_effects(args):
    mic = cli._GEN_DISPATCH[args.kind](args, DEFAULT_TOL)
    back = mic_from_document(json.loads(dumps(mic_to_document(mic))))
    # the same bits in every entry, once each -0.0 becomes the 0.0 that
    # format_float writes for it
    assert back.dim == mic.dim
    assert back.matrices().tobytes() == (mic.matrices() + 0.0).tobytes()


def test_mic_from_document_rejects_malformed():
    with pytest.raises(ValueError):
        mic_from_document({"effects": []})
    with pytest.raises(ValueError):
        mic_from_document({"dimension": 2, "effects": [[[0.5, 0.0]]]})
    with pytest.raises(ValueError):
        mic_from_document([1, 2, 3])
    # only JSON numbers are read
    for entry in ("1.0", True, None):
        grid = [[[entry, 0], [0, 0]], [[0, 0], [0.5, 0]]]
        with pytest.raises(ValueError, match="not numbers"):
            mic_from_document({"dimension": 2, "effects": [grid]})
    # the bool check reaches the last leaf of a full document
    doc = mic_to_document(sic_mic(5))
    doc["effects"][-1][-1][-1][-1] = True
    with pytest.raises(ValueError, match="effects hold bool entries, not numbers"):
        mic_from_document(doc)


def test_mic_from_document_requires_dimension_two_or_more():
    # the one-effect d = 1 "MIC" is refused before any check runs
    for d in (0, 1, 33):
        with pytest.raises(ValueError, match="dimension must be an integer in 2..32"):
            mic_from_document({"dimension": d, "effects": [[[[1.0, 0.0]]]]})


# what json.loads can return: 1e400 reads as inf and NaN as nan
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
                | st.floats() | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)


def effect_grids(d):
    """Lists of d x d grids of [re, im] pairs, the shape a document holds."""
    pair = st.lists(JSON_SCALARS | st.floats(-1, 1), min_size=2, max_size=2)
    grid = st.lists(st.lists(pair, min_size=d, max_size=d), min_size=d, max_size=d)
    return st.lists(grid, min_size=1, max_size=d * d)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3) | JSON_VALUES, JSON_VALUES | st.integers(2, 3).flatmap(effect_grids))
# finite entries whose A - A^dagger or whose effect sum overflows: a typed
# error and no RuntimeWarning
@example(1, [[[[0, 8.98846567431158e+307]]]])
@example(2, [[[[0, 8.98846567431158e+307], [0, 0]], [[0, 0], [0, 0]]]])
@example(2, [[[[1e308, 0], [0, 0]], [[0, 0], [0, 0]]]] * 2)
def test_mic_from_document_raises_only_typed_errors(dimension, effects):
    try:
        assert isinstance(mic_from_document({"dimension": dimension, "effects": effects}), Mic)
    except (ValueError, MicLabError):
        pass


def test_histogram_table_shape():
    h = spectra_study(MicKind.GENERIC_PSD, 2, 10, Fraction(1, 200), seed=0)
    table = histogram_to_table(h)
    lines = table.strip().split("\n")
    assert lines[0] == "kind,d,bin_left,bin_right,count"
    assert len(lines) == 1 + len(h.counts)
    first = lines[1].split(",")
    assert first[0] == "generic"
    assert int(first[1]) == 2
    assert float(first[2]) == 0.0
    assert table.endswith("\n")


def test_write_and_read_document(tmp_path):
    path = tmp_path / "mic.json"
    doc = mic_to_document(sic_qubit())
    write_document(path, doc)
    assert read_document(path) == json.loads(dumps(doc))
