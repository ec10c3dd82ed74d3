"""Text serialization for MIC documents, reports, and histogram tables.

All documents are JSON with a fixed float format: every float is written
as decimal scientific notation with 17 significant digits, which is
enough to round-trip IEEE doubles exactly, so gen/analyze pipelines are
byte-stable.  The stdlib json writer does not expose float formatting,
hence the small emitter here; anything it writes is plain JSON and reads
back with json.loads.  A list of numbers and strings is written on one
line, any other list and every dict one entry per line; negative zero is
written as zero, and a non-finite number raises ValueError.

The emitter dispatches on exact types first.  A Python float, int or str
is written directly.  A regular grid of Python floats, that is nested
lists of one length per level holding only floats (a flat float list,
or a MIC document's (N, d, d, 2) effects), is written through a layout:
the text the general path would write for that shape, with one %.16e
slot per float, filled by a single % call.  Everything else (bools,
None, arrays, tuples, numpy scalars, other registered numbers,
subclasses, ragged or empty lists) takes the general isinstance chain.
"""

from __future__ import annotations

import json
import math
import numbers
from itertools import chain

import numpy as np

from .config import DEFAULT_TOL, MAX_DIMENSION, ToleranceConfig
from .linalg import _as_array
from .povm import Mic, _real, mic_from_matrices

# The float format and its two rules.  format_float applies the rules to
# one number; _floats_text applies them to the text of many, and relies on
# two properties of this format: only the non-finite values ("inf", "nan")
# spell a letter n, and "-0." opens the mantissa of negative zero alone.
# A float layout's "%.16e" slots and _SCIENTIFIC format a float through the
# same CPython routine.  test_dumps_refuses_non_finite_numbers_anywhere and
# test_dumps_matches_the_reference_emitter hold the paths to the same output.
_SCIENTIFIC = "{:.16e}".format  # 17 significant digits
_NEGATIVE_ZERO, _ZERO = _SCIENTIFIC(-0.0), _SCIENTIFIC(0.0)


def format_float(x: float) -> str:
    """17 significant digits, exact double round trip.

    Negative zero is written as plain zero so that a serialize/parse/
    reserialize cycle is byte-stable (complex arithmetic flips zero
    signs freely).
    """
    x = float(x) + 0.0
    if not math.isfinite(x):
        raise ValueError(f"documents may not contain non-finite numbers, got {x}")
    return _SCIENTIFIC(x)


def _floats_text(text: str, floats) -> str:
    """Apply format_float's rules to text, which holds the _SCIENTIFIC forms of floats."""
    if "n" in text:
        for x in floats:
            format_float(x)  # raises for the first non-finite number
    return text.replace(_NEGATIVE_ZERO, _ZERO)


def _float_grid(seq: list):
    """(shape, leaves) if seq is a regular grid of Python floats, else None.

    Every level must hold only lists (exactly list) of one nonzero length,
    and the last level only floats (exactly float); leaves are the floats
    in row-major order.
    """
    shape = [len(seq)]
    while type(seq[0]) is list:
        n = len(seq[0])
        if not n or set(map(type, seq)) != {list} or set(map(len, seq)) != {n}:
            return None
        seq = list(chain.from_iterable(seq))
        shape.append(n)
    if set(map(type, seq)) != {float}:
        return None
    return shape, seq


def _float_layout(shape, indent: int) -> str:
    """The text _sequence writes for a float grid of this shape, one %.16e slot per float."""
    n = shape[0]
    if len(shape) == 1:
        return "[" + ", ".join(["%.16e"] * n) + "]"
    inner = " " * (indent + 2)
    row = inner + _float_layout(shape[1:], indent + 2)
    return "[\n" + ",\n".join([row] * n) + "\n" + " " * indent + "]"


def _sequence(seq: list, indent: int) -> str:
    """A list on one line if it holds only numbers and strings, else one entry per line."""
    if not seq:
        return "[]"
    grid = _float_grid(seq)
    if grid is not None:
        shape, leaves = grid
        return _floats_text(_float_layout(shape, indent) % tuple(leaves), leaves)
    if all(isinstance(v, (numbers.Number, str)) for v in seq):
        return "[" + ", ".join(dumps(v) for v in seq) + "]"
    inner = " " * (indent + 2)
    close = "\n" + " " * indent + "]"
    return "[\n" + ",\n".join(inner + dumps(v, indent + 2) for v in seq) + close


def dumps(doc, indent: int = 0) -> str:
    """Serialize a document (dicts, lists, numbers, strings, bools, None)."""
    kind = type(doc)
    if kind is float:
        return format_float(doc)
    if kind is int:
        return str(doc)
    if kind is str:
        return json.dumps(doc)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = " " * (indent + 2)
        items = (f'{inner}{json.dumps(str(k))}: {dumps(v, indent + 2)}'
                 for k, v in doc.items())
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(doc, (list, tuple, np.ndarray)):
        return _sequence(list(doc), indent)
    if isinstance(doc, (bool, np.bool_)):
        return "true" if doc else "false"
    if doc is None:
        return "null"
    if isinstance(doc, numbers.Integral):
        return str(int(doc))
    if isinstance(doc, numbers.Real):
        return format_float(doc)
    if isinstance(doc, str):
        return json.dumps(doc)
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def mic_to_document(mic: Mic) -> dict:
    """Plain-data form of a MIC: dimension plus effects as [re, im] grids."""
    m = mic.matrices()
    return {"dimension": mic.dim, "effects": np.stack([m.real, m.imag], axis=-1).tolist()}


def mic_from_document(doc: dict, tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Rebuild and fully validate a MIC from its document form.

    dimension must be a JSON integer in 2..MAX_DIMENSION and effects an
    (N, d, d, 2) array of numbers; anything else raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError("MIC document must be a mapping")
    try:
        d = doc["dimension"]
        effects = doc["effects"]
    except KeyError as exc:
        raise ValueError(f"malformed MIC document: {exc}") from exc
    if type(d) is not int or not 2 <= d <= MAX_DIMENSION:  # bool and float fail too
        raise ValueError(f"dimension must be an integer in 2..{MAX_DIMENSION}, got {d!r}")
    a = _as_array(effects, "malformed MIC document: effects", ValueError, dtype=None)
    if a.ndim != 4 or a.shape[1:] != (d, d, 2):
        raise ValueError(f"effects have shape {a.shape}, expected (N, {d}, {d}, 2)")
    # numpy reads a bool among numbers as 0 or 1; JSON arrays are lists, and
    # the (N, d, d, 2) shape above makes three flattenings reach every leaf
    if a.dtype.kind == "b" or isinstance(effects, list) and bool in set(map(
            type, chain.from_iterable(chain.from_iterable(chain.from_iterable(effects))))):
        raise ValueError("malformed MIC document: effects hold bool entries, not numbers")
    a = _real(a, "malformed MIC document: effects")
    # each [re, im] pair is read as the bytes of one complex number
    return mic_from_matrices(a.view(complex)[..., 0], tol)


def histogram_to_table(h) -> str:
    """Plot-ready bin table: kind, d, bin_left, bin_right, count."""
    lines = ["kind,d,bin_left,bin_right,count"]
    edges = h.edges()
    for k, count in enumerate(h.counts):
        left = format_float(float(edges[k]))
        right = format_float(float(edges[k + 1]))
        lines.append(f"{h.kind.value},{h.d},{left},{right},{int(count)}")
    return "\n".join(lines) + "\n"


def write_document(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc) + "\n")


def read_document(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
