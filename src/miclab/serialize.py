"""Text serialization for MIC documents, reports, and histogram tables.

All documents are JSON with a fixed float format: every float is written
as decimal scientific notation with 17 significant digits, which is
enough to round-trip IEEE doubles exactly, so gen/analyze pipelines are
byte-stable.  The stdlib json writer does not expose float formatting,
hence the small emitter here; anything it writes is plain JSON and reads
back with json.loads.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from .config import DEFAULT_TOL, MAX_DIMENSION, ToleranceConfig
from .povm import Mic, mic_from_matrices


def format_float(x: float) -> str:
    """17 significant digits, exact double round trip.

    Negative zero is written as plain zero so that a serialize/parse/
    reserialize cycle is byte-stable (complex arithmetic flips zero
    signs freely).
    """
    x = float(x) + 0.0
    if not np.isfinite(x):
        raise ValueError(f"documents may not contain non-finite numbers, got {x}")
    return f"{x:.16e}"


def dumps(doc, indent: int = 0) -> str:
    """Serialize a document (dicts, lists, numbers, strings, bools, None)."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = (f'{inner}{json.dumps(str(k))}: {dumps(v, indent + 2)}'
                 for k, v in doc.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple, np.ndarray)):
        seq = list(doc)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (numbers.Number, str)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        items = (inner + dumps(v, indent + 2) for v in seq)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
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
    try:
        a = np.asarray(effects)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed MIC document: {exc}") from exc
    if a.dtype.kind not in "iuf":  # strings, bools, nulls and objects are not numbers
        raise ValueError(f"malformed MIC document: effects hold {a.dtype} entries, not numbers")
    if a.ndim != 4 or a.shape[1:] != (d, d, 2):
        raise ValueError(f"effects have shape {a.shape}, expected (N, {d}, {d}, 2)")
    # numpy reads a bool among numbers as 0 or 1; JSON arrays are lists
    if isinstance(effects, list) and any(
            type(x) is bool for grid in effects for row in grid for pair in row for x in pair):
        raise ValueError("malformed MIC document: effects hold bool entries, not numbers")
    a = a.astype(float)
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
