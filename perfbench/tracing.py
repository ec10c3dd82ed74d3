"""Per-layer tracing by wrapping miclab's public functions.

The layers are miclab's modules.  Modules bind names with
`from .x import y`, so every module holding a reference to a function
gets the same wrapper; patching the defining module alone would miss
those calls.  A wrapper records calls, raised exceptions and self time
(its duration minus the time spent in wrapped children), and counts the
construction calls random_mic makes.  A call of a function from inside
itself is folded into the outer call, which keeps the recursive
serialize.dumps at one span per document.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = ("linalg", "povm", "constructions", "ensembles", "analysis", "serialize", "cli")
# per-element helpers whose cost stays inside their caller's self time
UNWRAPPED = {"linalg.hermiticity_defect", "serialize.format_float"}
# Layers of which only these functions are wrapped.  In cli, main's self
# time then holds the parser, the cmd_* handlers' own work (report entries,
# Phi column sums, output) and everything else the CLI adds to the library.
ONLY = {"cli": {"main"}}
# random_mic's calls of these, over its accepted samples, are the
# attempts per sample
ATTEMPTS = ("constructions.wh_mic", "constructions.mic_from_psd_basis")

# Functions reported as <key>.calls_per_op and <key>.self_us.
REPORTED = (
    "linalg.eigh", "linalg.numerical_rank", "linalg.inv_sqrt_psd",
    "povm.validate_povm", "povm.gram", "povm.validate_mic", "povm.dual_basis",
    "povm.born_probabilities", "povm.reconstruct_state", "povm.purity_form",
    "constructions.wh_mic", "constructions.mic_from_psd_basis",
    "ensembles.random_mic",
    "analysis.unbiased_equivalence_report", "analysis.dual_indefiniteness",
    "analysis.orthogonal_pairs", "analysis.frobenius_orthogonality_gap",
    "analysis.inv_gram_distance", "analysis.group_covariance_check",
    "analysis.phi_matrix",
    "serialize.mic_to_document", "serialize.dumps", "serialize.write_document",
    "serialize.read_document", "serialize.mic_from_document",
    "cli.main",
)
UNITS = {"calls_per_op": "count", "self_us": "us"}
# Metrics computed from the counters rather than read off one function.
DERIVED = {"ensembles.attempts_per_sample": "count",
           "ensembles.spectra_study.self_us_per_sample": "us",
           "serialize.bytes_per_doc": "bytes",
           "trace.overhead_ratio": "ratio"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [(f"{key}.{kind}", UNITS[kind]) for key in REPORTED for kind in UNITS]
    return out + list(DERIVED.items())


class Tracer:
    """Wraps the layers' public functions while installed."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, raised, self_s]
        self.attempts = 0  # ATTEMPTS calls made directly by random_mic
        self._stack: list[list] = [[None, 0.0]]  # [key, time in wrapped children]
        self._patched: list[tuple] = []

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0, 0.0])
        stack, clock = self._stack, time.perf_counter
        attempt = key in ATTEMPTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1]
            if caller[0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[1] += 1
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[2] += elapsed - frame[1]
                caller[1] += elapsed
                if attempt and caller[0] == "ensembles.random_mic":
                    self.attempts += 1

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"miclab.{layer}")
            for name, obj in vars(mod).items():
                key = f"{layer}.{name}"
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and key not in UNWRAPPED
                        and name in ONLY.get(layer, (name,))):
                    wrappers[obj] = self._wrap(key, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "miclab" and not modname.startswith("miclab."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def remove(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def per_layer(self, ops: int, samples: int, doc_bytes: int, docs: int,
                  overhead_ratio: float, speed: float) -> dict:
        """Per-layer metrics over `ops` traced operations.

        Self times are multiplied by `speed`, the traced passes' calibrated
        over measured seconds, so they are in the same reference seconds as
        the end-to-end times.
        """
        metrics = {}
        for key in REPORTED:
            calls, _, self_s = self.stats.get(key, [0, 0, 0.0])
            metrics[f"{key}.calls_per_op"] = calls / ops
            metrics[f"{key}.self_us"] = self_s * speed / ops * 1e6
        calls, raised, _ = self.stats.get("ensembles.random_mic", [0, 0, 0.0])
        accepted = calls - raised
        metrics["ensembles.attempts_per_sample"] = (self.attempts / accepted
                                                    if accepted else 0.0)
        study_s = self.stats.get("ensembles.spectra_study", [0, 0, 0.0])[2]
        metrics["ensembles.spectra_study.self_us_per_sample"] = (
            study_s * speed / samples * 1e6 if samples else 0.0)
        metrics["serialize.bytes_per_doc"] = doc_bytes / docs if docs else 0.0
        metrics["trace.overhead_ratio"] = overhead_ratio
        return metrics

