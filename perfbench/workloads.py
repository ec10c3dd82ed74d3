"""The four benchmark workloads.

Each workload builds its fixed inputs from the workload seed in prepare(),
runs whole passes over them in run_pass(), and checks the outputs of one
pass in check().  Library calls go through module attributes (povm.gram,
not a name bound at import), so the traced run's wrappers see them.

Why these four:
* spectra-covariant: WH-orbit sampling, where validation and the orbit
  construction do most of the work;
* spectra-generic: the same study without the WH orbit, so a
  covariant-only change must leave it unmoved; squashing shows here;
* tomography: the only workload that reuses one MIC many times, so a
  cached dual basis shows here and nowhere else;
* documents: gen + analyze through the CLI, the only workload that
  reaches serialize, cli and most of analysis.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import calibrate
import checks
from miclab import cli, constructions, ensembles, povm
from miclab.errors import MicLabError

DIMS = (2, 3, 4, 5)
# samples 0, k, 2k, ... of each generic cell are also compared one by one
# with the program's own draws
GENERIC_SUBSET_STEP = 10
# Random MICs are drawn from this fixed seed, not the workload seed: about
# 0.2 % of seeded draws are refused by dual_basis (cond(G) near 1e8-1e9,
# biorthogonality defect above its absolute 1e-8 gate) and about 0.3 % of
# generic d = 4, 5 documents fail analyze's Phi gate, so seeded draws would
# make the failed share depend on the seed.  0 is the CLI's default seed.
FIXED_MIC_SEED = 0
# library failures an operation may end in; anything else is a crash
OP_ERRORS = (MicLabError, ValueError, np.linalg.LinAlgError)


def reference_bin(d: int) -> Fraction:
    """The study's reference bin widths: 1/198 at d = 3, 1/200 otherwise."""
    return Fraction(1, 198) if d == 3 else Fraction(1, 200)


@dataclass
class PassResult:
    """What one pass did.

    units holds one (d, operations, seconds, calibration seconds) entry per
    timed unit, the calibration time being the mean of the chunks that ran
    right before and right after the unit.  A new PassResult runs the chunk
    before the first unit, so create it just before timing starts.
    """

    ops: int = 0
    failed: int = 0
    units: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    doc_bytes: int = 0
    _last_chunk: float = field(default_factory=calibrate.chunk)

    def add(self, d: int, ops: int, seconds: float) -> None:
        """Record a unit; it is calibrated by the chunks just before and after it."""
        chunk = calibrate.chunk()
        self.units.append((d, ops, seconds, (self._last_chunk + chunk) / 2))
        self._last_chunk = chunk
        self.ops += ops

    def seconds(self, d: int | None = None) -> float:
        """Time of the pass (or of its units at dimension d) in reference seconds."""
        return sum(t * calibrate.REFERENCE_S / c
                   for dim, _, t, c in self.units if d is None or dim == d)

    def rate(self, d: int) -> float:
        """Operations per reference second on the inputs of dimension d."""
        return sum(n for dim, n, _, _ in self.units if dim == d) / self.seconds(d)


# ------------------------------------------------------------------ spectra

class Spectra:
    """spectra_study over (kind, d in 2..5); one operation is one sample.

    Each (kind, d) cell is one timed unit.  Samples per cell fall with d so
    that every cell takes about 0.1 s.
    """

    covariant_kinds = ("wh", "wh-rank1")
    samples = {2: 240, 3: 150, 4: 100, 5: 60}

    def __init__(self, kinds: tuple):
        self.kinds = kinds

    def prepare(self, seed: int, workdir: str | None = None) -> dict:
        # first use fills the displacement bases and numpy's code paths
        for kind in self.kinds:
            for d in DIMS:
                ensembles.spectra_study(kind, d, 1, reference_bin(d), seed)
        return {"seed": seed}

    def run_pass(self, state: dict) -> PassResult:
        res = PassResult()
        clock = time.perf_counter
        for kind in self.kinds:
            for d in DIMS:
                t0 = clock()
                try:
                    hist = ensembles.spectra_study(kind, d, self.samples[d],
                                                   reference_bin(d), state["seed"],
                                                   workers=1)
                    counts = hist.counts
                except OP_ERRORS:
                    counts = None
                    res.failed += self.samples[d]
                res.add(d, self.samples[d], clock() - t0)
                res.outputs.append(counts)
        return res

    def check(self, state: dict, res: PassResult) -> tuple[list, dict]:
        seed = state["seed"]
        errors, moved, ties = [], 0, 0
        cells = [(kind, d) for kind in self.kinds for d in DIMS]
        for (kind, d), counts in zip(cells, res.outputs):
            if counts is None:
                continue
            label = f"{kind} d={d}"
            n = self.samples[d]
            errors += checks.check_histogram(counts, n, d)
            if kind in self.covariant_kinds:
                oracle, cell_ties = checks.covariant_counts(kind, d, n, seed,
                                                           len(counts))
            else:
                mine = checks.generic_spectra(kind, d, n, seed)
                oracle, cell_ties = checks.bin_counts(np.concatenate(mine), d,
                                                      len(counts))
                picks = range(0, n, GENERIC_SUBSET_STEP)
                theirs = [np.linalg.eigvalsh(ensembles.random_mic(
                    kind, d, checks.substream(seed, i)).gram) for i in picks]
                errors += checks.check_samples(theirs, [mine[i] for i in picks], label)
            errs, cell_moved = checks.check_against_oracle(counts, oracle, cell_ties,
                                                           label)
            errors += errs
            moved += cell_moved
            ties += cell_ties
        return errors, {"edge_ties": ties, "moved_by_ties": moved}


# --------------------------------------------------------------- tomography

def _random_states(d: int, count: int, rng: np.random.Generator) -> list:
    """Alternately pure (Haar) and full-rank mixed (Ginibre) density matrices."""
    states = []
    for j in range(count):
        if j % 2 == 0:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rho = np.outer(v, v.conj())
        else:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        states.append((rho + rho.conj().T) / 2)
    return states


class Tomography:
    """Born probabilities, reconstruction and purity through fixed MICs.

    One operation is one state round trip; the states through one MIC
    form one timed unit.
    """

    states_per_mic = 100

    def prepare(self, seed: int, workdir: str | None = None) -> dict:
        mics = []
        for d in DIMS:
            mics.append((f"sic d={d}", constructions.sic_mic(d)))
            mics.append((f"orthocross d={d}", constructions.orthocross_mic(d)))
            if d % 2:
                mics.append((f"appleby d={d}", constructions.appleby_mic(d)))
            for k, kind in enumerate(ensembles.MicKind):
                rng = np.random.default_rng([FIXED_MIC_SEED, d, k])
                mics.append((f"random:{kind.value} d={d}",
                             ensembles.random_mic(kind, d, rng)))
        states = {d: _random_states(d, self.states_per_mic,
                                    np.random.default_rng([seed, 100 + d]))
                  for d in DIMS}
        return {"mics": mics, "states": states}

    def run_pass(self, state: dict) -> PassResult:
        res = PassResult()
        clock = time.perf_counter
        for _, mic in state["mics"]:
            d = mic.dim
            out = []
            t0 = clock()
            for rho in state["states"][d]:
                try:
                    p = povm.born_probabilities(rho, mic)
                    back = povm.reconstruct_state(p, mic)
                    out.append((p, back, povm.purity_form(p, mic.gram)))
                except OP_ERRORS:
                    out.append(None)
                    res.failed += 1
            res.add(d, len(out), clock() - t0)
            res.outputs.append(out)
        return res

    def check(self, state: dict, res: PassResult) -> tuple[list, dict]:
        errors = []
        for (label, mic), out in zip(state["mics"], res.outputs):
            effects = mic.matrices()
            for j, (rho, r) in enumerate(zip(state["states"][mic.dim], out)):
                if r is not None:
                    errors += [f"{label} state {j}: {e}"
                               for e in checks.check_round_trip(rho, effects, *r)]
        return errors, {}


# ---------------------------------------------------------------- documents

class Documents:
    """gen + analyze of every construction through miclab.cli.main.

    One operation is one document: gen writes it, analyze reads it back
    and runs all seven checks.  It fails if either exit code is nonzero.
    Each document is one timed unit.
    """

    def prepare(self, seed: int, workdir: str | None = None) -> dict:
        for d in DIMS:  # built-in fiducial checks and displacement bases
            constructions.sic_mic(d)
        docs = []  # (kind, document dimension, gen argv)
        for d in DIMS:
            dd = ["--d", str(d)]
            docs += [("sic", d, ["gen", "sic"] + dd),
                     ("wh", d, ["gen", "wh"] + dd),
                     ("orthocross", d, ["gen", "orthocross"] + dd),
                     ("equiangular", d, ["gen", "equiangular"] + dd + ["--beta", "0.5"]),
                     ("near-orthogonal", d, ["gen", "near-orthogonal"] + dd + ["--t", "0.9"])]
            docs += [(f"random:{kind.value}", d, ["gen", f"random:{kind.value}"] + dd)
                     for kind in ensembles.MicKind]
            if d % 2:
                docs.append(("appleby", d, ["gen", "appleby"] + dd))
            if d == 3:
                docs.append(("example7", 3, ["gen", "example7"]))
            if d == 4:
                docs.append(("tensorhedron", 4, ["gen", "tensorhedron", "--d", "2", "--n", "2"]))
        docs.append(("tensorhedron", 8, ["gen", "tensorhedron", "--d", "2", "--n", "3"]))
        return {"docs": docs, "workdir": workdir}

    def _paths(self, state: dict, j: int) -> tuple[str, str]:
        return (os.path.join(state["workdir"], f"doc-{j}.json"),
                os.path.join(state["workdir"], f"report-{j}.json"))

    def run_pass(self, state: dict) -> PassResult:
        res = PassResult()
        clock = time.perf_counter
        codes = []
        for j, (_, d, argv) in enumerate(state["docs"]):
            doc, report = self._paths(state, j)
            t0 = clock()
            gen_code = cli.main(argv + ["--out", doc])
            analyze_code = cli.main(["analyze", doc, "--out", report])
            res.add(d, 1, clock() - t0)
            codes.append((gen_code, analyze_code))
            res.failed += (gen_code, analyze_code) != (0, 0)
        # the files stay: the next pass writes over them, as a user
        # regenerating documents in place would
        for j, code in enumerate(codes):
            texts = [None, None]
            for i, path in enumerate(self._paths(state, j)):
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        texts[i] = fh.read()
            res.doc_bytes += len((texts[0] or "").encode())
            res.outputs.append((code, texts[0], texts[1]))
        return res

    def check(self, state: dict, res: PassResult) -> tuple[list, dict]:
        errors = []
        for (kind, d, argv), (codes, doc, report) in zip(state["docs"], res.outputs):
            if codes == (0, 0):
                errors += [f"{' '.join(argv)}: {e}"
                           for e in checks.check_document(kind, d, doc, report)]
        return errors, {}


WORKLOADS = {
    "spectra-covariant": Spectra(("wh", "wh-rank1")),
    "spectra-generic": Spectra(("generic", "generic-rank1")),
    "tomography": Tomography(),
    "documents": Documents(),
}
