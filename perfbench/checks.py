"""Correctness checks for the benchmark's outputs.

Every check compares a program output against a computation made here
with plain numpy, or against a property the paper proves for every MIC.
Each check returns a list of error strings; an empty list means the
output passed.  None of this code runs inside a timed region.
"""

from __future__ import annotations

import json
from math import sqrt

import numpy as np

from miclab import serialize

# Redraw rules of miclab.ensembles.random_mic, restated: a covariant draw is
# discarded when a displacement component is at most 1e-8 in magnitude, and
# any draw is discarded when its Gram matrix (or the generic kinds' input
# basis Gram matrix) has a singular value at most 1e-9 times the largest.
OVERLAP_TOL = 1e-8
RANK_TOL = 1e-9

# An eigenvalue this close to a bin edge may land on either side of it.
EDGE_TIE = 1e-9


# ------------------------------------------------------------------ draws

def _haar_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _gue_psd(d: int, rng: np.random.Generator) -> np.ndarray:
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / sqrt(2.0)
    diag = rng.standard_normal(d)
    m = (a + a.conj().T) / 2.0
    np.fill_diagonal(m, diag)
    p = m.conj().T @ m
    return (p + p.conj().T) / 2.0


def substream(seed: int, i: int) -> np.random.Generator:
    """The generator spectra_study uses for sample i."""
    return np.random.default_rng(np.random.SeedSequence([seed, i]))


def _full_rank(g: np.ndarray) -> bool:
    s = np.linalg.svd(g, compute_uv=False)
    return bool(s[-1] > RANK_TOL * s[0])


# -------------------------------------------------- covariant closed form

def displacement_ops(d: int) -> np.ndarray:
    """X^k Z^l for (k, l) row-major; the phases of D_kl do not enter |tr(D rho)|."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return np.array([np.linalg.matrix_power(x, k) @ np.linalg.matrix_power(z, l)
                     for k in range(d) for l in range(d)])


def covariant_spectrum(kind: str, d: int, rng: np.random.Generator,
                       ops: np.ndarray) -> np.ndarray:
    """Gram spectrum {|tr(D_kl^dagger rho)|^2 / d} of one WH-orbit draw."""
    while True:
        if kind == "wh-rank1":
            v = _haar_vector(d, rng)
            rho = np.outer(v, v.conj())
        else:
            p = _gue_psd(d, rng)
            rho = p / np.trace(p).real
        mag = np.abs(np.einsum("kba,ba->k", ops.conj(), rho))
        eigs = mag ** 2 / d
        if mag.min() > OVERLAP_TOL and eigs.min() > RANK_TOL * eigs.max():
            return eigs


def bin_counts(eigs: np.ndarray, d: int, n_bins: int) -> tuple[np.ndarray, int]:
    """Histogram as spectra_study bins it, plus the eigenvalues on a bin edge."""
    scaled = eigs * (n_bins * d)
    idx = np.clip(np.floor(scaled).astype(np.int64), 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    nearest = np.rint(scaled)
    ties = int(np.count_nonzero((np.abs(scaled - nearest) < EDGE_TIE * n_bins * d)
                                & (nearest > 0) & (nearest < n_bins)))
    return counts, ties


def covariant_counts(kind: str, d: int, n: int, seed: int,
                     n_bins: int) -> tuple[np.ndarray, int]:
    """Closed-form histogram of n covariant samples on the (seed, i) substreams."""
    ops = displacement_ops(d)
    eigs = np.concatenate([covariant_spectrum(kind, d, substream(seed, i), ops)
                           for i in range(n)])
    return bin_counts(eigs, d, n_bins)


# ---------------------------------------------------- generic squash oracle

def generic_spectrum(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    """Gram spectrum of one generic draw, squashed and diagonalized here."""
    n = d * d
    while True:
        if kind == "generic":
            basis = np.array([_gue_psd(d, rng) for _ in range(n)])
        else:
            vs = [_haar_vector(d, rng) for _ in range(n)]
            basis = np.array([np.outer(v, v.conj()) for v in vs])
        if not _full_rank(np.einsum("iab,jba->ij", basis, basis).real):
            continue
        w, v = np.linalg.eigh(basis.sum(axis=0))
        r = (v / np.sqrt(w)) @ v.conj().T
        effects = r @ basis @ r
        g = np.einsum("iab,jba->ij", effects, effects).real
        g = (g + g.T) / 2
        if _full_rank(g):
            return np.linalg.eigvalsh(g)


def generic_spectra(kind: str, d: int, n: int, seed: int) -> list:
    """Independently squashed spectra of n generic samples on the (seed, i) substreams."""
    return [generic_spectrum(kind, d, substream(seed, i)) for i in range(n)]


# ------------------------------------------------------------ spectra checks

def check_histogram(counts: np.ndarray, n: int, d: int) -> list[str]:
    """Total n d^2, and at least n counts in the last bin (lambda_max >= 1/d)."""
    errors = []
    total = int(np.sum(counts))
    if total != n * d * d:
        errors.append(f"d={d}: count total {total} != n d^2 = {n * d * d}")
    if int(counts[-1]) < n:
        errors.append(f"d={d}: last bin holds {int(counts[-1])} < n = {n}")
    return errors


def check_against_oracle(counts: np.ndarray, oracle: np.ndarray, ties: int,
                         label: str) -> tuple[list[str], int]:
    """Histogram equals the oracle's up to eigenvalues on a bin edge.

    Returns the errors and the number of counts that moved.
    """
    counts = np.asarray(counts)
    if counts.shape != oracle.shape:
        return [f"{label}: {counts.shape[0]} bins, oracle has {oracle.shape[0]}"], 0
    moved = int(np.abs(counts - oracle).sum()) // 2
    if moved > ties or int(counts.sum()) != int(oracle.sum()):
        return [f"{label}: {moved} counts differ from the oracle's, "
                f"only {ties} eigenvalues lie on a bin edge"], moved
    return [], moved


def check_samples(program_eigs: list, oracle_eigs: list, label: str) -> list[str]:
    """The program's Gram spectra of single samples equal the oracle's to 1e-10."""
    errors = []
    for j, (mine, theirs) in enumerate(zip(oracle_eigs, program_eigs)):
        dev = float(np.abs(np.asarray(mine) - np.asarray(theirs)).max())
        if dev > 1e-10:
            errors.append(f"{label}: sample {j} eigenvalues deviate by {dev:.2e}")
    return errors


# --------------------------------------------------------- tomography checks

def check_round_trip(rho: np.ndarray, effects: np.ndarray, p: np.ndarray,
                     rho_back: np.ndarray, purity: float) -> list[str]:
    """reconstruct(born(rho)) = rho, p_i = tr(rho E_i), purity form = tr rho^2."""
    errors = []
    direct = np.array([np.trace(rho @ e).real for e in effects])
    dev = float(np.abs(np.asarray(p) - direct).max())
    if dev > 1e-12:
        errors.append(f"Born probabilities deviate from tr(rho E_i) by {dev:.2e}")
    dev = float(np.abs(np.asarray(rho_back) - rho).max())
    if dev > 1e-8:
        errors.append(f"reconstructed state deviates by {dev:.2e}")
    exact = float(np.trace(rho @ rho).real)
    if abs(purity - exact) > 1e-8:
        errors.append(f"purity form {purity!r} != tr rho^2 = {exact!r}")
    return errors


# ----------------------------------------------------------- document checks

# Families whose effects all have weight 1/d.
UNBIASED = {"sic", "wh", "equiangular", "appleby", "tensorhedron", "example7",
            "random:wh", "random:wh-rank1"}
# Weyl-Heisenberg orbits and their tensor powers: every Gram row is a
# permutation of the first.
COVARIANT = {"sic", "wh", "appleby", "tensorhedron", "random:wh", "random:wh-rank1"}


def check_document(kind: str, d: int, doc: str, report: str) -> list[str]:
    """One successful gen + analyze: byte-stable round trip, report contents.

    A nonzero exit code is not checked here: the workload counts it as a
    failed operation.
    """
    errors = []
    parsed = json.loads(doc)
    if serialize.dumps(parsed) + "\n" != doc:
        errors.append("parsed document does not re-serialize byte for byte")
    rebuilt = serialize.mic_to_document(serialize.mic_from_document(parsed))
    if serialize.dumps(rebuilt) + "\n" != doc:
        errors.append("rebuilt MIC does not re-serialize byte for byte")
    return errors + check_report(kind, d, json.loads(report))


def check_report(kind: str, d: int, report: dict) -> list[str]:
    """An all-checks analyze report against the paper's closed forms."""
    errors = []
    checks = report.get("checks", {})
    if report.get("dimension") != d:
        errors.append(f"report dimension {report.get('dimension')} != {d}")
    if report.get("failures") != []:
        errors.append(f"report lists failures {report.get('failures')}")

    ue = checks["unbiased-equivalence"]
    expected = kind in UNBIASED
    flags = (ue["weights_uniform"], ue["doubly_stochastic"], ue["max_eigenvalue_pinned"])
    if flags != (expected, expected, expected):
        errors.append(f"unbiasedness flags {flags}, expected all {expected}")

    di = checks["dual-indefiniteness"]
    if not (di["all_indefinite"] and di["min_eigenvalue"] < 0 < di["max_eigenvalue"]):
        errors.append("a dual element is not indefinite")

    phi = checks["phi"]
    if not (phi["column_sum_deviation"] <= 1e-8 and phi["min_entry"] < 0):
        errors.append(f"Phi columns deviate by {phi['column_sum_deviation']:.2e} "
                      f"with least entry {phi['min_entry']!r}")

    pairs = checks["ortho-pairs"]["count"]
    if d == 2 and pairs != 0:
        errors.append(f"{pairs} orthogonal pairs at d = 2")
    if kind == "example7" and pairs != 7:
        errors.append(f"example7 has {pairs} orthogonal pairs, expected 7")

    covariant = checks["covariance"]["group_covariant"]
    if kind == "example7" and covariant:
        errors.append("example7 reported group covariant")
    if kind in COVARIANT and not covariant:
        errors.append("Weyl-Heisenberg orbit reported not covariant")

    fg = checks["frobenius-gap"]
    ig = checks["inv-gram-distance"]
    if not expected:
        if fg.get("status") != "not-applicable" or ig.get("status") != "not-applicable":
            errors.append("distance checks ran on a biased MIC")
        return errors
    bound = (d - 1) / (d + 1)
    sic_distance = d * sqrt(d * d - 1.0)
    if abs(fg["bound"] - bound) > 1e-15 or fg["gap"] < bound - 1e-9:
        errors.append(f"Frobenius gap {fg['gap']!r} below (d-1)/(d+1) = {bound!r}")
    if ig["distance"] < sic_distance * (1 - 1e-9):
        errors.append(f"inverse-Gram distance {ig['distance']!r} below the SIC "
                      f"value {sic_distance!r}")
    if kind == "sic":
        if abs(fg["gap"] - bound) > 1e-9 or not fg["saturates_bound"]:
            errors.append(f"SIC Frobenius gap {fg['gap']!r} != {bound!r}")
        if abs(ig["distance"] - sic_distance) > 1e-8 * sic_distance:
            errors.append(f"SIC inverse-Gram distance {ig['distance']!r} != "
                          f"{sic_distance!r}")
    return errors
