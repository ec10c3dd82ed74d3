"""Random MIC ensembles and Gram-spectra histogram studies.

Four sampling schemes, two generic and two group covariant:

* generic: d^2 independent Gaussian PSD matrices pushed through
  mic_from_psd_basis;
* generic-rank1: d^2 Haar-random rank-1 projectors, same construction;
* wh: a single Gaussian PSD matrix, trace normalized, used as the
  fiducial of a Weyl-Heisenberg orbit;
* wh-rank1: a Haar-random pure state as the orbit fiducial.

The covariant kinds are unbiased by construction, so their Gram spectra
pin the maximal eigenvalue at exactly 1/d; the generic kinds are biased
and satisfy only the lower bound.  spectra_study histograms the full
eigenvalue population over [0, 1/d] with deterministic per-sample
substreams, so results are reproducible bit for bit at any worker count.

The study runs in fixed blocks of BLOCK_SIZE = 256 samples, which are
also the pool's tasks; each block's eigenvalues are binned with one
bincount and its counts added to the total, so memory does not grow with
the number of samples.  A covariant sample never becomes a Mic: the WH
group diagonalizes the Gram matrix of an orbit, whose spectrum is
{|tr(D_kl^dagger rho)|^2 / d}, the fiducial's d^2 displacement
components.  A block's fiducials pass one batched check of the rules
wh_mic applies to rho (finite, Hermitian, unit trace, PSD), which is all
the orbit's validation needs: a valid rho makes every effect
D rho D^dagger / d PSD and the orbit sum to the identity.  random_mic's
redraw rules then read off the components, and a refused sample is
redrawn on its own generator.  A generic sample never becomes a Mic
either: a block runs in batches of at most BATCH_ENTRIES // d^4 samples,
and each batch runs every stage of mic_from_psd_basis and of its
validation once, each gate with the build's own comparison, then one
eigvalsh.  A sample whose first draw a gate refuses goes on through
random_mic's rules, that draw first, on its own generator.

Every draw is one standard_normal block: haar_pure_states reads n vectors
from an (n, 2, d) block, real then imaginary parts, and gue_psd_samples n
matrices from an (n, 2 d^2 + d) block, rows x | y | diagonal.  A block holds
n single draws in stream order, so it matches them bit for bit.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import ceil, floor, sqrt

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .constructions import (
    _OVERLAP_TOL,
    _check_dimension,
    _displacement_components,
    mic_from_psd_basis,
    wh_mic,
)
from .errors import (
    DegenerateFiducial,
    LinearlyDependent,
    SamplingExhausted,
    WrongDimension,
)
from .linalg import hermiticity_defect, numerical_rank
from .povm import Mic, _check_state, _valid_states

MAX_DRAW_ATTEMPTS = 100
# samples per block: spectra_study batches, bins and hands out work in blocks
BLOCK_SIZE = 256
# basis entries per batch of generic samples: max(1, BATCH_ENTRIES // d^4) samples
BATCH_ENTRIES = 4096


class MicKind(Enum):
    """The four random MIC varieties."""

    GENERIC_PSD = "generic"
    GENERIC_RANK1 = "generic-rank1"
    WH_GENERIC = "wh"
    WH_RANK1 = "wh-rank1"


def haar_pure_states(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unit vectors in C^d, as an (n, d) array.

    Standard complex Gaussian vectors, normalized: the Gaussian is invariant
    under every unitary, so the direction is Haar uniform on the sphere.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    x = rng.standard_normal((n, 2, d))
    v = x[:, 0] + 1j * x[:, 1]
    # np.linalg.norm of one vector is two dot products over its strided real
    # and imaginary views; contiguous sums round differently from d = 4 on
    v /= np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[:, None]
    return v


def gue_psd_samples(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n PSD matrices M'M, each from a Gaussian Hermitian M, as an (n, d, d) array.

    Convention: A has off-diagonal entries (x + iy)/sqrt(2) with x, y
    standard normal (so E|A_jk|^2 = 1) and real standard-normal diagonal
    entries; M = (A + A')/2.  Under this scaling E[tr M'M] = d(d+1)/2.
    The overall scale is irrelevant downstream: both MIC constructions
    that consume these samples are invariant under rho -> c rho.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    k = d * d
    z = rng.standard_normal((n, 2 * k + d))
    a = (z[:, :k] + 1j * z[:, k:2 * k]).reshape(n, d, d) / sqrt(2.0)
    m = (a + a.conj().transpose(0, 2, 1)) / 2.0
    m.reshape(n, k)[:, ::d + 1] = z[:, 2 * k:]
    p = m.conj().transpose(0, 2, 1) @ m
    return (p + p.conj().transpose(0, 2, 1)) / 2.0


def _draw(kind: MicKind, d: int, rng: np.random.Generator) -> np.ndarray:
    # one block: the (d^2, d, d) basis of a generic kind, the (d, d) fiducial of a covariant one
    if kind is MicKind.GENERIC_PSD:
        return gue_psd_samples(d * d, d, rng)
    if kind is MicKind.WH_GENERIC:
        p = gue_psd_samples(1, d, rng)[0]
        return p / np.trace(p).real
    v = haar_pure_states(d * d if kind is MicKind.GENERIC_RANK1 else 1, d, rng)
    p = v[:, :, None] * v.conj()[:, None, :]
    return p if kind is MicKind.GENERIC_RANK1 else p[0]


def random_mic(kind: MicKind, d: int, rng: np.random.Generator,
               tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Draw one random MIC of the given kind.

    Degenerate draws (linearly dependent basis, or a fiducial with a
    vanishing displacement overlap) are discarded and redrawn from the
    same stream, up to MAX_DRAW_ATTEMPTS times.
    """
    kind = MicKind(kind)
    return _redrawn_mic(kind, d, rng, _draw(kind, d, rng), tol)


def _redrawn_mic(kind: MicKind, d: int, rng: np.random.Generator, draw: np.ndarray,
                 tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    # random_mic's MIC when draw is its first draw from rng
    for attempt in range(MAX_DRAW_ATTEMPTS):
        if attempt:
            draw = _draw(kind, d, rng)
        try:
            return mic_from_psd_basis(draw, tol) if draw.ndim == 3 else wh_mic(draw, tol=tol)
        except (LinearlyDependent, DegenerateFiducial):
            continue
    raise SamplingExhausted(kind.value, d, MAX_DRAW_ATTEMPTS)


@dataclass(frozen=True, eq=False)
class SpectraHistogram:
    """Binned population of Gram eigenvalues over [0, 1/d].

    Bins are [k w, (k+1) w) for bin width w, except the last, which is
    closed at 1/d.  Eigenvalues above 1/d (the biased kinds exceed it;
    for unbiased kinds only by rounding) are counted in the last bin so
    the total count is always n_samples * d^2.
    """

    kind: MicKind
    d: int
    bin_width: Fraction
    counts: np.ndarray
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.min() < 0:
            raise ValueError("negative bin count")
        total = int(counts.sum())
        if total != self.n_samples * self.d ** 2:
            raise ValueError(
                f"count total {total} != n_samples * d^2 = {self.n_samples * self.d ** 2}")

    def edges(self) -> list:
        """Exact rational bin edges, length len(counts) + 1."""
        return [k * self.bin_width for k in range(len(self.counts) + 1)]


def default_bin_width(d: int) -> Fraction:
    """Reference bin width 1/(d * (200 // d)), the narrowest width of the
    form 1/(d k) that is at least 1/200, so that 200 // d whole bins tile
    (0, 1/d]: 1/200 at d = 2, 4, 5, 8, 1/198 at d = 3, 6 and 1/196 at d = 7."""
    return Fraction(1, d * (200 // d))


def _as_bin_width(bin_width, d: int) -> Fraction:
    # exact rationals only: floats are snapped to a nearby small fraction
    # and then required to tile (0, 1/d] in whole bins
    if isinstance(bin_width, float):
        w = Fraction(bin_width).limit_denominator(10 ** 6)
    else:
        w = Fraction(bin_width)
    if w <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    n_bins = Fraction(1, d) / w
    if n_bins.denominator != 1:
        raise ValueError(f"bin width {w} does not divide (0, 1/{d}] into whole bins")
    return w


def _orbit_spectrum(rho: np.ndarray):
    # the Gram spectrum {|tr(D_kl^dagger rho)|^2 / d} of the WH orbit MIC of
    # rho, or of each of a stack, and whether random_mic keeps the draw: wh_mic
    # refuses a component at or below its overlap_tol, and validate_mic's rank
    # gate a spectrum whose least value is at most rank_tol times its largest
    c = _displacement_components(rho)
    eigs = np.abs(c) ** 2 / rho.shape[-1]
    kept = ((np.abs(c) > _OVERLAP_TOL).all(axis=-1)
            & (eigs.min(axis=-1) > DEFAULT_TOL.rank_tol * eigs.max(axis=-1)))
    return eigs, kept


def _covariant_spectra(kind: MicKind, d: int, rngs: list, start: int) -> np.ndarray:
    """Gram spectra of one block of covariant samples, one (unsorted) row each.

    The fiducials' state check and spectra are batched; a sample whose first
    draw is refused goes on through random_mic's rules on its own generator.
    """
    rhos = np.array([_draw(kind, d, rng) for rng in rngs])
    eigs, ok = _orbit_spectrum(rhos)
    ok &= _valid_states(rhos, DEFAULT_TOL)
    for j in np.flatnonzero(~ok):
        rho = rhos[j]
        for attempt in range(MAX_DRAW_ATTEMPTS):
            if attempt:
                rho = _draw(kind, d, rngs[j])
            _check_state(rho, d, DEFAULT_TOL)  # an invalid fiducial raises, as in wh_mic
            eigs[j], kept = _orbit_spectrum(rho)
            if kept:
                break
        else:
            raise SamplingExhausted(kind.value, d, MAX_DRAW_ATTEMPTS, sample_index=start + j)
    return eigs


def _squash_spectra(a: np.ndarray):
    """Gram spectra of mic_from_psd_basis(a[j]) for each basis of an (s, d^2, d, d)
    stack, one ascending row each, and the mask of the bases that build keeps.

    Every stage of the build and of its validation runs once on the stack,
    and every gate makes the build's own comparison, written so that NaN
    fails it.  A refused row's spectrum means nothing.
    """
    tol = DEFAULT_TOL
    s, n, d = a.shape[:3]
    # mic_from_psd_basis: a spanning basis and a safely positive Omega
    kept = numerical_rank(np.einsum("siab,sjba->sij", a, a).real, tol) == n
    omega = a.sum(axis=1)
    kept &= hermiticity_defect(omega) <= tol.hermitian_tol
    w, v = np.linalg.eigh(omega)
    kept &= (w[:, -1] > 0) & (w[:, 0] > tol.rank_tol * w[:, -1])
    w = np.where(kept[:, None], w, 1.0)  # a refused Omega may have w <= 0
    r = (v / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(1, 2)
    e = np.einsum("sab,skbc,scd->skad", r, a, r)
    # validate_povm: Hermitian PSD effects that sum to the identity
    kept &= hermiticity_defect(e).max(axis=1) <= tol.hermitian_tol
    kept &= np.linalg.eigvalsh(e)[:, :, 0].min(axis=1) >= -tol.zero_tol
    rest = (e.sum(axis=1) - np.eye(d)).reshape(s, d * d)
    kept &= np.sqrt(np.vecdot(rest, rest).real) <= tol.zero_tol * d
    # validate_mic: weights above zero_tol and a real, full-rank Gram matrix
    kept &= (np.trace(e, axis1=2, axis2=3).real > tol.zero_tol).all(axis=1)
    g = np.einsum("siab,sjba->sij", e, e)
    kept &= np.abs(g.imag).max(axis=(1, 2)) <= tol.zero_tol
    g = (g.real + g.real.swapaxes(1, 2)) / 2
    kept &= numerical_rank(g, tol) == n
    return np.linalg.eigvalsh(g), kept


def _generic_spectra(kind: MicKind, d: int, rngs: list, start: int) -> np.ndarray:
    """Gram spectra of one block of generic samples, one ascending row each.

    The block runs in batches of at most BATCH_ENTRIES // d^4 samples, so a
    batch's bases hold at most BATCH_ENTRIES entries; a sample whose first
    draw is refused goes on through random_mic's rules on its own generator.
    """
    eigs = np.empty((len(rngs), d * d))
    step = max(1, BATCH_ENTRIES // d ** 4)
    for lo in range(0, len(rngs), step):
        batch = rngs[lo:lo + step]
        draws = np.array([_draw(kind, d, rng) for rng in batch])
        eigs[lo:lo + len(batch)], kept = _squash_spectra(draws)
        for j in np.flatnonzero(~kept):
            try:
                mic = _redrawn_mic(kind, d, batch[j], draws[j])
            except SamplingExhausted as exc:
                raise SamplingExhausted(exc.kind, exc.d, exc.attempts,
                                        sample_index=start + lo + j)
            eigs[lo + j] = np.linalg.eigvalsh(mic.gram)
    return eigs


def _block_spectra(kind: MicKind, d: int, start: int, stop: int, seed: int) -> np.ndarray:
    """Gram spectra of samples start..stop-1, one row each, on their (seed, i) substreams."""
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(start, stop)]
    if kind in (MicKind.WH_GENERIC, MicKind.WH_RANK1):
        return _covariant_spectra(kind, d, rngs, start)
    return _generic_spectra(kind, d, rngs, start)


def _count_block(start: int, kind_value: str, d: int, seed: int, n_samples: int,
                 n_bins: int) -> np.ndarray:
    # the bin counts of block start // BLOCK_SIZE
    eigs = _block_spectra(MicKind(kind_value), d, start, min(start + BLOCK_SIZE, n_samples), seed)
    idx = np.floor(eigs * (n_bins * d)).astype(np.int64)  # floor(eig / w), w = 1/(n_bins d)
    np.clip(idx, 0, n_bins - 1, out=idx)
    return np.bincount(idx.ravel(), minlength=n_bins)


def spectra_study(kind: MicKind, d: int, n_samples: int, bin_width,
                  seed: int, workers: int = 1) -> SpectraHistogram:
    """Histogram the Gram eigenvalues of n_samples random MICs.

    Sample i draws from a substream seeded by (seed, i), so the result
    is a pure function of (kind, d, n_samples, bin_width, seed) and is
    byte-identical at any worker count.  The samples run in blocks of
    BLOCK_SIZE, whose counts are added as they come, so memory does not
    grow with n_samples.  workers > 1 runs the blocks in a pool of at most
    that many processes, and at most os.cpu_count().
    bin_width must be an exact rational (Fraction or a string like
    "1/198") dividing (0, 1/d] into whole bins; floats are snapped to the
    nearest small fraction first.
    """
    kind = MicKind(kind)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    w = _as_bin_width(bin_width, d)
    n_bins = int(Fraction(1, d) / w)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    _check_dimension(d)
    starts = range(0, n_samples, BLOCK_SIZE)
    args = (kind.value, d, seed, n_samples, n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    if workers == 1:
        for lo in starts:
            counts += _count_block(lo, *args)
    else:
        processes = min(workers, len(starts), os.cpu_count() or 1)
        # four blocks per process and call: starmap then hands them out one
        # at a time, and at most one round of counts is held at once
        step = 4 * processes
        with multiprocessing.Pool(processes=processes) as pool:
            for r in range(0, len(starts), step):
                parts = pool.starmap(_count_block, [(lo, *args) for lo in starts[r:r + step]])
                counts += np.sum(parts, axis=0)
    return SpectraHistogram(kind=kind, d=d, bin_width=w, counts=counts,
                            n_samples=n_samples, seed=seed)


def plateau_metric(h: SpectraHistogram) -> float:
    """Count ratio across the 1/12 edge of a d = 3 spectrum histogram.

    Returns counts in the last whole bin below 1/12 divided by counts in
    the first whole bin at or above it.  The covariant rank-1 ensemble
    piles its non-maximal eigenvalues into a plateau that ends at 1/12
    (the average of the eight non-maximal eigenvalues, exact for a SIC),
    so a sharp edge shows up as a ratio well above 1.
    """
    if h.d != 3:
        raise WrongDimension(f"plateau metric is defined for d=3 only, got d={h.d}")
    q = Fraction(1, 12) / h.bin_width
    k_below = floor(q) - 1
    k_above = ceil(q)
    if k_below < 0 or k_above >= len(h.counts):
        raise ValueError(f"bin width {h.bin_width} leaves no whole bin on one side of 1/12")
    num = float(h.counts[k_below])
    den = float(h.counts[k_above])
    if den == 0.0:
        return float("inf")
    return num / den
