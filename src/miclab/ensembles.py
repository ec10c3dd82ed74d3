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
the number of samples.

A block's substreams are seeded at once.  Sample i's stream is
default_rng(SeedSequence([seed, i])), and for seed and i below 2^32 both
are one entropy word, so numpy's SeedSequence hash (mix_entropy, then
generate_state(4, uint64)) is fixed uint32 arithmetic on them; it is
restated from numpy, frozen by NEP 19's stream policy, as six passes over
one (4, n) uint32 pool: the entropy words (seed, i, 0, 0), one per source
word, and the 8 output words.  A source word's three mixes are one (3, n)
step: each reads only the source word, which its round leaves as it is, and
writes another word.  A larger seed or index is several entropy words, and
a negative seed numpy refuses, so those rows are numpy's own
SeedSequence.generate_state(4, uint64).  Either way _substreams returns the
block's seed words as one (n, 4) uint64 array, and a test compares them with
numpy's.

A batch's standard normals are read from the words in one array pass where
the batch has at least KERNEL_MIN_ROWS rows of at most KERNEL_MAX_NORMALS
normals each (measured crossovers; elsewhere the kernel is slower than one
Generator per row).  PCG64 is a 128-bit LCG with XSL-RR output (O'Neill
2014), so a row's k-th raw output is a fixed linear function of its seed
words: two 128-bit products with jump-ahead constants, done in 64-bit words.
Generator.standard_normal is a 256-layer ziggurat (Marsaglia and Tsang
2000) whose fast path takes one raw output; its ki_double and wi_double
tables are restated from numpy 2.4.6 in data/ziggurat_normal.json.  A row
with any normal off the fast path (tail or wedge) is read again by numpy's
own Generator, so no exp or log1p is restated.  NEP 19 covers SeedSequence
but not Generator's normal stream, so a test probes every layer of the
ziggurat against numpy, and another compares 10^5 normals bit for bit.
Elsewhere each row gets its own Generator, as does every sample whose first
draw the batch refuses.  A batch holds at most BATCH_ENTRIES draw entries:
BATCH_ENTRIES // d^4 generic samples, or BATCH_ENTRIES // d^2 covariant ones.

The batch keeps only first draws that random_mic builds as they stand.
Every other sample is random_mic's own answer on its substream: redrawn,
or the build's own error, or SamplingExhausted naming the sample.

A sample becomes a Mic only if its first draw is refused.  The WH group
diagonalizes the Gram matrix of an orbit, whose spectrum is
{|tr(D_kl^dagger rho)|^2 / d}, the fiducial's d^2 displacement
components.  A covariant batch's fiducials pass one batched check of the
rules wh_mic applies to rho (finite, Hermitian, unit trace, PSD), which is
all the orbit's validation needs: a valid rho makes every effect
D rho D^dagger / d PSD and the orbit sum to the identity.  validate_mic's
rank gate is then read off the components, and it implies wh_mic's
overlap gate.  A generic batch goes once through the single build's own
gate functions, each written once for a stack of any leading shape; the
MIC Gram's gives its eigenvalues and runs the rank SVD only near rank_tol.
The basis-rank gate comes last, and only for the rows every other gate
keeps whose full rank the MIC Gram's eigenvalues and Omega's do not
certify (_squash_spectra): those rows alone build the basis Gram, and
numerical_rank's SVD decides them as one stack.  The PSD checks of
fiducials and effects are each one Cholesky certificate over its stack
(povm._psd, with margin zero_tol / 2).  It passes a stack only if every
matrix factors and the margin covers LAPACK's rounding; any other stack
goes whole to eigvalsh, so every verdict is the single build's.

Every draw is one standard_normal block: haar_pure_states reads n vectors
from an (n, 2, d) block, real then imaginary parts, and gue_psd_samples n
matrices from an (n, 2 d^2 + d) block, rows x | y | diagonal.  A block holds
n single draws in stream order, so it matches them bit for bit, and so
does a stack of blocks read from n streams.  Importing this module loads
neither numpy.random nor multiprocessing: the seed-word type is built on
first use, and multiprocessing is imported by the first pool.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources
from math import ceil, floor, prod, sqrt

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .constructions import (
    _basis_gram,
    _check_dimension,
    _displacement_components,
    _is_integer,
    _squash,
    mic_from_psd_basis,
    wh_mic,
)
from .errors import (
    DegenerateFiducial,
    LinearlyDependent,
    SamplingExhausted,
    WrongDimension,
)
from .linalg import _UNIT_ROUNDOFF, _lapack, numerical_rank
from .povm import Mic, _effect_rules, _gram_rank, _gram_rules, _negligible, _valid_states

MAX_DRAW_ATTEMPTS = 100
# the largest d at which the rounding constants of _squash_spectra's
# certificate were measured; past it no row is certified
_SPECTRAL_CERTIFICATE_MAX_D = 8
# samples per block: spectra_study batches, bins and hands out work in blocks
BLOCK_SIZE = 256
# draw entries per batch of a block: max(1, BATCH_ENTRIES // d^4) generic samples,
# max(1, BATCH_ENTRIES // d^2) covariant ones
BATCH_ENTRIES = 4096
# _first_draws reads a batch's normals with one array kernel where it has at
# least KERNEL_MIN_ROWS rows of at most KERNEL_MAX_NORMALS normals each
KERNEL_MIN_ROWS = 32
KERNEL_MAX_NORMALS = 16


class MicKind(Enum):
    """The four random MIC varieties."""

    GENERIC_PSD = "generic"
    GENERIC_RANK1 = "generic-rank1"
    WH_GENERIC = "wh"
    WH_RANK1 = "wh-rank1"


_GENERIC = (MicKind.GENERIC_PSD, MicKind.GENERIC_RANK1)
_GAUSSIAN = (MicKind.GENERIC_PSD, MicKind.WH_GENERIC)  # drawn by gue_psd_samples


def _check_count(n) -> None:
    if not _is_integer(n) or n < 0:
        raise ValueError(f"n must be an integer at least 0, got {n!r}")


def haar_pure_states(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unit vectors in C^d, as an (n, d) array.

    Standard complex Gaussian vectors, normalized: the Gaussian is invariant
    under every unitary, so the direction is Haar uniform on the sphere.
    An n that is no integer at least 0, a bool included, raises ValueError.
    """
    _check_count(n)
    _check_dimension(d, 2)
    return _haar_from_normals(rng.standard_normal((n, 2, d)))


def _haar_from_normals(x: np.ndarray) -> np.ndarray:
    # haar_pure_states from its (n, 2, d) standard_normal block
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
    that consume these samples are invariant under rho -> c rho.  n is
    checked as haar_pure_states checks it.
    """
    _check_count(n)
    _check_dimension(d, 2)
    return _gue_from_normals(rng.standard_normal((n, 2 * d * d + d)), d)


def _gue_from_normals(z: np.ndarray, d: int) -> np.ndarray:
    # gue_psd_samples from its (n, 2 d^2 + d) standard_normal block
    n, k = len(z), d * d
    a = (z[:, :k] + 1j * z[:, k:2 * k]).reshape(n, d, d) / sqrt(2.0)
    m = (a + a.conj().transpose(0, 2, 1)) / 2.0
    m.reshape(n, k)[:, ::d + 1] = z[:, 2 * k:]
    p = m.conj().transpose(0, 2, 1) @ m
    return (p + p.conj().transpose(0, 2, 1)) / 2.0


def _normals_shape(kind: MicKind, d: int) -> tuple:
    # the standard_normal block of one draw: d^2 samplers' rows for a generic
    # kind, one for a covariant one
    rows = d * d if kind in _GENERIC else 1
    if kind in _GAUSSIAN:
        return rows, 2 * d * d + d
    return rows, 2, d


def _draws(kind: MicKind, d: int, z: np.ndarray) -> np.ndarray:
    # the draws of a stack of standard_normal blocks of _normals_shape(kind, d):
    # (s, d^2, d, d) bases of a generic kind, (s, d, d) fiducials of a covariant one
    s = len(z)
    z = z.reshape(-1, *z.shape[2:])
    if kind in _GAUSSIAN:
        p = _gue_from_normals(z, d)
    else:
        v = _haar_from_normals(z)
        p = v[:, :, None] * v.conj()[:, None, :]
    if kind is MicKind.WH_GENERIC:
        return p / np.trace(p, axis1=1, axis2=2).real[:, None, None]
    return p.reshape(s, d * d, d, d) if kind in _GENERIC else p


def _draw(kind: MicKind, d: int, rng: np.random.Generator) -> np.ndarray:
    # one draw from rng: the (d^2, d, d) basis of a generic kind, the (d, d) fiducial of a covariant one
    return _draws(kind, d, rng.standard_normal((1, *_normals_shape(kind, d))))[0]


def random_mic(kind: MicKind, d: int, rng: np.random.Generator,
               tol: ToleranceConfig = DEFAULT_TOL) -> Mic:
    """Draw one random MIC of the given kind in dimension d, 2 <= d <= MAX_DIMENSION.

    Degenerate draws (linearly dependent basis, or a fiducial with a
    vanishing displacement overlap) are discarded and redrawn from the
    same stream, up to MAX_DRAW_ATTEMPTS times.
    """
    kind = MicKind(kind)
    _check_dimension(d, 2)
    for _ in range(MAX_DRAW_ATTEMPTS):
        draw = _draw(kind, d, rng)
        try:
            return mic_from_psd_basis(draw, tol) if kind in _GENERIC else wh_mic(draw, tol=tol)
        except (LinearlyDependent, DegenerateFiducial):
            continue
    raise SamplingExhausted(kind.value, d, MAX_DRAW_ATTEMPTS)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    # the first n values of SeedSequence's running hash constant
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# numpy's SeedSequence hash, restated for (seed, i) entropy of two words
# (numpy/random/bit_generator.pyx, frozen by NEP 19): the constants of
# mix_entropy's 16 hashmix calls and of generate_state's 8 words, and mix's two
# multipliers, as columns that broadcast over a (k, n) slice of the pool
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)[:, None]
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)[:, None]
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _hashed_words_type() -> type:
    class _HashedWords(np.random.bit_generator.ISeedSequence):
        """One sample's seed words, the answer to PCG64's only request,
        generate_state(4, np.uint64); only PCG64 is seeded from it."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _HashedWords


def _generator(words: np.ndarray) -> np.random.Generator:
    # numpy's Generator on the PCG64 stream one row of seed words seeds
    return np.random.Generator(np.random.PCG64(_hashed_words_type()(words)))


def _substreams(seed: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start, 4) uint64 words SeedSequence([seed, i]) seeds PCG64
    with, generate_state(4, np.uint64), for i in start..stop-1.

    With seed and every i below 2^32, each is one entropy word, and the
    whole range is hashed at once as uint32 arrays, by numpy's rules.  Any
    other seed (a larger one, or one numpy refuses) or index is left to
    numpy itself.
    """
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 32 and stop <= 2 ** 32):
        return np.array([np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
                         for i in range(start, stop)], dtype=np.uint64).reshape(-1, 4)
    pool = np.zeros((4, stop - start), dtype=np.uint32)
    pool[0], pool[1] = seed, np.arange(start, stop, dtype=np.uint32)
    # mix_entropy: hashmix the entropy (seed, i, 0, 0), calls 0..3
    pool = (pool ^ _HASH_A[:4]) * _HASH_A[1:5]
    pool ^= pool >> 16
    # then mix each source word into the other three, with three consecutive
    # hashmix calls of the source word, which its round does not change
    for src in range(4):
        j = 4 + 3 * src
        h = (pool[src] ^ _HASH_A[j:j + 3]) * _HASH_A[j + 1:j + 4]
        h ^= h >> 16
        dst = [k for k in range(4) if k != src]
        r = _MIX_L * pool[dst] - _MIX_R * h
        pool[dst] = r ^ r >> 16
    # generate_state(4, np.uint64): 8 words cycled from the pool, paired low | high
    v = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8]) * _HASH_B[1:]
    v ^= v >> 16
    return np.ascontiguousarray(v.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


# PCG64's multiplier (numpy/random/src/pcg64/pcg64.h, PCG_DEFAULT_MULTIPLIER_128)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


@functools.cache
def _pcg64_jumps(m: int) -> tuple:
    """The constants of the first m raw outputs of a seeded PCG64, as
    (m, 2, 1) uint64 arrays: low words, their 32-bit halves, high words.

    PCG64 seeded with init and inc = 2 initseq + 1 is at A (init + inc) + inc,
    and steps s -> A s + inc before each output, so output k reads the state
    P_k init + Q_k inc mod 2^128, with P_k = A^(k+1) and Q_k = 1 + A + ... +
    A^(k+1); row k - 1 of the arrays holds (P_k, Q_k).
    """
    a, mask = _PCG64_MULTIPLIER, (1 << 128) - 1
    p, q, jumps = a * a & mask, 1 + a + a * a & mask, []
    for _ in range(m):
        jumps.append((p, q))
        p = p * a & mask
        q = q + p & mask
    c = np.array(jumps, dtype=object)[:, :, None]
    low = (c & 0xFFFFFFFFFFFFFFFF).astype(np.uint64)
    return low, low & 0xFFFFFFFF, low >> 32, (c >> 64).astype(np.uint64)


def _pcg64_outputs(words: np.ndarray, m: int) -> np.ndarray:
    """The first m raw outputs of PCG64 seeded from each row of an (n, 4) seed
    word array, as an (m, n) uint64 array, bit for bit numpy's next_uint64.

    The words are (init high, init low, initseq high, initseq low).  Each
    state is two 128-bit products with constants of _pcg64_jumps, in 64-bit
    words: a product's low word is the wrapped product of the low words, and
    its high word adds the cross terms to the high half of that product,
    which is taken from 32-bit halves.  The output is PCG64's XSL-RR: the
    xor of the state's halves, rotated right by its top 6 bits.
    """
    low, low0, low1, high = _pcg64_jumps(m)
    w = words.T
    # (init, inc) as their low and high words, (2, n) each
    x_lo = np.stack([w[1], w[3] << 1 | 1])
    x_hi = np.stack([w[0], w[2] << 1 | w[3] >> 63])
    b0, b1 = x_lo & 0xFFFFFFFF, x_lo >> 32
    u = low1 * b0 + (low0 * b0 >> 32)
    v = low0 * b1 + (u & 0xFFFFFFFF)
    hi = low1 * b1 + (u >> 32) + (v >> 32) + low * x_hi + high * x_lo
    lo = low * x_lo
    s_lo = lo[:, 0] + lo[:, 1]
    s_hi = hi[:, 0] + hi[:, 1] + (s_lo < lo[:, 0])
    x, rot = s_hi ^ s_lo, s_hi >> 58
    return x >> rot | x << (-rot & 63)


@functools.cache
def _ziggurat_tables() -> tuple:
    # numpy's ki_double (uint64) and wi_double (float64), as restated in data/
    tables = json.loads(resources.files("miclab").joinpath("data/ziggurat_normal.json").read_text())
    return np.array(tables["ki"], dtype=np.uint64), np.array(tables["wi"])


def _pcg64_normals(words: np.ndarray, m: int):
    """The first m standard normals of numpy's Generator on each row's PCG64
    stream, as an (n, m) array, and the mask of the rows it leaves to numpy.

    Generator.standard_normal is a 256-layer ziggurat: a raw output r picks
    layer i = r & 0xFF, sign bit 8 and rabs = r >> 9 (52 bits), and returns
    rabs wi[i], negated by the sign, when rabs < ki[i]; otherwise it takes the
    tail or wedge path, which reads further outputs.  A row in which any
    normal leaves this fast path is masked: its values mean nothing.
    """
    ki, wi = _ziggurat_tables()
    r = _pcg64_outputs(words, m)
    layer = (r & 0xFF).astype(np.intp)
    rabs = r >> 9 & 0xFFFFFFFFFFFFF
    slow = (rabs >= ki[layer]).any(axis=0)
    z = rabs * wi[layer]
    z.view(np.uint64)[...] |= (r & 0x100) << 55  # the sign bit
    return np.ascontiguousarray(z.T), slow


def _normals(words: np.ndarray, shape: tuple) -> np.ndarray:
    """The first standard_normal(shape) block of the substream each row of an
    (n, 4) seed word array seeds, as one (n, *shape) stack.

    Where there are at least KERNEL_MIN_ROWS rows of at most
    KERNEL_MAX_NORMALS normals each, _pcg64_normals reads them all at once,
    and numpy's Generator reads again only the rows it masks; elsewhere
    numpy's Generator reads every row.
    """
    n, m = len(words), prod(shape)
    if n >= KERNEL_MIN_ROWS and m <= KERNEL_MAX_NORMALS:
        z, slow = _pcg64_normals(words, m)
        rows = np.flatnonzero(slow)
    else:
        z, rows = np.empty((n, m)), range(n)
    for j in rows:
        _generator(words[j]).standard_normal(out=z[j])
    return z.reshape(n, *shape)


def _first_draws(kind: MicKind, d: int, words: np.ndarray) -> np.ndarray:
    # the first draws of the substreams an (n, 4) seed word array seeds, as one stack
    return _draws(kind, d, _normals(words, _normals_shape(kind, d)))


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
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError(f"counts must be a non-empty 1-D array, got shape {counts.shape}")
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got {counts.dtype} entries")
        counts = np.ascontiguousarray(counts, dtype=np.int64)
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
    # an exact rational, or a string of one such as "1/198"; a float is
    # snapped to a nearby small fraction; it must tile (0, 1/d] in whole bins
    try:
        w = Fraction(bin_width)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"not a fraction: {bin_width!r}") from exc
    if w <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    if isinstance(bin_width, float):
        w = w.limit_denominator(10 ** 6)
    if w == 0 or (Fraction(1, d) / w).denominator != 1:
        raise ValueError(f"bin width {bin_width} does not divide (0, 1/{d}] into whole bins")
    return w


def _orbit_spectrum(rho: np.ndarray):
    """Gram spectra {|tr(D_kl^dagger rho)|^2 / d} of wh_mic(rho[j]) for each
    fiducial of an (s, d, d) stack, one unsorted row each, and the mask of the
    fiducials that wh_mic builds.

    wh_mic keeps a valid state whose spectrum's least value clears rank_tol
    times its largest: that is validate_mic's rank gate, and it implies the
    overlap gate.  A valid state has c_00 = tr rho = 1, so its largest value
    is at least 1/d, and a component at or below wh_mic's overlap_tol of
    1e-8 gives a value of at most 1e-16 / d.  A refused row means nothing.
    """
    c = _displacement_components(rho)
    eigs = np.abs(c) ** 2 / rho.shape[-1]
    kept = _valid_states(rho, DEFAULT_TOL)
    kept &= eigs.min(axis=-1) > DEFAULT_TOL.rank_tol * eigs.max(axis=-1)
    return eigs, kept


def _squash_spectra(a: np.ndarray):
    """Gram spectra of mic_from_psd_basis(a[j]) for each basis of an (s, d^2, d, d)
    stack, one ascending row each, and the mask of the bases that build keeps.

    The stack goes once through the gate functions of mic_from_psd_basis
    (_squash, and the basis rank last), validate_povm (_effect_rules),
    validate_mic (_negligible, _gram_rank) and gram (_gram_rules).  Only the
    rows every other gate keeps, and whose full rank the spectra at hand do
    not certify, build their basis Gram tr(A_i A_j) for numerical_rank, as
    one stack.  A refused row means nothing.

    The certificate.  For Hermitian A_i and any invertible Hermitian R, the
    map X -> R X R on C^(d x d) has singular values sigma_i(R) sigma_j(R),
    so the Grams G_A of the A_i and G_E of the E_i = R A_i R have
    lambda_min(G_A) / lambda_max(G_A) >= lambda_min(G_E) / lambda_max(G_E)
    times (sigma_min(R) / sigma_max(R))^4.  The squash's R = V diag(w^-1/2)
    V^dagger, from Omega's eigh, makes that factor (w_min / w_max)^2.  A row
    is certified where beta = min|eig| / max|eig| (w_min / w_max)^2 exceeds
    1e3 rank_tol, _gram_rank's margin; at the default rank_tol, beta > 1e-6
    needs cond(Omega) < 10^3 and cond(G_E) < 10^6.  Every other kept row
    takes numerical_rank's SVD, so every verdict is numerical_rank's.

    Rounding, with u = 2^-53 and n = d^2.  The bound holds for the computed
    R's Hermitian part R~, whose singular values are w^-1/2 within a factor
    1 +- 35 d^2 u sqrt(kappa), kappa = w_max / w_min: eigh's V is unitary
    within 16 d^2 u.  The effects are within 6 d^3 u kappa of R~ A_i R~ in
    relative Frobenius norm, so their Gram is within n (12 d^3 u kappa +
    3 d^2 u) lambda_max of G_E, and eigvalsh adds 16 n^2 u ||G_E||_F (the
    constants of linalg._rounding).  Skew parts of the A_i, which the
    Hermiticity gates hold to hermitian_tol, enter both Grams squared, below
    n^2.5 u.  In all, the eigenvalues are within (12 kappa + 20) n^2.5 u
    lambda_max of G_E's, all positive where beta > 1e-6, and svdvals sees
    the basis Gram within 20 n^2.5 u lambda_max of G_A.  Against beta >
    1e3 rank_tol kappa^-2, at the default rank_tol the batch uses, that
    shrinks the least-to-largest ratio svdvals finds by a factor of at least
    1 - 0.1 n^2.5 u / rank_tol.  Where n^2.5 u <= rank_tol the factor
    exceeds 0.9 and the ratio stays above 900 rank_tol.  The constants of
    the effects and of V and R~ were measured below a seventh of their
    stated values at d = 2 to 8 and cond(Omega) up to 10^3; those of the
    Gram, eigvalsh and svdvals are linalg._rounding's.  So rows are
    certified only where d <= _SPECTRAL_CERTIFICATE_MAX_D = 8 (there n^2.5 u
    < 4e-12) and n^2.5 u <= rank_tol; elsewhere every kept row builds its
    basis Gram.
    """
    tol, n = DEFAULT_TOL, a.shape[1]
    w, kept, e = _squash(a, tol)
    faulty, summed, _ = _effect_rules(e, tol)
    real, g = _gram_rules(e, tol)
    eigs, g_rank = _gram_rank(g, tol)
    kept &= (faulty == n) & summed & real & (g_rank == n)
    kept &= _negligible(np.trace(e, axis1=2, axis2=3).real, tol) == n
    doubt = kept.copy()
    if a.shape[-1] <= _SPECTRAL_CERTIFICATE_MAX_D and n ** 2.5 * _UNIT_ROUNDOFF <= tol.rank_tol:
        # beta > 1e3 rank_tol, multiplied out
        s = np.abs(eigs)
        low, high = s.min(axis=-1) * w[:, 0] ** 2, s.max(axis=-1) * w[:, -1] ** 2
        doubt &= ~(low > 1e3 * tol.rank_tol * high)
    if doubt.any():
        kept[doubt] = numerical_rank(_basis_gram(a[doubt]), tol) == n
    return eigs, kept


def _block_spectra(kind: MicKind, d: int, start: int, stop: int, seed: int) -> np.ndarray:
    """Gram spectra of samples start..stop-1, one row each, on their (seed, i) substreams.

    The block's substreams are seeded at once, and its first draws are read
    and checked in batches of at most BATCH_ENTRIES draw entries.  A sample
    whose first draw the batch refuses is random_mic's on its substream.
    """
    words = _substreams(seed, start, stop)
    spectra = _squash_spectra if kind in _GENERIC else _orbit_spectrum
    step = max(1, BATCH_ENTRIES // (_normals_shape(kind, d)[0] * d * d))
    eigs = np.empty((stop - start, d * d))
    for lo in range(0, stop - start, step):
        eigs[lo:lo + step], kept = spectra(_first_draws(kind, d, words[lo:lo + step]))
        for j in np.flatnonzero(~kept):
            i = start + lo + j
            try:
                mic = random_mic(kind, d, _generator(words[lo + j]))
            except SamplingExhausted as exc:
                raise SamplingExhausted(exc.kind, exc.d, exc.attempts, sample_index=i)
            eigs[lo + j] = _lapack("eigvalsh", mic.gram)
    return eigs


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
    nearest small fraction first.  Any other bin_width raises ValueError,
    as do a d, n_samples, seed or workers that is no integer (a bool is
    refused too; numpy integers are taken).
    """
    kind = MicKind(kind)
    for name, value in (("n_samples", n_samples), ("seed", seed), ("workers", workers)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    _check_dimension(d, 2)
    w = _as_bin_width(bin_width, d)
    n_bins = int(Fraction(1, d) / w)
    starts = range(0, n_samples, BLOCK_SIZE)
    args = (kind.value, d, seed, n_samples, n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    if workers == 1:
        for lo in starts:
            counts += _count_block(lo, *args)
    else:
        import multiprocessing  # by the first pool only: a serial study never loads it
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
