"""Random MIC samplers and the Gram-spectra histogram study."""

import hashlib
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miclab import constructions, ensembles, povm
from miclab.ensembles import (
    BLOCK_SIZE,
    MicKind,
    SpectraHistogram,
    default_bin_width,
    gue_psd_samples,
    haar_pure_states,
    plateau_metric,
    random_mic,
    spectra_study,
)
from miclab.config import DEFAULT_TOL
from miclab.constructions import mic_from_psd_basis, sic_mic, sic_qubit, tensorhedron_mic, wh_mic
from miclab.errors import (
    DegenerateFiducial,
    EnvelopeExceeded,
    InvalidState,
    LinearlyDependent,
    MicLabError,
    NotHermitian,
    NotPsd,
    SamplingExhausted,
    WrongDimension,
)
from miclab.linalg import numerical_rank
from miclab.povm import is_unbiased, rank1_mic_check
from miclab.serialize import histogram_to_table
from wh_rank1_laws import d3_bin_probabilities, d3_cdf


def test_haar_states_are_normalized():
    rng = np.random.default_rng(0)
    for d in (2, 3, 7):
        v = haar_pure_states(5, d, rng)
        assert v.shape == (5, d)
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12


def test_haar_first_component_mean():
    # |<e1|psi>|^2 is Beta(1, d-1); its mean is 1/d
    rng = np.random.default_rng(1)
    d, n = 3, 20000
    vals = np.abs(haar_pure_states(n, d, rng)[:, 0]) ** 2
    sigma = np.sqrt((d - 1) / (d * d * (d + 1)) / n)
    assert abs(vals.mean() - 1 / d) < 4 * sigma


def test_gue_psd_samples_are_hermitian_psd():
    rng = np.random.default_rng(2)
    p = gue_psd_samples(6, 4, rng)
    assert p.shape == (6, 4, 4)
    assert np.abs(p - p.conj().transpose(0, 2, 1)).max() < 1e-14
    assert np.linalg.eigvalsh(p)[:, 0].min() > -1e-12


def test_gue_second_moment_convention():
    # E[tr M^dagger M] = d(d+1)/2 with unit-variance entries
    rng = np.random.default_rng(3)
    d, n = 3, 20000
    total = gue_psd_samples(n, d, rng).trace(axis1=1, axis2=2).real.mean()
    assert abs(total - d * (d + 1) / 2) / (d * (d + 1) / 2) < 0.05


def test_samplers_reject_dimension_below_two():
    rng = np.random.default_rng(0)
    for sampler in (haar_pure_states, gue_psd_samples):
        with pytest.raises(ValueError):
            sampler(3, 1, rng)


# Reference samplers: one standard_normal call per vector or matrix part.
# The block samplers must reproduce them bit for bit and leave the
# generator in the same state.

def _haar_pure_state_reference(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _gue_psd_sample_reference(d, rng):
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    diag = rng.standard_normal(d)
    m = (a + a.conj().T) / 2.0
    np.fill_diagonal(m, diag)
    p = m.conj().T @ m
    return (p + p.conj().T) / 2.0


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("block, reference", [
    (haar_pure_states, _haar_pure_state_reference),
    (gue_psd_samples, _gue_psd_sample_reference),
])
def test_block_samplers_match_per_call_draws_bytewise(block, reference, d):
    for seed in (0, 7, 96):
        for n in (1, d * d, 500):
            rng_block, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = block(n, d, rng_block)
            want = np.array([reference(d, rng_ref) for _ in range(n)])
            assert got.tobytes() == want.tobytes(), (seed, n)
            assert rng_block.bytes(8) == rng_ref.bytes(8), (seed, n)


# sha256 of random_mic(kind, d, default_rng(seed)).matrices().tobytes(),
# computed with the per-call samplers the block samplers replaced.  Unlike
# the spectra tables, these catch a change in the last bit of any effect.
RANDOM_MIC_DIGESTS = {
    ("generic", 2, 7): "bb8a03cca215390b03e8a573263bdf44b693c3c8deba127e2edb32bf7c02f099",
    ("generic", 2, 96): "18b96728bcf0442aa57a22eb582a0cd1c676004c8878d82a42624e99950fa7f3",
    ("generic", 3, 7): "d52ee99e7af21d321c2b174fe8a7d446b747ab542d92c7e0781c4ce0d7540140",
    ("generic", 3, 96): "c2c16996e3cc8a009b612cb0701459293b236e18f4e8bbdea2982b669aa12005",
    ("generic", 4, 7): "cb1653f8578b1267458088ffc1f3e03aa31a34d282060cf48a09b25aaa8939cb",
    ("generic", 4, 96): "4ca22c66f7c2be509128b0a0a6a1d492b9e02636270eba00b79d33e426c73850",
    ("generic", 5, 7): "7268da1453736e5c5559469d4906d848092970f8067c406902ffddaaa486cffa",
    ("generic", 5, 96): "d9cca9b1bdce6db2101c570e93bcd7c6c49a075b174043e7ec5c18e7b795c3b4",
    ("generic-rank1", 2, 7): "a9c760b5bebd0bdfa19b2d3238db16763f707c02ce32e9f8821ddc106c70af27",
    ("generic-rank1", 2, 96): "a5e1efdc9f5e6489d2c9890af1289cccaf11e65d34a36d2e9265cfbc4efdcd19",
    ("generic-rank1", 3, 7): "6bb0072865d3e97f054d1adf6cb99ffde5ba0ea8433711cc0b24e04630c7643a",
    ("generic-rank1", 3, 96): "6c3c5ce7739c6a175d2d9692c5d5726a6a9992f60f5d025b41a9d72bbb1f08fc",
    ("generic-rank1", 4, 7): "154ab4b45624cd2237bfa6e7a334be0e5e4f563cafed795eca61ab3fd4ddb3e8",
    ("generic-rank1", 4, 96): "cd81acf97f5eed2e12ab566730b5da4572f450ed7170f5b7782c466e002c4927",
    ("generic-rank1", 5, 7): "0fe28c4f5190142c1fd1e16ff2ac9006e8b11869c78399ac6267dab8de15ba9c",
    ("generic-rank1", 5, 96): "fd33467f5ea3c64dce95059514fe77cd50d8fd1b9fd268cebe3e9db723ffd06d",
    ("wh", 2, 7): "bee377eb84185c7502a029a8fc34d3887343411c8dc8ea08a5380274298bb07a",
    ("wh", 2, 96): "08a5186b8c5427b1c68b7287c0294c4797e8ef34dd5e6ca52ab9fe05034b924b",
    ("wh", 3, 7): "fd4627baa86166e4990fed6e5eae18b8ceb47d972f127b093dddda7ef189d8c1",
    ("wh", 3, 96): "f0cf982fe20bf728e40e6df9f2fe60f97ed07beb39935387cf9c52e30de2031c",
    ("wh", 4, 7): "651fd3a28e91d23681944acd3b1d4414d21d4dceed38eb09d86f825e220bb04d",
    ("wh", 4, 96): "2b90bf63b6bfbbb828a0278c960bbbb7aa9b6a62d114876388f8bc15112d1bba",
    ("wh", 5, 7): "2b7dcd09fe65b2094bc52505e08df12f9448cd84a91343e575f5875ae0c88ef3",
    ("wh", 5, 96): "f86056cecdf4c5bd3248193b34818e8b723479e8a821af976f65a9fe65ac4350",
    ("wh-rank1", 2, 7): "74b38406efa7045972860ed6e0d7e6b9bd6cb2fd282e051dca9aab778858751d",
    ("wh-rank1", 2, 96): "8a93b25608eb69137b290dc29432b0539f17ed7041fb19b040ed00c902031105",
    ("wh-rank1", 3, 7): "1746e4bbfa505b1810e42241b3210093ac1536a572932e4f3af5e51e4585f2fb",
    ("wh-rank1", 3, 96): "472dc2f13f22d8cdbdf39aa8ec0ebc0edf7ff52046498406d934a09520269171",
    ("wh-rank1", 4, 7): "347ca1b259f69b37bc86addd7ed305c8bfc5acb2fa857b4b5e69204dc7ceeaad",
    ("wh-rank1", 4, 96): "936f0db66a4907389cd2406ea3792f821853d6837ca8269d3892411552c56130",
    ("wh-rank1", 5, 7): "6681dbd2484bdaab78816e53659dd56471db4469ee79034ce8e1a75b20c0ee3d",
    ("wh-rank1", 5, 96): "7fa9e6a32617b5e5f551269a1a42f008b9fe3da0a468ff53e606965f2c75e8b3",
}


def test_random_mic_effects_are_byte_stable():
    for (kind, d, seed), digest in RANDOM_MIC_DIGESTS.items():
        mic = random_mic(MicKind(kind), d, np.random.default_rng(seed))
        assert hashlib.sha256(mic.matrices().tobytes()).hexdigest() == digest, (kind, d, seed)


@pytest.mark.parametrize("kind", list(MicKind))
def test_random_mic_checks_the_dimension_before_it_draws(kind, monkeypatch):
    # a draw at d = 100000 would ask numpy for up to d^4 complex entries
    def draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(ensembles, "_draw", draw)
    with pytest.raises(EnvelopeExceeded, match="exceeds supported limit 32"):
        random_mic(kind, 100000, np.random.default_rng(0))
    with pytest.raises(ValueError, match="dimension must be positive"):
        random_mic(kind, 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="d must be at least 2, got 1"):
        random_mic(kind, 1, np.random.default_rng(0))


@pytest.mark.parametrize("kind", list(MicKind))
def test_random_mic_kinds_are_valid(kind):
    rng = np.random.default_rng(4)
    for d in (2, 3):
        mic = random_mic(kind, d, rng)
        assert mic.dim == d
        if kind in (MicKind.WH_GENERIC, MicKind.WH_RANK1):
            assert is_unbiased(mic)
            assert abs(np.linalg.eigvalsh(mic.gram)[-1] - 1 / d) < 1e-9
        else:
            assert not is_unbiased(mic)


def test_random_rank1_mic_passes_rank1_criterion():
    rng = np.random.default_rng(5)
    mic = random_mic(MicKind.GENERIC_RANK1, 3, rng)
    vecs, weights = [], []
    for m in mic.matrices():
        w, v = np.linalg.eigh(m)
        vecs.append(v[:, -1])
        weights.append(w[-1])
    is_povm, is_mic = rank1_mic_check(vecs, weights)
    assert is_povm and is_mic


# --------------------------------------------------------------- histogram

def test_histogram_counts_preserved_and_edges():
    h = spectra_study(MicKind.GENERIC_PSD, 2, 50, Fraction(1, 200), seed=0)
    assert h.counts.sum() == 50 * 4
    assert h.counts.dtype == np.int64
    edges = h.edges()
    assert edges[0] == 0
    assert edges[-1] == Fraction(1, 2)
    assert len(edges) == len(h.counts) + 1


def test_histogram_validation():
    with pytest.raises(ValueError):
        SpectraHistogram(kind=MicKind.GENERIC_PSD, d=2, bin_width=Fraction(1, 100),
                         counts=np.ones(50, dtype=np.int64), n_samples=2, seed=0)


def test_default_bin_width_tiles_every_dimension():
    assert [default_bin_width(d) for d in range(2, 9)] == [
        Fraction(1, 200), Fraction(1, 198), Fraction(1, 200), Fraction(1, 200),
        Fraction(1, 198), Fraction(1, 196), Fraction(1, 200)]
    for d in (6, 7):
        h = spectra_study(MicKind.WH_RANK1, d, 2, default_bin_width(d), seed=0)
        assert h.edges()[-1] == Fraction(1, d)


# sha256 of the 16 bin tables at n = 40, seed 7, default bin widths,
# computed before the validation path was batched
SPECTRA_DIGESTS = {
    ("generic", 2): "508363a4d30617bcb27fc919b3eda399f3cdb3d042bfdae6b68b5b2ab1d1df0c",
    ("generic", 3): "3f80568134788a371b1fdaebfc96f593536abac6e1bf92cf15d72b7a69388b4d",
    ("generic", 4): "1ef1f20a57d83ab183150a72b72b5acb73d00a56eec32bb96b059d27a0dc674b",
    ("generic", 5): "a5bd567d5e102d4a9d50821e26b65fdafdebcfd6886fde62866b889db68cc460",
    ("generic-rank1", 2): "136eb1b4dd1ab3452fa3caebae80a2a58d417e2a6867fed9f849585bd04e93e7",
    ("generic-rank1", 3): "367a93f53ea1c32114c4b67b390ab409edaada8f30723fb7c80a48f54843517f",
    ("generic-rank1", 4): "d781fd309ef7747780908298a58ecd2e416dd3bd2da6aa3670898b4ae3b856a5",
    ("generic-rank1", 5): "19dcc0d7b492e5e074f1cfe1ae1639c164c451b5b2fa9fab38669510d1cd8e36",
    ("wh", 2): "423db816476383e665c05c22e18f101a7e493481103bb62392c628559961e24b",
    ("wh", 3): "01c3daefc72b44530672c7f88bf68b37004dde52bb92f8294faf406686e1d122",
    ("wh", 4): "b04dceb4958aa516343266ce147ff97b811b246a7b31b61804ce70574994ba13",
    ("wh", 5): "716e7a5aa348c20f365d1782481b4c6b3442612f8a3df5354a029fd63967b782",
    ("wh-rank1", 2): "af445aed7130acab563331a79a2e2ab3203f792718e288b0e0396841c52db6fc",
    ("wh-rank1", 3): "6b56b8e87ac0f84f8f092c42e3b31570de0cd419091c0682c993014306f472e0",
    ("wh-rank1", 4): "93d644b98a851ec3777e92b4596a4d93658f5fb0d17aaf1ae44ed0cc15bf6482",
    ("wh-rank1", 5): "63a892fc17430dd4f5e74d6754476790084d44e012e4ce1c13987c25e4d67910",
}


def test_spectra_tables_are_byte_stable():
    for (kind, d), digest in SPECTRA_DIGESTS.items():
        h = spectra_study(MicKind(kind), d, 40, default_bin_width(d), seed=7)
        table = histogram_to_table(h).encode()
        assert hashlib.sha256(table).hexdigest() == digest, (kind, d)


def test_wh_rank1_qubit_spectrum_matches_closed_form():
    # For d = 2 the three non-pinned Gram eigenvalues are r_i^2 / 2, with r
    # the Bloch vector of the fiducial.  Each r_i is uniform on [-1, 1], so
    # each eigenvalue has CDF sqrt(2 lambda) on [0, 1/2]; the pinned
    # eigenvalue 1/2 adds n counts to the last bin.  Measured: chi^2 = 96.1
    # on 99 dof; seeds 1, 2, 3, 11, 42 at n = 2000 and 4000 give 86..124.
    n = 2000
    h = spectra_study(MicKind.WH_RANK1, 2, n, Fraction(1, 200), seed=7)
    k = np.arange(100)
    expected = 3 * n * (np.sqrt((k + 1) / 100) - np.sqrt(k / 100))
    expected[-1] += n
    chi2 = float(((h.counts - expected) ** 2 / expected).sum())
    assert chi2 <= 150.0, chi2  # p ~ 6e-4 on 99 dof


def test_wh_rank1_qutrit_spectrum_matches_closed_form():
    # For d = 3 the eight non-pinned Gram eigenvalues come in equal pairs,
    # |c_kl| = |c_-k,-l|, so each pair is counted once: 4n values, each with
    # the disc-in-triangle CDF of wh_rank1_laws.  The pinned eigenvalue 1/3
    # adds n counts to the last bin.  Measured: chi^2 = 60.2 on 65 dof;
    # seeds 1, 2, 3, 11, 42 give 57..79.
    assert abs(d3_cdf(1 / 3) - 1) < 1e-12
    n, w = 10 ** 4, Fraction(1, 198)
    h = spectra_study(MicKind.WH_RANK1, 3, n, w, seed=7)
    observed = h.counts.astype(float)
    observed[-1] -= n
    expected = 4 * n * d3_bin_probabilities(w)
    chi2 = float(((observed / 2 - expected) ** 2 / expected).sum())
    assert chi2 <= 110.0, chi2  # p ~ 4e-4 on 65 dof


def test_bin_width_must_divide_range():
    with pytest.raises(ValueError, match="does not divide"):
        spectra_study(MicKind.GENERIC_PSD, 3, 5, Fraction(1, 200), seed=0)


def test_bin_width_accepts_float_and_string_fraction():
    h1 = spectra_study(MicKind.WH_GENERIC, 2, 20, Fraction(1, 200), seed=3)
    for width in (1 / 200, "1/200", " 1/200 ", "0.005"):
        h2 = spectra_study(MicKind.WH_GENERIC, 2, 20, width, seed=3)
        assert h2.bin_width == Fraction(1, 200)
        assert np.array_equal(h1.counts, h2.counts)
    assert spectra_study(MicKind.WH_RANK1, 3, 2, "1/198", seed=0).bin_width == Fraction(1, 198)


@pytest.mark.parametrize("width, message", [
    ("one half", "not a fraction: 'one half'"),
    ("1/0", "not a fraction: '1/0'"),
    (float("inf"), "not a fraction: inf"),
    (float("nan"), "not a fraction: nan"),
    (None, "not a fraction: None"),
    (0, "must be positive"),
    ("-1/200", "must be positive"),
    (1e-300, "bin width 1e-300 does not divide"),  # snaps to 0
])
def test_bad_bin_widths_raise_value_error(width, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        spectra_study(MicKind.WH_RANK1, 2, 3, width, seed=0)


@pytest.mark.parametrize("kind", list(MicKind))
def test_spectra_study_refuses_dimension_one(kind, monkeypatch):
    monkeypatch.setattr(ensembles, "_count_block", lambda *args: pytest.fail("sampled"))
    with pytest.raises(ValueError, match="d must be at least 2, got 1"):
        spectra_study(kind, 1, 3, Fraction(1, 10), seed=0)


def test_unbiased_kind_tops_the_last_bin():
    n = 40
    h = spectra_study(MicKind.WH_RANK1, 2, n, Fraction(1, 200), seed=1)
    # one maximal eigenvalue 1/d per sample, closed into the last bin
    assert h.counts[-1] >= n


def test_determinism_across_worker_counts():
    kwargs = dict(n_samples=60, bin_width=Fraction(1, 198), seed=21)
    h1 = spectra_study(MicKind.WH_RANK1, 3, workers=1, **kwargs)
    h4 = spectra_study(MicKind.WH_RANK1, 3, workers=4, **kwargs)
    assert np.array_equal(h1.counts, h4.counts)
    assert h1.seed == h4.seed == 21


def test_worker_pool_is_capped_by_cpu_count(monkeypatch):
    # a stand-in pool records its size and runs the chunks in this process
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, chunks):
            return [fn(*chunk) for chunk in chunks]

    monkeypatch.setattr("miclab.ensembles.multiprocessing.Pool", InlinePool)
    kwargs = dict(n_samples=40, bin_width=Fraction(1, 200), seed=5)
    wide = spectra_study(MicKind.WH_GENERIC, 2, workers=10_000, **kwargs)
    assert sizes and sizes[0] <= (os.cpu_count() or 1)
    one = spectra_study(MicKind.WH_GENERIC, 2, workers=1, **kwargs)
    assert np.array_equal(wide.counts, one.counts)


def test_determinism_across_runs():
    h1 = spectra_study(MicKind.GENERIC_RANK1, 2, 30, Fraction(1, 200), seed=9)
    h2 = spectra_study(MicKind.GENERIC_RANK1, 2, 30, Fraction(1, 200), seed=9)
    assert np.array_equal(h1.counts, h2.counts)


# ------------------------------------------------- covariant closed form

COVARIANT = (MicKind.WH_GENERIC, MicKind.WH_RANK1)


def _substream(seed, i):
    return np.random.default_rng(np.random.SeedSequence([seed, i]))


def _dense_counts(kind, d, n, seed, n_bins):
    # the histogram of the Gram spectra of random_mic, one sample at a time
    eigs = np.array([np.linalg.eigvalsh(random_mic(kind, d, _substream(seed, i)).gram)
                     for i in range(n)])
    idx = np.clip(np.floor(eigs * (n_bins * d)).astype(np.int64), 0, n_bins - 1)
    return np.bincount(idx.ravel(), minlength=n_bins)


@pytest.mark.parametrize("kind", COVARIANT)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_covariant_spectra_match_the_dense_gram(kind, d):
    n = 200
    fast = np.sort(ensembles._block_spectra(kind, d, 0, n, 13), axis=1)
    dense = np.array([np.linalg.eigvalsh(random_mic(kind, d, _substream(13, i)).gram)
                      for i in range(n)])
    assert np.abs(fast - dense).max() <= 1e-12


GENERIC = (MicKind.GENERIC_PSD, MicKind.GENERIC_RANK1)

# the samples of seed 7, n = 512 whose first draw a gate of the build refuses
NATURAL_REFUSALS = {
    (MicKind.GENERIC_PSD, 5): [13, 14, 183, 482],
    (MicKind.GENERIC_RANK1, 4): [170],
    (MicKind.GENERIC_RANK1, 5): [258],
}


@pytest.mark.parametrize("kind", GENERIC)
@pytest.mark.parametrize("d, n", [(2, 512), (3, 512), (4, 512), (5, 512), (5, 13)])
def test_generic_spectra_match_the_dense_path_bitwise(kind, d, n, monkeypatch):
    # At seed 7, n = 512 holds natural first-draw refusals at d = 4 and 5,
    # which take random_mic's path; every other sample passes every gate of
    # the batched build.  At d = 5 a batch holds 6 samples, so n = 13 ends
    # in a partial batch, as each 256-sample block does.  The block path
    # makes a generator only for a refused sample, and leaves it where
    # random_mic leaves that sample's.
    with monkeypatch.context() as m:
        fast_gens = _refusing_draw(m, lambda k, attempt: None, 7, n)
        fast = ensembles._block_spectra(kind, d, 0, n, 7)
    dense_gens = [_substream(7, i) for i in range(n)]
    dense = np.array([np.linalg.eigvalsh(random_mic(kind, d, g).gram) for g in dense_gens])
    assert fast.tobytes() == dense.tobytes()
    assert sorted(fast_gens) == [i for i in NATURAL_REFUSALS.get((kind, d), []) if i < n]
    assert [g.bytes(8) for g in fast_gens.values()] == [dense_gens[k].bytes(8) for k in fast_gens]


def _refusing_draw(monkeypatch, refuse, seed, n):
    """Patch the draws of samples 0..n-1 of seed's substreams so that draw
    number a of sample k is refused when refuse(k, a) names a gate.
    "overlap" gives I/d, whose displacement components all vanish; "rank"
    moves the draw to 1e-6 of the way from I/d, so its components of
    1e-6 |c| pass the overlap gate and fail the rank gate.  "trace" doubles
    the draw, which no gate redraws: a covariant fiducial of trace 2 is an
    invalid state.  A generic basis gets the same done to each element.  Two
    faults of a generic basis are not redrawn either.  "negative" gives its
    first element an eigenvalue of -1e-3 times its largest, keeping its trace
    positive: Omega stays positive definite, and that element's effect is
    indefinite.  "skew" adds 1e-6 i K to the first element and takes it from
    the second, K = |0><1| + |1><0|: Omega stays Hermitian, and those two
    effects are not.
    Both seams are patched: _first_draws, which reads a block's first draws
    from the PCG64 states their seed sequences seed, and _draw, which reads
    one draw from a generator.  A sample is told by its substream's initial
    state, where both a block's first draw and random_mic's generator start.
    The patch returns the generators _draw meets, by sample."""
    real_draw, real_first = ensembles._draw, ensembles._first_draws
    gens, index, draws = {}, {}, {}
    at = {st: k for k, st in enumerate(_numpy_states(seed, 0, n))}  # (state, inc) -> sample

    def fault(k, attempt, out, d):
        gate = refuse(k, attempt)
        if gate == "overlap":
            return np.broadcast_to(np.eye(d) / d, out.shape).copy()
        if gate == "rank":
            return (1 - 1e-6) * np.eye(d) / d + 1e-6 * out
        if gate == "negative":
            w, v = np.linalg.eigh(out[0])
            out = out.copy()
            out[0] -= (w[0] + 1e-3 * w[-1]) * np.outer(v[:, 0], v[:, 0].conj())
        if gate == "skew":
            kk = np.zeros((d, d))
            kk[0, 1] = kk[1, 0] = 1e-6
            out = out + np.array([1j * kk, -1j * kk] + [0 * kk] * (len(out) - 2))
        return 2 * out if gate == "trace" else out

    def first_draws(kind, d, seqs):
        return np.array([fault(at[st], 0, out, d)
                         for st, out in zip(_seeded_states(seqs), real_first(kind, d, seqs))])

    def draw(kind, d, rng):
        if id(rng) not in index:  # gens keeps every id unique
            st = rng.bit_generator.state["state"]
            k = at[st["state"], st["inc"]]
            index[id(rng)], gens[k], draws[k] = k, rng, 0
        k = index[id(rng)]
        draws[k] += 1
        return fault(k, draws[k] - 1, real_draw(kind, d, rng), d)

    monkeypatch.setattr(ensembles, "_first_draws", first_draws)
    monkeypatch.setattr(ensembles, "_draw", draw)
    return gens


@pytest.mark.parametrize("kind", COVARIANT)
def test_mixed_fiducial_fails_the_rank_gate_alone(kind):
    for i in range(20):
        rho = ensembles._draw(kind, 3, _substream(2, i))
        with pytest.raises(LinearlyDependent):  # not DegenerateFiducial
            wh_mic((1 - 1e-6) * np.eye(3) / 3 + 1e-6 * rho)


@pytest.mark.parametrize("kind", COVARIANT)
@pytest.mark.parametrize("d", [2, 3])
def test_orbit_mask_is_wh_mic_across_both_gates(kind, d):
    # rho_t = (1 - t) I/d + t rho scales every component but c_00 = 1 by t:
    # wh_mic's overlap gate refuses while t min|c| <= 1e-8, and the Gram rank
    # gate while t^2 min|c|^2 <= 1e-9.  The mask has no overlap term, and
    # still agrees with wh_mic at every t.
    rho = ensembles._draw(kind, d, _substream(6, d))
    ts = np.logspace(-9, -3, 61)
    rhos = (1 - ts)[:, None, None] * np.eye(d) / d + ts[:, None, None] * rho
    outcomes = []
    for t, rho_t, kept in zip(ts, rhos, ensembles._orbit_spectrum(rhos)[1]):
        try:
            wh_mic(rho_t)
            outcome = None
        except (DegenerateFiducial, LinearlyDependent) as exc:
            outcome = type(exc)
        assert kept == (outcome is None), t
        outcomes.append(outcome)
    assert set(outcomes) == {DegenerateFiducial, LinearlyDependent, None}


@pytest.mark.parametrize("kind", list(MicKind))
def test_redraws_match_the_dense_path(kind, monkeypatch):
    d, n, seed, n_bins = 3, 300, 4, 66

    def refuse(k, attempt):
        if k == 260 and attempt < 3:
            return "overlap"
        if attempt == 0 and k % 7 in (0, 1):
            return ("overlap", "rank")[k % 7]
        return None

    with monkeypatch.context() as m:
        fast_gens = _refusing_draw(m, refuse, seed, n)
        fast = spectra_study(kind, d, n, Fraction(1, 198), seed).counts
    with monkeypatch.context() as m:
        dense_gens = _refusing_draw(m, refuse, seed, n)
        dense = _dense_counts(kind, d, n, seed, n_bins)
    assert np.array_equal(fast, dense)
    # the block path makes a generator for each refused sample only
    assert sorted(fast_gens) == [k for k in range(n) if k % 7 in (0, 1)]
    assert sorted(dense_gens) == list(range(n))
    assert [g.bytes(8) for g in fast_gens.values()] == [dense_gens[k].bytes(8) for k in fast_gens]


@pytest.mark.parametrize("kind", list(MicKind))
def test_invalid_fiducial_raises_in_sample_order(kind, monkeypatch):
    # the first fault in sample order wins, as it does one sample at a time:
    # an invalid covariant fiducial or generic basis raises, a degenerate
    # draw exhausts its sample
    def dense():
        for i in range(10):
            random_mic(kind, 2, _substream(3, i))

    faults = ({"trace": InvalidState} if kind in COVARIANT
              else {"negative": NotPsd, "skew": NotHermitian})
    for bad, fault in faults.items():
        for gates, error in (({3: bad}, fault), ({2: "overlap", 3: bad}, SamplingExhausted)):
            for run in (dense, lambda: spectra_study(kind, 2, 10, Fraction(1, 200), seed=3)):
                with monkeypatch.context() as m:
                    _refusing_draw(m, lambda k, attempt: gates.get(k), 3, 10)
                    with pytest.raises(error):
                        run()


@pytest.mark.parametrize("kind", list(MicKind))
def test_exhausted_sample_is_named(kind, monkeypatch):
    refuse = lambda k, attempt: "overlap" if k == 270 else None  # noqa: E731
    with monkeypatch.context() as m:
        fast_gens = _refusing_draw(m, refuse, 3, 300)
        with pytest.raises(SamplingExhausted) as exc:
            spectra_study(kind, 2, 300, Fraction(1, 200), seed=3)
    assert exc.value.sample_index == 270
    assert exc.value.attempts == ensembles.MAX_DRAW_ATTEMPTS
    # the block path hands the sample to random_mic on a fresh substream, so
    # its generator ends where random_mic's does, MAX_DRAW_ATTEMPTS draws in
    with monkeypatch.context() as m:
        dense_gens = _refusing_draw(m, refuse, 3, 300)
        with pytest.raises(SamplingExhausted):
            random_mic(kind, 2, _substream(3, 270))
    assert fast_gens[270].bytes(8) == dense_gens[270].bytes(8)


def _seeded_states(seqs):
    # the PCG64 (state, inc) each seed sequence seeds
    out = []
    for seq in seqs:
        st = np.random.PCG64(seq).state["state"]
        out.append((st["state"], st["inc"]))
    return out


def _numpy_states(seed, start, stop):
    return _seeded_states([np.random.SeedSequence([seed, i]) for i in range(start, stop)])


def test_block_seeding_matches_numpy(monkeypatch):
    # the restated SeedSequence hash must seed PCG64 to numpy's own states;
    # if numpy ever changes its seeding, this fails
    rs = np.random.default_rng(2024)
    seeds = [0, 1, 7, 2 ** 32 - 1, *rs.integers(0, 2 ** 32, 4).tolist()]
    ranges = [(0, 64), (0, 256), (256, 512), (2 ** 32 - 64, 2 ** 32)]
    ranges += [(i, i + 1) for i in rs.integers(0, 2 ** 32, 40).tolist()]
    for seed in seeds:
        for start, stop in ranges:
            want = _numpy_states(seed, start, stop)
            with monkeypatch.context() as m:
                m.setattr(np.random, "SeedSequence", None)  # no numpy seeding on this path
                got = _seeded_states(ensembles._substreams(seed, start, stop))
                assert got == want, (seed, start)


def test_seeds_beyond_one_word_are_left_to_numpy():
    # a seed or index of 2^32 or more is more than one entropy word
    for seed, start, stop in ((2 ** 32, 0, 3), (2 ** 40, 5, 8), (7, 2 ** 32 - 2, 2 ** 32 + 2)):
        got = _seeded_states(ensembles._substreams(seed, start, stop))
        assert got == _numpy_states(seed, start, stop)


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        spectra_study(MicKind.WH_RANK1, 2, 3, Fraction(1, 200), seed=-1)


@pytest.mark.parametrize("kind", GENERIC)
@pytest.mark.parametrize("d", [2, 3])
def test_gram_rank_near_the_threshold_is_decided_by_svd(kind, d, monkeypatch):
    # A basis whose last element is a0 + a1 + eps x is nearly dependent: its
    # MIC Gram's least eigenvalue falls as eps^2, so a sweep of eps crosses
    # rank_tol.  Where min |eig| comes within 1e3 of the threshold, the
    # Gram's SVD decides, and the decision is the single build's.  The
    # oracle is numerical_rank on a basis Gram and a MIC Gram that the test
    # squashes itself.  The basis Gram's SVD runs only where the spectral
    # bound leaves the rank in doubt, once per stack of such rows.
    calls = []

    def rank(a, tol):
        calls.append(len(a))
        return numerical_rank(a, tol)

    # the basis gate's rank and the MIC Gram's
    monkeypatch.setattr(ensembles, "numerical_rank", rank)
    monkeypatch.setattr(povm, "numerical_rank", rank)
    a = ensembles._draw(kind, d, np.random.default_rng(1))
    x = ensembles._draw(kind, d, np.random.default_rng(2))[0]
    outcomes = set()
    for eps in np.logspace(-2, -4, 9):
        b = a.copy()
        b[-1] = a[0] + a[1] + eps * x
        calls.clear()
        kept = ensembles._squash_spectra(b[None])[1][0]
        batch_calls = calls[:]
        try:
            mic_from_psd_basis(b)
            built = True
        except LinearlyDependent:
            built = False
        assert kept == built, eps
        w, v = np.linalg.eigh(b.sum(axis=0))
        r = (v / np.sqrt(w)) @ v.conj().T
        e = r @ b @ r
        spans = [numerical_rank(np.einsum("iab,jba->ij", m, m).real) == d * d for m in (b, e)]
        assert kept == all(spans), eps
        if kept:  # the MIC Gram's rank went to the SVD, and so did the basis Gram's
            assert not _spectrally_certified(b[None])[0], eps
            assert batch_calls == [1, 1], eps
        outcomes.add(bool(kept))
    assert outcomes == {True, False}
    # far from the threshold the eigenvalues decide, with no second SVD; the
    # basis Grams the spectral bound leaves in doubt take one SVD as a stack
    calls.clear()
    draws = np.array([ensembles._draw(kind, d, _substream(7, i)) for i in range(6)])
    assert ensembles._squash_spectra(draws)[1].all()
    doubt = ~_spectrally_certified(draws)
    assert calls == ([int(doubt.sum())] if doubt.any() else [])


def _spectrally_certified(bases, tol=DEFAULT_TOL):
    # ensembles._squash_spectra's certificate of each basis's rank, restated
    # from a squash the test makes itself: the least |eigenvalue| of the MIC
    # Gram over its largest, times (w_min / w_max)^2 of Omega, above 1e3 rank_tol
    w, v = np.linalg.eigh(bases.sum(axis=1))
    r = (v / np.sqrt(w)[:, None, :]) @ v.conj().mT
    e = r[:, None] @ bases @ r[:, None]
    s = np.abs(np.linalg.eigvalsh(np.einsum("...iab,...jba->...ij", e, e).real))
    return s.min(axis=-1) / s.max(axis=-1) * (w[:, 0] / w[:, -1]) ** 2 > 1e3 * tol.rank_tol


@pytest.mark.parametrize("kind", GENERIC)
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_batch_keeps_what_the_build_keeps_where_the_spectral_bound_is_weak(kind, d):
    # The bound on the basis Gram's rank pays for cond(Omega) squared, so
    # past cond(Omega) = 10^3 it certifies nothing.  Three kinds of row
    # stress it.  One element scaled by 10^k.  A congruence S A_i S, with S
    # scaling one basis vector of C^d by 10^(k/2): it leaves the MIC as it
    # is, up to a unitary, while cond(Omega) grows as 10^k and the basis
    # Gram's condition as 10^(2k), so for large k the build refuses a basis
    # whose MIC Gram is well conditioned; applied to a SIC (refused from
    # k = 5 on) it comes within a factor 2 of the bound.  At d = 8, where no
    # SIC fiducial is built in, the congruence is applied to the tensor cube
    # of the qubit SIC.  And a last element a0 + a1 + eps x, which leaves the
    # basis nearly dependent.  Per row, as one stack and alone, the batch
    # keeps exactly what mic_from_psd_basis builds, and the rows cover
    # certified, doubted and refused ones.
    rng = np.random.default_rng(d)
    frame = (sic_mic(d) if d <= 5 else tensorhedron_mic(sic_qubit(), 3)).matrices()
    rows = []
    for k in range(-8, 9):
        b = ensembles._draw(kind, d, rng)
        b[rng.integers(d * d)] *= 10.0 ** k
        rows.append(b)
        scale = np.ones(d)
        scale[rng.integers(d)] = 10.0 ** (k / 2)
        rows.append(scale[:, None] * ensembles._draw(kind, d, rng) * scale)
        rows.append(scale[:, None] * frame * scale)
    a, x = ensembles._draw(kind, d, rng), ensembles._draw(kind, d, rng)[0]
    for eps in np.logspace(-1, -7, 13):
        rows.append(np.concatenate([a[:-1], [a[0] + a[1] + eps * x]]))
    rows = np.array(rows)
    built = []
    for b in rows:
        try:
            mic_from_psd_basis(b)
            built.append(True)
        except MicLabError:
            built.append(False)
    kept = ensembles._squash_spectra(rows)[1]
    assert kept.tolist() == built
    assert [ensembles._squash_spectra(b[None])[1][0] for b in rows] == built
    certified = _spectrally_certified(rows)
    assert (kept & certified).any() and (kept & ~certified).any() and not kept.all()


@pytest.mark.parametrize("kind", GENERIC)
def test_spectral_certificate_stops_past_the_dimensions_it_was_measured_at(kind, monkeypatch):
    # the certificate's rounding constants were measured up to d = 8: there
    # it spares some kept rows their basis Gram, and past it none
    rows = []

    def gram(a):
        rows.append(len(a))
        return constructions._basis_gram(a)

    monkeypatch.setattr(ensembles, "_basis_gram", gram)
    for d, seed in ((8, 3), (9, 3)):
        rows.clear()
        draws = np.array([ensembles._draw(kind, d, _substream(seed, i)) for i in range(6)])
        kept = int(ensembles._squash_spectra(draws)[1].sum())
        assert kept and (sum(rows) < kept if d == 8 else rows == [kept])


@pytest.mark.parametrize("kind", GENERIC)
@pytest.mark.parametrize("scale, skews", [(1e3, (1e-11, 0)), (1, (1e-10, -1e-10))])
def test_hermiticity_gates_refuse_alone(kind, scale, skews):
    # Skew parts that only one gate of the batch sees; the build raises
    # NotHermitian for both.  At scale 1e3, a skew of 1e-11 in one element
    # leaves Omega beyond hermitian_tol, and the squash divides it by Omega's
    # scale: only Omega's gate refuses.  Opposite skews of 1e-10 in two
    # elements cancel in Omega and leave two effects beyond hermitian_tol,
    # while the Gram's imaginary residue stays below zero_tol: only the
    # effects' gate refuses.
    b = scale * ensembles._draw(kind, 2, np.random.default_rng(1))
    b[:2, 0, 1] += 1j * np.array(skews)
    with pytest.raises(NotHermitian):
        mic_from_psd_basis(b)
    assert not ensembles._squash_spectra(b[None])[1][0]


@pytest.mark.parametrize("kind", COVARIANT)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_covariant_rows_sum_to_the_fiducial_purity(kind, d, monkeypatch):
    # tr G = sum_kl |tr(D_kl^dagger rho)|^2 / d = tr rho^2: 1 for a pure
    # fiducial.  Sample 3's first draw is refused, so its row comes from the
    # redraw path; rho is d E_00 of random_mic's MIC, as D_00 = I.
    n, seed = 12, 5
    refuse = lambda k, attempt: "overlap" if (k, attempt) == (3, 0) else None  # noqa: E731
    with monkeypatch.context() as m:
        redrawn = _refusing_draw(m, refuse, seed, n)
        sums = ensembles._block_spectra(kind, d, 0, n, seed).sum(axis=1)
    assert sorted(redrawn) == [3]
    with monkeypatch.context() as m:
        _refusing_draw(m, refuse, seed, n)
        rhos = [d * random_mic(kind, d, _substream(seed, i)).matrices()[0] for i in range(n)]
    purity = np.array([np.vdot(rho, rho).real for rho in rhos])
    want = np.ones(n) if kind is MicKind.WH_RANK1 else purity
    assert np.abs(sums - want).max() <= 1e-13


@pytest.mark.parametrize("kind", list(MicKind))
def test_blocks_sum_to_the_same_table_at_any_worker_count(kind):
    n = 600  # two whole blocks and a partial one
    assert n // BLOCK_SIZE == 2 and n % BLOCK_SIZE
    tables = [spectra_study(kind, 2, n, Fraction(1, 200), seed=8, workers=w).counts
              for w in (1, 2, 3)]
    assert all(np.array_equal(t, tables[0]) for t in tables[1:])
    assert np.array_equal(tables[0], _dense_counts(kind, 2, n, 8, 100))


# seeds past 2**32 take the per-sample SeedSequence path
@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.sampled_from(list(MicKind)), st.sampled_from((2, 3)), st.integers(1, 700),
       st.integers(0, 2 ** 32 - 1) | st.integers(2 ** 32, 2 ** 64))
def test_worker_count_never_changes_the_counts(kind, d, n, seed):
    tables = [spectra_study(kind, d, n, default_bin_width(d), seed=seed, workers=w).counts
              for w in (1, 2)]
    assert np.array_equal(tables[0], tables[1])


def test_pool_rounds_cover_every_block(monkeypatch):
    # one process takes four blocks a round: five blocks take two rounds
    monkeypatch.setattr("miclab.ensembles.os.cpu_count", lambda: 1)
    kwargs = dict(n_samples=4 * BLOCK_SIZE + 1, bin_width=Fraction(1, 200), seed=2)
    pooled = spectra_study(MicKind.WH_RANK1, 2, workers=2, **kwargs)
    assert np.array_equal(pooled.counts, spectra_study(MicKind.WH_RANK1, 2, **kwargs).counts)


# ----------------------------------------------------------------- plateau

def test_plateau_metric_uniform_histogram_is_one():
    counts = np.full(66, 12, dtype=np.int64)
    h = SpectraHistogram(kind=MicKind.WH_RANK1, d=3, bin_width=Fraction(1, 198),
                         counts=counts, n_samples=88, seed=0)
    assert plateau_metric(h) == 1.0


def test_plateau_metric_requires_d3():
    h = spectra_study(MicKind.WH_RANK1, 2, 10, Fraction(1, 200), seed=2)
    with pytest.raises(WrongDimension):
        plateau_metric(h)


def test_plateau_metric_empty_right_bin_is_infinite():
    counts = np.zeros(66, dtype=np.int64)
    counts[10] = 9  # all mass far left of the 1/12 edge
    h = SpectraHistogram(kind=MicKind.WH_RANK1, d=3, bin_width=Fraction(1, 198),
                         counts=counts, n_samples=1, seed=0)
    assert plateau_metric(h) == float("inf")
