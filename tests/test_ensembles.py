"""Random MIC samplers and the Gram-spectra histogram study."""

import hashlib
import os
from fractions import Fraction

import numpy as np
import pytest

from miclab.ensembles import (
    MicKind,
    SpectraHistogram,
    default_bin_width,
    gue_psd_sample,
    gue_sample,
    haar_pure_state,
    plateau_metric,
    random_mic,
    spectra_study,
)
from miclab.errors import WrongDimension
from miclab.povm import is_unbiased, rank1_mic_check
from miclab.serialize import histogram_to_table


def test_haar_state_is_normalized():
    rng = np.random.default_rng(0)
    for d in (2, 3, 7):
        v = haar_pure_state(d, rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_haar_first_component_mean():
    # |<e1|psi>|^2 is Beta(1, d-1); its mean is 1/d
    rng = np.random.default_rng(1)
    d, n = 3, 20000
    vals = np.array([abs(haar_pure_state(d, rng)[0]) ** 2 for _ in range(n)])
    sigma = np.sqrt((d - 1) / (d * d * (d + 1)) / n)
    assert abs(vals.mean() - 1 / d) < 4 * sigma


def test_gue_sample_hermitian_psd_product():
    rng = np.random.default_rng(2)
    m = gue_sample(4, rng)
    assert np.abs(m - m.conj().T).max() < 1e-14
    p = gue_psd_sample(4, rng)
    assert np.abs(p - p.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(p)[0] > -1e-12


def test_gue_second_moment_convention():
    # E[tr M^dagger M] = d(d+1)/2 with unit-variance entries
    rng = np.random.default_rng(3)
    d, n = 3, 20000
    total = sum(np.trace(gue_psd_sample(d, rng)).real for _ in range(n)) / n
    assert abs(total - d * (d + 1) / 2) / (d * (d + 1) / 2) < 0.05


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


def test_bin_width_must_divide_range():
    with pytest.raises(ValueError):
        spectra_study(MicKind.GENERIC_PSD, 3, 5, Fraction(1, 200), seed=0)


def test_bin_width_accepts_float_and_string_fraction():
    h1 = spectra_study(MicKind.WH_GENERIC, 2, 20, Fraction(1, 200), seed=3)
    h2 = spectra_study(MicKind.WH_GENERIC, 2, 20, 1 / 200, seed=3)
    assert np.array_equal(h1.counts, h2.counts)


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
