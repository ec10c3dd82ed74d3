"""The benchmark's checks accept real outputs and reject corrupted ones.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import env

env.pin_blas()
env.use_checkout_source()

import json  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from miclab import cli, constructions, ensembles, povm  # noqa: E402
from workloads import reference_bin  # noqa: E402

SEED = 11
N = 40


@pytest.fixture(scope="module", params=["wh", "wh-rank1"])
def covariant(request):
    kind, d = request.param, 3
    counts = ensembles.spectra_study(kind, d, N, reference_bin(d), SEED).counts
    oracle, ties = checks.covariant_counts(kind, d, N, SEED, len(counts))
    return kind, d, np.array(counts), oracle, ties


def test_covariant_histogram_matches_closed_form(covariant):
    kind, d, counts, oracle, ties = covariant
    assert checks.check_histogram(counts, N, d) == []
    assert checks.check_against_oracle(counts, oracle, ties, kind)[0] == []


def test_histogram_with_one_count_moved_is_rejected(covariant):
    kind, d, counts, oracle, ties = covariant
    bad = counts.copy()
    k = int(np.argmax(bad[:-1]))
    bad[k] -= 1
    bad[k + 1] += 1
    assert checks.check_against_oracle(bad, oracle, ties, kind)[0]


def test_histogram_totals_are_checked(covariant):
    _, d, counts, _, _ = covariant
    dropped = counts.copy()
    dropped[0] += 1
    assert checks.check_histogram(dropped, N, d)
    short_top = counts.copy()
    short_top[-1] = N - 1
    short_top[0] += int(counts[-1]) - (N - 1)
    assert checks.check_histogram(short_top, N, d)


@pytest.fixture(scope="module", params=["generic", "generic-rank1"])
def generic(request):
    kind, d, n = request.param, 3, 20
    counts = np.array(ensembles.spectra_study(kind, d, n, reference_bin(d), SEED).counts)
    mine = checks.generic_spectra(kind, d, n, SEED)
    oracle, ties = checks.bin_counts(np.concatenate(mine), d, len(counts))
    return kind, d, n, counts, mine, oracle, ties


def test_generic_histogram_matches_oracle(generic):
    kind, d, n, counts, mine, oracle, ties = generic
    assert checks.check_histogram(counts, n, d) == []
    assert checks.check_against_oracle(counts, oracle, ties, kind)[0] == []
    theirs = [np.linalg.eigvalsh(ensembles.random_mic(kind, d, checks.substream(SEED, i)).gram)
              for i in (0, 10)]
    assert checks.check_samples(theirs, [mine[0], mine[10]], kind) == []
    perturbed = [theirs[0] + 1e-7, theirs[1]]
    assert checks.check_samples(perturbed, [mine[0], mine[10]], kind)


def test_generic_histogram_with_one_count_moved_is_rejected(generic):
    kind, _, _, counts, _, oracle, ties = generic
    bad = counts.copy()
    k = int(np.argmax(bad[:-1]))
    bad[k] -= 1
    bad[k + 1] += 1
    assert checks.check_against_oracle(bad, oracle, ties, kind)[0]


def test_generic_histogram_shifted_by_one_bin_is_rejected(generic):
    kind, _, _, counts, _, oracle, ties = generic
    shifted = np.concatenate([counts[1:-1], [0], counts[-1:]])
    shifted[-1] += counts[0]
    assert checks.check_against_oracle(shifted, oracle, ties, kind)[0]


@pytest.fixture(scope="module")
def round_trip():
    mic = constructions.sic_mic(3)
    rng = np.random.default_rng(SEED)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    p = povm.born_probabilities(rho, mic)
    back = povm.reconstruct_state(p, mic)
    return rho, mic.matrices(), np.array(p), np.array(back), povm.purity_form(p, mic.gram)


def test_round_trip_passes(round_trip):
    assert checks.check_round_trip(*round_trip) == []


@pytest.mark.parametrize("which", ["p", "back", "purity"])
def test_perturbed_round_trip_is_rejected(round_trip, which):
    rho, effects, p, back, purity = round_trip
    if which == "p":
        p = p.copy()
        p[0] += 1e-9
    elif which == "back":
        back = back.copy()
        back[0, 1] += 1e-7
    else:
        purity += 1e-7
    assert checks.check_round_trip(rho, effects, p, back, purity)


def _gen_analyze(tmp_path, argv):
    doc, report = tmp_path / "doc.json", tmp_path / "report.json"
    codes = (cli.main(argv + ["--out", str(doc)]),
             cli.main(["analyze", str(doc), "--out", str(report)]))
    return codes, doc.read_text(encoding="utf-8"), report.read_text(encoding="utf-8")


@pytest.mark.parametrize("kind,d,argv", [
    ("sic", 3, ["gen", "sic", "--d", "3"]),
    ("sic", 2, ["gen", "sic", "--d", "2"]),
    ("example7", 3, ["gen", "example7"]),
    ("orthocross", 3, ["gen", "orthocross", "--d", "3"]),
])
def test_documents_pass(tmp_path, kind, d, argv):
    codes, doc, report = _gen_analyze(tmp_path, argv)
    assert codes == (0, 0)
    assert checks.check_document(kind, d, doc, report) == []


def _flip(report: str, check: str, key: str, value) -> str:
    rep = json.loads(report)
    rep["checks"][check][key] = value(rep["checks"][check][key])
    return json.dumps(rep)


@pytest.mark.parametrize("kind,d,argv,check,key,value", [
    ("sic", 3, ["gen", "sic", "--d", "3"], "unbiased-equivalence", "weights_uniform",
     lambda v: not v),
    ("orthocross", 3, ["gen", "orthocross", "--d", "3"], "unbiased-equivalence",
     "max_eigenvalue_pinned", lambda v: not v),
    ("sic", 3, ["gen", "sic", "--d", "3"], "frobenius-gap", "gap", lambda v: v + 1e-6),
    ("sic", 3, ["gen", "sic", "--d", "3"], "inv-gram-distance", "distance",
     lambda v: v * (1 + 1e-6)),
    ("sic", 3, ["gen", "sic", "--d", "3"], "dual-indefiniteness", "all_indefinite",
     lambda v: not v),
    ("sic", 3, ["gen", "sic", "--d", "3"], "phi", "min_entry", abs),
    ("sic", 3, ["gen", "sic", "--d", "3"], "phi", "column_sum_deviation",
     lambda v: 1e-6),
    ("example7", 3, ["gen", "example7"], "ortho-pairs", "count", lambda v: v - 1),
    ("example7", 3, ["gen", "example7"], "covariance", "group_covariant", lambda v: not v),
    ("sic", 2, ["gen", "sic", "--d", "2"], "ortho-pairs", "count", lambda v: v + 1),
    ("sic", 2, ["gen", "sic", "--d", "2"], "covariance", "group_covariant", lambda v: not v),
])
def test_flipped_report_is_rejected(tmp_path, kind, d, argv, check, key, value):
    _, doc, report = _gen_analyze(tmp_path, argv)
    bad = _flip(report, check, key, value)
    assert checks.check_document(kind, d, doc, bad)


def test_corrupted_document_is_rejected(tmp_path):
    _, doc, report = _gen_analyze(tmp_path, ["gen", "sic", "--d", "2"])
    assert checks.check_document("sic", 2, doc.replace(", ", ",", 1), report)


def test_tracer_wraps_imported_names_and_restores_them():
    constructions.sic_mic(2)  # verifies and caches the built-in fiducial first
    original, parser = povm.gram, cli.build_parser
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert povm.gram is not original
        assert constructions.mic_from_matrices is povm.mic_from_matrices
        assert cli.build_parser is parser  # folded into cli.main's self time
        constructions.sic_mic(2)  # reaches povm.gram through povm.validate_mic
        ensembles.random_mic("wh", 2, checks.substream(SEED, 0))
    finally:
        tracer.remove()
    assert povm.gram is original
    calls, raised, self_s = tracer.stats["povm.gram"]
    assert calls >= 2 and raised == 0 and self_s >= 0
    calls, raised, _ = tracer.stats["ensembles.random_mic"]
    assert calls == 1 and raised == 0
    assert tracer.attempts >= 1
    assert tracer.stats["constructions.wh_mic"][0] >= tracer.attempts
    names = [name for name, _ in tracing.metric_names()]
    assert len(names) == len(set(names))

