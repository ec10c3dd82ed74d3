"""End-to-end CLI contract: subcommands, exit codes, byte determinism."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from miclab import analysis, cli, linalg
from miclab.ensembles import MicKind, SpectraHistogram, random_mic, spectra_study
from miclab.serialize import histogram_to_table

CLI = [sys.executable, "-m", "miclab"]


def run_cli(*args, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, timeout=300)


# ------------------------------------------------------------------- gen

def test_gen_sic_writes_parseable_document(tmp_path):
    out = tmp_path / "sic.json"
    res = run_cli("gen", "sic", "--d", "2", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["dimension"] == 2
    assert len(doc["effects"]) == 4


def test_gen_to_stdout_matches_file_output(tmp_path):
    out = tmp_path / "mic.json"
    res_file = run_cli("gen", "orthocross", "--d", "3", "--out", str(out))
    res_stdout = run_cli("gen", "orthocross", "--d", "3")
    assert res_file.returncode == res_stdout.returncode == 0
    assert res_stdout.stdout.strip() == out.read_text().strip()


@pytest.mark.parametrize("kind", ["orthocross", "wh"] + [f"random:{k.value}" for k in MicKind])
def test_gen_refuses_dimension_one(kind):
    res = run_cli("gen", kind, "--d", "1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: d must be at least 2, got 1\n"


@pytest.mark.parametrize("kind", ["wh", "random:generic", "random:wh-rank1"])
def test_gen_random_kind_refuses_a_dimension_beyond_the_envelope(kind, capsys):
    # refused before any draw: numpy never sees the size
    assert cli.main(["gen", kind, "--d", "1000000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dimension 1000000 exceeds supported limit 32\n"


def test_gen_appleby_even_dimension_usage_error():
    res = run_cli("gen", "appleby", "--d", "4")
    assert res.returncode == 2
    assert "odd dimension required" in res.stderr


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_tensorhedron_power_below_one_usage_error(n, capsys):
    assert cli.main(["gen", "tensorhedron", "--n", n]) == 2
    assert capsys.readouterr().err == f"error: need n >= 1 factors, got {n}\n"


@pytest.mark.parametrize("n", [str(10 ** 5), str(2 ** 64)])
def test_gen_tensorhedron_refuses_a_huge_power_before_taking_it(n, capsys):
    # a readable message, and no power of 2 with n digits is ever computed
    assert cli.main(["gen", "tensorhedron", "--d", "2", "--n", n]) == 2
    assert capsys.readouterr().err == f"error: dimension 2**{n} exceeds supported limit 32\n"


def test_gen_equiangular_requires_beta():
    res = run_cli("gen", "equiangular", "--d", "2")
    assert res.returncode == 2
    assert "--beta" in res.stderr


def test_gen_unknown_kind_usage_error():
    res = run_cli("gen", "dodecahedron", "--d", "3")
    assert res.returncode == 2


def test_gen_unknown_random_kind_usage_error():
    res = run_cli("gen", "random:nope", "--d", "2")
    assert res.returncode == 2


def test_gen_near_orthogonal_requires_valid_t():
    res = run_cli("gen", "near-orthogonal", "--d", "2", "--t", "1.5")
    assert res.returncode == 2
    res = run_cli("gen", "near-orthogonal", "--d", "2")
    assert res.returncode == 2


def test_gen_random_kind_deterministic_given_seed():
    a = run_cli("gen", "random:wh-rank1", "--d", "3", "--seed", "5")
    b = run_cli("gen", "random:wh-rank1", "--d", "3", "--seed", "5")
    c = run_cli("gen", "random:wh-rank1", "--d", "3", "--seed", "6")
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_example_subcommand_equals_gen_example7():
    a = run_cli("example")
    b = run_cli("gen", "example7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# --------------------------------------------------------------- analyze

def test_gen_analyze_round_trip(tmp_path):
    out = tmp_path / "ex7.json"
    assert run_cli("gen", "example7", "--out", str(out)).returncode == 0
    res = run_cli("analyze", str(out), "--checks", "ortho-pairs")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["checks"]["ortho-pairs"]["count"] == 7
    assert report["failures"] == []


def test_analyze_sic_frobenius_gap(tmp_path):
    out = tmp_path / "sic.json"
    run_cli("gen", "sic", "--d", "2", "--out", str(out))
    res = run_cli("analyze", str(out), "--checks", "frobenius-gap")
    assert res.returncode == 0
    entry = json.loads(res.stdout)["checks"]["frobenius-gap"]
    assert entry["gap"] == pytest.approx(1 / 3, abs=1e-9)
    assert entry["saturates_bound"] is True


def test_analyze_runs_all_checks_by_default(tmp_path):
    out = tmp_path / "sic3.json"
    run_cli("gen", "sic", "--d", "3", "--out", str(out))
    res = run_cli("analyze", str(out))
    assert res.returncode == 0
    checks = json.loads(res.stdout)["checks"]
    assert set(checks) == {
        "unbiased-equivalence", "dual-indefiniteness", "ortho-pairs",
        "frobenius-gap", "inv-gram-distance", "covariance", "phi",
    }
    assert checks["covariance"]["group_covariant"] is True
    assert checks["phi"]["min_entry"] < 0


def test_analyze_biased_mic_marks_gap_not_applicable(tmp_path):
    out = tmp_path / "oc.json"
    run_cli("gen", "orthocross", "--d", "3", "--out", str(out))
    res = run_cli("analyze", str(out), "--checks", "frobenius-gap,inv-gram-distance")
    assert res.returncode == 0
    checks = json.loads(res.stdout)["checks"]
    assert checks["frobenius-gap"]["status"] == "not-applicable"
    assert checks["inv-gram-distance"]["status"] == "not-applicable"


def test_analyze_truncated_document_parse_error(tmp_path):
    out = tmp_path / "mic.json"
    run_cli("gen", "sic", "--d", "2", "--out", str(out))
    out.write_text(out.read_text()[:100])
    res = run_cli("analyze", str(out))
    assert res.returncode == 2


def test_analyze_missing_file_parse_error(tmp_path):
    res = run_cli("analyze", str(tmp_path / "nope.json"))
    assert res.returncode == 2


def test_analyze_unknown_check_usage_error(tmp_path):
    out = tmp_path / "mic.json"
    run_cli("gen", "sic", "--d", "2", "--out", str(out))
    res = run_cli("analyze", str(out), "--checks", "vibes")
    assert res.returncode == 2


def test_analyze_invalid_mic_content(tmp_path):
    out = tmp_path / "bad.json"
    # effects sum to identity but are only 3 of the 4 needed for a MIC
    out.write_text(
        '{"dimension": 2, "effects": ['
        '[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],'
        '[[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],'
        '[[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]]}'
    )
    res = run_cli("analyze", str(out))
    assert res.returncode == 2


@pytest.mark.parametrize("text", [
    '{"dimension": 2, "effects": [{}]}',
    '{"dimension": 2, "effects": 5}',
    '{"dimension": 1e400, "effects": []}',  # json reads 1e400 as inf
    '{"dimension": 2, "effects": [[[[1' + "0" * 400 + ', 0.0]]]]}',
    '{"dimension": 2.7, "effects": []}',
    '{"dimension": true, "effects": [[[[1.0, 0.0]]]]}',
    '{"dimension": 1, "effects": [[[["1.0", "0"]]]]}',  # numbers as strings
    '{"dimension": 1, "effects": [[[[true, false]]]]}',
    '{"dimension": 1, "effects": [[[[true, 0]]]]}',  # numpy would read it as 1
    '{"dimension": 2, "effects": [[[["1.0", 0], [0, 0]], [[0, 0], [1, 0]]]]}',
    '{"dimension": 2, "effects": [[[[true, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
    '{"dimension": 2, "effects": [[[[null, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
    '{"dimension": 1, "effects": [[[[1.0, 0.0]]]]}',  # the one-effect d = 1 "MIC"
])
def test_analyze_malformed_document_is_one_parse_error(tmp_path, text):
    out = tmp_path / "bad.json"
    out.write_text(text)
    res = run_cli("analyze", str(out))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: cannot load MIC document: ")
    assert res.stderr.count("\n") == 1


def test_analyze_refuses_a_d1_document_on_its_dimension(tmp_path):
    out = tmp_path / "d1.json"
    out.write_text('{"dimension": 1, "effects": [[[[1.0, 0.0]]]]}')
    res = run_cli("analyze", str(out))
    assert res.returncode == 2
    assert res.stderr == ("error: cannot load MIC document: "
                          "dimension must be an integer in 2..32, got 1\n")


# --------------------------------------------------------------- spectra

def test_spectra_deterministic_across_runs_and_workers(tmp_path):
    f1, f2, f3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    base = ["spectra", "generic", "--d", "2", "--n", "120", "--seed", "1"]
    assert run_cli(*base, "--out", str(f1)).returncode == 0
    assert run_cli(*base, "--out", str(f2)).returncode == 0
    assert run_cli(*base, "--workers", "3", "--out", str(f3)).returncode == 0
    assert f1.read_bytes() == f2.read_bytes() == f3.read_bytes()


def test_spectra_prints_plateau_for_d3(tmp_path):
    out = tmp_path / "t.csv"
    res = run_cli("spectra", "wh-rank1", "--d", "3", "--n", "150",
                  "--seed", "7", "--out", str(out))
    assert res.returncode == 0
    assert "plateau_metric" in res.stdout
    header = out.read_text().split("\n")[0]
    assert header == "kind,d,bin_left,bin_right,count"


def test_spectra_keeps_its_table_and_exits_0_when_the_plateau_metric_is_undefined(
        tmp_path, capsys):
    # a bin of 1/6 leaves no whole bin below 1/12: the summary says so
    out = tmp_path / "t.csv"
    argv = ["spectra", "wh", "--d", "3", "--n", "10", "--bin", "1/6", "--seed", "1"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ("plateau_metric = undefined (bin width 1/6 leaves "
                                       "no whole bin on one side of 1/12)\n")
    hist = spectra_study(MicKind.WH_GENERIC, 3, 10, Fraction(1, 6), seed=1)
    assert out.read_text(encoding="utf-8") == histogram_to_table(hist)


def test_spectra_negative_seed_exits_2():
    res = run_cli("spectra", "wh", "--d", "2", "--n", "3", "--seed=-1")
    assert res.returncode == 2
    assert res.stderr == "error: expected non-negative integer\n"


@pytest.mark.parametrize("kind", ["wh", "generic"])
def test_spectra_seed_beyond_one_word_matches_per_sample_draws(kind, tmp_path):
    # a seed of 2^40 is two entropy words: numpy seeds its substreams, and
    # the table is the histogram of random_mic on each of them
    seed, n = 1099511627776, 20
    out = tmp_path / "t.csv"
    res = run_cli("spectra", kind, "--d", "2", "--n", str(n), f"--seed={seed}", "--out", str(out))
    assert res.returncode == 0, res.stderr
    eigs = np.array([
        np.linalg.eigvalsh(random_mic(MicKind(kind), 2, default_rng(SeedSequence([seed, i]))).gram)
        for i in range(n)])
    counts = np.bincount(np.clip(np.floor(eigs * 200).astype(np.int64), 0, 99).ravel(),
                         minlength=100)
    hist = SpectraHistogram(kind=MicKind(kind), d=2, bin_width=Fraction(1, 200),
                            counts=counts, n_samples=n, seed=seed)
    assert out.read_text(encoding="utf-8") == histogram_to_table(hist)


@pytest.mark.parametrize("d", [6, 7])
def test_spectra_default_bin_tiles_d6_and_d7(d):
    res = run_cli("spectra", "wh", "--d", str(d), "--n", "3")
    assert res.returncode == 0, res.stderr
    rows = res.stdout.strip().split("\n")[1:]
    assert len(rows) == 200 // d
    assert sum(int(r.rsplit(",", 1)[1]) for r in rows) == 3 * d * d


def test_spectra_rejects_dimension_outside_envelope():
    res = run_cli("spectra", "generic", "--d", "9", "--n", "5")
    assert res.returncode == 2


def test_spectra_rejects_non_dividing_bin():
    res = run_cli("spectra", "generic", "--d", "3", "--n", "5", "--bin", "1/200")
    assert res.returncode == 2


@pytest.mark.parametrize("width", ["1/0", "one half"])
def test_spectra_rejects_an_unparsable_bin(width):
    res = run_cli("spectra", "wh", "--d", "2", "--n", "5", "--bin", width)
    assert res.returncode == 2
    assert res.stderr == f"error: not a fraction: {width!r}\n"


def test_spectra_rejects_unknown_kind():
    res = run_cli("spectra", "heptagonal", "--d", "2", "--n", "5")
    assert res.returncode == 2


# ---------------------------------------------------------------- verify

THEOREM_LINES = [
    "criterion 01 qubit SIC Gram and spectrum closed forms",
    "criterion 02 nine-outcome golden example matches its rational Gram table",
    "criterion 03 unbiasedness predicates agree across 400 random MICs",
    "criterion 04 orthocross spectrum closed form and probability bound",
    "criterion 05 squared Frobenius gap to the orthogonal ideal is minimized by SICs",
    "criterion 06 inverse-Gram distance equals 2*sqrt(3) for the qubit SIC and is minimal",
    "criterion 07 cascaded probabilities equal direct ones; SIC conditional inverse",
    "criterion 08 tensor-square Gram is the Kronecker square; zero count follows",
    "criterion 09 odd-dimension covariant MIC ranks and quasiprobability normalization",
    "criterion 10 probability quadratic form recovers purity",
    "criterion 11 dual indefiniteness, no unscaled projectors, no d=2 orthogonality",
    "state reconstruction and purity form",
    "SIC Gram closed form d=2..5",
    "equiangular Gram closed form",
    "Weyl-Heisenberg orbit covariance",
    "rank-1 projector Gram criterion",
]


def test_verify_theorems_passes():
    res = run_cli("verify", "theorems", "--seed", "42")
    assert res.returncode == 0
    assert "FAIL" not in res.stdout
    lines = res.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"ok   {name}" for name in THEOREM_LINES]
    # criteria 1-11 at 1/20 scale
    assert "over 2000 states" in lines[3] and "over 300 MICs" in lines[10]
    again = run_cli("verify", "theorems", "--seed", "42")
    assert again.stdout == res.stdout


def test_verify_conjectures_always_exit_zero():
    res = run_cli("verify", "conjectures", "--seed", "1")
    assert res.returncode == 0
    assert "rank1-orthopair-search" in res.stdout


def test_no_subcommand_is_usage_error():
    res = run_cli()
    assert res.returncode == 2


# a fresh process imports these only when it draws or runs a worker pool
LAZY_MODULES = ("numpy.random", "multiprocessing")
_FRESH_RUNS = """\
import json, sys
import miclab, miclab.cli
for argv in json.loads(sys.argv[1]):
    assert miclab.cli.main(argv) == 0, argv
print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
"""


@pytest.mark.parametrize("kind, extra, loaded", [
    ("sic", [], []),
    ("random:wh-rank1", ["--seed", "7"], ["numpy.random"]),
])
def test_fresh_process_loads_numpy_random_only_to_draw(kind, extra, loaded, tmp_path):
    doc, report = tmp_path / "mic.json", tmp_path / "report.json"
    runs = [["gen", kind, "--d", "3", *extra, "--out", str(doc)],
            ["analyze", str(doc), "--out", str(report)]]
    res = subprocess.run([sys.executable, "-c", _FRESH_RUNS, json.dumps(runs),
                          json.dumps(LAZY_MODULES)], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == loaded


# main builds its parser once per process; these run several commands in one


def _call(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_parser_forgets_beta_between_calls(capsys):
    assert _call(capsys, "gen", "equiangular", "--beta", "0.5")[0] == 0
    code, _, err = _call(capsys, "gen", "equiangular")
    assert code == 2
    assert "requires --beta" in err


def test_shared_parser_forgets_checks_between_calls(tmp_path, capsys):
    doc = tmp_path / "sic3.json"
    assert _call(capsys, "gen", "sic", "--d", "3", "--out", str(doc))[0] == 0
    code, out, _ = _call(capsys, "analyze", str(doc), "--checks", "ortho-pairs")
    assert code == 0
    assert set(json.loads(out)["checks"]) == {"ortho-pairs"}
    code, out, _ = _call(capsys, "analyze", str(doc))
    assert code == 0
    assert tuple(json.loads(out)["checks"]) == tuple(analysis.CLAIMS)


def test_a_check_named_twice_runs_once(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "sic2.json"
    assert _call(capsys, "gen", "sic", "--d", "2", "--out", str(doc))[0] == 0
    calls = []
    monkeypatch.setitem(analysis.CLAIMS, "phi", lambda mic, tol: calls.append(1) or ({}, False))
    code, out, err = _call(capsys, "analyze", str(doc), "--checks", "phi,ortho-pairs,phi")
    assert code == 1 and calls == [1]
    report = json.loads(out)
    assert list(report["checks"]) == ["phi", "ortho-pairs"]
    assert report["failures"] == ["phi"]
    assert "checks failed: phi\n" in err


def test_analyze_runs_on_one_blas_thread_and_restores_the_count(tmp_path, capsys, monkeypatch):
    if linalg._openblas_threads() is None:
        pytest.skip("numpy has no bundled scipy-openblas: analyze does not pin")
    get, put = linalg._openblas_threads()
    doc = tmp_path / "sic2.json"
    assert _call(capsys, "gen", "sic", "--d", "2", "--out", str(doc))[0] == 0
    seen = []
    real = analysis.CLAIMS["phi"]
    monkeypatch.setitem(analysis.CLAIMS, "phi", lambda mic, tol: seen.append(get()) or real(mic, tol))
    old = get()
    try:
        for count in (2, 1):
            put(count)
            assert _call(capsys, "analyze", str(doc), "--checks", "phi")[0] == 0
            assert get() == count
    finally:
        put(old)
    assert seen == [1, 1]


def test_shared_parser_recovers_from_help_and_usage_errors(capsys):
    gen = ("gen", "sic", "--d", "3")
    first = _call(capsys, *gen)
    assert first[0] == 0
    shown = _call(capsys, "--help")
    assert shown[0] == 0
    assert "usage: miclab" in shown[1]
    assert _call(capsys, *gen) == first
    refused = _call(capsys, "gen", "sic", "--d", "three")
    assert refused[0] == 2
    assert "invalid int value" in refused[2]
    assert _call(capsys, *gen) == first
    assert _call(capsys, "--help") == shown
    assert _call(capsys, "gen", "sic", "--d", "three") == refused


def test_env_tolerance_override_accepted(tmp_path):
    import os
    env = dict(os.environ, MIC_LAB_TOL="1e-6")
    out = tmp_path / "mic.json"
    res = run_cli("gen", "sic", "--d", "2", "--out", str(out), env=env)
    assert res.returncode == 0


@pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf"])
def test_env_tolerance_rejects_bad_value(value):
    import os
    env = dict(os.environ, MIC_LAB_TOL=value)
    res = run_cli("gen", "sic", "--d", "2", env=env)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: MIC_LAB_TOL=")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_env_tolerance_applies_to_gen_and_analyze_only():
    import os
    env = dict(os.environ, MIC_LAB_TOL="0.5")
    # rank_tol = 0.5 refuses the random basis, so gen reads the variable
    assert run_cli("gen", "random:generic", "--d", "3", "--seed", "5", env=env).returncode == 3
    args = ("spectra", "generic", "--d", "3", "--n", "30", "--seed", "5")
    plain, tuned = run_cli(*args), run_cli(*args, env=env)
    assert tuned.returncode == plain.returncode == 0
    assert tuned.stdout == plain.stdout


# ------------------------------------------------------------ byte pins

# sha256 of the gen document and of its analyze report for each gen kind,
# random kinds and wh at seed 7; tensorhedron (n = 2) stops at d = 4, as
# d = 5 alone takes ~10 s
DOCUMENT_AND_REPORT_DIGESTS = {
    ("sic", 2): ("43a1712a52fd07ed88b0ab116492dcde7eb1f808a2ca5743feecbf2fd4ba55e8",
        "34e35a6580e8184fb4fd807f0bd53a3e5cce1a6113946031862de46f6787c90d"),
    ("wh", 2): ("5440eccb298a7f6eea4c8e8d7fbbcb42d91e839b14bee782f8d7dec91341040e",
        "08488d829a1c53dd2e0d015cb96cb2ec92a6b72d069f05bda29bc157b501366d"),
    ("orthocross", 2): ("ccd870d205d23d6c2631f18fee23e5d5fa7a5eed01283109bc99adbe6dc699df",
        "9c142f07557d310af03ad82c5f195225ce1404ba2c0f528114a98c8c8e528a0b"),
    ("equiangular", 2): ("724b00a953692e375e3363407a62c89f5bac0c974a3d9991ded4595f27716d33",
        "1ffeeff75c5404df6d57cc0a7b3851ecb5e01249f8ac1f923840a8b9af174bf8"),
    ("tensorhedron", 2): ("0a180209c7314a006f5247d1bd63418b5047f1cfacd3f0b7c55243a61973b534",
        "a6c6b4d74f5b83004b9f47eb06e75d86301de72a1c3fdc68b0d51b53e19509d0"),
    ("near-orthogonal", 2): ("c09714059762d0f11fbff251b5ec39e3a183ed8c5b760921231fdff625b28eb3",
        "5a1009705cfa615b7280f57de031d22521ec93d90b98f72c80e01d574292305b"),
    ("random:generic", 2): ("c0317cdf471cba4747341d74515c1928045062fc7708daeaa6817533df9d3b4b",
        "288ad7c82e646932160ed73493956ce369cd3c0cbba7d6301e37689f3f5f3e42"),
    ("random:generic-rank1", 2): ("c37ec303a7e274669a6580d54a82d4fd8f1795a7101a3df3711decae7dba06d3",
        "22effd0159fb137d2b6fba25027b8f79098a7564c777b0f6df0cbbd323cc3490"),
    ("random:wh", 2): ("5440eccb298a7f6eea4c8e8d7fbbcb42d91e839b14bee782f8d7dec91341040e",
        "08488d829a1c53dd2e0d015cb96cb2ec92a6b72d069f05bda29bc157b501366d"),
    ("random:wh-rank1", 2): ("1ec726397fca979868963746ef68c7dffee04dcd07969979ff12079b0ccfbd14",
        "96a21d4415ad7e4901fc1f588f9e7d7daa1bfccaf7123fff4126870522f208ae"),
    ("sic", 3): ("f0988b7f6780523b49a76dda20311210ad658ba7895f5e5ceab96e6afdb8d6a1",
        "882c106063c61282b155a9725194a2d481f75da747a780cef0c4754b2f774b26"),
    ("wh", 3): ("39ed7c0a157831d4f326d3c3217678d73a8de2492af55abe1d54689450161833",
        "c119132c730a7fca2a947db2a1d84e03b8521962bd6f6a3d2d963101dc099629"),
    ("orthocross", 3): ("aec1785559d70af0c5d39b713376857fdd871093af4c66197f0ea1c1ddc53589",
        "7b34454880bf286ad99238ea333e189dda81d63dda2b04acf91d1471cd49d584"),
    ("equiangular", 3): ("18ad39a337362c7eca995d43792140f7475da674ce0e6791fef9417a7636eaca",
        "5a1272a4118a3dd1606d65a95c54dcdf8d88bed7eaee6befe79306771059e627"),
    ("appleby", 3): ("856f047cfcd2d2f0b0f3f738cdff921d38591b52158ac45d3682562f42b0f512",
        "6c2adcd926992eb040ea5a24b604e1b548a88746ac2525275e5dd6fdc601c22d"),
    ("tensorhedron", 3): ("66fefd145be00f1133be7bf5ff58fe4862e38b8079e5ce87e7bcab71a4eb0e60",
        "f43c30a2152a3f806b70856eef42f3bb7ffa5c5544f6200c4d235396f53520b3"),
    ("near-orthogonal", 3): ("3dcd883d904f0147e362ae4014cf187a41f2d1b756b59a5d25b440358f10b44c",
        "1d65f8b58b586b72b2a11eb3a8d04367a220508e17054fd90dc0e1aff5a5f865"),
    ("random:generic", 3): ("cf3a40d6e23bbb20e388cf0585e3751c2e3a23c5313acbd670d9660b52c3dbda",
        "658d49ed7ece7991915d5364da689347ad23c4dcdd129dde5a809bc7121bf1a5"),
    ("random:generic-rank1", 3): ("81b6b056ceba06963c504e8f017cfcc7c164ffd89d6e91b0879650ae93ece5b9",
        "fab6c31d7992908733b9488e8d3b0af2977c4d126402489e318ed7895b33f8cd"),
    ("random:wh", 3): ("39ed7c0a157831d4f326d3c3217678d73a8de2492af55abe1d54689450161833",
        "c119132c730a7fca2a947db2a1d84e03b8521962bd6f6a3d2d963101dc099629"),
    ("random:wh-rank1", 3): ("48b2e1456647da91998672db901985665830f050f7869ee28cb39af612c64260",
        "f7df5f696e3033a819cc975cb9db2b4410984f87c463fb3906a5fa44ae3495c5"),
    ("sic", 4): ("9244cd2fa8fc3e4c05d6a8896635312a991304e5111eb48de8612b75281affc6",
        "118f26836aea078fe58621a7e477cd304c7ec64eea1aa7cb1c315d999c62f715"),
    ("wh", 4): ("07d46a1b346c4e1bdeb0c6bb127bd362b4d233385c11587a299272dcfe0773d1",
        "4202bb9e9bad344add9ea5c52f89712e00395c2c973635031fe3d24fc34a86ca"),
    ("orthocross", 4): ("d204c7f77b4fc2bf7d9bb5970194fb642286c448e0c34f0c9e24c3f3a7b57684",
        "8691703d9442793a5e290e640521eb8e9b2f3e50afb07920a6eaa8b012b6dc4c"),
    ("equiangular", 4): ("a318c7806f02a7759adcf8efe5d244dd9e6296d088763270758488ade078c574",
        "174fc9dd42a9af7b4a03e7bf629371a0d0c9e015cbeca9d62d7fb876fe7f6b90"),
    ("tensorhedron", 4): ("6efdcfde285367831707d4abd5d4bfd96ee2dff5bb9fae4a1852821678690263",
        "3a11097191a710ba18af8ddf7157bda05387c4974f4d9ad14c8ad6278e953606"),
    ("near-orthogonal", 4): ("7943ce106bf09b5c820880e86749247aa706b6930f0f6c2619d08302f602e6a7",
        "6ad307d31f7784a230d5ff92678c82f441429b28c0f4ec48b6a78c43738585fd"),
    ("random:generic", 4): ("e3393a94e5461895ee2d9cdd49e411075947ea1b71f376bb83918792398fd539",
        "18df181929e24300c0d69b65e9f542ab836bf82b2fe8ceade0f2b6284379ea23"),
    ("random:generic-rank1", 4): ("6b67435b9ede748a539df93d1a929a36482b9aa193b787cb8324531aece055b9",
        "fafd3fd6ba8321375168764e9586457958ff8c8fdc2b1a2369a7a8038e9538d3"),
    ("random:wh", 4): ("07d46a1b346c4e1bdeb0c6bb127bd362b4d233385c11587a299272dcfe0773d1",
        "4202bb9e9bad344add9ea5c52f89712e00395c2c973635031fe3d24fc34a86ca"),
    ("random:wh-rank1", 4): ("b14b2342ed6090abc2e70a2a3483e60661682c9b53ee88a351828d7083ea422c",
        "0610fa033cf1078264cdf106ccc9d12b62079d9238d2c66ecd62081bc9a4942f"),
    ("sic", 5): ("c502239ffb806f0d482aed596027516d8a782c5b6110328054952ea54149cf3e",
        "f52caa013d2a3fb4f3ca6c59600e1dcd8abd60d3d44d91764ca5edcb9c28918e"),
    ("wh", 5): ("bdc80861791b8d117c34067b961a08ed35b6caa560a1e0d9c43316ebea6d536b",
        "db00fedc25411a161dbb2074c8cfd8e020655c9f09f13a5253664ea53aebe2de"),
    ("orthocross", 5): ("9276be17a6d7e5a28eda7cdc69bdb3e5c650719a5bb1d15def6fcfd04fd5741f",
        "abc7547794895a81d8b358de15296beb6f611c61df491bef93f201d0907e48b3"),
    ("equiangular", 5): ("a39cf2d2d5d8eb62c9031d652033cdc809ccf1018ba77a8d93c1939da6115cba",
        "71f967b7ec40978956c92e1554a3ae04fad808e708ce4e6cb8cdd19d4fd291b8"),
    ("appleby", 5): ("e1173da6455eb4e944b8ec434a143ce7a069aff36536e3615601929ab22e6faa",
        "f59b3c2befae3f08d9241a5e8e3eca6296ff8fa445275b17b53130c570f77e00"),
    ("near-orthogonal", 5): ("2e9d292d3d72de7ae5751c8c60e35aaf056e516946f6dcd15bca55db4c3f61e8",
        "19e0b6541cc59a37166997f70cbbb9ed2fc8d635e3c5aa590c781535c2f0461b"),
    ("random:generic", 5): ("6dde66cf4767403444d4975e9c28d9be10be04a30e03020dd181f0120a0939f1",
        "3594578b7833fa714acd5bf7350e2c3ec6b8a86dd4ad1c5448a93c4fb43c9f72"),
    ("random:generic-rank1", 5): ("cc7cd1c3f633eaecc32047328b3c4b00c37dd77486fa51d44d2d0bd0c0cb9bcd",
        "af6ff218f8deee9e310c9d0aceb46beb27552fcb62f841cab610947afe981943"),
    ("random:wh", 5): ("bdc80861791b8d117c34067b961a08ed35b6caa560a1e0d9c43316ebea6d536b",
        "db00fedc25411a161dbb2074c8cfd8e020655c9f09f13a5253664ea53aebe2de"),
    ("random:wh-rank1", 5): ("7546a3d34d1cf6394beb184640f5b92b3c3e15ca789e89e6c312133bd4b6db08",
        "7eb11abd25d5379f21dcec84bd6e4f3ea25a97d9a6b5357f0519a0fd4f5d5ca3"),
    ("example7", 3): ("1805af95075b5d0fbd26bded740bb8e7c153a069af630a8b49d7374b5f8592c9",
        "c7c622ef0c8b95af8bf17629edd5de3e1c863316c7c860de6826f678fba88557"),
}
GEN_EXTRA_ARGS = {"wh": ["--seed", "7"], "equiangular": ["--beta", "0.5"],
                  "near-orthogonal": ["--t", "0.9"]}
VERIFY_CONJECTURES_DIGEST = (
    "20ff579a1f83aa8ef34df0a9e0070f1e8747c1177956695956440878dab78121")


def test_analyze_reports_are_byte_stable(tmp_path):
    doc, report = tmp_path / "mic.json", tmp_path / "report.json"
    for (kind, d), digests in DOCUMENT_AND_REPORT_DIGESTS.items():
        extra = ["--seed", "7"] if kind.startswith("random:") else GEN_EXTRA_ARGS.get(kind, [])
        assert cli.main(["gen", kind, "--d", str(d), *extra, "--out", str(doc)]) == 0
        assert cli.main(["analyze", str(doc), "--out", str(report)]) == 0, (kind, d)
        assert tuple(hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in (doc, report)) == digests, (kind, d)


# sha256 of the gen document of the generic kinds at seed 0 past the d <= 5 pins
# above: the squash's unbatched path at a d the spectra batch never meets
WIDE_GENERIC_DOCUMENT_DIGESTS = {
    ("random:generic", 6): "d48877c1b2b16475580b00a191f59cf2c48535815e32578860e415558989e1ca",
    ("random:generic", 8): "e95787c710aa8fc59e7c4e7aa5ae57bc516b9ce4d84aa7fb1510e26d93f4f5d8",
    ("random:generic-rank1", 6): "95a95a451d7b60507571bb61e43e1b66f750d59c581e53f8c48088c7808c559d",
    ("random:generic-rank1", 8): "e3f02edc420c9c80aab4965ec972d0cf690a81f0a5236d73d74cd8078ed819f0",
}


@pytest.mark.parametrize("kind, d", list(WIDE_GENERIC_DOCUMENT_DIGESTS))
def test_wide_generic_documents_are_byte_stable(kind, d, tmp_path):
    doc = tmp_path / "mic.json"
    assert cli.main(["gen", kind, "--d", str(d), "--seed", "0", "--out", str(doc)]) == 0
    assert hashlib.sha256(doc.read_bytes()).hexdigest() == WIDE_GENERIC_DOCUMENT_DIGESTS[kind, d]


def test_verify_conjectures_stdout_is_byte_stable(capsys):
    assert cli.main(["verify", "conjectures"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == VERIFY_CONJECTURES_DIGEST
