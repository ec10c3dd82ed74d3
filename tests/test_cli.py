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
from miclab.ensembles import MicKind, SpectraHistogram, random_mic
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
        "891f561f1c737f56ea3f78714b46beb909adab90cb56517f44715a8f573778d9"),
    ("wh", 2): ("5440eccb298a7f6eea4c8e8d7fbbcb42d91e839b14bee782f8d7dec91341040e",
        "4ec721954e7e7e670af89fca07c31fcf80277de7199ccc68b979b98583821402"),
    ("orthocross", 2): ("4047bcac15df8dc3e86e21c0568d7faa4b09e5fb5b37b6e4fe1e8d17545b9a8c",
        "e661a91e91c57bdb4435512bf994b760d6565fa0b0a0ff544304a04a27ece696"),
    ("equiangular", 2): ("724b00a953692e375e3363407a62c89f5bac0c974a3d9991ded4595f27716d33",
        "7bd62ef1c9af0dbae969b5e8ef8a74a863c82e483690da2ce5e5ba1180a92841"),
    ("tensorhedron", 2): ("0a180209c7314a006f5247d1bd63418b5047f1cfacd3f0b7c55243a61973b534",
        "c64da88d760782c8bd507971d0caeb876aa1507cb6b17d9b81b59cc996eab6f2"),
    ("near-orthogonal", 2): ("c09714059762d0f11fbff251b5ec39e3a183ed8c5b760921231fdff625b28eb3",
        "c4fae9032e973386ac0e28559ab88de9bb229f9973e3fe0cb5addd7227e9793f"),
    ("random:generic", 2): ("bf3983045f4c0d2d77d5da77dce563bd108726ee04dc42668b9ef4654cd7baab",
        "fc023ce8b30b79128d4f8ec41fdee60d1918f2719999422eb576c0e42940983c"),
    ("random:generic-rank1", 2): ("6350b03408b343625c1357c8b99db5cad5ed5fe2f7922d9fa92d3264b0af9f07",
        "511b08c66bd209c824e53ee3403805e50ed99acb8eb79e2384e009972b820362"),
    ("random:wh", 2): ("5440eccb298a7f6eea4c8e8d7fbbcb42d91e839b14bee782f8d7dec91341040e",
        "4ec721954e7e7e670af89fca07c31fcf80277de7199ccc68b979b98583821402"),
    ("random:wh-rank1", 2): ("1ec726397fca979868963746ef68c7dffee04dcd07969979ff12079b0ccfbd14",
        "bb82b94deb892def537ec9334bcd0dadc3d32776d40c9a2ef86f446fdf48f5a1"),
    ("sic", 3): ("f0988b7f6780523b49a76dda20311210ad658ba7895f5e5ceab96e6afdb8d6a1",
        "8528927f07e67d535cd1ae3e1e6f8a465ee5db61c9fea5987ec530775cb9f30c"),
    ("wh", 3): ("39ed7c0a157831d4f326d3c3217678d73a8de2492af55abe1d54689450161833",
        "e6c445b582ad817e45f4248302aa9ff0c5156675a4ca4661df5e1a345d5fd3fa"),
    ("orthocross", 3): ("6589cbda0d9f783c479a3598932d9d606f915507a2b173789e0c79d77e556e0f",
        "0d67395f58b7689972c74dfe32a293be810cd51630cd0e2a9594875cccd70407"),
    ("equiangular", 3): ("18ad39a337362c7eca995d43792140f7475da674ce0e6791fef9417a7636eaca",
        "0fd7b6db0a21f510bea1feb365a33a47691d93a2cb06f0d20b8d4326fd659f81"),
    ("appleby", 3): ("856f047cfcd2d2f0b0f3f738cdff921d38591b52158ac45d3682562f42b0f512",
        "3f82bf81f416cf5d4f3d29380d9b1f5bc18831446f3984f4af718160f6bc27d9"),
    ("tensorhedron", 3): ("66fefd145be00f1133be7bf5ff58fe4862e38b8079e5ce87e7bcab71a4eb0e60",
        "c030283c82bdfb5384635ed4191500f841c5ca7726fcd786bcc3589648ff591b"),
    ("near-orthogonal", 3): ("3dcd883d904f0147e362ae4014cf187a41f2d1b756b59a5d25b440358f10b44c",
        "8fca60066666baa98211fea28a4103e7dfa6a387cea8b74aebe73dd842d90dd4"),
    ("random:generic", 3): ("cb2e3ece047202d50fcd9103e01090cf78b9fb9b469f33ba0a33c3d9ddaa9e75",
        "580f6dec740ffaad68aa939dceddabb5107bbf690b9e4720344a3eccddd2d112"),
    ("random:generic-rank1", 3): ("d62b3b3c7991df316ebce226df07173183a8523bd68bace7dc50f0798289b537",
        "c077ca11c9170f25a261083b7fc3c25560cd173c9cca714d61c1775fb07d226d"),
    ("random:wh", 3): ("39ed7c0a157831d4f326d3c3217678d73a8de2492af55abe1d54689450161833",
        "e6c445b582ad817e45f4248302aa9ff0c5156675a4ca4661df5e1a345d5fd3fa"),
    ("random:wh-rank1", 3): ("48b2e1456647da91998672db901985665830f050f7869ee28cb39af612c64260",
        "65aefc1705d5962a780db4d9d4b05b11c76f88e18deff4e311a8b22715a4c154"),
    ("sic", 4): ("9244cd2fa8fc3e4c05d6a8896635312a991304e5111eb48de8612b75281affc6",
        "83e293515cefcc9d4f885a4730ea484a584dd667d4964a881790ac428d98bb55"),
    ("wh", 4): ("07d46a1b346c4e1bdeb0c6bb127bd362b4d233385c11587a299272dcfe0773d1",
        "608b1ff012e2463d6c8deba9e4712c8da11599df9c08ded7b8cfb06d0ced7ab5"),
    ("orthocross", 4): ("a2ae96f9dacc2a267b94df4f59b1e3a9717115a0251bf9e0f49b31eb84e3bff1",
        "50562708b2830405aaeb57f17fe2dff24a4bf5db11b8c65bb2c64891b989b170"),
    ("equiangular", 4): ("a318c7806f02a7759adcf8efe5d244dd9e6296d088763270758488ade078c574",
        "3002e5e58a3e6f8d8d0b5ca9e47a9e160a1bec3d262b8482a1b2a6dfda15fe87"),
    ("tensorhedron", 4): ("6efdcfde285367831707d4abd5d4bfd96ee2dff5bb9fae4a1852821678690263",
        "9184a122ce103b66f7531e2605b4756b1b1c15e967f54acb85090450e84f2e95"),
    ("near-orthogonal", 4): ("7943ce106bf09b5c820880e86749247aa706b6930f0f6c2619d08302f602e6a7",
        "75aa8379a7cef9d591e98e5ab385dc0cc0d8db0e30d126422afc82300fc45d8c"),
    ("random:generic", 4): ("a5ac685de1533ad82edba1e18e2b650d13da1fbff4605883878c0c2860a30100",
        "9e90f4def8793df468070ebb8a8b8cb6cbb2dbd84e500fb4285eaa530ca791dc"),
    ("random:generic-rank1", 4): ("1e869bf5ec982da4db0f3ca608ef4c5cb1afe84c66503453a44ac9e989787195",
        "ac93d1eff7ff0465118a066c2b314210199b38ca336fbbf231b49021171f1a3c"),
    ("random:wh", 4): ("07d46a1b346c4e1bdeb0c6bb127bd362b4d233385c11587a299272dcfe0773d1",
        "608b1ff012e2463d6c8deba9e4712c8da11599df9c08ded7b8cfb06d0ced7ab5"),
    ("random:wh-rank1", 4): ("b14b2342ed6090abc2e70a2a3483e60661682c9b53ee88a351828d7083ea422c",
        "68fed2225d84cd38dce9a65927b4f245a6040901a08ac926e2b04aa8cb52b7ef"),
    ("sic", 5): ("c502239ffb806f0d482aed596027516d8a782c5b6110328054952ea54149cf3e",
        "b254fd7fd75e2796ccf670f422be848f8b11894ec40847f0eb6ebdb3f0a51b36"),
    ("wh", 5): ("bdc80861791b8d117c34067b961a08ed35b6caa560a1e0d9c43316ebea6d536b",
        "84726d0c3ac3cb51b8f79d5e15678fbe7f118a3033d144028f299f930dfd5b47"),
    ("orthocross", 5): ("d2768d4bb81c457b594ff6c67319233652ceb2a68791538aedefff7ddc8eaa22",
        "029fd08a79b5e40748bd314710e0e9f0bd258c3d9c51d79f20531a215c146982"),
    ("equiangular", 5): ("a39cf2d2d5d8eb62c9031d652033cdc809ccf1018ba77a8d93c1939da6115cba",
        "7983df5b064378061c4fee5391473b0c561e8a0dae106d8213d31e4ee10c1242"),
    ("appleby", 5): ("e1173da6455eb4e944b8ec434a143ce7a069aff36536e3615601929ab22e6faa",
        "9ae9558649dad33ca60d1e299eac909de165747d17d7b4c6178d65cb4ba82f1a"),
    ("near-orthogonal", 5): ("2e9d292d3d72de7ae5751c8c60e35aaf056e516946f6dcd15bca55db4c3f61e8",
        "d62b1e4d0bc8084892a113fabccf79a4fa151d66194758c7a8b1c8e8666caec6"),
    ("random:generic", 5): ("663cf232950cdd5407be1b20a6f1a7737ec58c611b63cac62de5943e3bbe1adf",
        "8cdc901bbdf785bdb27b7b0edbe52b0541d1e36f736fbbd2018a57881f584558"),
    ("random:generic-rank1", 5): ("8122d9396ff3053a79dfc6bc42dd65a631237fa844c13c42e685a6047413fcd0",
        "b16b8f138d974f9a71b47b86435494d1f2ba2d6c65ebab765de55379ab4f7e8f"),
    ("random:wh", 5): ("bdc80861791b8d117c34067b961a08ed35b6caa560a1e0d9c43316ebea6d536b",
        "84726d0c3ac3cb51b8f79d5e15678fbe7f118a3033d144028f299f930dfd5b47"),
    ("random:wh-rank1", 5): ("7546a3d34d1cf6394beb184640f5b92b3c3e15ca789e89e6c312133bd4b6db08",
        "9b03ecd509e0a73df7d81bbfaaaedcdf1d753c05f1b3a1245c53bea16162d74d"),
    ("example7", 3): ("1805af95075b5d0fbd26bded740bb8e7c153a069af630a8b49d7374b5f8592c9",
        "81a9d5117b071406db3b7790f7be8b8711ae68020bdebfee7a985dc990f274cd"),
}
GEN_EXTRA_ARGS = {"wh": ["--seed", "7"], "equiangular": ["--beta", "0.5"],
                  "near-orthogonal": ["--t", "0.9"]}
VERIFY_CONJECTURES_DIGEST = (
    "26c4ceb27d200c4aee247d35bf865ff09696aa7ef5c13537a58857607b59347c")


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
    ("random:generic", 6): "ed80fa55d861724edccc1bb7783d9e1980aaf149832690f6386e30d6058bbd27",
    ("random:generic", 8): "028bf2556152cf6f7d6498c78d639bcfa9ed4912fe8ca21ea8bceafb877971af",
    ("random:generic-rank1", 6): "ddaab426c4f6f6edf39b099a46a1dbb483910c13134862667bc72d24a748731a",
    ("random:generic-rank1", 8): "a109879efcd73e0342df051740661c33eb58a2a16613b37cc03b94a18946abcd",
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
