"""End-to-end CLI contract: subcommands, exit codes, byte determinism."""

import subprocess
import sys

import numpy as np
import pytest

from miclab.serialize import loads

CLI = [sys.executable, "-m", "miclab"]


def run_cli(*args, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, timeout=300)


# ------------------------------------------------------------------- gen

def test_gen_sic_writes_parseable_document(tmp_path):
    out = tmp_path / "sic.json"
    res = run_cli("gen", "sic", "--d", "2", "--out", str(out))
    assert res.returncode == 0
    doc = loads(out.read_text())
    assert doc["dimension"] == 2
    assert len(doc["effects"]) == 4


def test_gen_to_stdout_matches_file_output(tmp_path):
    out = tmp_path / "mic.json"
    res_file = run_cli("gen", "orthocross", "--d", "3", "--out", str(out))
    res_stdout = run_cli("gen", "orthocross", "--d", "3")
    assert res_file.returncode == res_stdout.returncode == 0
    assert res_stdout.stdout.strip() == out.read_text().strip()


def test_gen_appleby_even_dimension_usage_error():
    res = run_cli("gen", "appleby", "--d", "4")
    assert res.returncode == 2
    assert "odd dimension required" in res.stderr


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
    report = loads(res.stdout)
    assert report["checks"]["ortho-pairs"]["count"] == 7
    assert report["failures"] == []


def test_analyze_sic_frobenius_gap(tmp_path):
    out = tmp_path / "sic.json"
    run_cli("gen", "sic", "--d", "2", "--out", str(out))
    res = run_cli("analyze", str(out), "--checks", "frobenius-gap")
    assert res.returncode == 0
    entry = loads(res.stdout)["checks"]["frobenius-gap"]
    assert entry["gap"] == pytest.approx(1 / 3, abs=1e-9)
    assert entry["saturates_bound"] is True


def test_analyze_runs_all_checks_by_default(tmp_path):
    out = tmp_path / "sic3.json"
    run_cli("gen", "sic", "--d", "3", "--out", str(out))
    res = run_cli("analyze", str(out))
    assert res.returncode == 0
    checks = loads(res.stdout)["checks"]
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
    checks = loads(res.stdout)["checks"]
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
