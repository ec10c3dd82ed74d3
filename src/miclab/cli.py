"""Command-line surface.

Four subcommands: gen constructs a MIC and writes its document, analyze
re-reads a document and runs invariant checks, spectra runs the randomized
Gram-spectra study, verify drives the theorem / conjecture / acceptance
suites.  `example` is shorthand for `gen example7`.  gen looks each kind up
in one table of builders, as analyze does each check in analysis.CLAIMS.

Exit codes are a stable contract: 0 success, 1 invariant failure,
2 usage or parse error, 3 construction or sampling failure.  A document
analyze cannot read as a MIC document is a parse error.

Given --seed, every command's output is byte-identical across runs and
worker counts.

MIC_LAB_TOL overrides the relative rank tolerance rank_tol of gen, example
and analyze only; spectra and verify never read it.  Every command exits 2
when it is set to anything but a positive finite number.

The argument parser is built once per process, on the first call of main,
and every later call reuses it: parsing leaves no state in the parser.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .analysis import CLAIMS
from .config import ToleranceConfig, tolerances_from_env
from .constructions import (
    appleby_mic,
    eigenprojector_basis,
    equiangular_mic,
    example_seven_orthogonal,
    near_orthogonal_family,
    orthocross_mic,
    sic_mic,
    tensorhedron_mic,
)
from .ensembles import MicKind, default_bin_width, plateau_metric, random_mic, spectra_study
from .errors import (
    BetaOutOfRange,
    BetaZero,
    BiasedMic,
    EnvelopeExceeded,
    EvenDimension,
    MicLabError,
    WrongDimension,
)
from .linalg import _one_blas_thread
from .serialize import (
    dumps,
    histogram_to_table,
    mic_from_document,
    mic_to_document,
    read_document,
    write_document,
)

# parameter mistakes the caller can fix; everything else MicLabError is a
# genuine construction/sampling failure (exit 3)
USAGE_ERRORS = (BetaOutOfRange, BetaZero, EnvelopeExceeded, EvenDimension,
                WrongDimension)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _emit(doc: dict, out_path: str | None) -> None:
    if out_path:
        write_document(out_path, doc)
    else:
        print(dumps(doc))


# ---------------------------------------------------------------- gen

def _near_orthogonal_basis(d: int) -> np.ndarray:
    """Eigenprojectors among zeros, projector m placed at slot m*d.

    Slot m*d pairs P_m with the (m, 0) element of a WH-ordered MIC, so the
    d partners carry distinct shift indices.  Pairing all projectors with
    equal-shift effects (slots 0..d-1) collapses the operator span well
    before t reaches 0.99 for d >= 3; this placement keeps the family a
    MIC at least to t = 0.999 for d up to 5.
    """
    slots = np.zeros((d * d, d, d), dtype=complex)
    slots[::d] = eigenprojector_basis(np.diag(np.arange(d, dtype=float)))
    return slots


@functools.cache
def _random(kind: MicKind):
    """The builder of a random kind; wh and random:wh share one.  It reads
    np.random as it draws, so no other command loads numpy.random."""
    return lambda a, tol: random_mic(kind, a.d, np.random.default_rng(a.seed), tol)


# each gen kind's builder, called with the parsed arguments and tolerances
_GEN_DISPATCH = {
    "sic": lambda a, tol: sic_mic(a.d, tol),
    "wh": _random(MicKind.WH_GENERIC),
    "orthocross": lambda a, tol: orthocross_mic(a.d, tol),
    "equiangular": lambda a, tol: equiangular_mic(sic_mic(a.d, tol), a.beta, tol),
    "appleby": lambda a, tol: appleby_mic(a.d, tol),
    "tensorhedron": lambda a, tol: tensorhedron_mic(sic_mic(a.d, tol), a.n, tol),
    "example7": lambda a, tol: example_seven_orthogonal(tol),
    "near-orthogonal": lambda a, tol: near_orthogonal_family(
        _near_orthogonal_basis(a.d), sic_mic(a.d, tol), a.t, tol),
}
GEN_KINDS = tuple(_GEN_DISPATCH)
_GEN_DISPATCH.update({f"random:{k.value}": _random(k) for k in MicKind})
# the option without which a kind cannot be built
_GEN_REQUIRED = {"equiangular": "beta", "near-orthogonal": "t"}


def cmd_gen(args, tol: ToleranceConfig) -> int:
    kind = args.kind
    build = _GEN_DISPATCH.get(kind)
    if build is None and kind.startswith("random:"):
        _fail(f"unknown random kind {kind!r}; "
              f"valid: {', '.join('random:' + k.value for k in MicKind)}")
        return 2
    if build is None:
        _fail(f"unknown construction {kind!r}; "
              f"valid: {', '.join(GEN_KINDS)} or random:<kind>")
        return 2
    flag = _GEN_REQUIRED.get(kind)
    if flag and getattr(args, flag) is None:
        _fail(f"{kind} requires --{flag}")
        return 2
    _emit(mic_to_document(build(args, tol)), args.out)
    return 0


# ------------------------------------------------------------- analyze

def cmd_analyze(args, tol: ToleranceConfig) -> int:
    # each named check once, in first-named order
    requested = (list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
                 if args.checks else list(CLAIMS))
    unknown = [c for c in requested if c not in CLAIMS]
    if unknown:
        _fail(f"unknown checks {unknown}; valid: {', '.join(CLAIMS)}")
        return 2
    # one BLAS thread, so that the report does not depend on the thread count
    with _one_blas_thread():
        try:
            mic = mic_from_document(read_document(args.path), tol)
        except (OSError, ValueError) as exc:
            _fail(f"cannot load MIC document: {exc}")
            return 2
        except MicLabError as exc:
            _fail(f"document does not describe a valid MIC: {exc}")
            return 2
        report: dict = {"dimension": mic.dim, "checks": {}}
        failures = []
        for name in requested:
            try:
                entry, ok = CLAIMS[name](mic, tol)
                entry["status"] = "ok" if ok else "failed"
            except BiasedMic:  # the gap and the distance are defined for unbiased MICs
                entry, ok = {"status": "not-applicable", "reason": "biased MIC"}, True
            except MicLabError as exc:
                entry, ok = {"status": "failed", "message": str(exc)}, False
            report["checks"][name] = entry
            if not ok:
                failures.append(name)
    report["failures"] = failures
    _emit(report, args.out)
    if failures:
        _fail(f"checks failed: {', '.join(failures)}")
        return 1
    return 0


# ------------------------------------------------------------- spectra

def cmd_spectra(args, tol: ToleranceConfig) -> int:
    kind = MicKind(args.kind)
    if not 2 <= args.d <= 8:
        _fail(f"--d must lie in [2, 8], got {args.d}")
        return 2
    bin_width = default_bin_width(args.d) if args.bin is None else args.bin
    hist = spectra_study(kind, args.d, args.n, bin_width, args.seed,
                         workers=args.workers)
    table = histogram_to_table(hist)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
        summary_stream = sys.stdout
    else:
        sys.stdout.write(table)
        summary_stream = sys.stderr
    if args.d == 3:
        print(f"plateau_metric = {plateau_metric(hist)}", file=summary_stream)
    return 0


# -------------------------------------------------------------- verify

def cmd_verify(args, tol: ToleranceConfig) -> int:
    from .acceptance import run_conjectures, run_criteria, run_theorems

    if args.suite == "theorems":
        results = run_theorems(seed=args.seed)
        for name, ok, detail in results:
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        return 0 if all(ok for _, ok, _ in results) else 1
    if args.suite == "conjectures":
        for report in run_conjectures(seed=args.seed):
            print(f"[{report['probe']}]")
            for key, value in report.items():
                if key != "probe":
                    print(f"  {key} = {value}")
        return 0
    results = run_criteria()
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} criterion {res.number:02d} "
              f"{res.title}: {res.detail}")
    return 0 if all(res.passed for res in results) else 1


# -------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The miclab argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="miclab",
        description="Construct, validate, and analyze minimal "
                    "informationally complete quantum measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="construct a MIC and write its document")
    p_gen.add_argument("kind",
                       help=f"one of {', '.join(GEN_KINDS)} or random:<kind>")
    p_gen.add_argument("--d", type=int, default=2, help="Hilbert space dimension")
    p_gen.add_argument("--n", type=int, default=2,
                       help="tensor power (tensorhedron only)")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="RNG seed for randomized kinds")
    p_gen.add_argument("--beta", type=float, default=None,
                       help="equiangular mixing parameter")
    p_gen.add_argument("--t", type=float, default=None,
                       help="near-orthogonal interpolation parameter in (0, 1)")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_ex = sub.add_parser("example",
                          help="write the seven-orthogonal-pair example MIC")
    p_ex.add_argument("--out", default=None)
    p_ex.set_defaults(func=cmd_gen, kind="example7")

    p_an = sub.add_parser("analyze", help="run invariant checks on a MIC document")
    p_an.add_argument("path", help="MIC document to analyze")
    p_an.add_argument("--checks", default=None,
                      help=f"comma-separated subset of {', '.join(CLAIMS)}")
    p_an.add_argument("--out", default=None, help="report path (default stdout)")
    p_an.set_defaults(func=cmd_analyze)

    p_sp = sub.add_parser("spectra", help="random Gram-spectra histogram study")
    p_sp.add_argument("kind", choices=[k.value for k in MicKind])
    p_sp.add_argument("--d", type=int, required=True)
    p_sp.add_argument("--n", type=int, default=1000, help="number of samples")
    p_sp.add_argument("--bin", default=None,
                      help="bin width as a fraction, e.g. 1/198 (default "
                           "1/(d * (200 // d)): 1/200 for d=2, 1/198 for d=3)")
    p_sp.add_argument("--seed", type=int, default=0)
    p_sp.add_argument("--workers", type=int, default=1,
                      help="worker processes, at most one per CPU and one per "
                           "block of 256 samples (output-invariant)")
    p_sp.add_argument("--out", default=None, help="table path (default stdout)")
    p_sp.set_defaults(func=cmd_spectra)

    p_ve = sub.add_parser("verify", help="run an invariant suite")
    p_ve.add_argument("suite", choices=("theorems", "conjectures", "acceptance"))
    p_ve.add_argument("--seed", type=int, default=42)
    p_ve.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; fold exits into the contract
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args, tolerances_from_env())
    except USAGE_ERRORS as exc:
        _fail(str(exc))
        return 2
    except ValueError as exc:
        # bad fractions, malformed documents, out-of-range parameters
        _fail(str(exc))
        return 2
    except MicLabError as exc:
        _fail(str(exc))
        return 3
