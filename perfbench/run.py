"""miclab benchmark: one workload, timed in whole passes, outputs checked.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports miclab from its src/.  One
single-threaded process drives the library in a closed loop (one caller,
no worker pool, BLAS pinned to one thread).  Set-up is timed apart, in
fresh interpreters started one after another.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes,
then the same passes with every public function of miclab's layers
wrapped, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A longer
record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import env

env.fix_hash_seed()
env.pin_blas()

import numpy as np  # noqa: E402

SETUP_LAUNCHES = 8  # timed fresh interpreters, after one untimed launch
PROBE_TIMEOUT_S = 60
# A bare launch starts an interpreter and imports numpy, and nothing of
# miclab.  Set-up times are reported in seconds of a machine on which it
# takes 0.2 s; it only sets the scale of setup_s.
BARE_LAUNCH = ("-c", "import numpy")
BARE_REFERENCE_S = 0.2

# Wrapped functions each workload must reach; one left at zero calls is
# flagged in the traced run's record (a flag, not a failure: a later change
# may remove the work on purpose).
EXPECTED_CALLS = {
    "spectra-covariant": ("povm.validate_povm", "linalg.eigh", "povm.gram",
                          "povm.validate_mic", "linalg.numerical_rank",
                          "constructions.wh_mic", "ensembles.random_mic"),
    "spectra-generic": ("povm.validate_povm", "linalg.eigh", "povm.gram",
                        "povm.validate_mic", "linalg.numerical_rank",
                        "constructions.mic_from_psd_basis", "linalg.inv_sqrt_psd",
                        "ensembles.random_mic"),
    "tomography": ("povm.dual_basis", "povm.born_probabilities",
                   "povm.reconstruct_state", "povm.purity_form"),
    "documents": ("povm.validate_povm", "linalg.eigh", "povm.gram", "povm.validate_mic",
                  "linalg.numerical_rank", "povm.dual_basis",
                  "analysis.unbiased_equivalence_report", "analysis.dual_indefiniteness",
                  "analysis.orthogonal_pairs", "analysis.frobenius_orthogonality_gap",
                  "analysis.inv_gram_distance", "analysis.group_covariance_check",
                  "analysis.phi_matrix", "serialize.mic_to_document", "serialize.dumps",
                  "serialize.write_document", "serialize.read_document",
                  "serialize.mic_from_document", "cli.main"),
}


def _launch(args) -> tuple[float, str]:
    """Wall seconds and standard output of one fresh interpreter, waited for."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *args], cwd=env.ROOT, capture_output=True,
                         text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return time.perf_counter() - t0, out.stdout


def measure_setup(workload: str, seed: int) -> tuple[float, list]:
    """Calibrated median set-up time over SETUP_LAUNCHES fresh interpreters.

    Each probe launch sits between two bare launches, and its set-up
    seconds are scaled by BARE_REFERENCE_S over the mean wall time of
    those two.  Start-up is file and loader work whose speed drifts with
    the host; the bare launches do the same kind of work and follow it.
    Over ten batches of 15 launches the raw median spread 12-16 %
    (quartile distance over median), the calibrated one 4 %.  Returns
    setup_s and the (probe, bare before, bare after) seconds of every
    launch.
    """
    probe = (str(env.BENCH_DIR / "setup_probe.py"), workload, str(seed))
    _launch(probe)  # also writes the bytecode caches; untimed
    launches = []
    before = _launch(BARE_LAUNCH)[0]
    for _ in range(SETUP_LAUNCHES):
        seconds = float(_launch(probe)[1].strip().splitlines()[-1])
        after = _launch(BARE_LAUNCH)[0]
        launches.append((seconds, before, after))
        before = after
    setup_s = statistics.median(s * BARE_REFERENCE_S * 2 / (b + a) for s, b, a in launches)
    return setup_s, launches


def run_passes(wl, state, seconds: float, reference) -> tuple[list, int]:
    """Whole passes until `seconds` have elapsed; at least one.

    Each pass's outputs are compared with the reference pass and then
    dropped, so memory does not grow with the number of passes.  Returns
    the passes and how many differed from the reference.
    """
    passes, differing = [], 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        res = wl.run_pass(state)
        differing += not _same(res.outputs, reference.outputs)
        res.outputs = None
        passes.append(res)
    return passes, differing


def _same(a, b) -> bool:
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def end_to_end(passes, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p.seconds() for p in passes), "s"),
        "d2_per_s": (statistics.median(p.rate(2) for p in passes), "1/s"),
        "d5_per_s": (statistics.median(p.rate(5) for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="miclab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env.use_checkout_source()
    import miclab

    env.check_checkout_source(miclab)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"valid: {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": env.machine()}
    if not args.trace:
        setup_s, record["setup_launches_s"] = measure_setup(args.workload, args.seed)

    out_dir = env.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as workdir:
        state = wl.prepare(args.seed, workdir)
        # the untimed warm-up pass is the reference: its outputs are checked
        # against the oracles, and every timed pass must repeat them exactly
        reference = wl.run_pass(state)
        if args.trace:
            untraced, differing = run_passes(wl, state, args.seconds / 2, reference)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes, more = run_passes(wl, state, args.seconds / 2, reference)
            finally:
                tracer.remove()
            differing += more
        else:
            passes, differing = run_passes(wl, state, args.seconds, reference)
        errors, record["checks"] = wl.check(state, reference)
    if differing:
        errors.append(f"{differing} passes differ from the reference pass")

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        overhead = (statistics.median(p.seconds() for p in passes)
                    / statistics.median(p.seconds() for p in untraced))
        samples = attempted if args.workload.startswith("spectra") else 0
        docs = reference.ops if args.workload == "documents" else 0
        speed = (sum(p.seconds() for p in passes)
                 / sum(t for p in passes for _, _, t, _ in p.units))
        metrics = tracer.per_layer(attempted, samples, reference.doc_bytes, docs,
                                   overhead, speed)
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in tracing.metric_names()}
        zero = [key for key in EXPECTED_CALLS[args.workload]
                if metrics[f"{key}.calls_per_op"] == 0]
        record["zero_call_flags"] = zero
        for key in zero:
            print(f"flag: {key} made no calls on {args.workload}", file=sys.stderr)
    else:
        result_metrics = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in end_to_end(passes, setup_s).items()}

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    record["errors"] = errors
    record["passes"] = [p.units for p in passes]
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    record["result"] = result
    suffix = "trace" if args.trace else "result"
    with open(out_dir / f"{suffix}-{args.workload}.record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"checks: {json.dumps(record['checks'])}, {len(errors)} errors, "
          f"{len(passes)} passes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
