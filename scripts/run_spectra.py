"""Run the full randomized Gram-spectra study and write bin tables.

One table per (kind, d) pair for all four MIC kinds and d = 2..5, using the
reference bin widths of ensembles.default_bin_width (1/198 for d = 3, 1/200
otherwise).  At the default n = 100000 this takes a while; pass --n 2000 for
a desk-scale pass.  Output
files land in --out-dir as <kind>_d<d>.csv and are byte-stable for a fixed
seed regardless of --workers.

Usage: python scripts/run_spectra.py [--n N] [--seed S] [--workers W]
                                     [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from miclab.ensembles import MicKind, default_bin_width, plateau_metric, spectra_study
from miclab.serialize import histogram_to_table

DIMS = (2, 3, 4, 5)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100000, help="samples per study")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--out-dir", default="spectra_out")
    args = ap.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for kind in MicKind:
        for d in DIMS:
            bin_width = default_bin_width(d)
            started = time.perf_counter()
            hist = spectra_study(kind, d, args.n, bin_width, args.seed,
                                 workers=args.workers)
            elapsed = time.perf_counter() - started
            path = out_dir / f"{kind.value}_d{d}.csv"
            path.write_text(histogram_to_table(hist), encoding="utf-8")
            note = ""
            if d == 3:
                note = f"  plateau_metric={plateau_metric(hist):.4f}"
            print(f"{kind.value:13s} d={d}  n={args.n}  {elapsed:7.1f}s  "
                  f"-> {path}{note}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
