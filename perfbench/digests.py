"""sha256 of the 16 reference spectra tables (n = 2000, seed 7).

Makes the tables for the four kinds at d = 2..5 with the reference bin
widths, one worker, and compares their digests with spectra_digests.json.
A mismatch is printed as information: it says a change altered the
study's output, which the benchmark does not count as a failed operation.
The same bytes come from
    PYTHONPATH=src python3 scripts/run_spectra.py --n 2000 --seed 7 --workers 1
followed by sha256sum on the files it writes.

The stored digests are a constant: this script never rewrites them.

Usage: python3 perfbench/digests.py
"""

import hashlib
import json
import sys

import env

env.pin_blas()
env.use_checkout_source()

from miclab.ensembles import MicKind, spectra_study  # noqa: E402
from miclab.serialize import histogram_to_table  # noqa: E402
from workloads import DIMS, reference_bin  # noqa: E402

N, SEED = 2000, 7
STORED = env.BENCH_DIR / "spectra_digests.json"


def digests() -> dict:
    out = {}
    for kind in MicKind:
        for d in DIMS:
            hist = spectra_study(kind, d, N, reference_bin(d), SEED, workers=1)
            table = histogram_to_table(hist).encode("utf-8")
            out[f"{kind.value}_d{d}.csv"] = hashlib.sha256(table).hexdigest()
            print(f"{out[f'{kind.value}_d{d}.csv']}  {kind.value}_d{d}.csv", flush=True)
    return out


def main() -> int:
    found = digests()
    stored = json.loads(STORED.read_text(encoding="utf-8"))
    changed = [name for name in stored if found.get(name) != stored[name]]
    for name in changed:
        print(f"info: {name} digest differs from the stored one")
    print(f"{len(stored) - len(changed)} of {len(stored)} tables match the stored digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
