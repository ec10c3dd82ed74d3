"""Process set-up shared by the benchmark's entry points.

pin_blas() must run before numpy is first imported: OpenBLAS reads its
thread count once, when it loads.
"""

from __future__ import annotations

import os
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def fix_hash_seed() -> None:
    """Re-execute this script with PYTHONHASHSEED=0 unless it already has it.

    String hashing is randomized per process, and with it the layout of
    every dict and set.  Over five documents runs a fixed seed took the
    spread of d2_per_s from 6.7 % to 2 %.  exec replaces this process, so
    no process is left behind.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def pin_blas() -> None:
    """One BLAS thread in this process and in every process it starts."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import miclab from this checkout's src/, never from an installed copy."""
    if not (SRC / "miclab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no miclab source at {SRC / 'miclab'}")
    sys.path.insert(0, str(SRC))


def check_checkout_source(module) -> None:
    """Exit if `module` was not loaded from this checkout's src/."""
    origin = pathlib.Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: miclab imported from {origin}, not from {SRC}")


def blas_threads() -> int | None:
    """Thread count read back from numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    import numpy as np

    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    """Cores, Python, numpy and BLAS versions, and the BLAS thread setting."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": blas_threads(),
    }
