"""Session header: the numeric stack that the byte-stable digests depend on."""

import os

import numpy as np


def pytest_report_header(config):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return [f"numpy {np.__version__}",
            f"blas: {blas.get('openblas configuration', blas.get('name', 'unknown'))}",
            f"threads: {threads}, cpu_count={os.cpu_count()}"]
