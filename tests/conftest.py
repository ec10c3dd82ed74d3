"""Session header: the numeric stack that the byte-stable digests depend on."""

import os

import numpy as np

from miclab.linalg import _openblas_threads


def pytest_report_header(config):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return [f"numpy {np.__version__}",
            f"blas: {blas.get('openblas configuration', blas.get('name', 'unknown'))}",
            f"threads: {threads}, cpu_count={os.cpu_count()}",
            "analyze pins BLAS to one thread: " + (
                "yes, scipy_openblas_set_num_threads64_" if _openblas_threads()
                else "no, numpy has no bundled scipy-openblas; reports follow the thread count")]
