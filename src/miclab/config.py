"""Shared numerical tolerances.

All eigenvalue and rank decisions are made relative to the largest singular
value of the operator at hand; Hermiticity and zero tests are absolute.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import isfinite

# Dense numerics only.  Everything is built on full eigendecompositions, so
# Hilbert space dimensions are capped rather than silently degrading.
MAX_DIMENSION = 32

# Condition-number ceiling beyond which Gram/conditional inverses are refused.
CONDITION_LIMIT = 1e12

TOLERANCE_ENV_VAR = "MIC_LAB_TOL"


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used across the library.

    rank_tol is relative (scaled by the largest singular value),
    hermitian_tol and zero_tol are absolute.
    """

    rank_tol: float = 1e-9
    hermitian_tol: float = 1e-12
    zero_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rank_tol", "hermitian_tol", "zero_tol"):
            value = getattr(self, name)
            if not (isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


DEFAULT_TOL = ToleranceConfig()


def tolerances_from_env() -> ToleranceConfig:
    """Default tolerances, with rank_tol overridden by MIC_LAB_TOL if set.

    A value that is not a positive finite number raises ValueError.
    """
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        return ToleranceConfig(rank_tol=float(raw))
    except ValueError as exc:
        raise ValueError(f"{TOLERANCE_ENV_VAR}={raw!r}: {exc}") from None
