"""Exact laws of the wh-rank1 Gram spectrum at d = 3, as test oracles.

For a Haar-random pure fiducial rho in d = 3, each displacement component
c_kl = tr(D_kl^dagger rho) with (k, l) != (0, 0) is uniform on the triangle
with vertices at the cube roots of unity, of area A = 3 sqrt(3) / 4, and
gives the Gram eigenvalue |c_kl|^2 / 3.  With r = sqrt(3 lambda), the CDF
of that eigenvalue is the area of the disc of radius r inside the triangle,
over A: pi r^2 / A up to the inradius 1/2, less three circular segments
beyond it, and 1 at lambda = 1/3.
"""

from fractions import Fraction
from math import acos, ceil, floor, pi, sqrt

import numpy as np


def d3_cdf(lam: float) -> float:
    r = sqrt(3 * lam)
    area = pi * r * r
    if r > 0.5:
        area -= 3 * (r * r * acos(1 / (2 * r)) - 0.5 * sqrt(r * r - 0.25))
    return area / (3 * sqrt(3) / 4)


def d3_bin_probabilities(w: Fraction) -> np.ndarray:
    """Probability of each bin [k w, (k+1) w) of (0, 1/3] for one eigenvalue."""
    n_bins = int(Fraction(1, 3) / w)
    return np.diff([d3_cdf(float(k * w)) for k in range(n_bins + 1)])


def d3_plateau_ratio(w: Fraction) -> float:
    """plateau_metric of the closed form: the probability of the last whole
    bin below 1/12 over that of the first whole bin at or above it."""
    q = Fraction(1, 12) / w
    p = d3_bin_probabilities(w)
    return float(p[floor(q) - 1] / p[ceil(q)])
