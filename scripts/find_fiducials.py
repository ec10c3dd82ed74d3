"""Find a SIC fiducial per dimension and write it in the fiducials.json format.

Searches for a unit vector whose Weyl-Heisenberg orbit is equiangular
(|<f| D_kl |f>|^2 = 1/(d+1) for all (k,l) != (0,0)) in dimensions 3, 4, 5,
then polishes each solution to 40 decimal digits with a damped Gauss-Newton
iteration in mpmath.  Each dimension has many fiducials, so a rerun finds
*a* fiducial per dimension and need not regenerate the committed vectors in
src/miclab/data/fiducials.json bit for bit (with numpy 2.4 and scipy 1.17
it lands on other fiducials in d = 3, 4 and 5).  The committed vectors are
checked by miclab.constructions.builtin_fiducial on first use.

Usage: PYTHONPATH=src python scripts/find_fiducials.py --out PATH
"""

from __future__ import annotations

import argparse
import json
import pathlib

import mpmath as mp
import numpy as np
from scipy.optimize import least_squares

from miclab.constructions import wh_displacement

DIMS = (3, 4, 5)
SEED = 11
POLISH_DPS = 100
TARGET_DIGITS = 40


def search_double(d: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded random-restart least squares; returns a normalized solution."""
    ops = [wh_displacement(d, k, l) for k in range(d) for l in range(d) if (k, l) != (0, 0)]
    target = 1.0 / (d + 1)

    def resid(x):
        f = x[:d] + 1j * x[d:]
        n2 = np.vdot(f, f).real
        return np.array([abs(np.vdot(f, op @ f)) ** 2 / n2 ** 2 - target for op in ops])

    for _ in range(500):
        x0 = rng.standard_normal(2 * d)
        sol = least_squares(resid, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if (sol.fun ** 2).sum() < 1e-26:
            f = sol.x[:d] + 1j * sol.x[d:]
            f /= np.linalg.norm(f)
            pivot = int(np.argmax(np.abs(f)))
            return f * np.exp(-1j * np.angle(f[pivot]))
    raise RuntimeError(f"no fiducial found in d={d}")


def polish_mp(d: int, f: np.ndarray) -> list[tuple[str, str]]:
    """Damped Gauss-Newton in mpmath; returns 40-digit component strings."""
    mp.mp.dps = POLISH_DPS
    tau = -mp.expjpi(mp.mpf(1) / d)
    omega = mp.expjpi(mp.mpf(2) / d)
    ops = []
    for k in range(d):
        for l in range(d):
            if (k, l) == (0, 0):
                continue
            m = mp.zeros(d, d)
            for j in range(d):
                m[(j + k) % d, j] = tau ** (k * l) * omega ** (j * l)
            ops.append(m)
    target = mp.mpf(1) / (d + 1)

    def resid(x):
        fr = [x[i] for i in range(d)]
        fi = [x[d + i] for i in range(d)]
        f = mp.matrix([mp.mpc(fr[i], fi[i]) for i in range(d)])
        n2 = sum((abs(z) ** 2 for z in f), mp.mpf(0))
        out = []
        for op in ops:
            amp = sum(mp.conj(f[a]) * op[a, b] * f[b] for a in range(d) for b in range(d))
            out.append(abs(amp) ** 2 / n2 ** 2 - target)
        return out

    x = [mp.mpf(float(v)) for v in np.concatenate([f.real, f.imag])]
    n_par = 2 * d
    h = mp.mpf(10) ** (-POLISH_DPS // 2)
    for _ in range(80):
        r = resid(x)
        cost = sum(v ** 2 for v in r)
        if cost < mp.mpf(10) ** (-2 * TARGET_DIGITS - 10):
            break
        jac = mp.zeros(len(r), n_par)
        for p in range(n_par):
            xp = list(x)
            xm = list(x)
            xp[p] += h
            xm[p] -= h
            rp, rm = resid(xp), resid(xm)
            for q in range(len(r)):
                jac[q, p] = (rp[q] - rm[q]) / (2 * h)
        jt = jac.T
        a = jt * jac
        # Adaptive damping: large enough to suppress steps along the flat
        # directions (gauge and solution-family freedoms), small enough to
        # keep convergence quadratic.
        damping = max(cost, mp.mpf(10) ** (-2 * POLISH_DPS + 20))
        for p in range(n_par):
            a[p, p] += damping
        delta = mp.lu_solve(a, -(jt * mp.matrix(r)))
        x = [x[p] + delta[p] for p in range(n_par)]

    fr = x[:d]
    fi = x[d:]
    norm = mp.sqrt(sum(fr[i] ** 2 + fi[i] ** 2 for i in range(d)))
    comps = [mp.mpc(fr[i], fi[i]) / norm for i in range(d)]
    pivot = max(range(d), key=lambda i: abs(comps[i]))
    phase = comps[pivot] / abs(comps[pivot])
    comps = [c / phase for c in comps]
    final = resid([c.real for c in comps] + [c.imag for c in comps])
    worst = max(abs(v) for v in final)
    print(f"  d={d}: polished max residual {mp.nstr(worst, 3)}")
    fmt = lambda v: mp.nstr(v, TARGET_DIGITS, strip_zeros=False)
    return [(fmt(c.real), fmt(c.imag)) for c in comps]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    # no default: a bare run must not replace the package data
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()

    table = {}
    rng = np.random.default_rng(SEED)
    for d in DIMS:
        print(f"searching d={d} ...")
        f = search_double(d, rng)
        table[str(d)] = {"vector": polish_mp(d, f)}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
