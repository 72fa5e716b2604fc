#!/usr/bin/env python3
"""Empirical covariance of the scaled estimator vs the two limit conventions.

For each n the table reports n * Cov(F_hat(lam), F_hat(mu)) over R
replications against the even-weight constant and the mirror-corrected
(real-symmetry) constant. The empirical numbers track the corrected column;
the even-weight column is 2x too large away from the right endpoint.
"""

import argparse
import math

# before numpy loads: importing fracspec.cli pins BLAS to one thread, as in the
# CLI, unless the caller set a thread count
import fracspec.cli  # noqa: F401
import numpy as np

from fracspec import TWO_PI, estimate, specmodel, verify
from fracspec.specmodel import SpectralModel


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.25)
    ap.add_argument("--reps", type=int, default=600)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, nargs="+", default=[512, 2048])
    args = ap.parse_args()

    model = SpectralModel.constant(1.0 / TWO_PI)
    probes = np.array([math.pi / 2, math.pi, 1.5 * math.pi, TWO_PI])
    pairs = [(i, j) for i in range(len(probes)) for j in range(i, len(probes))]

    print(f"model=constant c=1/(2pi)  alpha={args.alpha}  R={args.reps}")
    print(f"{'n':>6} {'lam':>7} {'mu':>7} {'empirical':>10} {'even-wt':>10} {'corrected':>10}")
    for n in args.n:
        pts = estimate.default_grid_points(n)
        lam_grid = np.linspace(0.0, TWO_PI, pts)
        runs = verify.replicate(model, n, args.alpha, pts, args.seed, range(args.reps))
        vals = np.array([np.interp(probes, lam_grid, values) for values in runs])
        emp = n * np.cov(vals.T)
        for i, j_ in pairs:
            even = specmodel.theta_point(model, args.alpha, probes[i], probes[j_])
            corr = specmodel.theta_point(
                model, args.alpha, probes[i], probes[j_], real_symmetry=True
            )
            print(
                f"{n:>6} {probes[i]:>7.4f} {probes[j_]:>7.4f}"
                f" {emp[i, j_]:>10.4f} {even:>10.4f} {corr:>10.4f}"
            )


if __name__ == "__main__":
    main()
