#!/usr/bin/env python3
"""Tail of the sup-norm of the centered estimator process.

Prints W(u) = P(sup |zeta_n| > u) on a u-grid together with a least-squares
exponential fit over the central range, plus the quadratic-in-u fit of the
log-tail for comparison.
"""

import argparse
import math

# before numpy loads: importing fracspec.cli pins BLAS to one thread, as in the
# CLI, unless the caller set a thread count
import fracspec.cli  # noqa: F401
import numpy as np

from fracspec import TWO_PI, estimate, verify
from fracspec.specmodel import SpectralModel


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.25)
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = SpectralModel.constant(1.0 / TWO_PI)
    pts = estimate.default_grid_points(args.n)
    mean_fn = verify.expected_estimate(model, args.n, args.alpha, pts)
    scale = math.sqrt(args.n)
    runs = verify.replicate(model, args.n, args.alpha, pts, args.seed, range(args.reps))
    sups = np.array([scale * np.max(np.abs(values - mean_fn.values)) for values in runs])

    censor = 2.0 / args.reps
    u_grid = np.arange(0.25, sups.max() + 0.25, 0.25)
    w = np.array([np.mean(sups > u) for u in u_grid])
    print(f"n={args.n}  R={args.reps}  censor={censor:g}")
    print(f"{'u':>6} {'W(u)':>10}")
    for u, p in zip(u_grid, w):
        print(f"{u:>6.2f} {'censored' if 0 < p < censor else f'{p:.4f}':>10}")

    mask = (w >= 0.01) & (w <= 0.5)
    lin = np.polyfit(u_grid[mask], np.log(w[mask]), 1)
    quad = np.polyfit(u_grid[mask], np.log(w[mask]), 2)
    print(f"linear fit:    log W = {lin[1]:.3f} + ({lin[0]:.3f}) u")
    print(f"quadratic fit: log W = {quad[2]:.3f} + ({quad[1]:.3f}) u + ({quad[0]:.3f}) u^2")


if __name__ == "__main__":
    main()
