#!/usr/bin/env python3
"""Sup-norm confidence-band calibration and coverage, for both covariance
conventions of the limit process."""

import argparse
from pathlib import Path

# before numpy loads: importing fracspec.cli pins BLAS to one thread, as in the
# CLI, unless the caller set a thread count
import fracspec.cli
from fracspec import TWO_PI, verify
from fracspec.specmodel import SpectralModel


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.25)
    ap.add_argument("--n", type=int, default=2048)
    ap.add_argument("--delta", type=float, default=0.05)
    ap.add_argument("--draws", type=int, default=5000)
    ap.add_argument("--reps", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = SpectralModel.constant(1.0 / TWO_PI)
    print(f"alpha={args.alpha}  n={args.n}  delta={args.delta}  R={args.reps}")
    for real_symmetry in (False, True):
        u0, coverage = verify.confidence_band(
            model, args.alpha, args.n, args.delta, args.draws, args.seed,
            replications=args.reps, real_symmetry=real_symmetry,
        )
        label = "corrected" if real_symmetry else "even-weight"
        print(f"{label:>12}: u0={u0:.4f}  coverage={coverage:.3f}  target={1 - args.delta}")


if __name__ == "__main__":
    # a domain or numerical error ends as in the CLI: one stderr line, exit 1 or 2
    raise SystemExit(fracspec.cli._exit_status(Path(__file__).name, main))
