#!/usr/bin/env python3
"""Probe the binding residual of the commitment scheme in the separable
theory under different search budgets.

The search looks for a shared separable state plus two committer-side
channels that open both bits faithfully.  Quantum mechanics finds such an
attack through the EPR state; this script shows the separable search
plateau well above zero instead, and reports how stable that plateau is
across random restarts.

Usage:
    python scripts/binding_search.py                    # default budget
    python scripts/binding_search.py --support 12 --starts 48 --sweeps 40
"""

import argparse
import os
import sys
import time

import numpy as np

from convexstate.cli import _count, seed
from convexstate.protocols import binding_attack_search


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The CLI's readers of budgets and seeds, without its budget caps: this
    # script exists to probe large budgets.
    budget = _count(1, "positive")
    parser.add_argument("--support", default=8, type=budget,
                        help="product states in the shared-mixture ansatz")
    parser.add_argument("--starts", default=32, type=budget)
    parser.add_argument("--sweeps", default=30, type=budget)
    parser.add_argument("--seed", default=0, type=seed)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    report = binding_attack_search(support=args.support, starts=args.starts,
                                   seed=args.seed, sweeps=args.sweeps)
    elapsed = time.perf_counter() - start

    residuals = np.array(report.start_residuals)
    print(f"budget: support={args.support} starts={args.starts} "
          f"sweeps={args.sweeps} seed={args.seed}")
    print(f"objective evaluations: {report.evaluations}, {elapsed:.2f}s, "
          f"{1e6 * elapsed / report.evaluations:.1f} us each")
    print(f"best residual: {report.residual:.6f} (start {report.best_start})")
    print(f"start spread:  min {residuals.min():.6f}  "
          f"median {np.median(residuals):.6f}  max {residuals.max():.6f}")
    print(report.message)
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Stdout was closed early (say, by `| head`).  As Python's signal
        # docs advise, point it at devnull, so that the flush at exit
        # raises nothing more, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
