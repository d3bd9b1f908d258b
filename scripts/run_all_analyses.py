#!/usr/bin/env python3
"""Run every analysis the toolkit ships and collect the reports.

Drives the command-line interface exactly as a user would, one subcommand
per report, and writes canonical JSON files into the output directory.
The final line prints where the reports landed.

Usage:
    python scripts/run_all_analyses.py [--out-dir reports] [--seed 0]
    python scripts/run_all_analyses.py --full-bc   # full binding search
"""

import argparse
import sys
import time
from pathlib import Path

from convexstate import cli


def jobs(seed: int, full_bc: bool):
    bc_budget = ["--support", "8", "--starts", "32", "--sweeps", "30"] \
        if full_bc else ["--support", "4", "--starts", "6", "--sweeps", "12"]
    return [
        ("analyze_spekkens", ["analyze", "spekkens"]),
        ("analyze_simplex3", ["analyze", "simplex:3"]),
        ("analyze_separable", ["analyze", "separable2x2"]),
        ("analyze_bloch", ["analyze", "bloch"]),
        ("ratio_octahedron_e1_e2", ["ratio", "spekkens", "e1", "e2"]),
        ("ratio_bloch_xy", ["ratio", "bloch", "(1,0,0)", "(0,1,0)"]),
        ("ratio_separable_01_10", ["ratio", "separable2x2", "01", "10"]),
        ("superposable_bloch_poles", ["superposable", "bloch", "(0,0,1)", "(0,0,-1)"]),
        ("superposable_separable_01_10",
         ["superposable", "separable2x2", "01", "10"]),
        ("face_octahedron_edge", ["face", "spekkens", "e1", "e2"]),
        ("face_octahedron_facet", ["face", "spekkens", "e1", "e2", "e3"]),
        ("protocol_clone_60deg", ["protocol", "clone", "--bloch-angle", "60"]),
        ("protocol_bit_commitment",
         ["protocol", "bc", *bc_budget, "--seed", str(seed)]),
        ("trace", ["trace"]),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="reports", type=Path)
    parser.add_argument("--seed", default=0, type=int)
    parser.add_argument("--full-bc", action="store_true",
                        help="run the binding search at its full budget "
                             "(under 1 s instead of about 0.2 s)")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name, argv_tail in jobs(args.seed, args.full_bc):
        target = args.out_dir / f"{name}.json"
        start = time.perf_counter()
        code = cli.main([*argv_tail, "--out", str(target)])
        elapsed = time.perf_counter() - start
        status = "ok" if code == 0 else f"exit {code}"
        print(f"  {name:<32} {status:<8} {elapsed:6.2f}s")
        failures += code != 0
    print(f"reports written to {args.out_dir}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
