#!/usr/bin/env python3
"""Compare two checkouts on the benchmark by alternating pairs of runs.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...]
        [--pairs 10] [--seed 7] [--seconds 5] [--out BENCH.json]

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, as a subprocess with that checkout as its working
directory, so each side imports its own ``src/``.  Pair i runs the parent
first when i is even and the change first when it is odd.  Nothing under
``bench/`` is imported or written by this script.

For every end-to-end metric that ``CHANGE_DIR/BENCHMARK.json`` lists, it
prints each side's median and quartiles, the relative change of the
medians, and how many pairs favoured the change (ties count for neither).
A run that is not ``correct`` or has failed operations is reported and
counted.  For each side it also prints and records the line count of the
checkout's ``src/`` and whether ``PYTHONDONTWRITEBYTECODE`` was set for its
runs (without it, each checkout's bytecode is cached after its first run;
with it, every run compiles the package again).  With ``--out``, the same
summary goes to a JSON file together with the Python and numpy versions
and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its last stdout line as JSON."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def checkout_facts(checkout: Path, environ=os.environ) -> dict:
    """The ``src/`` line count of a checkout, and whether the runs in it
    have ``PYTHONDONTWRITEBYTECODE`` set (they inherit this environment)."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (checkout / "src").rglob("*.py"))
    return {"src_lines": lines,
            "pythondontwritebytecode": bool(environ.get("PYTHONDONTWRITEBYTECODE"))}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs won."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
        for side, values in sides.items():
            q1, med, q3 = quartiles(values)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "runs": values}
        p_med, c_med = entry["parent"]["median"], entry["change"]["median"]
        entry["relative_change"] = (c_med - p_med) / p_med if p_med else None
        entry["pairs_favouring_change"] = wins
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, d in dirs.items():
        if not (d / "bench" / "run.py").is_file():
            ap.error(f"{side} checkout {d} has no bench/run.py")
    metrics = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    report = {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
              "python": platform.python_version(), "numpy": numpy.__version__,
              "machine": {"system": platform.system(), "machine": platform.machine(),
                          "cpus": os.cpu_count()},
              "checkouts": {side: checkout_facts(d) for side, d in dirs.items()},
              "workloads": {}}
    for side, facts in report["checkouts"].items():
        print(f"{side}: {dirs[side]}, src/ {facts['src_lines']} lines, "
              f"PYTHONDONTWRITEBYTECODE {'set' if facts['pythondontwritebytecode'] else 'unset'}")
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(dirs[side], workload, args.seed, args.seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        bad = {side: sum(not r["correct"] or r["failed"] > 0 for r in rs)
               for side, rs in runs.items()}
        report["workloads"][workload] = {
            "runs_not_correct_or_failed": bad,
            "metrics": summarize(runs, metrics),
        }
        print(f"{workload} ({args.pairs} pairs; runs not correct or with failures: "
              f"parent {bad['parent']}, change {bad['change']})")
        for name, e in report["workloads"][workload]["metrics"].items():
            rel = e["relative_change"]
            print(f"  {name:12s} parent {e['parent']['median']:.6g} "
                  f"[{e['parent']['q1']:.6g}, {e['parent']['q3']:.6g}]  "
                  f"change {e['change']['median']:.6g} "
                  f"[{e['change']['q1']:.6g}, {e['change']['q3']:.6g}] {e['unit']}  "
                  f"{'' if rel is None else f'{100 * rel:+.1f} %'}  "
                  f"favour change {e['pairs_favouring_change']}/{args.pairs}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
