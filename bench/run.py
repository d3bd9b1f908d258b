#!/usr/bin/env python3
"""convexstate benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports ``convexstate`` from ``src/`` beside this directory (and exits
non-zero if it is missing or comes from anywhere else), builds the
workload's inputs from the seed, runs one untimed warm-up pass, then whole
rounds of the workload's operations until S seconds have passed.  Every
output is checked afterwards by ``verify.py``.  Times are nominal seconds:
see ``refkernel.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer ones.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import KERNEL_SPAN, Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 130.0
"""No round starts once the process is this old and the last round would
not fit before it, so a run ends well within 180 s."""

PACKAGE_MODULES = ("admissibility", "cli", "linalg", "models", "polytope",
                   "protocols", "transition")


def import_package() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    try:
        import convexstate
    except ImportError as exc:
        sys.exit(f"bench: cannot import convexstate from {SRC}: {exc}")
    found = Path(convexstate.__file__).resolve().parent
    if found != (SRC / "convexstate").resolve():
        sys.exit(f"bench: convexstate was imported from {found}, not from {SRC}")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"convexstate.{name}") for name in PACKAGE_MODULES})


def _attempt(op):
    try:
        return op.call(), None
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, exc


class Runner:
    """Runs operations, keeps their nominal times and outputs."""

    def __init__(self, workload, clock, tracer=None):
        self.workload = workload
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.span_factors: list[float] = []
        self.first: dict[int, tuple] = {}     # id(op) -> (op, output)
        self.problems: list[str] = []

    def observe(self, op, output, exc) -> bool:
        """Record an output; False if the operation failed."""
        if exc is not None or (isinstance(output, dict) and output.get("code", 0) != 0):
            detail = exc if exc is not None else output["stderr"].strip()
            print(f"bench: {op.label} failed: {detail}", file=sys.stderr)
            return False
        if id(op) not in self.first:
            self.first[id(op)] = (op, output)
        elif fingerprint(op.kind, output) != fingerprint(
                op.kind, self.first[id(op)][1]):
            self.problems.append(f"{op.label}: output changed between identical runs")
        return True

    def warm_up(self) -> None:
        for op in self.workload.warmup:
            self.observe(op, *_attempt(op))

    def timed_op(self, op) -> tuple[float, float]:
        gc.collect()
        (output, exc), raw, nominal = self.clock.measure(lambda: _attempt(op))
        self.attempted += 1
        if not self.observe(op, output, exc):
            self.failed += 1
        if self.tracer is not None:
            new = len(self.tracer.spans) - len(self.span_factors)
            self.span_factors.extend([nominal / raw if raw > 0 else 1.0] * new)
        return nominal, raw

    def round(self) -> list[tuple[float, float]]:
        """One pass; (nominal, raw) seconds of each operation."""
        return [self.timed_op(op) for op in self.workload.ops]


def measure(runner, seconds: float, trace: bool) -> dict:
    """Whole rounds until `seconds` have passed; alternating untraced and
    traced rounds when tracing."""
    rounds = {False: [], True: []}
    marks = []                         # span index range of each traced round
    tracer = runner.tracer
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds[False]) > len(rounds[True])
        began = time.perf_counter()
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
            runner.clock.on_sample = lambda a, b: tracer.record(KERNEL_SPAN, a, b)
            try:
                rounds[True].append(runner.round())
            finally:
                tracer.uninstall()
                runner.clock.on_sample = None
            marks.append((first_span, len(tracer.spans)))
        else:
            rounds[False].append(runner.round())
        now = time.perf_counter()
        if trace and not rounds[True]:
            continue
        if now - start >= seconds:
            break
        if now - PROCESS_START + (now - began) > RUN_LIMIT_S:
            break
    return {"untraced": rounds[False], "traced": rounds[True], "marks": marks}


def pass_time(rounds: list, column: int = 0) -> float:
    """Time of one pass: each operation's median over the rounds, summed.
    Column 0 holds nominal seconds, column 1 raw seconds."""
    return sum(statistics.median(times[column] for times in per_op)
               for per_op in zip(*rounds))


def _per_round_layers(tracer, factors, marks) -> list[dict]:
    return [layer_totals(tracer.spans[a:b], factors[a:b], a) for a, b in marks]


def per_layer_metrics(totals: dict, overhead_s: float) -> dict:
    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def self_s(name):
        return totals[name]["self_s"] if name in totals else 0.0

    def tag(name, module):
        return totals[name]["tags"].get(module, 0) if name in totals else 0

    def notes(name):
        return totals[name]["notes"] if name in totals else []

    def share(part, whole):
        return part / whole if whole else 0.0

    lp_calls, lp_self = calls("lp.solve"), self_s("lp.solve")
    eigen_calls = calls("linalg.eigvalsh") + calls("linalg.eigh")
    eigen_self = self_s("linalg.eigvalsh") + self_s("linalg.eigh")
    evaluations = sum(notes("protocols.binding_attack_search"))
    m = {
        "lp.solves": (lp_calls, "count"),
        "lp.self_s": (lp_self, "s"),
        "lp.us_per_solve": (1e6 * share(lp_self, lp_calls), "us"),
        "lp.ratio_solves": (tag("lp.solve", "transition"), "count"),
        "lp.face_solves": (tag("lp.solve", "polytope"), "count"),
    }
    for name in ("polytope.build", "polytope.minimal_face",
                 "polytope.find_ambiguous_mixture", "transition.affine_ratio_polytope",
                 "linalg.eigvalsh", "linalg.eigh", "models.maximize_linear_over_separable"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["polytope.minimal_face.distinct_share"] = (
        share(len(set(notes("polytope.minimal_face"))), calls("polytope.minimal_face")), "ratio")
    m["transition.affine_ratio_polytope.diagonal_share"] = (
        share(sum(notes("transition.affine_ratio_polytope")),
              calls("transition.affine_ratio_polytope")), "ratio")
    m["linalg.us_per_eigensolve"] = (1e6 * share(eigen_self, eigen_calls), "us")
    m["models.separable_membership.calls"] = (calls("models.separable_membership"), "count")
    for name in ("admissibility.check_polytope", "transition.superposability_search",
                 "transition.affine_ratio_separable", "admissibility.check_separable_pair",
                 "admissibility.jordan_checks", "protocols.binding_attack_search",
                 "serialize.canonical_json"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["protocols.evaluations"] = (evaluations, "count")
    m["protocols.us_per_evaluation"] = (
        1e6 * share(self_s("protocols.binding_attack_search"), evaluations), "us")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def _median_layers(per_round: list[dict]) -> dict:
    names = per_round[0]
    return {name: (statistics.median(r[name][0] for r in per_round), names[name][1])
            for name in names}


def write_trace(tracer, workload: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "tag"],
                   "spans": [s[:5] for s in tracer.spans]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](pkg, args.seed, workdir)
        setup_raw = time.perf_counter() - PROCESS_START
        return report(pkg, workload, args, setup_raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(pkg, workload, args, setup_raw: float) -> int:
    import refkernel

    setup_s = refkernel.nominal(setup_raw, refkernel.host_kernel_s())
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, refkernel.NormalisingClock(), tracer)
    runner.warm_up()
    rounds = measure(runner, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import verify  # scipy only now, so that its memory stays out of peak_rss_mb

    problems = list(runner.problems)
    for op, output in runner.first.values():
        try:
            verify.check_output(op.kind, output, op.spec)
        except verify.CheckError as exc:
            problems.append(f"{op.label}: {exc}")
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)

    if args.trace:
        per_round = _per_round_layers(tracer, runner.span_factors, rounds["marks"])
        overhead = pass_time(rounds["traced"]) - pass_time(rounds["untraced"])
        metrics = _median_layers([per_layer_metrics(t, overhead) for t in per_round])
        write_trace(tracer, workload.name, args.seed)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_s": (pass_time(rounds["untraced"]), "s"),
            "op_p50_s": (statistics.median(t[0] for r in rounds["untraced"] for t in r), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"{'raw round_s':<52} {pass_time(rounds['untraced'], 1):>14.6g} s\n"
          f"{'raw setup_s':<52} {setup_raw:>14.6g} s", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
