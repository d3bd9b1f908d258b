"""The benchmark's independent checker, run on the separable reports.

``bench/verify.py`` refuses a report that breaks what it checks, and the
benchmark then counts the operation as failed.  Running the same checks on
the same CLI calls here makes such a report change fail these tests first.
``verify`` is imported from ``bench/`` as ``test_bench_targets.py`` imports
``spans``."""

import sys
from pathlib import Path

import numpy as np
import pytest

from convexstate import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from verify import check_output  # noqa: E402


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _token(v) -> str:
    return "(" + ",".join(repr(float(c)) for c in v) + ")"


def _product_ratio_case():
    rng = np.random.default_rng(43)
    xa, xb, ya, yb = (_unit(rng) for _ in range(4))
    argv = ["ratio", "separable2x2",
            _token(xa) + ";" + _token(xb), _token(ya) + ";" + _token(yb)]
    return "separable_ratio", argv, {"x": (xa, xb), "y": (ya, yb)}


CASES = {
    "analyze": ("analyze_separable", ["analyze", "separable2x2"], {}),
    "superposable": ("superposable", ["superposable", "separable2x2", "01", "10"], {}),
    "ratio": _product_ratio_case(),
}


def run(capsys, argv) -> dict:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return {"code": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bench_verifier_accepts_separable_report(capsys, case):
    kind, argv, spec = CASES[case]
    check_output(kind, run(capsys, argv), spec)
