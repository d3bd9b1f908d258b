"""Tests of the benchmark itself: each check rejects a wrong output, and the
tracer catches calls made through imported names.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from convexstate import cli, protocols  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402
from verify import CheckError, check_output  # noqa: E402


class _Pkg:
    cli = cli


def _cli(*argv):
    out = workloads.run_cli(_Pkg, list(argv))
    assert out["code"] == 0, out["stderr"]
    return out


def _replace_report(out, edit):
    report = json.loads(out["stdout"])
    edit(report)
    return {**out, "stdout": json.dumps(report)}


SPEKKENS = {"vertices": workloads.SPEKKENS, "family": "cross"}


@pytest.fixture(scope="module")
def spekkens_analyze():
    return _cli("analyze", "spekkens")


def test_analyze_accepted(spekkens_analyze):
    check_output("analyze", spekkens_analyze, SPEKKENS)


def test_corrupted_certificate_rejected(spekkens_analyze):
    def shift_weight(r):
        r["verdict"]["certificate"]["lam"] = "1/3"

    def swap_vertex(r):
        r["verdict"]["certificate"]["w"] = ["1/2", "0", "0"]

    for edit in (shift_weight, swap_vertex):
        with pytest.raises(CheckError):
            check_output("analyze", _replace_report(spekkens_analyze, edit), SPEKKENS)


def test_perturbed_ratio_rejected(spekkens_analyze):
    def perturb(r):
        r["ratio_matrix"][0][2] = "1/1000000"

    with pytest.raises(CheckError):
        check_output("analyze", _replace_report(spekkens_analyze, perturb), SPEKKENS)

    spec = {**SPEKKENS, "x": 0, "y": 2}
    ratio = _cli("ratio", "spekkens", "0", "2")
    check_output("ratio", ratio, spec)
    for key, value in (("value", "1/1000000"), ("witness", {"normal": ["1", "0", "0"],
                                                           "offset": "0"})):
        bad = _replace_report(ratio, lambda r: r.update({key: value}))
        with pytest.raises(CheckError):
            check_output("ratio", bad, spec)


def test_wrong_face_rejected():
    spec = {**SPEKKENS, "points": [0, 2]}
    face = _cli("face", "spekkens", "0", "2")
    check_output("face", face, spec)
    bad = _replace_report(face, lambda r: r.update(face_vertex_indices=[0, 2, 4]))
    with pytest.raises(CheckError):
        check_output("face", bad, spec)


def test_wrong_eigenvalue_rejected():
    from convexstate import admissibility

    rng = np.random.default_rng(0)
    a, b = (workloads._hermitian(rng, 4) for _ in range(2))
    out = {"residual": admissibility.jordan_identity_residual(a, b),
           "norms": admissibility.jb_norm_inequalities(a, b)}
    check_output("jordan", out, {"a": a, "b": b})
    bad = copy.deepcopy(out)
    bad["norms"].norms["|a.b|"] *= 1.0 + 1e-6
    with pytest.raises(CheckError):
        check_output("jordan", bad, {"a": a, "b": b})


def test_misreported_residual_rejected():
    report = protocols.run_bit_commitment_analysis(support=2, starts=2, seed=0, sweeps=2)
    check_output("binding", report, {})
    low = replace(report, separable_binding_residual=report.separable_binding_residual * 0.9)
    leaky = replace(report, search=replace(report.search,
                                           best_kraus0=report.search.best_kraus0 * 1.01))
    for bad in (low, leaky):
        with pytest.raises(CheckError):
            check_output("binding", bad, {})


def test_separable_side_rejections():
    x, y = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])), \
           (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, -1.0]))
    token = [workloads._bloch_token(x[0]) + ";" + workloads._bloch_token(x[1]),
             workloads._bloch_token(y[0]) + ";" + workloads._bloch_token(y[1])]
    ratio = _cli("ratio", "separable2x2", *token)
    check_output("separable_ratio", ratio, {"x": x, "y": y})
    with pytest.raises(CheckError):
        check_output("separable_ratio", _replace_report(ratio, lambda r: r.update(hi=0.3)),
                     {"x": x, "y": y})

    clone = _cli("protocol", "clone", "--bloch-angle", "60")
    check_output("clone", clone, {"angle": 60.0})
    with pytest.raises(CheckError):
        check_output("clone", _replace_report(clone, lambda r: r.update(r_clone_bound=0.6)),
                     {"angle": 60.0})

    rng = np.random.default_rng(1)
    rho = workloads._entangled_state(rng)
    check_output("membership", False, {"rho": rho, "separable": False})
    with pytest.raises(CheckError):
        check_output("membership", True, {"rho": rho, "separable": False})


def test_certificate_without_corners_rejected():
    check_output("superposable", _cli("superposable", "separable2x2", "01", "10"), {})
    empty = _cli("superposable", "separable2x2", "01", "10", "--grid", "1")
    with pytest.raises(CheckError):
        check_output("superposable", empty, {})


def test_tracer_catches_imported_names():
    from convexstate import lp, polytope, transition

    originals = (lp.lp_solve, polytope.lp_solve, transition.lp_solve, cli.minimal_face)
    tracer = Tracer()
    tracer.install()
    try:
        assert polytope.lp_solve is not originals[1]
        _cli("analyze", "spekkens")
        second = len(tracer.spans)
        _cli("analyze", "spekkens")
    finally:
        tracer.uninstall()
    assert (lp.lp_solve, polytope.lp_solve, transition.lp_solve, cli.minimal_face) == originals
    n = len(workloads.SPEKKENS)
    for first, spans in ((0, tracer.spans[:second]), (second, tracer.spans[second:])):
        totals = layer_totals(spans, [1.0] * len(spans), first)
        assert totals["transition.affine_ratio_polytope"]["calls"] == n * n
        assert totals["lp.solve"]["tags"]["transition"] == n * n
        assert totals["lp.solve"]["tags"]["polytope"] > 0
        assert totals["cli.main"]["calls"] == 1
        top = next(s for s in spans if s[0] == "cli.main")
        assert 0 < totals["cli.main"]["self_s"] < top[2] - top[1]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "spectral_checks",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
