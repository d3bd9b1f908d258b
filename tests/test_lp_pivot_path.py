"""The simplex kernel's pivot path, pinned.

Bland's rule fixes which optimal vertex the kernel returns when an LP has
several, and the kernel's points are the witnesses and certificates in the
reports.  The expected values below were recorded from the kernel that
pivoted a tableau of ``Fraction``s; the integer-preserving kernel must take
the same path, so every point and every report must match exactly.  The
kernel now takes equality rows over x >= 0 only; problems with <= rows or
other bounds are restated by ``lp_forms.bounded_lp`` into the start
tableau the kernel used to build for them, so their pins still hold.
"""

import importlib.util
import itertools
import json
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from convexstate import cli, lp, transition
from convexstate.errors import InternalCheckError
from convexstate.lp import OPTIMAL, UNBOUNDED
from convexstate.polytope import AmbiguousMixtureCertificate, parse_point
from lp_forms import BoundedLP, bounded_lp
from shapes import is_face

PINNED_REPORTS = Path(__file__).parent / "data" / "pinned_reports"
RUN_ALL_ANALYSES = Path(__file__).parent.parent / "scripts" / "run_all_analyses.py"

_BOUNDS = ((-1, 1), (0, 1), (-1, 0), (0, None), (None, 1), (None, None))


def _degenerate_lp(seed: int) -> BoundedLP:
    """Coefficients in {-1, 0, 1}, tight at a point x0 of the box: feasible,
    highly degenerate, and full of ratio-test and reduced-cost ties.  The
    objective is mostly zeros, so that optimal faces are large and the
    point returned depends on the pivot path."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    bounds = [rng.choice(_BOUNDS) for _ in range(n)]
    x0 = [rng.choice([v for v in (-1, 0, 1)
                      if (lo is None or v >= lo) and (hi is None or v <= hi)])
          for lo, hi in bounds]

    def row(values=(-1, 0, 1)):
        return [rng.choice(values) for _ in range(n)]

    def at_x0(r):
        return sum(a * x for a, x in zip(r, x0))

    a_eq = [row() for _ in range(rng.randint(0, 2))]
    a_ub = [row() for _ in range(rng.randint(2, 6))]
    return bounded_lp(row((-1, 0, 0, 0, 0, 1)),
                      a_eq=a_eq, b_eq=[at_x0(r) for r in a_eq],
                      a_ub=a_ub, b_ub=[at_x0(r) + rng.choice((0, 1, 2)) for r in a_ub],
                      bounds=bounds)


# seed -> optimal point, or None where the LP is unbounded
DEGENERATE_POINTS = {
    0: ('2', '-1', '0', '1', '0', '0'),
    1: ('1/2', '-1/2', '0', '1'),
    2: ('-1', '1', '0'),
    3: ('0', '0', '0', '-1'),
    4: None,
    5: None,
    6: ('0', '-1', '1'),
    7: None,
    8: ('-1/2', '0', '1', '1/2'),
    9: ('0', '-1', '0', '1', '1', '-1'),
    10: ('0', '1', '1'),
    11: ('-1', '0', '0', '-1', '1', '1'),
    12: ('0', '0', '1', '0', '0', '1'),
    13: None,
    14: ('-1', '-3', '0'),
    15: ('0', '1', '0', '0'),
    16: ('1', '0', '0', '1', '1'),
    17: ('0', '-1', '-1', '1/3', '-2/3', '4/3'),
    18: ('-1', '-3/2', '3/2', '-1'),
    19: ('-1', '0', '0'),
    20: ('0', '1', '-1', '-1'),
    21: ('3/2', '3/4', '1', '5/4'),
    22: ('1', '1', '-1/2', '3/2'),
    23: ('1', '1', '1', '0', '0'),
    24: ('0', '1', '0', '1', '0', '1'),
    25: ('0', '0', '0', '0', '1', '0'),
    26: ('-2', '0', '3', '-1'),
    27: ('0', '0', '0', '0', '1', '-1'),
    28: ('2', '1', '-2'),
    29: ('0', '1', '1'),
    30: ('1', '1/2', '-1/2', '0', '1'),
    31: ('0', '1', '0'),
    32: ('0', '1', '-1'),
    33: ('1', '1', '0', '2'),
    34: ('-2', '1', '1', '-1', '0'),
    35: ('1', '0', '-1', '1', '0'),
    36: ('-1', '-1', '-1', '1', '1'),
    37: ('0', '0', '-1'),
    38: ('2', '0', '-1', '1', '-1', '1'),
    39: ('0', '1/2', '1', '1/2'),
    40: ('1', '1', '1', '1', '0', '3'),
    41: ('-1', '1', '1', '0', '1', '0'),
    42: ('-1/2', '-1/2', '-1'),
    43: ('-1', '-1', '1'),
    44: ('-5', '1', '3', '1', '1', '4'),
    45: ('5', '3', '0', '-1', '0'),
    46: ('0', '1', '0'),
    47: ('0', '2', '1', '2', '-1'),
    48: ('0', '1', '0', '-1', '-1'),
    49: ('0', '1', '0'),
}


@pytest.mark.parametrize("seed", sorted(DEGENERATE_POINTS))
def test_degenerate_lp_point_pinned(seed):
    sol = _degenerate_lp(seed).solve()
    expected = DEGENERATE_POINTS[seed]
    if expected is None:
        assert sol.status == UNBOUNDED
    else:
        assert sol.status == OPTIMAL
        assert sol.point == tuple(Fraction(x) for x in expected)


F = Fraction

# name -> (problem, pinned optimal point)
CONSTRUCTED = {
    # Denominators 3, 7 and 6 across the rows and right-hand sides: the
    # integer start scales every row by their LCM, 42.
    "mixed_denominators": (
        bounded_lp([-1, -2, 0],
                   a_ub=[[F(1, 3), F(5, 6), 0], [F(1, 7), F(-1, 3), 1]],
                   b_ub=[1, F(5, 6)],
                   a_eq=[[F(1, 3), F(1, 7), F(-5, 6)]], b_eq=[F(1, 7)]),
        ("1259/638", "131/319", "53/77"),
    ),
    # Negative right-hand sides: those rows start negated, slack included.
    "negative_rhs": (
        bounded_lp([1, 1, 1], a_ub=[[-1, -2, 0], [0, -1, -1]], b_ub=[-3, -2],
                   a_eq=[[1, 0, -1]], b_eq=[-1]),
        ("0", "3/2", "1"),
    ),
    # The equality rows have rank 2, so an artificial stays basic in a row
    # that is zero outside the artificials, and that row is dropped.
    "redundant_equality": (
        bounded_lp([-1, -1, 1], a_eq=[[1, 1, 1], [2, 2, 2], [1, -1, 0]],
                   b_eq=[1, 2, 0]),
        ("1/2", "1/2", "0"),
    ),
    # Phase 1 ends with an artificial basic at level 0, and the entry that
    # drives it out is negative (see the next test).
    "negative_drive_out_pivot": (
        bounded_lp([0, 1, 0], a_eq=[[-1, 0, 0]], b_eq=[1],
                   a_ub=[[-1, -1, 0]], b_ub=[1],
                   bounds=[(-1, 0), (None, None), (None, None)]),
        ("-1", "0", "0"),
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_constructed_lp_point_pinned(name):
    problem, expected = CONSTRUCTED[name]
    sol = problem.solve()
    assert sol.status == OPTIMAL
    assert sol.point == tuple(Fraction(x) for x in expected)


def test_drive_out_pivot_is_negative(monkeypatch):
    # Pivots made outside ``_phase2``, the one simplex loop, are the
    # drive-out pivots.
    drive_out_pivots, iterating = [], [False]
    pivot, phase2 = lp._pivot, lp._phase2

    def phase2_spy(*args, **kwargs):
        iterating[0] = True
        try:
            return phase2(*args, **kwargs)
        finally:
            iterating[0] = False

    def pivot_spy(tab, r, c, den):
        if not iterating[0]:
            drive_out_pivots.append(tab[r][c])
        return pivot(tab, r, c, den)

    monkeypatch.setattr(lp, "_phase2", phase2_spy)
    monkeypatch.setattr(lp, "_pivot", pivot_spy)
    problem, _ = CONSTRUCTED["negative_drive_out_pivot"]
    problem.solve()
    assert drive_out_pivots and min(drive_out_pivots) < 0


def test_pivot_division_is_checked():
    # Row 1 updates to (x*2 - 1*row_0) = (0, -1, -1) over den = 2.  The row
    # sum -2 is divisible by 2 but no nonzero entry is.
    tab = [[2, 1, 1], [1, 0, 0]]
    with pytest.raises(InternalCheckError, match="inexact"):
        lp._pivot(tab, 0, 0, 2)
    # Here row 1 divides, (0, 2, 2) / 2, and the last row, the cost row,
    # (0, -1, 2) does not.
    tab = [[3, 1, 1], [1, 1, 1], [1, 0, 1]]
    with pytest.raises(InternalCheckError, match="inexact"):
        lp._pivot(tab, 0, 0, 2)


def test_pivot_keeps_the_denominator_positive():
    # Pivot -2 on row 0: that row is negated and 2 becomes the denominator.
    # The last row is the cost row.
    tab = [[-2, 1, 3], [1, 1, 1], [1, 0, -1]]
    den = lp._pivot(tab, 0, 0, 1)
    assert den == 2
    assert tab == [[2, -1, -3], [0, 3, 5], [0, 1, 1]]


# Theories for the report pins: a scrambled 3-cube and 4-cube (a signed
# coordinate permutation plus a shift, vertices shuffled), a shuffled
# 5-cross-polytope, a bipyramid with rational apexes and the cyclic
# polytopes C(9,3), C(5,3) and C(6,4).
_CUBE3 = [(v[2], 1 - v[0], -v[1]) for v in itertools.product((0, 1), repeat=3)]
random.Random(3).shuffle(_CUBE3)
_CUBE4 = [(1 - v[2], v[0], v[3] - 1, -v[1]) for v in itertools.product((0, 1), repeat=4)]
random.Random(4).shuffle(_CUBE4)
_CROSS5 = [tuple(s if j == i else 0 for j in range(5)) for i in range(5) for s in (1, -1)]
random.Random(5).shuffle(_CROSS5)
_BIPYRAMID = [(0, 0, 0), (4, 0, 0), (0, 4, 0), ("1/2", "3/2", 2), ("1/2", "3/2", "-1/3")]
_CYCLIC9 = [(t, t * t, t ** 3) for t in range(9)]
_CYCLIC5_3 = [(t, t * t, t ** 3) for t in range(5)]
_CYCLIC6_4 = [(t, t * t, t ** 3, t ** 4) for t in range(6)]
THEORIES = {"cube3": _CUBE3, "cube4": _CUBE4, "cross5": _CROSS5, "bipyramid": _BIPYRAMID, "cyclic9": _CYCLIC9,
            "cyclic5_3": _CYCLIC5_3, "cyclic6_4": _CYCLIC6_4}

# The face pins were recorded from a minimal_face that solved one LP per
# vertex.  A minimal face is unique, so every way of computing it must
# give the same report.
REPORTS = {
    "analyze_cube3": ("cube3", ["analyze"]),
    "analyze_cube4": ("cube4", ["analyze"]),
    "analyze_cross5": ("cross5", ["analyze"]),
    "ratio_cube4": ("cube4", ["ratio", "0", "13"]),
    "face_cube4": ("cube4", ["face", "0", "13"]),
    "face_cube4_triple": ("cube4", ["face", "1", "2", "3"]),
    "face_cube4_interior": ("cube4", ["face", "(1/3,1/4,-1/2,-2/3)"]),
    "face_cyclic9": ("cyclic9", ["face", "2", "6"]),
    "analyze_bipyramid": ("bipyramid", ["analyze"]),
    "ratio_bipyramid": ("bipyramid", ["ratio", "3", "1"]),
    "face_bipyramid": ("bipyramid", ["face", "3", "4"]),
    "analyze_cyclic5_3": ("cyclic5_3", ["analyze"]),
    "analyze_cyclic6_4": ("cyclic6_4", ["analyze"]),
    # The one zoo theory whose analyze report run_all_analyses.py does not write.
    "analyze_full2x2": ("full2x2", ["analyze"]),
    # Reports of ``scripts/run_all_analyses.py`` on zoo theories; "trace"
    # and "protocol clone" take no theory.  The separable ones carry floats: the ratio's 0 and
    # 1, and the path distances and corner bounds of analyze and
    # superposable, pinned bit for bit like protocol_bit_commitment.
    "analyze_spekkens": ("spekkens", ["analyze"]),
    "analyze_simplex3": ("simplex:3", ["analyze"]),
    "analyze_separable": ("separable2x2", ["analyze"]),
    "analyze_bloch": ("bloch", ["analyze"]),
    "ratio_octahedron_e1_e2": ("spekkens", ["ratio", "e1", "e2"]),
    "ratio_separable_01_10": ("separable2x2", ["ratio", "01", "10"]),
    "ratio_bloch_xy": ("bloch", ["ratio", "(1,0,0)", "(0,1,0)"]),
    "superposable_bloch_poles": ("bloch", ["superposable", "(0,0,1)", "(0,0,-1)"]),
    "superposable_separable_01_10": ("separable2x2", ["superposable", "01", "10"]),
    "face_octahedron_edge": ("spekkens", ["face", "e1", "e2"]),
    "face_octahedron_facet": ("spekkens", ["face", "e1", "e2", "e3"]),
    "protocol_clone_60deg": (None, ["protocol", "clone", "--bloch-angle", "60"]),
    "trace": (None, ["trace"]),
}


def test_analyze_runs_no_phase_one_in_a_ratio_lp(tmp_path, monkeypatch):
    """Every ratio LP starts from its crash basis, so phase 1 runs only in
    the face and membership LPs of ``analyze``."""
    ratio_lps, phase_one = [], []
    phase1 = lp._phase1

    def ratio_solve(problem, warm=None):
        ratio_lps.append(problem)
        return lp.lp_solve(problem, warm)

    def spy(problem):
        phase_one.append(problem)
        return phase1(problem)

    monkeypatch.setattr(transition, "lp_solve", ratio_solve)
    monkeypatch.setattr(lp, "_phase1", spy)
    assert cli.main(["analyze", _theory_file("cube4", tmp_path),
                     "--out", str(tmp_path / "report.json")]) == 0
    assert len(ratio_lps) == 16 * 15
    assert not {id(p) for p in ratio_lps} & {id(p) for p in phase_one}


# (theory, command) -> (``_pivot`` calls, ``_phase1`` calls), loading included.
# A change that keeps every point but takes another path moves these.
PIVOT_COUNTS = {
    ("cube4", ("analyze",)): (1702, 0),
    ("cube4", ("face", "1", "2", "3")): (18, 1),
    ("bipyramid", ("analyze",)): (129, 2),
}


@pytest.mark.parametrize("theory, command", sorted(PIVOT_COUNTS))
def test_pivot_path_pinned_by_count(theory, command, tmp_path, monkeypatch):
    counts = {"_pivot": 0, "_phase1": 0}

    def counting(name):
        inner = getattr(lp, name)

        def spy(*args):
            counts[name] += 1
            return inner(*args)
        return spy

    for name in counts:
        monkeypatch.setattr(lp, name, counting(name))
    verb, *args = command
    assert cli.main([verb, _theory_file(theory, tmp_path), *args,
                     "--out", str(tmp_path / "report.json")]) == 0
    assert (counts["_pivot"], counts["_phase1"]) == PIVOT_COUNTS[theory, command]


def test_every_analysis_job_is_pinned():
    """A job added to ``scripts/run_all_analyses.py`` ships with its pin: a
    pinned file and a ``REPORTS`` entry that runs the job's own command.
    The bit commitment is pinned in ``test_protocols.py``."""
    spec = importlib.util.spec_from_file_location("run_all_analyses", RUN_ALL_ANALYSES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for name, argv in script.jobs(0, False):
        assert (PINNED_REPORTS / f"{name}.json").is_file(), name
        if name != "protocol_bit_commitment":
            theory, (command, *args) = REPORTS[name]
            assert [command, *([] if theory is None else [theory]), *args] == argv, name


def _theory_file(theory, tmp_path) -> str:
    """A theory of ``THEORIES`` written as a theory file; its path."""
    verts = THEORIES[theory]
    theory_file = tmp_path / f"{theory}.json"
    theory_file.write_text(json.dumps({
        "name": theory, "ambient_dim": len(verts[0]),
        "vertices": [[str(c) for c in v] for v in verts],
    }))
    return str(theory_file)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_pinned(name, tmp_path):
    theory, (command, *args) = REPORTS[name]
    if theory in THEORIES:
        theory = _theory_file(theory, tmp_path)
    out = tmp_path / "report.json"
    theory_args = [] if theory is None else [theory]
    assert cli.main([command, *theory_args, *args, "--out", str(out)]) == 0
    assert out.read_text() == (PINNED_REPORTS / f"{name}.json").read_text()
    report = json.loads(out.read_text())
    if command == "face":
        k = cli.resolve_theory(theory).payload
        assert is_face(k, report["face_vertex_indices"])
    elif command == "ratio" and isinstance(report["witness"], dict):
        # Re-check the pinned polytope witness exactly, from the JSON and
        # the theory: f(x) = 1, f(y) = the value and 0 <= f <= 1.
        verts = cli.resolve_theory(theory).payload.vertices
        normal = parse_point(report["witness"]["normal"])
        offset = Fraction(report["witness"]["offset"])
        f = [sum(map(operator.mul, normal, v)) + offset for v in verts]
        x, y = (verts[report["detail"][key]] for key in ("x_index", "y_index"))
        assert f[verts.index(x)] == 1 and f[verts.index(y)] == Fraction(report["value"])
        assert all(0 <= w <= 1 for w in f)
    elif command == "analyze" and report["verdict"]["certificate"]["kind"] == "ambiguous_mixture":
        # Re-check the pinned crossing exactly, from the JSON and the theory.
        cert = report["verdict"]["certificate"]
        fields = {key: parse_point(cert[key]) for key in "wxyz"}
        verts = cli.resolve_theory(theory).payload.vertices
        assert [fields[key] for key in "wxyz"] == [verts[i] for i in cert["indices"]]
        mixture = AmbiguousMixtureCertificate(indices=tuple(cert["indices"]), **fields,
                                              lam=Fraction(cert["lam"]), mu=Fraction(cert["mu"]))
        assert mixture.validate()
        assert mixture.mixture_point() == parse_point(cert["mixture_point"])

