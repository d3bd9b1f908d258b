"""Transition ratios and superposability across all four state-space kinds."""

import dataclasses
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexstate import cli, linalg, lp, polytope, transition
from convexstate.admissibility import REFUTED, check_separable_pair
from convexstate.errors import InternalCheckError, PreconditionError
from convexstate.lp import OPTIMAL
from convexstate.models import make_spekkens_hull, separable_membership
from convexstate.polytope import VPolytope, minimal_face, parse_point
from convexstate.protocols import cloning_contradiction
from convexstate.transition import (StateSpaceHandle, affine_ratio,
                                    affine_ratio_bloch, affine_ratio_polytope,
                                    affine_ratio_quantum,
                                    affine_ratio_separable, is_orthogonal,
                                    overlap_square_surface,
                                    product_path_certificate,
                                    superposability_search)
from lp_forms import bounded_lp
from shapes import FLAT_POLYTOPES, barycenter


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Polytope ratios
# ---------------------------------------------------------------------------

def test_spekkens_ratio_matrix_identity():
    k = make_spekkens_hull()
    for i, x in enumerate(k.vertices):
        for j, y in enumerate(k.vertices):
            r = affine_ratio_polytope(k, x, y)
            assert r.exact
            assert r.value == (Fraction(1) if i == j else Fraction(0))


def test_polytope_witness_is_feasible_exactly():
    k = make_spekkens_hull()
    for x in k.vertices:
        for y in k.vertices:
            r = affine_ratio_polytope(k, x, y)
            f = r.witness
            assert f(x) == 1
            assert f(y) == r.value
            for v in k.vertices:
                assert 0 <= f(v) <= 1


def test_polytope_ratio_requires_vertices():
    k = make_spekkens_hull()
    with pytest.raises(PreconditionError):
        affine_ratio_polytope(k, (0, 0, 0), (1, 0, 0))


def functional_ratio(k, x, y):
    """The affine ratio from its defining LP: minimize f(y) over free
    u = (normal, offset) with f(x) = 1 and 0 <= f(v) <= 1 on every vertex,
    each free u_j split into a nonnegative pair.  The reference the package
    solved before it took the mixture LP (its LP dual) instead."""
    rows = [[*v, 1] for v in k.vertices]
    sol = bounded_lp([*y, 1], a_eq=[[*x, 1]], b_eq=[1],
                     a_ub=[r for row in rows for r in ([-c for c in row], row)],
                     b_ub=[0, 1] * len(rows), bounds=[(None, None)] * len(rows[0])).solve()
    assert sol.status == OPTIMAL
    return sol.value


def _scrambled(points, seed):
    """A seeded signed coordinate permutation plus an integer shift, with
    the vertices shuffled."""
    rng = random.Random(seed)
    d = len(points[0])
    perm = rng.sample(range(d), d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    shift = [rng.randint(-2, 2) for _ in range(d)]
    verts = [tuple(signs[i] * p[perm[i]] + shift[i] for i in range(d)) for p in points]
    rng.shuffle(verts)
    return VPolytope(verts)


def _cross(d):
    return [tuple(s if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1)]


ORACLE_THEORIES = {
    "cube3": lambda: _scrambled(list(itertools.product((0, 1), repeat=3)), 3),
    "cube4": lambda: _scrambled(list(itertools.product((0, 1), repeat=4)), 4),
    "cross3": lambda: _scrambled(_cross(3), 3),
    "cross5": lambda: _scrambled(_cross(5), 5),
    "cyclic9_3": lambda: VPolytope([(t, t * t, t ** 3) for t in range(9)]),
    "bipyramid": lambda: VPolytope([(0, 0, 0), (4, 0, 0), (0, 4, 0),
                                    ("1/2", "3/2", 2), ("1/2", "3/2", "-1/3")]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_THEORIES))
def test_mixture_ratio_matches_functional_lp(name):
    k = ORACLE_THEORIES[name]()
    for x, y in itertools.product(k.vertices, repeat=2):
        r = affine_ratio_polytope(k, x, y)
        assert r.exact and r.value == functional_ratio(k, x, y)
        f = r.witness
        assert f(x) == 1 and f(y) == r.value
        assert all(0 <= f(v) <= 1 for v in k.vertices)


@pytest.mark.parametrize("name", sorted(ORACLE_THEORIES) + sorted(FLAT_POLYTOPES))
def test_ratio_duals_certify_the_optimum(name, monkeypatch):
    """The duals y that the ratio LP reads off its crash-started tableau
    are dual feasible, c - y.A >= 0 column by column, and b.y = c.x, so
    weak duality alone proves the mixture optimal.  A polytope that is not
    full-dimensional has dependent rows; the crash drops one, and the value
    still matches the functional LP."""
    solved, kept = [], []

    def capture(problem, warm=None):
        kept.append(len(warm.tableau[1]))
        solved.append((problem, lp.lp_solve(problem, warm)))
        return solved[-1][1]

    monkeypatch.setattr(transition, "lp_solve", capture)
    flat = name in FLAT_POLYTOPES
    k = FLAT_POLYTOPES[name] if flat else ORACLE_THEORIES[name]()
    for x, y in itertools.product(k.vertices, repeat=2):
        solved.clear()
        kept.clear()
        r = affine_ratio_polytope(k, x, y)
        [(problem, sol)] = solved
        u, den = sol.duals
        for j, c in enumerate(problem.objective):
            assert c * den - sum(ui * row[j] for ui, row in zip(u, problem.a_eq)) >= 0
        assert sum(map(operator.mul, u, problem.b_eq)) == sol.value * den
        assert kept == [len(problem.b_eq) - flat]
        if flat:
            assert r.value == functional_ratio(k, x, y)


def _fraction_membership_rows(verts, point):
    """[v_i | point] by coordinate, then [1 ... 1 | 1], in ``Fraction``s."""
    return [(*col, c) for col, c in zip(zip(*verts), point)] + [(1,) * (len(verts) + 1)]


def _fraction_ratio_rows(verts, x, y):
    """Columns (x, 1) for t, (v_i, 1) for alpha, their negations for beta,
    and (y, 1) on the right, in ``Fraction``s."""
    columns = [(*x, 1), *((*v, 1) for v in verts)]
    columns += [tuple(-c for c in col) for col in columns[1:]]
    return [(*row, b) for row, b in zip(zip(*columns), (*y, 1))]


@pytest.mark.parametrize("name", sorted(ORACLE_THEORIES))
def test_integer_lps_start_from_the_scaled_fraction_tableau(name, monkeypatch):
    """Every polytope LP (irredundancy at load, ratio, minimal face) holds
    exactly ``_integer_rows`` of the ``Fraction`` rows these LPs were built
    from before the polytope kept its vertices in integers: the same start
    tableau, so Bland's rule takes the same pivots.  (Of one minimal-face
    call, only the first LP starts there; the later ones, on the same
    rows, start from the tableau the one before left.)"""
    solved = []

    def capture(problem, warm=None):
        solved.append([[*row, b] for row, b in zip(problem.a_eq, problem.b_eq)])
        return lp.lp_solve(problem, warm)

    monkeypatch.setattr(polytope, "lp_solve", capture)
    monkeypatch.setattr(transition, "lp_solve", capture)
    k = ORACLE_THEORIES[name]()
    verts = k.vertices
    unexposed = [i for i, e in enumerate(polytope.centroid_exposed(k.homogeneous)) if not e]
    assert solved == [lp._integer_rows(_fraction_membership_rows(verts[:i] + verts[i + 1:], verts[i]))
                      for i in unexposed]
    for x, y in itertools.product(verts, repeat=2):
        solved.clear()
        affine_ratio_polytope(k, x, y)
        assert solved == [lp._integer_rows(_fraction_ratio_rows(verts, x, y))]
    for point in (barycenter(verts), barycenter(verts[:2]), barycenter(verts[1:4])):
        solved.clear()
        minimal_face(k, point)
        rows = lp._integer_rows(_fraction_membership_rows(verts, parse_point(point)))
        assert solved and all(r == rows for r in solved)


@pytest.mark.parametrize("entry", [0, -1, "bound"])
def test_corrupted_multiplier_fails_the_witness_check(monkeypatch, entry):
    # The octahedron's integer rows are (v, 1) itself, so a dual u / den
    # raised by 1 lowers f by one coordinate (entry 0) or by the constant 1
    # (entry -1, the offset): f(e1) = 1 breaks either way.  "bound" adds
    # 2 * (third coordinate) to f, which is 0 at x = e1 and y = e2, so
    # f(x) = 1 and f(y) hold, but f(e3) leaves [0, 1].
    def corrupted(problem, warm=None):
        sol = lp.lp_solve(problem, warm)
        u, den = sol.duals
        u = list(u)
        if entry == "bound":
            u[2] -= 2 * den
        else:
            u[entry] += den
        return dataclasses.replace(sol, duals=(tuple(u), den))

    monkeypatch.setattr(transition, "lp_solve", corrupted)
    k = make_spekkens_hull()
    x, y = k.vertices[0], k.vertices[2]
    assert (x, y) == ((1, 0, 0), (0, 1, 0))
    with pytest.raises(InternalCheckError, match="witness"):
        affine_ratio_polytope(k, x, y)


def test_nan_bloch_vector_rejected():
    for bad in ([np.nan, 0, 0], [np.inf, 0, 0], [0, -np.inf, 0]):
        with pytest.raises(PreconditionError):
            affine_ratio_bloch(bad, [0, 0, 1])


# ---------------------------------------------------------------------------
# Bloch and full quantum ratios
# ---------------------------------------------------------------------------

def test_bloch_matches_projector_overlap():
    rng = np.random.default_rng(17)
    for _ in range(200):
        x, y = random_unit(rng), random_unit(rng)
        closed = affine_ratio_bloch(x, y).value
        overlap = float(np.real(np.trace(
            linalg.bloch_projector(x) @ linalg.bloch_projector(y))))
        assert abs(closed - overlap) <= 1e-10


def test_bloch_formula_values():
    assert abs(affine_ratio_bloch((1, 0, 0), (0, 1, 0)).value - 0.5) <= 1e-14
    assert abs(affine_ratio_bloch((1, 0, 0), (1, 0, 0)).value - 1.0) <= 1e-14
    assert abs(affine_ratio_bloch((0, 0, 1), (0, 0, -1)).value) <= 1e-14


def test_bloch_requires_unit_vectors():
    with pytest.raises(PreconditionError):
        affine_ratio_bloch((0.5, 0, 0), (1, 0, 0))


def test_quantum_ratio_is_trace_overlap():
    rng = np.random.default_rng(18)
    for _ in range(50):
        x = linalg.bloch_projector(random_unit(rng))
        y = linalg.bloch_projector(random_unit(rng))
        r = affine_ratio_quantum(x, y)
        assert abs(r.value - float(np.real(np.trace(x @ y)))) <= 1e-12
        assert 0.0 <= r.value <= 1.0
    p = linalg.projector(linalg.ket("01"))
    assert abs(affine_ratio_quantum(p, p).value - 1.0) <= 1e-14


def test_quantum_ratio_rejects_mixed_states():
    with pytest.raises(PreconditionError):
        affine_ratio_quantum(np.eye(2) / 2, np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Separable interval
# ---------------------------------------------------------------------------

# Tr(xy) on the ten seeded pairs below, pinned bit for bit so that any
# change to how the separable engine computes hi shows here.
_SEPARABLE_HI = (
    0.016837483656891854, 0.0611656950750417, 0.30434917188941246,
    0.6878771054428902, 0.19599418604988017, 0.018938767463250884,
    0.4131755840432014, 0.1923809465672197, 0.15233209025030234,
    0.05720739036708625,
)


def test_separable_interval_brackets_quantum_value():
    rng = np.random.default_rng(19)
    for expected_hi in _SEPARABLE_HI:
        x, y = (linalg.tensor(linalg.bloch_projector(random_unit(rng)),
                              linalg.bloch_projector(random_unit(rng))) for _ in range(2))
        r = affine_ratio_separable(x, y)
        quantum = float(np.real(np.trace(x @ y)))
        assert abs(r.hi - quantum) <= 1e-12
        assert (r.lo, r.hi) == (0.0, expected_hi)
        assert r.detail == {"upper_bound_formula": "Tr(xy) on the full space"}


def test_separable_same_state_is_one():
    x = linalg.projector(linalg.ket("01"))
    r = affine_ratio_separable(x, x)
    assert r.exact and abs(r.value - 1.0) <= 1e-12


def test_separable_bracket_is_ordered_at_any_tol():
    # Tr(xx) rounds to just below 1 for many products, and at tol 1 every
    # pair counts as equal, so the lower bound must follow hi, not be 1.
    rng = np.random.default_rng(37)
    bp = linalg.bloch_projector
    for _ in range(20):
        a, b, c, d = (random_unit(rng) for _ in range(4))
        x = linalg.tensor(bp(a), bp(b))
        for y, same in ((x, True), (linalg.tensor(bp(-a), bp(-b)), False),
                        (linalg.tensor(bp(c), bp(d)), False)):
            for tol in (1e-10, 1.0):
                r = affine_ratio_separable(x, y, tol)
                assert r.lo <= r.hi, (tol, r.lo, r.hi)
                if same:
                    assert r.exact and abs(r.value - 1.0) <= 1e-12


def test_separable_orthogonal_pair_is_zero():
    x = linalg.projector(linalg.ket("01"))
    y = linalg.projector(linalg.ket("10"))
    r = affine_ratio_separable(x, y)
    assert r.exact and abs(r.value) <= 1e-12


_SEPARABLE_ENTRY_POINTS = {
    "affine_ratio_separable": affine_ratio_separable,
    "product_path_certificate": product_path_certificate,
    "superposability_search": functools.partial(superposability_search,
                                                StateSpaceHandle.separable_2x2()),
    "check_separable_pair": check_separable_pair,
}


@pytest.mark.parametrize("bad, message", [
    (linalg.projector(linalg.ket("01") - linalg.ket("10")), "x is entangled"),
    (linalg.projector(linalg.ket("0")), "x must be a 4x4 two-qubit state"),
], ids=["entangled", "qubit"])
@pytest.mark.parametrize("entry", sorted(_SEPARABLE_ENTRY_POINTS))
def test_separable_rejects_entangled_input(entry, bad, message):
    prod = linalg.projector(linalg.ket("10"))
    with pytest.raises(PreconditionError, match=message):
        _SEPARABLE_ENTRY_POINTS[entry](bad, prod)


@pytest.mark.parametrize("argv, calls", [
    (["analyze", "separable2x2"], {"require_rank1_projection": 2, "eigvalsh": 2}),
    (["superposable", "separable2x2", "01", "10"],
     {"require_rank1_projection": 2, "eigvalsh": 2}),
    (["ratio", "separable2x2", "01", "10"],
     {"require_rank1_projection": 2, "eigvalsh": 2, "partial_trace": 0}),
])
def test_separable_inputs_validated_once(monkeypatch, capsys, argv, calls):
    # Each input is checked once into a ProductState (one rank-1 check and
    # one partial-transpose eigensolve); the engines below reuse the record,
    # and a ratio never asks for the factors.
    counts = dict.fromkeys(calls, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert counts == calls


# ---------------------------------------------------------------------------
# Orthogonality across kinds
# ---------------------------------------------------------------------------

def test_is_orthogonal_each_kind():
    k = make_spekkens_hull()
    hp = StateSpaceHandle.vpolytope(k)
    assert is_orthogonal(hp, (1, 0, 0), (0, 1, 0))
    assert not is_orthogonal(hp, (1, 0, 0), (1, 0, 0))

    hb = StateSpaceHandle.bloch_ball()
    assert is_orthogonal(hb, (0, 0, 1), (0, 0, -1))
    assert not is_orthogonal(hb, (0, 0, 1), (1, 0, 0))

    hq = StateSpaceHandle.full_quantum()
    p01 = linalg.projector(linalg.ket("01"))
    p10 = linalg.projector(linalg.ket("10"))
    assert is_orthogonal(hq, p01, p10)

    hs = StateSpaceHandle.separable_2x2()
    assert is_orthogonal(hs, p01, p10)


_P00 = linalg.projector(linalg.ket("00"))
_TOL_ENTRY_POINTS = {
    "require_density": lambda tol: linalg.require_density(np.eye(4) / 4, tol=tol),
    "require_rank1_projection": lambda tol: linalg.require_rank1_projection(_P00, tol=tol),
    "is_orthogonal": lambda tol: is_orthogonal(
        StateSpaceHandle.bloch_ball(), (0, 0, 1), (0, 0, -1), tol),
    "cloning_contradiction": lambda tol: cloning_contradiction(
        (0, 0, 1), (0.6, 0, 0.8), tol=tol),
    "separable_membership": lambda tol: separable_membership(np.eye(4) / 4, tol=tol),
    "affine_ratio_quantum": lambda tol: affine_ratio_quantum(_P00, _P00, tol),
    "affine_ratio_separable": lambda tol: affine_ratio_separable(_P00, _P00, tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(_TOL_ENTRY_POINTS))
def test_bad_tolerance_rejected(entry, tol):
    # A NaN or infinite tolerance makes every "> tol" check false, and a
    # negative one every check true; each valid input here passes at 1e-10.
    _TOL_ENTRY_POINTS[entry](1e-10)
    with pytest.raises(PreconditionError, match="tolerance must be finite and non-negative"):
        _TOL_ENTRY_POINTS[entry](tol)


# ---------------------------------------------------------------------------
# Superposability
# ---------------------------------------------------------------------------

def test_superposable_polytope_none_found():
    h = StateSpaceHandle.vpolytope(make_spekkens_hull())
    cert = superposability_search(h, (1, 0, 0), (-1, 0, 0))
    assert not cert.found
    assert cert.z is None
    scanned = cert.transcript["scanned"]
    assert len(scanned) == 4  # every other vertex was tried


def test_superposable_bloch_found():
    h = StateSpaceHandle.bloch_ball()
    cert = superposability_search(h, (0, 0, 1), (0, 0, -1))
    assert cert.found
    z = np.asarray(cert.z, dtype=float)
    assert abs(np.linalg.norm(z) - 1) <= 1e-12
    assert abs(cert.ratio_xz - 0.5) <= 1e-12
    assert abs(cert.ratio_yz - 0.5) <= 1e-12


def test_superposable_full_quantum_found():
    h = StateSpaceHandle.full_quantum()
    x = linalg.projector(linalg.ket("01"))
    y = linalg.projector(linalg.ket("10"))
    cert = superposability_search(h, x, y)
    assert cert.found
    assert abs(cert.ratio_xz - 0.5) <= 1e-12
    assert abs(cert.ratio_yz - 0.5) <= 1e-12
    linalg.require_rank1_projection(np.asarray(cert.z))


def test_superposable_needs_orthogonal_inputs():
    h = StateSpaceHandle.bloch_ball()
    with pytest.raises(PreconditionError, match="orthogonal"):
        superposability_search(h, (0, 0, 1), (1, 0, 0))


def test_separable_superposability_absent():
    h = StateSpaceHandle.separable_2x2()
    x = linalg.projector(linalg.ket("01"))
    y = linalg.projector(linalg.ket("10"))
    cert = superposability_search(h, x, y)
    assert not cert.found
    t = cert.transcript
    assert [(rep["a"], rep["c"]) for rep in t["corner_reports"]] == [(0.0, 1.0), (1.0, 0.0)]
    for rep in t["corner_reports"]:
        assert rep["vanishing_bound"] <= 1e-12


def test_separable_superposability_needs_both_factors_orthogonal():
    h = StateSpaceHandle.separable_2x2()
    x = linalg.projector(linalg.ket("00"))
    y = linalg.projector(linalg.ket("01"))
    # orthogonal as states, but the A factors coincide
    assert is_orthogonal(h, x, y)
    with pytest.raises(PreconditionError, match="factor"):
        superposability_search(h, x, y)


def test_overlap_surface_shape():
    a, c = np.meshgrid(np.linspace(0, 1, 201), np.linspace(0, 1, 201),
                       indexing="ij")
    s = overlap_square_surface(a, c)
    assert float(s.max()) <= 1.0 + 1e-12
    assert abs(overlap_square_surface(np.float64(1.0), np.float64(0.0)) - 1.0) == 0.0
    assert abs(overlap_square_surface(np.float64(0.0), np.float64(1.0)) - 1.0) == 0.0
    assert abs(overlap_square_surface(np.float64(0.5), np.float64(0.5)) - 0.5) == 0.0


def test_separable_corners_are_the_inputs_for_non_ket_pairs():
    # Random pairs orthogonal in both factors: Bloch vectors a, -a and b, -b.
    rng = np.random.default_rng(31)
    h = StateSpaceHandle.separable_2x2()
    bp = linalg.bloch_projector
    for _ in range(12):
        a, b = random_unit(rng), random_unit(rng)
        x = linalg.tensor(bp(a), bp(b))
        y = linalg.tensor(bp(-a), bp(-b))
        mx = linalg.require_rank1_projection(x)
        my = linalg.require_rank1_projection(y)
        verdict = check_separable_pair(x, y)
        assert verdict.verdict == REFUTED
        for corners in (superposability_search(h, x, y).transcript["corner_reports"],
                        verdict.certificate["search"]["corner_reports"]):
            for rep in corners:
                assert rep["vanishing_bound"] <= 1e-12
                assert abs(max(rep["bound_xz"], rep["bound_yz"]) - 1.0) <= 1e-12
            first = corners[0]
            assert (first["a"], first["c"]) == (0.0, 1.0)
            assert first["bound_xz"] == float(np.real(np.trace(mx @ my)))
            assert first["bound_yz"] == float(np.real(np.trace(my @ my)))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_bloch_ratio_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    x, y = random_unit(rng), random_unit(rng)
    rxy = affine_ratio_bloch(x, y).value
    ryx = affine_ratio_bloch(y, x).value
    assert abs(rxy - ryx) <= 1e-12
    assert -1e-12 <= rxy <= 1 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_dispatcher_matches_engines(seed):
    rng = np.random.default_rng(seed)
    x, y = random_unit(rng), random_unit(rng)
    h = StateSpaceHandle.bloch_ball()
    assert affine_ratio(h, x, y).value == affine_ratio_bloch(x, y).value
