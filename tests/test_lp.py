"""Exact rational LP solver: hand-checked optima, statuses, and a scipy
cross-check on random instances.  Rational problems are stated in
integers through ``lp_forms.make``; problems with <= rows or with bounds
other than x >= 0 go through ``lp_forms.bounded_lp``."""

import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from scipy.optimize import linprog

from convexstate import lp
from convexstate.errors import InternalCheckError
from convexstate.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_solve, rat
from convexstate.polytope import VPolytope, affine_dimension_of, radon_partition
from lp_forms import bounded_lp, make


def test_rat_exact_conversions():
    assert rat("2/3") == Fraction(2, 3)
    assert rat(5) == Fraction(5)
    assert rat(0.25) == Fraction(1, 4)
    assert rat(Fraction(7, 2)) == Fraction(7, 2)
    with pytest.raises(TypeError):
        rat(True)
    for x in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not a finite number"):
            rat(x)


@pytest.mark.parametrize("text, value", [("-1/3", Fraction(-1, 3)), ("+.5", Fraction(1, 2)),
                                         ("1.", Fraction(1)), ("25e-2", Fraction(1, 4)),
                                         ("1E9999", Fraction(10) ** 9999)])
def test_rat_reads_ascii_number_text(text, value):
    assert rat(text) == value


@pytest.mark.parametrize("text", ["1_0", "\u0663", " 1", "1\n", "1/2.5", "1e", "", "NaN",
                                  "1e99999"])
def test_rat_refuses_other_number_text(text):
    # Fraction() alone reads Arabic-Indic digits, underscores and outer
    # whitespace, and spends seconds to minutes on an exponent of seven
    # digits or more; the text grammar stops at four.
    with pytest.raises(ValueError, match="not a number"):
        rat(text)


def test_minimize_simple_cover():
    # min x + y subject to x + y >= 1, x, y >= 0
    sol = bounded_lp([1, 1], a_ub=[[-1, -1]], b_ub=[-1]).solve()
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(1)


def test_minimize_two_constraints():
    # min 2x + 3y subject to x + 2y >= 3 and 2x + y >= 3; optimum at (1, 1)
    sol = bounded_lp([2, 3], a_ub=[[-1, -2], [-2, -1]], b_ub=[-3, -3]).solve()
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(5)
    assert sol.point == (Fraction(1), Fraction(1))


def test_fractional_coefficients_stay_exact():
    # min x subject to (1/3) x >= 1/7  ->  x = 3/7
    sol = bounded_lp([1], a_ub=[[Fraction(-1, 3)]], b_ub=[Fraction(-1, 7)]).solve()
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(3, 7)


def test_unbounded():
    sol = bounded_lp([-1], a_ub=[[0]], b_ub=[1]).solve()
    assert sol.status == UNBOUNDED


def test_infeasible():
    # x >= 0 and x <= -1
    sol = bounded_lp([1], a_ub=[[1]], b_ub=[-1]).solve()
    assert sol.status == INFEASIBLE


def test_free_and_shifted_bounds():
    # Free variable pushed down by an equality with a bounded partner.
    # min x subject to x + y = 0, y <= 4, y >= 0, x free  ->  x = -4
    sol = bounded_lp([1, 0], a_eq=[[1, 1]], b_eq=[0],
                     bounds=[(None, None), (0, 4)]).solve()
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(-4)
    assert sol.point == (Fraction(-4), Fraction(4))


def test_lower_bound_shift():
    # min x with x >= -5 (negative lower bound exercises the shift)
    sol = bounded_lp([1], bounds=[(-5, None)]).solve()
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(-5)


def test_equality_system():
    # Transportation toy: two supplies of 1 each to two demands of 1 each,
    # shipping costs [[1, 2], [3, 1]]; optimum ships on the diagonal.
    prob = make(
        [1, 2, 3, 1],
        a_eq=[[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
        b_eq=[1, 1, 1, 1],
    )
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(2)
    assert sol.point == (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def test_warm_start_keeps_values_and_requires_the_same_rows():
    # The transportation rows: four rows of rank three, so phase 1 drops
    # one.  Each warm solve starts from the previous optimal tableau and
    # must reach the value a cold solve finds.
    prob = make(
        [1, 2, 3, 1],
        a_eq=[[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
        b_eq=[1, 1, 1, 1],
    )
    warm = lp.WarmStart()
    for c in ([1, 2, 3, 1], [3, 1, 1, 2], [-2, 0, 0, 1], [0, 0, 0, 0], [2, 2, 1, -1]):
        step = replace(prob, objective=tuple(c))
        assert lp_solve(step, warm).value == lp_solve(step).value
    with pytest.raises(ValueError, match="same rows"):
        lp_solve(make([1], a_eq=[[1]], b_eq=[1]), warm)


def test_crash_start_reads_duals_and_drops_a_dependent_row():
    # b_eq is column 1, so x = e_1 is feasible; the third row is the sum of
    # the first two and is dropped.  The optimum is x = (1, 0, 1), priced
    # by y = (1, 1, 0): c - y.A = (0, 1, 0) >= 0 and b.y = 2 = c.x.
    prob = make([1, 3, 1], a_eq=[[1, 1, 0], [0, 1, 1], [1, 2, 1]], b_eq=[1, 1, 2])
    warm = lp.crash(prob, 1, [0, 2])
    assert len(warm.tableau[1]) == 2
    sol = lp_solve(prob, warm)
    assert sol.value == 2 and sol.point == (1, 0, 1)
    u, den = sol.duals
    assert [Fraction(x, den) for x in u] == [1, 1, 0]
    assert lp_solve(prob).duals is None  # phase 1 carries no identity columns


def test_crash_start_refuses_what_it_cannot_start():
    with pytest.raises(ValueError, match="equal to its first column"):
        lp.crash(make([0, 0], a_eq=[[1, 0]], b_eq=[2]), 0, [1])
    # Row 1 is nonzero, but no given column reaches it.
    with pytest.raises(InternalCheckError, match="nonzero row"):
        lp.crash(make([0, 0], a_eq=[[1, 0], [0, 1]], b_eq=[1, 0]), 0, [])


def test_degenerate_multiple_optima_value_unique():
    # min x + y on the square [0,1]^2 with x + y >= 1: every boundary point
    # of the constraint is optimal but the value is fixed.
    sol = bounded_lp([1, 1], a_ub=[[-1, -1]], b_ub=[-1],
                     bounds=[(0, 1), (0, 1)]).solve()
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(1)
    x, y = sol.point
    assert x + y == 1 and 0 <= x <= 1


def _random_problem(rng, n_var, n_ub, n_eq):
    """Random LP with dyadic-rational data (exactly representable)."""
    def dy(size):
        return (rng.integers(-32, 33, size=size) / 16).tolist()

    c = dy(n_var)
    a_ub = [dy(n_var) for _ in range(n_ub)] if n_ub else None
    # shift the ub right-hand sides up so most instances stay feasible
    b_ub = [v + 4.0 for v in dy(n_ub)] if n_ub else None
    a_eq = [dy(n_var) for _ in range(n_eq)] if n_eq else None
    b_eq = dy(n_eq) if n_eq else None
    bounds = []
    for _ in range(n_var):
        lo = float(rng.integers(-4, 1))
        hi = lo + float(rng.integers(0, 8))
        bounds.append((lo, hi))
    return c, a_ub, b_ub, a_eq, b_eq, bounds


@pytest.mark.parametrize("n_var,n_ub,n_eq", [(2, 3, 0), (3, 4, 1), (4, 2, 2)])
def test_against_scipy_linprog(n_var, n_ub, n_eq):
    rng = np.random.default_rng(1000 + 10 * n_var + n_eq)
    checked = 0
    for _ in range(25):
        c, a_ub, b_ub, a_eq, b_eq, bounds = _random_problem(rng, n_var, n_ub, n_eq)
        mine = bounded_lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                          bounds=bounds).solve()
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        if ref.status == 0:
            assert mine.status == OPTIMAL
            assert abs(float(mine.value) - ref.fun) <= 1e-7 * (1 + abs(ref.fun))
            checked += 1
        elif ref.status == 2:
            assert mine.status == INFEASIBLE
        elif ref.status == 3:
            assert mine.status == UNBOUNDED
    assert checked >= 5  # the sampler must produce solvable instances


def test_solution_point_is_feasible_exactly():
    rng = np.random.default_rng(77)
    for _ in range(20):
        c, a_ub, b_ub, a_eq, b_eq, bounds = _random_problem(rng, 3, 3, 1)
        sol = bounded_lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                         bounds=bounds).solve()
        if sol.status != OPTIMAL:
            continue
        x = sol.point
        for row, rhs in zip(a_eq, b_eq):
            assert sum(rat(r) * xi for r, xi in zip(row, x)) == rat(rhs)
        for row, rhs in zip(a_ub, b_ub):
            assert sum(rat(r) * xi for r, xi in zip(row, x)) <= rat(rhs)
        for (lo, hi), xi in zip(bounds, x):
            assert rat(lo) <= xi <= rat(hi)


_DENOMINATORS = (1, 2, 3, 5, 7)


def _rational_problem(rng, n_var, n_ub, n_eq):
    """Random LP with denominators 2, 3, 5 and 7 and with bounds that shift
    the kernel variables: (lo, None) with lo != 0, (None, hi) and boxed.
    Most right-hand sides are chosen feasible at a point inside the bounds."""
    def q():
        return Fraction(int(rng.integers(-12, 13)), int(rng.choice(_DENOMINATORS)))

    def nonzero():
        return next(x for x in iter(q, None) if x != 0)

    bounds, x0 = [], []
    for _ in range(n_var):
        kind = int(rng.integers(0, 5))
        lo, hi = nonzero(), None
        if kind == 1:
            lo, hi = None, nonzero()
        elif kind == 2:
            hi = lo + abs(nonzero())
        elif kind == 3:
            lo = None
        elif kind == 4:
            lo = Fraction(0)
        bounds.append((lo, hi))
        base = lo if lo is not None else (hi if hi is not None else q())
        x0.append(base if hi is None or lo is None else (lo + hi) / 2)
    c = [q() for _ in range(n_var)]
    a_ub = [[q() for _ in range(n_var)] for _ in range(n_ub)]
    a_eq = [[q() for _ in range(n_var)] for _ in range(n_eq)]
    feasible = rng.random() < 0.8

    def rhs(row):
        return sum((a * x for a, x in zip(row, x0)), Fraction(0)) if feasible else q()
    b_ub = [rhs(row) + abs(q()) for row in a_ub]
    b_eq = [rhs(row) for row in a_eq]
    return c, a_ub, b_ub, a_eq, b_eq, bounds


def _floats(rows):
    return [[float(x) for x in row] for row in rows] or None


@pytest.mark.parametrize("n_var,n_ub,n_eq", [(2, 3, 0), (3, 3, 1), (4, 4, 2), (5, 3, 3)])
def test_rational_data_against_scipy_linprog(n_var, n_ub, n_eq):
    rng = np.random.default_rng(2000 + 10 * n_var + n_eq)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(40):
        c, a_ub, b_ub, a_eq, b_eq, bounds = _rational_problem(rng, n_var, n_ub, n_eq)
        mine = bounded_lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                          bounds=bounds).solve()
        ref = linprog([float(x) for x in c], A_ub=_floats(a_ub),
                      b_ub=[float(x) for x in b_ub] or None,
                      A_eq=_floats(a_eq), b_eq=[float(x) for x in b_eq] or None,
                      bounds=[tuple(None if v is None else float(v) for v in b)
                              for b in bounds],
                      method="highs")
        expected = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
        assert mine.status == expected
        if expected == OPTIMAL:
            assert abs(float(mine.value) - ref.fun) <= 1e-7 * (1 + abs(ref.fun))
        seen[expected] += 1
    assert seen[OPTIMAL] >= 10 and seen[INFEASIBLE] >= 1


# Every coordinate of the feasible claim is nonzero and enters the equality,
# so a row sum that drops any term rejects it.  Each bad claim breaks one
# constraint and meets the other.
_VERIFY_PROBLEM = make([0, 0, 0], a_eq=[[1, 1, 1]], b_eq=[2])  # x + y + z == 2
_FEASIBLE_CLAIM = ("1/4", "1/4", "3/2")
_BAD_CLAIMS = {
    "eq": ("1/2", "1/4", "1"),
    "nonneg": ("-1/4", "5/4", "1"),
}


def _claim(monkeypatch, point):
    """The kernel made to claim ``point`` as integer numerators over their
    common denominator, which is how ``_verify`` receives it."""
    den = lcm(*(Fraction(x).denominator for x in point))
    nums = [int(Fraction(x) * den) for x in point]
    monkeypatch.setattr(lp, "_solve_exact", lambda problem, warm=None: (OPTIMAL, nums, den, None))


def test_verify_accepts_a_feasible_claim(monkeypatch):
    _claim(monkeypatch, _FEASIBLE_CLAIM)
    sol = lp_solve(_VERIFY_PROBLEM)
    assert sol.status == OPTIMAL and sol.value == 0


@pytest.mark.parametrize("branch", sorted(_BAD_CLAIMS))
def test_verify_rejects_an_infeasible_claim(monkeypatch, branch):
    _claim(monkeypatch, _BAD_CLAIMS[branch])
    with pytest.raises(InternalCheckError, match=rf"infeasible point \({branch}\)"):
        lp_solve(_VERIFY_PROBLEM)


def gauss_jordan(rows):
    """Oracle: reduced row echelon form by Gauss-Jordan elimination over
    ``Fraction``s, with the same pivot rows as ``lp._rref``."""
    rows = [[rat(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        prow = rows[r] = [a / p for a in rows[r]]
        rows = [row if i == r or row[col] == 0 else [a - row[col] * b for a, b in zip(row, prow)]
                for i, row in enumerate(rows)]
        pivots.append(col)
    return rows[:len(pivots)], tuple(pivots)


def _random_matrix(rnd):
    """1-7 rows by 1-9 columns, about 30 % zeros, denominators 1, 2, 3 and
    5, entries given as ints, Fractions or "p/q" strings; two rows in five
    replace one row by a combination of two others (rank-deficient)."""
    def entry():
        if rnd.random() < 0.3:
            return 0
        x = Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.choice((1, 2, 3, 5)))
        form = rnd.randrange(3)
        if x.denominator == 1 and form == 0:
            return int(x)
        return x if form == 1 else f"{x.numerator}/{x.denominator}"

    rows = [[entry() for _ in range(rnd.randint(1, 9))]]
    rows += [[entry() for _ in rows[0]] for _ in range(rnd.randint(0, 6))]
    if len(rows) > 2 and rnd.random() < 0.4:
        i, j, k = rnd.sample(range(len(rows)), 3)
        a, b = rnd.randint(-3, 3), Fraction(rnd.randint(-3, 3), rnd.choice((1, 2, 3, 5)))
        rows[k] = [a * rat(x) + b * rat(y) for x, y in zip(rows[i], rows[j])]
    return rows


def _rref_fractions(rows):
    """``lp._rref`` of the rows scaled to integers, divided by its den."""
    tab, pivots, den = lp._rref(lp._integer_rows([[rat(x) for x in row] for row in rows]))
    return [[Fraction(x, den) for x in row] for row in tab], pivots


@pytest.mark.parametrize("seed", range(4))
def test_row_reduce_matches_gauss_jordan(seed):
    rnd = random.Random(seed)
    deficient = negative_lead = 0
    for _ in range(500):
        rows = _random_matrix(rnd)
        expected = gauss_jordan(rows)
        assert _rref_fractions(rows) == expected
        deficient += len(expected[1]) < min(len(rows), len(rows[0]))
        negative_lead += any(rat(x) < 0 for x in next(
            (row for row in rows if any(row)), [0])[:1])
    assert deficient >= 50 and negative_lead >= 50


def test_row_reduce_pivots_through_the_simplex_pivot(monkeypatch):
    pivots = []
    pivot = lp._pivot

    def spy(tab, r, c, den):
        pivots.append((r, c))
        return pivot(tab, r, c, den)

    monkeypatch.setattr(lp, "_pivot", spy)
    # The third row is the sum of the first two.
    rref, cols = _rref_fractions([[0, 2, "1/3", 1], [0, -4, 5, 0], [0, -2, Fraction(16, 3), 1]])
    assert pivots == [(0, 1), (1, 2)] and cols == (1, 2)
    assert rref == [[0, 1, 0, Fraction(15, 34)], [0, 0, 1, Fraction(6, 17)]]


def _vertex_set(rnd):
    """Points (x, |x|^2) on a paraboloid, which are in convex position, for
    3-7 distinct x in Q^d (d = 1, 2, 3) with denominators 1, 2, 3, 5 and 7
    mixed.  Half the sets are then mapped by an injective rational affine
    map into one more dimension, so they are not full-dimensional."""
    d, n = rnd.randint(1, 3), rnd.randint(3, 7)
    xs = set()
    while len(xs) < n:
        xs.add(tuple(Fraction(rnd.randint(-6, 6), rnd.choice((1, 2, 3, 5, 7)))
                     for _ in range(d)))
    pts = [(*x, sum(c * c for c in x)) for x in sorted(xs)]
    rnd.shuffle(pts)
    if rnd.random() < 0.5:
        # Rows e_1 .. e_(d+1) and one more random row: injective.
        extra = [Fraction(rnd.randint(-3, 3), rnd.choice((1, 2, 3))) for _ in range(d + 2)]
        pts = [(*p, sum(a * c for a, c in zip(extra, p)) + extra[-1]) for p in pts]
    return pts


def _kernel_circuit(verts):
    """The oracle's Radon partition: the first non-pivot column of the
    Gauss-Jordan form of the rows (coordinates; 1 ... 1) gives the
    ``Fraction`` kernel vector (-column on the pivots, 1), each sign part
    scaled to sum 1; None if every column is a pivot."""
    rref, pivots = gauss_jordan([*zip(*verts), [1] * len(verts)])
    col = next((j for j, p in enumerate(pivots) if p != j), len(pivots))
    if col == len(verts):
        return None
    lam = [-rref[i][col] for i in range(col)] + [Fraction(1)]
    total = sum(c for c in lam if c > 0)
    return ({i: c / total for i, c in enumerate(lam) if c > 0},
            {i: -c / total for i, c in enumerate(lam) if c < 0})


@pytest.mark.parametrize("seed", range(3))
def test_radon_partition_and_affine_dimension_match_the_oracle(seed):
    rnd = random.Random(seed)
    independent = flat = 0
    for _ in range(60):
        verts = _vertex_set(rnd)
        k = VPolytope(verts)
        radon, expected = radon_partition(k), _kernel_circuit(k.vertices)
        if expected is None:
            assert radon is None
            independent += 1
        else:
            first, second, point = radon
            assert (first, second) == expected
            for side in (first, second):
                assert tuple(sum(w * k.vertices[i][j] for i, w in side.items())
                             for j in range(k.ambient_dim)) == point
        base = k.vertices[0]
        rank = len(gauss_jordan([[c - b for c, b in zip(p, base)] for p in k.vertices[1:]])[1])
        assert affine_dimension_of(k.vertices) == rank
        flat += rank < k.ambient_dim
    assert independent >= 5 and flat >= 20
