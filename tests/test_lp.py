"""Exact rational LP solver: hand-checked optima, statuses, and a scipy
cross-check on random instances.  Problems with bounds other than x >= 0
go through ``lp_forms.bounded_lp``."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from convexstate import lp
from convexstate.errors import InternalCheckError
from convexstate.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LPProblem,
                            lp_solve, rat)
from lp_forms import bounded_lp


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


def test_minimize_simple_cover():
    # min x + y subject to x + y >= 1, x, y >= 0
    prob = LPProblem.make([1, 1], a_ub=[[-1, -1]], b_ub=[-1])
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(1)


def test_minimize_two_constraints():
    # min 2x + 3y subject to x + 2y >= 3 and 2x + y >= 3; optimum at (1, 1)
    prob = LPProblem.make([2, 3], a_ub=[[-1, -2], [-2, -1]], b_ub=[-3, -3])
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(5)
    assert sol.point == (Fraction(1), Fraction(1))


def test_fractional_coefficients_stay_exact():
    # min x subject to (1/3) x >= 1/7  ->  x = 3/7
    prob = LPProblem.make([1], a_ub=[[Fraction(-1, 3)]], b_ub=[Fraction(-1, 7)])
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(3, 7)


def test_unbounded():
    prob = LPProblem.make([-1], a_ub=[[0]], b_ub=[1])
    sol = lp_solve(prob)
    assert sol.status == UNBOUNDED


def test_infeasible():
    # x >= 0 and x <= -1
    prob = LPProblem.make([1], a_ub=[[1]], b_ub=[-1])
    sol = lp_solve(prob)
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
    prob = LPProblem.make(
        [1, 2, 3, 1],
        a_eq=[[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]],
        b_eq=[1, 1, 1, 1],
    )
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(2)
    assert sol.point == (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def test_degenerate_multiple_optima_value_unique():
    # min x + y on the square [0,1]^2 with x + y >= 1: every boundary point
    # of the constraint is optimal but the value is fixed.
    sol = bounded_lp([1, 1], a_ub=[[-1, -1]], b_ub=[-1],
                     bounds=[(0, 1), (0, 1)]).solve()
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(1)
    x, y = sol.point
    assert x + y == 1 and 0 <= x <= 1


def test_make_validates_shapes():
    with pytest.raises(ValueError):
        LPProblem.make([1, 2], a_ub=[[1]], b_ub=[0])
    with pytest.raises(ValueError):
        LPProblem.make([1], a_eq=[[1]], b_eq=[0, 1])


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
# constraint and meets the others.
_VERIFY_PROBLEM = LPProblem.make(
    [0, 0, 0],
    a_eq=[[1, 1, 1]], b_eq=[2],                     # x + y + z == 2
    a_ub=[[1, -1, -1]], b_ub=[Fraction(1, 2)],      # x - y - z <= 1/2
)
_FEASIBLE_CLAIM = ("1/4", "1/4", "3/2")
_BAD_CLAIMS = {
    "eq": ("1/2", "1/4", "1"),
    "ub": ("3/2", "1/4", "1/4"),
    "nonneg": ("-1/4", "5/4", "1"),
}


def _claim(monkeypatch, point):
    monkeypatch.setattr(lp, "_solve_exact",
                        lambda problem: (OPTIMAL, [Fraction(x) for x in point]))


def test_verify_accepts_a_feasible_claim(monkeypatch):
    _claim(monkeypatch, _FEASIBLE_CLAIM)
    sol = lp_solve(_VERIFY_PROBLEM)
    assert sol.status == OPTIMAL and sol.value == 0


@pytest.mark.parametrize("branch", sorted(_BAD_CLAIMS))
def test_verify_rejects_an_infeasible_claim(monkeypatch, branch):
    _claim(monkeypatch, _BAD_CLAIMS[branch])
    with pytest.raises(InternalCheckError, match=rf"infeasible point \({branch}\)"):
        lp_solve(_VERIFY_PROBLEM)
