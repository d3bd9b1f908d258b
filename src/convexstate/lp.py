"""Two-phase dense simplex with Bland's anti-cycling rule, over exact rationals.

Problems take one form,

    minimize c.x   s.t.   a_eq x == b_eq,  x >= 0;

a caller with free variables splits each into two nonnegative columns,
and one with an inequality row adds its own slack column.  The kernel
takes integer problems only: c, a_eq and b_eq are Python ints.  A caller
with rational data scales it first, the rows by one positive number and
the objective by another (``_integer_rows`` does either); that changes
neither the feasible set nor the optimal points.

The tableau is integer-preserving (Edmonds/Bareiss pivoting): its entries
are Python ints that share one positive common denominator ``den``.

- *Pivot.* On the entry p = tab[r][c], row r stays as it is, every other
  row x becomes (x*p - x[c]*tab[r]) / den, and p becomes the new ``den``.
  Each quotient is an integer minor of the start tableau, so the division
  is exact; it is checked all the same.  A negative pivot has its row
  negated first, so ``den`` stays positive.  ``_pivot`` is the one exact
  elimination step: both phases, both starts and ``_rref`` (affine ranks
  and circuits in ``polytope``) use it.
- *Cold start.* ``_phase1`` starts from the integer rows with artificial
  columns at coefficient 1 (``den = 1``), the tableau that scaling the
  ``Fraction`` rows would give, and minimizes their sum.  It then drops
  the artificial columns, drives leftover artificials out and drops the
  rows left zero (``_fill_basis``).
- *Crash start.* ``crash`` is for a problem whose rhs is one of its own
  columns, so that x = e_first is feasible.  Pivots keep that column equal
  to the rhs, so it enters at the first row whose rhs is nonzero and
  leaves the rhs ``den`` times a unit column; every other row takes the
  first given column nonzero in it, a pivot on a zero rhs, or is dropped
  as zero.  Identity columns sit beside the rows.  They never enter, and
  at the optimum the cost row over them is -den*y, with y.A_B = c_B and
  c - y.A >= 0: ``LPSolution.duals`` (0 on a dropped row).
- *Warm start.* A ``WarmStart`` carries a feasible tableau (from ``crash``
  or from the previous solve over the same rows) into ``_phase2``, which
  builds the cost row den*c - sum c_B*row, iterates with the cost row
  last and skipped by the ratio test, and leaves its final tableau there.
  ``minimal_face`` chains its support LPs this way.
- *Answer.* Each basic coordinate's numerator over ``den``, the others 0,
  checked by ``_verify`` whatever the start and read as ``Fraction``s.

Against the tableau of ``Fraction``s that the same rules would pivot, the
integer start scales all rows by one positive number, the artificial
columns by another and the objective by a third.  That multiplies every
reduced cost and every ratio-test ratio of one entering column by a
positive factor, so Bland's rule takes the same pivots and returns the
same point.  A warm or crash start can end at another optimal vertex than
a cold one, with the same value.  Optimal points satisfy every constraint
with zero error and can serve as certificates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from typing import Sequence

from .errors import InternalCheckError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


# A number as text, in ASCII only: 'p/q', or a decimal with an exponent of
# at most four digits (Fraction('1e99999999') would take minutes).
_RATIONAL_TEXT = re.compile(
    r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]{1,4})?)")


def rat(x) -> Fraction:
    """Exact conversion: ints, Fractions, 'p/q' and decimal strings, and
    finite binary floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("refusing to treat a bool as a number")
    if isinstance(x, str) and not _RATIONAL_TEXT.fullmatch(x):
        raise ValueError(f"not a number: {x!r}")
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        if not isfinite(x):
            raise ValueError(f"not a finite number: {x}")
        return Fraction(x)  # floats are dyadic rationals; this is exact
    raise TypeError(f"cannot convert {type(x).__name__} to a rational")


@dataclass(frozen=True)
class LPProblem:
    objective: tuple[int, ...]
    a_eq: tuple[tuple[int, ...], ...]
    b_eq: tuple[int, ...]


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: Fraction | None
    point: tuple[Fraction, ...] | None
    # From a crash start: y as (numerators, one positive denominator), one
    # per row of a_eq, with y.A_B = c_B; at the optimum c - y.A >= 0.
    duals: tuple[tuple[int, ...], int] | None = None


class WarmStart:
    """A feasible tableau for the next solve over the same rows.  The
    caller makes it empty, or fills it by ``crash``, and passes it to each
    ``lp_solve`` of a sequence: an empty one runs both phases, a filled one
    only phase 2 from its tableau, and each leaves its own final tableau.
    It lives as long as the caller keeps it."""

    def __init__(self, tableau=None):
        self.tableau = tableau


def lp_solve(problem: LPProblem, warm: WarmStart | None = None) -> LPSolution:
    status, nums, den, duals = _solve_exact(problem, warm)
    if status != OPTIMAL:
        return LPSolution(status, None, None)
    _verify(problem, nums, den)
    value = Fraction(sum(c * x for c, x in zip(problem.objective, nums) if x), den)
    point = tuple(Fraction(x, den) if x else _ZERO for x in nums)
    return LPSolution(OPTIMAL, value, point, (duals, den) if duals else None)


def crash(problem: LPProblem, first: int, columns: Sequence[int]) -> WarmStart:
    """A filled ``WarmStart`` for a problem whose b_eq is its column
    ``first``, so that x = e_first is feasible, with identity columns
    beside the rows for the duals.  Each row takes the first of ``first``
    and then ``columns`` that is nonzero in it, or is dropped as zero."""
    a, b = problem.a_eq, problem.b_eq
    n, m = len(problem.objective), len(b)
    if tuple(row[first] for row in a) != tuple(b) or not any(b):
        raise ValueError("a crash start needs a nonzero right-hand side equal to its first column")
    tab = [[*row, *(int(i == j) for j in range(m)), rhs] for i, (row, rhs) in enumerate(zip(a, b))]
    tab, basis, den = _fill_basis(tab, [None] * m, 1, (first, *columns), n)
    if any(row[-1] < 0 for row in tab):
        raise InternalCheckError("crash start left a negative right-hand side")
    return WarmStart(((a, b), tab, basis, den))


def _rref(tab: list[list[int]]) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Integer rows eliminated in place by ``_pivot``; returns the nonzero
    rows (each pivot column ``den`` times a unit column), pivots and den."""
    pivots, den = [], 1
    for col in range(len(tab[0]) if tab else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(tab)) if tab[i][col] != 0), None)
        if piv is None:
            continue
        tab[r], tab[piv] = tab[piv], tab[r]
        den = _pivot(tab, r, col, den)
        pivots.append(col)
    return tab[:len(pivots)], tuple(pivots), den


def _verify(problem: LPProblem, nums: Sequence[int], den: int) -> None:
    """Exact feasibility re-check of a claimed optimum nums / den, den > 0
    (defensive).  Row sums skip the zero coordinates, most of the point."""
    support = [(j, x) for j, x in enumerate(nums) if x]
    for row, b in zip(problem.a_eq, problem.b_eq):
        if sum(row[j] * x for j, x in support) != b * den:
            raise InternalCheckError("simplex returned an infeasible point (eq)")
    if any(x < 0 for _, x in support):
        raise InternalCheckError("simplex returned an infeasible point (nonneg)")


# ---------------------------------------------------------------------------
# Exact kernel
# ---------------------------------------------------------------------------

def _integer_rows(rows) -> list[list[int]]:
    """Rows of rationals times the one LCM of all their denominators."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    scale = lcm(*{q for row in ratios for _, q in row})
    return [[p * (scale // q) for p, q in row] for row in ratios]


def _solve_exact(problem: LPProblem, warm: WarmStart | None = None):
    """(status, numerators of the point, their denominator, dual
    numerators over it or None); all but the status are None unless
    optimal.  A filled ``warm`` replaces phase 1; any ``warm`` is left
    holding the final tableau."""
    if warm is not None and warm.tableau is not None:
        rows, tab, basis, den = warm.tableau
        if rows != (problem.a_eq, problem.b_eq):
            raise ValueError("a warm start must come from a problem with the same rows")
    else:
        start = _phase1(problem)
        if start is None:
            return INFEASIBLE, None, None, None
        tab, basis, den = start
    status, nums, den, duals = _phase2(problem.objective, tab, basis, den)
    if warm is not None:
        warm.tableau = ((problem.a_eq, problem.b_eq), tab, basis, den)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None, None
    return OPTIMAL, nums, den, duals


def _phase1(problem: LPProblem):
    """A feasible start for phase 2, (kept rows, basic columns, den), from
    the artificial basis; None if infeasible."""
    n = len(problem.objective)
    m = len(problem.b_eq)
    ncols = n + m  # x vars, artificials

    # Integer tableau rows [coeffs | artificials | rhs], with rhs normalized
    # nonnegative and an artificial basis whose coefficients stay 1.
    tab = [[*(a if b >= 0 else (-x for x in a)), *(int(i == j) for j in range(m)), abs(b)]
           for i, (a, b) in enumerate(zip(problem.a_eq, problem.b_eq))]
    basis = list(range(n, ncols))

    # Minimize the sum of artificials; the cost row is the last row.
    cost = [-sum(col) for col in zip(*tab)] if tab else [0] * (ncols + 1)
    for b in basis:
        cost[b] = 0
    tab.append(cost)
    status, den = _iterate(tab, basis, 1, allowed_max=ncols)
    if status == UNBOUNDED or tab.pop()[-1] != 0:  # the former is impossible; defensive
        return None

    # Nothing below reads an artificial column again: drive-out pivots on
    # columns below n and phase 2 never enters an artificial.
    tab = [row[:n] + row[-1:] for row in tab]

    # Drive leftover artificials out of the basis or drop redundant rows.
    return _fill_basis(tab, [b if b < n else None for b in basis], den, range(n), n)


def _fill_basis(tab, basis, den, columns, n):
    """Each row whose basic column is None takes the first of ``columns``
    nonzero in it; a row with none is dropped, and must be zero in all n
    columns and the rhs.  Returns the kept rows, their basis and den."""
    keep = []
    for i, row in enumerate(tab):
        if basis[i] is None:
            j = next((j for j in columns if row[j]), None)
            if j is None:
                if any(row[:n]) or row[-1]:
                    raise InternalCheckError("a nonzero row was left without a basic column")
                continue
            den = _pivot(tab, i, j, den)
            basis[i] = j
        keep.append(i)
    return [tab[i] for i in keep], [basis[i] for i in keep], den


def _phase2(c: Sequence[int], tab, basis, den):
    """Phase 2 from a feasible tableau of the kept rows, for the integer
    objective c: (status, numerators of the point or None, den, dual
    numerators over den, empty without identity columns).  ``tab`` and
    ``basis`` are updated in place and end as the final tableau, with no
    cost row."""
    # The cost row reduced against the basis: den * c - sum c_B * row,
    # with c = 0 on any identity columns between the x columns and the rhs.
    cost = [den * x for x in c] + [0] * (len(tab[0]) - len(c) if tab else 1)
    for b, row in zip(basis, tab):
        cb = c[b]
        if cb != 0:
            cost = [x - cb * t for x, t in zip(cost, row)]
    tab.append(cost)
    status, den = _iterate(tab, basis, den, allowed_max=len(c))
    cost = tab.pop()
    if status == UNBOUNDED:
        return UNBOUNDED, None, den, None

    # x_j = (basic numerator of x_j) / den, or 0 when x_j is nonbasic.
    nums = [0] * len(c)
    for b, row in zip(basis, tab):
        nums[b] = row[-1]
    return OPTIMAL, nums, den, tuple(-x for x in cost[len(c):-1])


def _iterate(tab, basis, den, allowed_max) -> tuple[str, int]:
    """Bland-rule simplex iterations on an existing feasible tableau whose
    last row is the cost row; returns the status and the common
    denominator it ends with.

    Entering: lowest-index column with negative reduced cost (restricted to
    columns below ``allowed_max`` so phase 2 never re-enters artificials).
    Leaving: minimum-ratio row, ties broken by lowest basic variable index.
    Ratios rhs/a with a > 0 are compared by cross-multiplying.
    """
    while True:
        cost = tab[-1]
        enter = next(
            (j for j in range(allowed_max) if cost[j] < 0), None
        )
        if enter is None:
            return OPTIMAL, den
        leave, best_b, best_a = None, 0, 1
        for i in range(len(tab) - 1):
            row = tab[i]
            a = row[enter]
            if a > 0:
                if leave is not None:
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_b, best_a = i, row[-1], a
        if leave is None:
            return UNBOUNDED, den
        den = _pivot(tab, leave, enter, den)
        basis[leave] = enter


def _pivot(tab, r, c, den) -> int:
    """Integer-preserving pivot on tab[r][c]; returns the new denominator.

    Row r stays as it is (negated first if its pivot is negative) and every
    other row becomes (x*p - x[c]*row_r) / den.
    """
    prow = tab[r]
    p = prow[c]
    if p < 0:
        prow = tab[r] = [-x for x in prow]
        p = -p
    for i, row in enumerate(tab):
        if i != r:
            tab[i] = _eliminate(row, prow, c, p, den)
    return p


def _eliminate(row, prow, c, p, den) -> list[int]:
    """(row*p - row[c]*prow) / den, with the division checked."""
    f = row[c]
    if f != 0:
        vals = [x * p - f * y for x, y in zip(row, prow)]
    elif p == den:
        return row
    else:
        vals = [x * p for x in row]
    if den == 1:
        return vals
    out = [v // den for v in vals]
    # With den > 0 every floor-division remainder lies in [0, den), so the
    # division is exact for all entries iff the remainders sum to zero.
    if sum(vals) != den * sum(out):
        raise InternalCheckError(
            f"inexact integer pivot: a row is not divisible by {den}"
        )
    return out
