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

- *Start.* The integer rows, with the artificial columns at coefficient
  1, so the start is an integer tableau with ``den = 1`` and the
  artificials as its basis: the tableau that scaling the ``Fraction``
  rows would give.
- *Pivot.* On the entry p = tab[r][c], row r stays as it is, every other
  row x becomes (x*p - x[c]*tab[r]) / den, and p becomes the new ``den``.
  Each quotient is an integer minor of the start tableau, so the division
  is exact; it is checked all the same.  A negative pivot, which only
  occurs while leftover artificials are driven out, has its row negated
  first, so ``den`` stays positive.  ``_pivot`` is the one exact
  elimination step; both phases, drive-out and ``_rref`` use it.
- *Cost row.* The tableau's last row, pivoted with the others and skipped
  by the ratio test.  Only the signs of its entries are read.
- *Phase 2.* Drive-out pivots and phase 2 never read an artificial
  column, so those columns are dropped once phase 1 ends.  ``_phase2``
  builds the cost row den*c - sum c_B*row from the integer objective c,
  iterates, and reads off the point.
- *Warm start.* A ``WarmStart`` carries the final tableau (rows, basis,
  kept rows, ``den``) from one solve to the next over the same rows.  The
  next solve skips phase 1 and runs ``_phase2`` from it: a feasible
  basis of the same feasible set, from which Bland's rule cannot cycle
  either.  ``minimal_face`` uses it for its support LPs, which differ only
  in the objective.
- *Answer.* Each basic coordinate's integer numerator over ``den``, the
  others 0, checked by ``_verify`` (warm or cold) and then read as
  ``Fraction``s, as is the value c.x.  With it comes the basis that
  ``_iterate`` and the drive-out loop record, as (kept row, basic column)
  pairs; rows that phase 1 found redundant are dropped.  ``multipliers``
  solves y.A_B = c_B on it by ``_rref`` and returns y as integers over
  one denominator.  ``_rref`` also serves ``polytope`` for affine ranks
  and circuits.

Against the tableau of ``Fraction``s that the same rules would pivot, the
integer start scales all rows by one positive number, the artificial
columns by another and the objective by a third.  That multiplies every reduced cost and every
ratio-test ratio of one entering column by a positive factor, so Bland's
rule takes the same pivots and returns the same point.  A warm solve can
end at another optimal vertex than a cold one, with the same value.
Optimal points satisfy every constraint with zero error and can serve as
certificates.
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
    basis: tuple[tuple[int, int], ...] | None = None  # (kept row, basic column)


class WarmStart:
    """The final tableau of one solve, for the next solve over the same
    rows.  The caller makes it empty and passes it to each ``lp_solve`` of
    a sequence: the first runs both phases, each later one only phase 2
    from the tableau the previous one left, and each leaves its own.  It
    lives as long as the caller keeps it."""

    def __init__(self):
        self.tableau = None


def lp_solve(problem: LPProblem, warm: WarmStart | None = None) -> LPSolution:
    status, nums, den, basis = _solve_exact(problem, warm)
    if status != OPTIMAL:
        return LPSolution(status, None, None)
    _verify(problem, nums, den)
    value = Fraction(sum(c * x for c, x in zip(problem.objective, nums) if x), den)
    point = tuple(Fraction(x, den) if x else _ZERO for x in nums)
    return LPSolution(OPTIMAL, value, point, tuple(basis))


def multipliers(problem: LPProblem, basis: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """Simplex multipliers y of a final basis, one per integer row of
    ``a_eq``, as (numerators, one positive denominator): y.A_B = c_B on the
    kept rows and 0 on dropped rows.  At an optimum of a minimization,
    c - y.A >= 0 column by column."""
    rows = [r for r, _ in basis]
    c = problem.objective
    tab, pivots, den = _rref([[problem.a_eq[r][j] for r in rows] + [c[j]] for _, j in basis])
    if pivots != tuple(range(len(rows))):
        raise InternalCheckError("simplex returned a singular basis")
    y = [0] * len(problem.a_eq)
    for r, row in zip(rows, tab):
        y[r] = row[-1]
    return tuple(y), den


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
    """(status, numerators of the point, their denominator, final basis as
    (kept row, basic column) pairs); all but the status are None unless
    optimal.  A filled ``warm`` replaces phase 1; any ``warm`` is left
    holding the final tableau."""
    if warm is not None and warm.tableau is not None:
        rows, tab, basis, keep, den = warm.tableau
        if rows != (problem.a_eq, problem.b_eq):
            raise ValueError("a warm start must come from a problem with the same rows")
    else:
        start = _phase1(problem)
        if start is None:
            return INFEASIBLE, None, None, None
        tab, basis, keep, den = start
    status, nums, den = _phase2(problem.objective, tab, basis, den)
    if warm is not None:
        warm.tableau = ((problem.a_eq, problem.b_eq), tab, basis, keep, den)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None, None
    return OPTIMAL, nums, den, list(zip(keep, basis))


def _phase1(problem: LPProblem):
    """A feasible start for phase 2, (rows, basic columns, kept row
    indices, den), from the artificial basis; None if infeasible."""
    n = len(problem.objective)
    m = len(problem.b_eq)
    ncols = n + m  # x vars, artificials

    # Integer tableau rows [coeffs | rhs], with rhs normalized nonnegative
    # and an artificial basis whose coefficients stay 1.
    tab: list[list[int]] = []
    basis: list[int] = []
    for i, (a, b) in enumerate(zip(problem.a_eq, problem.b_eq)):
        row = [*a, *[0] * m, b] if b >= 0 else [*(-x for x in a), *[0] * m, -b]
        row[n + i] = 1
        tab.append(row)
        basis.append(n + i)
    den = 1

    # Minimize the sum of artificials; the cost row is the last row.
    cost = [-sum(col) for col in zip(*tab)] if tab else [0] * (ncols + 1)
    for b in basis:
        cost[b] = 0
    tab.append(cost)
    status, den = _iterate(tab, basis, den, allowed_max=ncols)
    if status == UNBOUNDED or tab.pop()[-1] != 0:  # the former is impossible; defensive
        return None

    # Nothing below reads an artificial column again: drive-out pivots on
    # columns below n and phase 2 never enters an artificial.
    tab = [row[:n] + row[-1:] for row in tab]

    # Drive leftover artificials out of the basis or drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is None:
                continue  # redundant row
            den = _pivot(tab, i, piv, den)
            basis[i] = piv
        keep.append(i)
    return [tab[i] for i in keep], [basis[i] for i in keep], keep, den


def _phase2(c: Sequence[int], tab, basis, den) -> tuple[str, list[int] | None, int]:
    """Phase 2 from a feasible tableau of the kept rows, for the integer
    objective c: (status, numerators of the point or None, den).  ``tab``
    and ``basis`` are updated in place and end as the final tableau, with
    no cost row."""
    # The cost row reduced against the basis: den * c - sum c_B * row.
    cost = [den * x for x in c] + [0]
    for b, row in zip(basis, tab):
        cb = c[b]
        if cb != 0:
            cost = [x - cb * t for x, t in zip(cost, row)]
    tab.append(cost)
    status, den = _iterate(tab, basis, den, allowed_max=len(c))
    tab.pop()
    if status == UNBOUNDED:
        return UNBOUNDED, None, den

    # x_j = (basic numerator of x_j) / den, or 0 when x_j is nonbasic.
    nums = [0] * len(c)
    for b, row in zip(basis, tab):
        nums[b] = row[-1]
    return OPTIMAL, nums, den


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
