"""Two-phase dense simplex with Bland's anti-cycling rule, over exact rationals.

The tableau is integer-preserving (Edmonds/Bareiss pivoting): its entries
are Python ints that share one positive common denominator ``den``.

- *Start.* Every entry is written as ``numerator * (scale // denominator)``
  with ``scale`` the LCM of the denominators in the rows and right-hand
  sides, so no ``Fraction`` is added or multiplied per entry.  The slack
  and artificial columns keep the coefficient 1, so the start is an
  integer tableau with ``den = 1`` and the artificials as its basis: the
  tableau that scaling the ``Fraction`` rows would give.
- *Pivot.* On the entry p = tab[r][c], row r stays as it is, every other
  row x becomes (x*p - x[c]*tab[r]) / den, and p becomes the new ``den``.
  Each quotient is an integer minor of the start tableau, so the division
  is exact; it is checked all the same.  A negative pivot, which only
  occurs while leftover artificials are driven out, has its row negated
  first, so ``den`` stays positive.
- *Cost row.* It is pivoted the same way, with the phase-2 objective
  multiplied by the LCM of its denominators.  Only the signs of its
  entries are read.
- *Phase 2.* Drive-out pivots and phase 2 never read an artificial
  column, so those columns are dropped once phase 1 ends.
- *Answer.* Each basic coordinate is read as one ``Fraction``, its
  integer numerator over ``den``; the others are 0.

Against the tableau of ``Fraction``s that the same rules would pivot, the
integer start scales all rows by one positive number and the slack and
artificial columns by another.  That multiplies every reduced cost and
every ratio-test ratio of one entering column by a positive factor, so
Bland's rule takes the same pivots and returns the same point.  Optimal
points satisfy every constraint with zero error, can serve as
certificates, and are re-checked in ``Fraction``s before they are returned.

Problems take one form,

    minimize c.x   s.t.   a_eq x == b_eq,  a_ub x <= b_ub,  x >= 0;

a caller with free variables splits each into two nonnegative columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from typing import Sequence

from .errors import InternalCheckError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Exact conversion: ints, Fractions, 'p/q' strings, and finite binary
    floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("refusing to treat a bool as a number")
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        if not isfinite(x):
            raise ValueError(f"not a finite number: {x}")
        return Fraction(x)  # floats are dyadic rationals; this is exact
    raise TypeError(f"cannot convert {type(x).__name__} to a rational")


@dataclass(frozen=True)
class LPProblem:
    objective: tuple[Fraction, ...]
    a_eq: tuple[tuple[Fraction, ...], ...]
    b_eq: tuple[Fraction, ...]
    a_ub: tuple[tuple[Fraction, ...], ...]
    b_ub: tuple[Fraction, ...]

    @staticmethod
    def make(objective: Sequence, a_eq: Sequence | None = (), b_eq: Sequence | None = (),
             a_ub: Sequence | None = (), b_ub: Sequence | None = ()) -> "LPProblem":
        c = tuple(rat(x) for x in objective)
        n = len(c)
        a_eq = () if a_eq is None else a_eq
        b_eq = () if b_eq is None else b_eq
        a_ub = () if a_ub is None else a_ub
        b_ub = () if b_ub is None else b_ub

        def _rows(rows, rhs, label):
            out_rows, out_rhs = [], []
            for i, row in enumerate(rows):
                r = tuple(rat(x) for x in row)
                if len(r) != n:
                    raise ValueError(
                        f"{label} row {i} has {len(r)} entries, expected {n}"
                    )
                out_rows.append(r)
            for x in rhs:
                out_rhs.append(rat(x))
            if len(out_rows) != len(out_rhs):
                raise ValueError(f"{label}: row/rhs count mismatch")
            return tuple(out_rows), tuple(out_rhs)

        aeq, beq = _rows(a_eq, b_eq, "a_eq")
        aub, bub = _rows(a_ub, b_ub, "a_ub")
        return LPProblem(c, aeq, beq, aub, bub)


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: Fraction | None
    point: tuple[Fraction, ...] | None


def lp_solve(problem: LPProblem) -> LPSolution:
    status, point = _solve_exact(problem)
    if status != OPTIMAL:
        return LPSolution(status, None, None)
    value = sum((c * x for c, x in zip(problem.objective, point) if x), _ZERO)
    _verify(problem, point)
    return LPSolution(OPTIMAL, value, tuple(point))


def _verify(problem: LPProblem, point: Sequence[Fraction]) -> None:
    """Exact feasibility re-check of a claimed optimum (defensive).  Row
    sums skip the zero coordinates, which are most of a basic solution."""
    support = [(j, x) for j, x in enumerate(point) if x]
    for row, b in zip(problem.a_eq, problem.b_eq):
        if sum((row[j] * x for j, x in support), _ZERO) != b:
            raise InternalCheckError("simplex returned an infeasible point (eq)")
    for row, b in zip(problem.a_ub, problem.b_ub):
        if sum((row[j] * x for j, x in support), _ZERO) > b:
            raise InternalCheckError("simplex returned an infeasible point (ub)")
    if any(x < 0 for _, x in support):
        raise InternalCheckError("simplex returned an infeasible point (nonneg)")


# ---------------------------------------------------------------------------
# Exact kernel
# ---------------------------------------------------------------------------

def _solve_exact(problem: LPProblem) -> tuple[str, list[Fraction] | None]:
    n = len(problem.objective)
    rows = [*zip(problem.a_eq, problem.b_eq), *zip(problem.a_ub, problem.b_ub)]
    ratios = [[a.as_integer_ratio() for a in row] for row, _ in rows]
    rhs = [b for _, b in rows]
    n_eq = len(problem.a_eq)
    m = len(rhs)
    n_slack = m - n_eq
    art_start = n + n_slack
    ncols = art_start + m  # x vars, slacks, artificials

    # Integer tableau rows: [coeffs | rhs] times one LCM of the denominators,
    # with rhs normalized nonnegative and an artificial basis.  Slack and
    # artificial coefficients stay 1; slack signs flip with the row when
    # rhs was negative.
    scale = lcm(*{q for r in ratios for _, q in r}, *{b.denominator for b in rhs})
    tab: list[list[int]] = []
    basis: list[int] = []
    for i, (r, b) in enumerate(zip(ratios, rhs)):
        row = ([p * (scale // q) for p, q in r] + [0] * (n_slack + m)
               + [b.numerator * (scale // b.denominator)])
        if i >= n_eq:
            row[n + i - n_eq] = 1
        if row[-1] < 0:
            row = [-x for x in row]
        row[art_start + i] = 1
        tab.append(row)
        basis.append(art_start + i)
    den = 1

    # Phase 1: minimize the sum of artificials.
    cost = [-sum(col) for col in zip(*tab)] if tab else [0] * (ncols + 1)
    for b in basis:
        cost[b] = 0
    status, den = _iterate(tab, basis, cost, den, allowed_max=ncols)
    if status == UNBOUNDED:  # impossible in phase 1; defensive
        return INFEASIBLE, None
    if cost[-1] != 0:
        return INFEASIBLE, None

    # Nothing below reads an artificial column again: drive-out pivots on
    # columns below art_start and phase 2 never enters an artificial.
    tab = [row[:art_start] + row[-1:] for row in tab]

    # Drive leftover artificials out of the basis or drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= art_start:
            piv = next(
                (j for j in range(art_start) if tab[i][j] != 0), None
            )
            if piv is None:
                continue  # redundant row
            den = _pivot(tab, basis, None, i, piv, den)
        keep.append(i)
    tab = [tab[i] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2 cost row from the objective made integral, reduced against the
    # basis: den * cx - sum cb * row.
    obj = [c.as_integer_ratio() for c in problem.objective]
    obj_scale = lcm(*{q for _, q in obj})
    cx = [p * (obj_scale // q) for p, q in obj] + [0] * (n_slack + 1)
    cost = [den * x for x in cx]
    for b, row in zip(basis, tab):
        cb = cx[b]
        if cb != 0:
            cost = [x - cb * t for x, t in zip(cost, row)]
    status, den = _iterate(tab, basis, cost, den, allowed_max=art_start)
    if status == UNBOUNDED:
        return UNBOUNDED, None

    # x_j = (basic numerator of x_j) / den, or 0 when x_j is nonbasic.
    point = [_ZERO] * n
    for b, row in zip(basis, tab):
        if b < n and row[-1]:
            point[b] = Fraction(row[-1], den)
    return OPTIMAL, point


def _iterate(tab, basis, cost, den, allowed_max) -> tuple[str, int]:
    """Bland-rule simplex iterations on an existing feasible tableau;
    returns the status and the common denominator it ends with.

    Entering: lowest-index column with negative reduced cost (restricted to
    columns below ``allowed_max`` so phase 2 never re-enters artificials).
    Leaving: minimum-ratio row, ties broken by lowest basic variable index.
    Ratios rhs/a with a > 0 are compared by cross-multiplying.
    """
    while True:
        enter = next(
            (j for j in range(allowed_max) if cost[j] < 0), None
        )
        if enter is None:
            return OPTIMAL, den
        leave, best_b, best_a = None, 0, 1
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is not None:
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_b, best_a = i, row[-1], a
        if leave is None:
            return UNBOUNDED, den
        den = _pivot(tab, basis, cost, leave, enter, den)


def _pivot(tab, basis, cost, r, c, den) -> int:
    """Integer-preserving pivot on tab[r][c]; returns the new denominator.

    Row r stays as it is (negated first if its pivot is negative) and every
    other row, the cost row too when given, becomes (x*p - x[c]*row_r) / den.
    """
    prow = tab[r]
    p = prow[c]
    if p < 0:
        prow = tab[r] = [-x for x in prow]
        p = -p
    for i, row in enumerate(tab):
        if i != r:
            tab[i] = _eliminate(row, prow, c, p, den)
    if cost is not None:
        cost[:] = _eliminate(cost, prow, c, p, den)
    basis[r] = c
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
