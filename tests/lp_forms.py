"""Bounded LPs with inequality rows, restated in the exact kernel's one form.

``convexstate.lp`` solves min c.y s.t. a_eq y == b_eq, y >= 0.  Some LP
tests state their problems with rows a_ub x <= b_ub and with per-variable
bounds lo <= x_j <= hi (None for no bound on that side).  ``bounded_lp``
restates such a problem column by column, in the order of the variables:

- a free x_j becomes two columns, x_j = y+ - y-;
- x_j <= hi with no lower bound becomes x_j = hi - y;
- any other x_j becomes x_j = lo + y, and if it also has an upper bound
  the row y <= hi - lo is appended after the a_ub rows;
- each right-hand side b becomes b - a.s for the vector s of shifts;
- each <= row becomes an equality row with its own slack column, the
  slack columns appended after the variable columns in row order, and
  the equality rows come first.

That is the start tableau the kernel built for itself when it took bounds
and <= rows, so the Bland path and the points pinned from it are
unchanged.  ``BoundedLP.solve`` maps the optimum back to x and computes
its value again from x.

The kernel takes integer problems only; ``make`` states a rational one
in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from convexstate.lp import OPTIMAL, LPProblem, LPSolution, _integer_rows, lp_solve, rat


def make(objective, a_eq=(), b_eq=()) -> LPProblem:
    """The integer problem of a rational one: the objective times the LCM
    of its denominators, and [a_eq | b_eq] times the LCM of theirs.  Neither
    scale moves the feasible set or the optimal points; the optimal value
    is the objective's scale times the rational one."""
    assert len(a_eq) == len(b_eq) and all(len(r) == len(objective) for r in a_eq)
    c = _integer_rows([[rat(x) for x in objective]])[0]
    rows = _integer_rows([*map(rat, r), rat(b)] for r, b in zip(a_eq, b_eq))
    return LPProblem(tuple(c), tuple(tuple(r[:-1]) for r in rows), tuple(r[-1] for r in rows))


@dataclass(frozen=True)
class BoundedLP:
    problem: LPProblem                    # the kernel form, in y >= 0
    objective: tuple[Fraction, ...]       # c, in x
    columns: tuple[tuple[int, int], ...]  # column k of y -> (j, sign); slacks follow
    shifts: tuple[Fraction, ...]          # x_j = shifts[j] + sum of sign * y_k

    def to_x(self, y) -> tuple[Fraction, ...]:
        x = list(self.shifts)
        for (j, sign), v in zip(self.columns, y):
            x[j] += sign * v
        return tuple(x)

    def solve(self) -> LPSolution:
        sol = lp_solve(self.problem)
        if sol.status != OPTIMAL:
            return sol
        x = self.to_x(sol.point)
        return LPSolution(OPTIMAL, sum(c * v for c, v in zip(self.objective, x)), x)


def bounded_lp(objective, a_eq=None, b_eq=None, a_ub=None, b_ub=None,
               bounds=None) -> BoundedLP:
    c = [rat(v) for v in objective]
    n = len(c)
    a_eq, b_eq = [[rat(v) for v in r] for r in a_eq or ()], [rat(v) for v in b_eq or ()]
    a_ub, b_ub = [[rat(v) for v in r] for r in a_ub or ()], [rat(v) for v in b_ub or ()]
    bounds = [(0, None)] * n if bounds is None else bounds
    assert len(bounds) == n, "one (lo, hi) pair per variable"
    columns, shifts, boxed = [], [], []
    for j, (lo, hi) in enumerate(bounds):
        lo, hi = (None if v is None else rat(v) for v in (lo, hi))
        if lo is None and hi is None:
            columns += [(j, 1), (j, -1)]
            shifts.append(Fraction(0))
            continue
        if lo is None:
            shifts.append(hi)
            columns.append((j, -1))
            continue
        if hi is not None:
            boxed.append((len(columns), hi - lo))
        shifts.append(lo)
        columns.append((j, 1))

    def restate(rows, rhs):
        return ([[sign * r[j] for j, sign in columns] for r in rows],
                [b - sum(a * s for a, s in zip(r, shifts)) for r, b in zip(rows, rhs)])

    eq_rows, eq_rhs = restate(a_eq, b_eq)
    ub_rows, ub_rhs = restate(a_ub, b_ub)
    for k, gap in boxed:
        ub_rows.append([1 if i == k else 0 for i in range(len(columns))])
        ub_rhs.append(gap)
    slacks = [[int(i == k) for k in range(len(ub_rows))] for i in range(len(ub_rows))]
    problem = make([sign * c[j] for j, sign in columns] + [0] * len(ub_rows),
                   a_eq=[r + [0] * len(ub_rows) for r in eq_rows]
                   + [r + s for r, s in zip(ub_rows, slacks)],
                   b_eq=eq_rhs + ub_rhs)
    return BoundedLP(problem, tuple(c), tuple(columns), tuple(shifts))
