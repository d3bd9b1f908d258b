"""Transition probabilities as affine ratios, and what they rule out.

For a state space K and extreme points x, y the affine ratio is

    r(x, y) = inf { f(y) : f affine on K, 0 <= f <= 1 on K, f(x) = 1 }.

Engines by state-space kind:

* polytopes: the infimum is a linear program over functionals, solved
  exactly as its LP dual, the mixture LP over the homogenised vertices;
  the optimal functional is read off the final basis as the negated
  simplex multipliers and re-checked, so the value is certified from
  both sides;
* the Bloch ball: closed form (1 + x.y)/2;
* the full quantum state space of a matrix algebra: Tr(xy) for rank-1
  projections (the minimizing functional is rho -> Tr(x rho), and every
  feasible functional dominates it);
* the separable two-qubit set: the infimum ranges over block-positive
  witnesses and is not computed in general; the engine returns a certified
  interval instead.  Tr(xy) stays feasible on the smaller space, so it is
  a valid upper bound; the certified lower bound is 0 (or 1 when x == y,
  forced by f(x) = 1).  A finite family of decomposable witness candidates
  P + Q^T_B is evaluated and reported: each feasible candidate's value is a
  further upper bound on the infimum, useful as evidence, never asserted.

Superposability asks for an extreme z with r(x, z) = r(y, z) = 1/2.  For
the separable set with x, y orthogonal in both factors this reduces to
bounding a + c - 2ac over (a, c) in [0,1]^2.  By the identity
1 - (a + c - 2ac) = (1 - a)(1 - c) + ac the maximum is 1, attained only at
(0,1) and (1,0), and at those corners one of the two transition
probabilities vanishes, so no such z exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import linalg
from .config import DEFAULT_TOL
from .errors import InternalCheckError, PreconditionError
from .lp import LPProblem, OPTIMAL, lp_solve, multipliers
from .models import SeparableTwoQubits
from .polytope import VPolytope, parse_point

KIND_VPOLYTOPE = "vpolytope"
KIND_BLOCH = "bloch_ball"
KIND_FULL_QUANTUM = "full_quantum"
KIND_SEPARABLE = "separable_2x2"


@dataclass(frozen=True)
class StateSpaceHandle:
    """A state space plus the access mode its engines need."""

    kind: str
    payload: object | None = None

    @staticmethod
    def vpolytope(k: VPolytope) -> "StateSpaceHandle":
        return StateSpaceHandle(KIND_VPOLYTOPE, k)

    @staticmethod
    def bloch_ball() -> "StateSpaceHandle":
        return StateSpaceHandle(KIND_BLOCH, None)

    @staticmethod
    def full_quantum() -> "StateSpaceHandle":
        return StateSpaceHandle(KIND_FULL_QUANTUM, None)

    @staticmethod
    def separable_2x2() -> "StateSpaceHandle":
        return StateSpaceHandle(KIND_SEPARABLE, SeparableTwoQubits())


@dataclass(frozen=True)
class AffineFunctional:
    """f(p) = normal . p + offset on a polytope's ambient space."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __call__(self, point: Sequence) -> Fraction:
        p = parse_point(point)
        return sum((a * b for a, b in zip(self.normal, p)), Fraction(0)) + self.offset


@dataclass(frozen=True)
class RatioResult:
    """Affine ratio, possibly only bracketed.

    lo == hi means the value is known (exactly, for polytopes).  The
    witness, when present, is a feasible functional: range in [0,1] on the
    space, witness(x) = 1 — so its value at y upper-bounds the infimum.
    """

    lo: object
    hi: object
    witness: object | None = None
    detail: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self):
        return self.hi if self.exact else None


# ---------------------------------------------------------------------------
# Ratio engines
# ---------------------------------------------------------------------------

def affine_ratio_polytope(k: VPolytope, x, y) -> RatioResult:
    """Exact affine ratio between two vertices, certified from both sides.

    With p^ = (p, 1), the mixture LP

        maximize t - sum(beta)  s.t.  t x^ + sum(alpha_i v_i^) - sum(beta_i v_i^) = y^,
                                      t, alpha, beta >= 0,

    is the LP dual of the functional LP that defines the ratio.  Any
    feasible f has f(y) = t f(x) + sum(alpha_i f(v_i)) - sum(beta_i f(v_i))
    >= t - sum(beta), so the verified mixture bounds the ratio from below.
    The witness f is the negated simplex multipliers of the final basis;
    it is re-checked exactly to be feasible with f(y) equal to that bound.
    """
    px, py = parse_point(x), parse_point(y)
    ix, iy = k.vertex_index(px), k.vertex_index(py)
    if ix is None or iy is None:
        raise PreconditionError(
            "affine_ratio_polytope needs vertices of the polytope; "
            f"got x in vertices: {ix is not None}, y in vertices: {iy is not None}"
        )
    n = len(k.vertices)
    columns = [(*px, 1), *((*v, 1) for v in k.vertices)]  # t, alpha
    columns += [tuple(-c for c in col) for col in columns[1:]]  # beta
    prob = LPProblem.make([-1] + [0] * n + [1] * n, a_eq=list(zip(*columns)), b_eq=[*py, 1])
    sol = lp_solve(prob)
    if sol.status != OPTIMAL:  # t = 0, alpha = e_y is always feasible
        raise PreconditionError(f"ratio LP unexpectedly {sol.status}")
    value = -sol.value
    *normal, offset = (-u for u in multipliers(prob, sol.basis))
    witness = AffineFunctional(tuple(normal), offset)
    if witness(px) != 1 or witness(py) != value or any(
            not 0 <= witness(v) <= 1 for v in k.vertices):
        raise InternalCheckError("ratio witness failed its exact check")
    return RatioResult(lo=value, hi=value, witness=witness,
                       detail={"x_index": ix, "y_index": iy})


def _unit3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (3,):
        raise PreconditionError(f"Bloch state must have 3 components, got {a.shape}")
    n = float(np.sqrt(a @ a))
    if not abs(n - 1.0) <= DEFAULT_TOL:
        raise PreconditionError(f"Bloch state must be a unit vector, |x| = {n!r}")
    return a / n


def affine_ratio_bloch(x, y) -> RatioResult:
    """Closed form on the Bloch ball: (1 + x.y)/2 for unit vectors."""
    ax, ay = _unit3(x), _unit3(y)
    val = 0.5 * (1.0 + float(ax @ ay))
    return RatioResult(lo=val, hi=val, witness=None,
                       detail={"formula": "(1 + x.y)/2"})


def affine_ratio_quantum(x, y, tol: float = DEFAULT_TOL) -> RatioResult:
    """Tr(xy) for rank-1 projections on the full state space.

    The functional rho -> Tr(x rho) is feasible and every feasible
    functional dominates it at rank-1 projections, so the infimum is
    attained there; no optimization needed.
    """
    mx = linalg.require_rank1_projection(x, tol=tol, what="x")
    my = linalg.require_rank1_projection(y, tol=tol, what="y")
    if mx.shape != my.shape:
        raise PreconditionError(f"dimension mismatch: {mx.shape} vs {my.shape}")
    val = float(np.real(np.trace(mx @ my)))
    val = min(1.0, max(0.0, val))
    return RatioResult(lo=val, hi=val, witness=mx,
                       detail={"formula": "Tr(xy)"})


def _require_pure_product(rho, tol: float, what: str) -> np.ndarray:
    m = linalg.require_rank1_projection(rho, tol=tol, what=what)
    if m.shape != (4, 4):
        raise PreconditionError(f"{what} must be a 4x4 two-qubit state")
    npt = linalg.min_eigenvalue(linalg.partial_transpose(m, "B"))
    if npt < -tol:
        raise PreconditionError(
            f"{what} is entangled (partial transpose eigenvalue {npt:.3e}); "
            "separable-engine inputs must be pure product states"
        )
    return m


def _separable_upper_bound(x, y, tol: float = DEFAULT_TOL
                           ) -> tuple[np.ndarray, np.ndarray, float]:
    """The validated pure product states x, y and Tr(xy) clipped to [0, 1],
    the upper bound on their separable affine ratio."""
    mx = _require_pure_product(x, tol=max(tol, 1e-10), what="x")
    my = _require_pure_product(y, tol=max(tol, 1e-10), what="y")
    return mx, my, min(1.0, max(0.0, float(np.real(np.trace(mx @ my)))))


def _decomposable_witness_candidates(x: np.ndarray, y: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Finite deterministic family of decomposable operators P + Q^T_B
    built from the input states; each is automatically nonnegative on
    separable states."""
    xg = linalg.partial_transpose(x, "B")
    yg = linalg.partial_transpose(y, "B")
    return [
        ("x", x.copy()),
        ("x + PT(y)/2", x + 0.5 * yg),
        ("x + PT(x)/2", x + 0.5 * xg),
        ("(x + y)/1 + PT(x+y)/2", x + y + 0.5 * (xg + yg)),
    ]


def affine_ratio_separable(x, y, tol: float = DEFAULT_TOL,
                           starts: int = 8, seed: int = 0) -> RatioResult:
    """Certified interval for the affine ratio on the separable set.

    hi is Tr(xy): the full-space minimizer stays feasible on the smaller
    space, so the separable infimum can only be lower.  lo is the bound
    actually certified: 1 when x == y (forced by f(x) = 1), else 0.
    Decomposable witness candidates are screened for feasibility (range in
    [0,1] over product states, checked by see-saw maximization) and each
    feasible one's value at y is reported as a further upper bound.
    """
    mx, my, hi = _separable_upper_bound(x, y, tol)
    same = float(np.max(np.abs(mx - my))) <= tol
    lo = 1.0 if same else 0.0
    candidates = []
    from .models import maximize_linear_over_separable

    for label, wop in _decomposable_witness_candidates(mx, my):
        fx = float(np.real(np.trace(wop @ mx)))
        if fx <= tol:
            continue
        wop = wop / fx  # normalize f(x) = 1
        top = maximize_linear_over_separable(wop, starts=starts, seed=seed).value
        bottom = -maximize_linear_over_separable(-wop, starts=starts, seed=seed).value
        feasible = top <= 1.0 + 1e-8 and bottom >= -1e-8
        entry = {
            "label": label,
            "value_at_y": float(np.real(np.trace(wop @ my))),
            "max_on_products": top,
            "min_on_products": bottom,
            "feasible": bool(feasible),
        }
        candidates.append(entry)
    feas_vals = [c["value_at_y"] for c in candidates if c["feasible"]]
    return RatioResult(
        lo=lo, hi=hi, witness=mx,
        detail={
            "upper_bound_formula": "Tr(xy) on the full space",
            "witness_candidates": candidates,
            "best_candidate_upper_bound": min(feas_vals) if feas_vals else None,
        },
    )


def affine_ratio(h: StateSpaceHandle, x, y) -> RatioResult:
    if h.kind == KIND_VPOLYTOPE:
        return affine_ratio_polytope(h.payload, x, y)
    if h.kind == KIND_BLOCH:
        return affine_ratio_bloch(x, y)
    if h.kind == KIND_FULL_QUANTUM:
        return affine_ratio_quantum(x, y)
    if h.kind == KIND_SEPARABLE:
        return affine_ratio_separable(x, y)
    raise PreconditionError(f"unknown state-space kind {h.kind!r}")


def is_orthogonal(h: StateSpaceHandle, x, y, tol: float | None = None) -> bool:
    """Transition probability zero (exactly, where the engine is exact)."""
    t = DEFAULT_TOL if tol is None else tol
    if h.kind == KIND_SEPARABLE:  # the upper bound Tr(xy) decides; no witness screen
        return _separable_upper_bound(x, y)[2] <= t
    r = affine_ratio(h, x, y)
    if isinstance(r.hi, Fraction):
        return r.hi == 0
    return float(r.hi) <= t


# ---------------------------------------------------------------------------
# Superposability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperposabilityCertificate:
    found: bool
    z: object | None = None
    ratio_xz: object | None = None
    ratio_yz: object | None = None
    overlaps: dict | None = None      # a, b, c, d for the separable engine
    transcript: dict = field(default_factory=dict)


def superposability_search(h: StateSpaceHandle, x, y, *,
                           tol: float | None = None) -> SuperposabilityCertificate:
    """Look for an extreme z with both transition probabilities 1/2.

    Preconditions: x, y extreme and orthogonal in h.  Closed-form engines
    accept 1/2 within 1e-8; the rational polytope engine requires 1/2
    exactly.  The separable engine certifies absence via the overlap-square
    identity described in the module docstring.
    """
    t = DEFAULT_TOL if tol is None else tol
    if not is_orthogonal(h, x, y, tol=t):
        raise PreconditionError("superposability search needs orthogonal inputs")
    if h.kind == KIND_VPOLYTOPE:
        return _superposable_polytope(h.payload, x, y)
    if h.kind == KIND_BLOCH:
        return _superposable_bloch(x, y)
    if h.kind == KIND_FULL_QUANTUM:
        return _superposable_full_quantum(x, y)
    if h.kind == KIND_SEPARABLE:
        return _superposable_separable(x, y)
    raise PreconditionError(f"unknown state-space kind {h.kind!r}")


def _superposable_polytope(k: VPolytope, x, y) -> SuperposabilityCertificate:
    px, py = parse_point(x), parse_point(y)
    half = Fraction(1, 2)
    scanned = []
    for i, z in enumerate(k.vertices):
        if z == px or z == py:
            continue
        rxz = affine_ratio_polytope(k, px, z).value
        ryz = affine_ratio_polytope(k, py, z).value
        scanned.append({"vertex": i, "ratio_xz": str(rxz), "ratio_yz": str(ryz)})
        if rxz == half and ryz == half:
            return SuperposabilityCertificate(
                found=True, z=z, ratio_xz=rxz, ratio_yz=ryz,
                transcript={"scanned": scanned},
            )
    return SuperposabilityCertificate(found=False, transcript={"scanned": scanned})


def _perp_unit(a: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to a: cross with the coordinate
    axis least aligned with a."""
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(a)))] = 1.0
    p = np.cross(a, axis)
    return p / float(np.sqrt(p @ p))


def _superposable_bloch(x, y) -> SuperposabilityCertificate:
    ax = _unit3(x)
    z = _perp_unit(ax)
    rxz = affine_ratio_bloch(ax, z).value
    ryz = affine_ratio_bloch(_unit3(y), z).value
    found = abs(rxz - 0.5) <= 1e-8 and abs(ryz - 0.5) <= 1e-8
    return SuperposabilityCertificate(
        found=found, z=tuple(float(c) for c in z), ratio_xz=rxz, ratio_yz=ryz,
        transcript={"construction": "any unit vector orthogonal to x"},
    )


def _superposable_full_quantum(x, y) -> SuperposabilityCertificate:
    mx = linalg.require_rank1_projection(x, what="x")
    my = linalg.require_rank1_projection(y, what="y")
    vx = linalg.top_eigenvector(mx)
    vy = linalg.top_eigenvector(my)
    z = linalg.projector(vx + vy)
    rxz = affine_ratio_quantum(mx, z).value
    ryz = affine_ratio_quantum(my, z).value
    found = abs(rxz - 0.5) <= 1e-8 and abs(ryz - 0.5) <= 1e-8
    return SuperposabilityCertificate(
        found=found, z=z, ratio_xz=rxz, ratio_yz=ryz,
        transcript={"construction": "projector onto (|x> + |y>)/sqrt(2)"},
    )


def _factor_pair(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors of a pure product state via its reductions."""
    ra = linalg.partial_trace(rho, "B", validate=False)
    rb = linalg.partial_trace(rho, "A", validate=False)
    return ra, rb


def overlap_square_surface(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """s(a, c) = a + c - 2ac, the sum of the two transition-probability
    upper bounds a*b + c*d after substituting b = 1-c, d = 1-a."""
    return a + c - 2.0 * a * c


SURFACE_IDENTITY = "1 - (a + c - 2ac) = (1 - a)(1 - c) + ac"
# Both right-hand terms are >= 0 on [0,1]^2 and vanish together only here.
SURFACE_MAXIMISERS = ((0.0, 1.0), (1.0, 0.0))


def _superposable_separable(x, y) -> SuperposabilityCertificate:
    """Certify that no product state z has both ratios 1/2.

    Requires x, y orthogonal in BOTH factors (which covers pairs like
    |01>,|10> and |00>,|11>).  Writing a = Tr(x_A z_A), c = Tr(y_B z_B),
    the two full-space ratios are a(1-c) and (1-a)c; each upper-bounds the
    separable ratio, so a pair of 1/2s forces a + c - 2ac >= 1.  The
    identity SURFACE_IDENTITY proves max = 1, attained only at the corners
    (0,1), (1,0); at each one bound (hence one separable ratio) is 0.
    """
    mx = _require_pure_product(x, tol=1e-10, what="x")
    my = _require_pure_product(y, tol=1e-10, what="y")
    xa, xb = _factor_pair(mx)
    ya, yb = _factor_pair(my)
    oa = float(np.real(np.trace(xa @ ya)))
    ob = float(np.real(np.trace(xb @ yb)))
    if oa > 1e-10 or ob > 1e-10:
        raise PreconditionError(
            "separable superposability engine needs inputs orthogonal in both "
            f"factors; factor overlaps are {oa:.3e} (A) and {ob:.3e} (B)"
        )

    # At each arg-max corner, rebuild the actual product state z and verify
    # with full complex states that one transition probability vanishes.
    corner_reports = []
    for a_val, c_val in SURFACE_MAXIMISERS:
        za = _mix_factor(xa, ya, a_val)        # Tr(xa za) = a
        zb = _mix_factor(yb, xb, c_val)        # Tr(yb zb) = c
        z = linalg.tensor(za, zb)
        u1 = float(np.real(np.trace(mx @ z)))
        u2 = float(np.real(np.trace(my @ z)))
        corner_reports.append({
            "a": a_val, "c": c_val,
            "overlaps": {"a": a_val, "b": 1.0 - c_val, "c": c_val, "d": 1.0 - a_val},
            "bound_xz": u1, "bound_yz": u2,
            "vanishing_bound": min(u1, u2),
        })

    return SuperposabilityCertificate(
        found=False,
        overlaps=corner_reports[0]["overlaps"],
        transcript={
            "identity": SURFACE_IDENTITY,
            "surface_max": 1.0,
            "near_max_points": list(SURFACE_MAXIMISERS),
            "corners_only": True,
            "corner_reports": corner_reports,
            "conclusion": (
                "both ratios 1/2 would need a + c - 2ac >= 1; the maximum is 1 "
                "and occurs only where one transition probability is 0"
            ),
        },
    )


def _mix_factor(p: np.ndarray, q: np.ndarray, weight: float) -> np.ndarray:
    """Pure qubit state with overlap `weight` on p and 1-weight on q, for
    orthogonal pure p, q: sqrt(w)|p> + sqrt(1-w)|q> (phases dropped)."""
    vp = linalg.top_eigenvector(p)
    vq = linalg.top_eigenvector(q)
    vec = math.sqrt(max(0.0, weight)) * vp + math.sqrt(max(0.0, 1.0 - weight)) * vq
    return linalg.projector(vec)


# ---------------------------------------------------------------------------
# Norm-continuous paths of product states
# ---------------------------------------------------------------------------

def qubit_great_circle(p: np.ndarray, q: np.ndarray, steps: int) -> list[np.ndarray]:
    """Pure-state path from qubit projector p to q along the Bloch great
    circle, with `steps` segments; endpoints are the inputs themselves."""
    if steps < 1:
        raise PreconditionError(f"steps must be >= 1, got {steps}")
    a = linalg.bloch_vector(p)
    b = linalg.bloch_vector(q)
    dot = float(np.clip(a @ b, -1.0, 1.0))
    theta = math.acos(dot)
    if theta < 1e-12:
        return [p.copy() for _ in range(steps + 1)]
    if abs(theta - math.pi) < 1e-12:
        ortho = _perp_unit(a)
    else:
        ortho = b - dot * a
        ortho = ortho / float(np.sqrt(ortho @ ortho))
    path = [p.copy()]
    for i in range(1, steps):
        ang = theta * i / steps
        n = math.cos(ang) * a + math.sin(ang) * ortho
        path.append(linalg.bloch_projector(n / float(np.sqrt(n @ n))))
    path.append(q.copy())
    return path


def path_connect_product_states(x, y, steps: int = 64) -> list[np.ndarray]:
    """Norm-continuous path of pure product states from x to y.

    Two legs: rotate the A factor with B frozen, then the B factor with A
    frozen.  On each leg the difference of consecutive states factorizes as
    (f(t) - f(t')) tensor P with P a projector, and the Hilbert-Schmidt
    norm is multiplicative, so consecutive distances equal the single-qubit
    factor distances.  Endpoints are exactly the inputs.
    """
    mx = _require_pure_product(x, tol=1e-10, what="x")
    my = _require_pure_product(y, tol=1e-10, what="y")
    xa, xb = _factor_pair(mx)
    ya, yb = _factor_pair(my)
    leg_a = qubit_great_circle(xa, ya, steps)
    leg_b = qubit_great_circle(xb, yb, steps)
    path = [mx]
    for f in leg_a[1:]:
        path.append(linalg.tensor(f, xb))
    for g in leg_b[1:]:
        path.append(linalg.tensor(ya, g))
    path[-1] = my
    return path


def path_report(path: list[np.ndarray]) -> dict:
    """Summary of a product-state path: consecutive distances and the
    factor-distance identity (checked from the states themselves)."""
    dists = [linalg.hs_distance(path[i], path[i + 1]) for i in range(len(path) - 1)]
    identity_dev = 0.0
    for i in range(len(path) - 1):
        d_full = dists[i]
        da = linalg.hs_distance(
            linalg.partial_trace(path[i], "B", validate=False),
            linalg.partial_trace(path[i + 1], "B", validate=False),
        )
        db = linalg.hs_distance(
            linalg.partial_trace(path[i], "A", validate=False),
            linalg.partial_trace(path[i + 1], "A", validate=False),
        )
        # On each leg exactly one factor moves; the moving factor's distance
        # must reproduce the full distance (HS norm multiplicativity).
        identity_dev = max(identity_dev, abs(d_full - max(da, db)))
    return {
        "points": len(path),
        "max_consecutive_distance": max(dists) if dists else 0.0,
        "factor_identity_deviation": identity_dev,
    }
