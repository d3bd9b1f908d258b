"""Transition probabilities as affine ratios, and what they rule out.

For a state space K and extreme points x, y the affine ratio is

    r(x, y) = inf { f(y) : f affine on K, 0 <= f <= 1 on K, f(x) = 1 }.

Engines by state-space kind:

* polytopes: the infimum is a linear program over functionals, solved
  exactly as its LP dual, the mixture LP over the polytope's integer
  matrix of homogenised vertices; the optimal functional is read off the
  final basis as the negated simplex multipliers and re-checked on that
  matrix in integers, so the value is certified from both sides;
* the Bloch ball: closed form (1 + x.y)/2;
* the full quantum state space of a matrix algebra: Tr(xy) for rank-1
  projections (the minimizing functional is rho -> Tr(x rho), and every
  feasible functional dominates it);
* the separable two-qubit set: the infimum ranges over block-positive
  witnesses and is not computed in general; the engine returns the
  certified bracket [lo, Tr(xy)] instead.  The functional rho -> Tr(x rho)
  stays feasible on the smaller space, so Tr(xy) is an upper bound; the
  certified lower bound is 0 (or 1 when x == y, forced by f(x) = 1).

``product_state`` checks a separable-engine input once into a
``ProductState`` record, which every separable engine takes as it is.

Superposability asks for an extreme z with r(x, z) = r(y, z) = 1/2.  For
the separable set with x, y orthogonal in both factors this reduces to
bounding a + c - 2ac over (a, c) in [0,1]^2.  By the identity
1 - (a + c - 2ac) = (1 - a)(1 - c) + ac the maximum is 1, attained only at
(0,1) and (1,0), where the product states are y and x themselves and one
transition probability vanishes, so no such z exists.  The pure product
states are still norm-path-connected: a path is one (2 * steps + 1, 4, 4)
array, a Bloch great circle per factor, checked from the 4x4 states by
``linalg.hs_norm`` and ``linalg.partial_trace`` over the whole stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from . import linalg
from .config import DEFAULT_TOL, tolerance
from .errors import InternalCheckError, PreconditionError
from .lp import LPProblem, OPTIMAL, lp_solve, multipliers
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
        return StateSpaceHandle(KIND_SEPARABLE, None)


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
    The LP's columns are the rows s*p^ of ``k.homogeneous``.  Its integer
    multipliers u / D give the witness f = -s*u/D; D*f(v) = -u.(s*v^) is
    re-checked exactly, one integer product per vertex, to be feasible with
    f(y) equal to that bound.
    """
    ix, iy = k.vertex_index(x), k.vertex_index(y)
    if ix is None or iy is None:
        raise PreconditionError(
            "affine_ratio_polytope needs vertices of the polytope; "
            f"got x in vertices: {ix is not None}, y in vertices: {iy is not None}"
        )
    rows = k.homogeneous
    n = len(rows)
    a_eq = tuple((t, *col, *(-c for c in col)) for t, col in zip(rows[ix], zip(*rows)))
    prob = LPProblem((-1, *[0] * n, *[1] * n), a_eq, rows[iy])  # t, alpha, beta
    sol = lp_solve(prob)
    if sol.status != OPTIMAL:  # t = 0, alpha = e_y is always feasible
        raise PreconditionError(f"ratio LP unexpectedly {sol.status}")
    value = -sol.value
    u, den = multipliers(prob, sol.basis)
    fv = [-sum(map(mul, u, v)) for v in rows]  # den * f(v_i)
    if fv[ix] != den or fv[iy] * value.denominator != value.numerator * den or any(
            not 0 <= w <= den for w in fv):
        raise InternalCheckError("ratio witness failed its exact check")
    *normal, offset = (Fraction(-rows[0][-1] * c, den) for c in u)
    witness = AffineFunctional(tuple(normal), offset)
    return RatioResult(lo=value, hi=value, witness=witness,
                       detail={"x_index": ix, "y_index": iy})


def _unit3(v) -> np.ndarray:
    a, n = linalg.unit_bloch(v)
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


@dataclass(frozen=True, eq=False)
class ProductState:
    """A checked pure product state; its factors are traced out on first use."""

    matrix: np.ndarray

    @functools.cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        return (linalg.partial_trace(self.matrix, "B", validate=False),
                linalg.partial_trace(self.matrix, "A", validate=False))


def product_state(rho, tol: float = DEFAULT_TOL, what: str = "state") -> ProductState:
    """``rho`` checked at max(tol, 1e-10) to be a 4x4 rank-1 projection with
    a positive partial transpose; a ``ProductState`` comes back unchanged."""
    if isinstance(rho, ProductState):
        return rho
    tol = max(tolerance(tol), 1e-10)
    m = linalg.require_rank1_projection(rho, tol=tol, what=what)
    if m.shape != (4, 4):
        raise PreconditionError(f"{what} must be a 4x4 two-qubit state")
    npt = linalg.min_eigenvalue(linalg.partial_transpose(m, "B"))
    if npt < -tol:
        raise PreconditionError(
            f"{what} is entangled (partial transpose eigenvalue {npt:.3e}); "
            "separable-engine inputs must be pure product states"
        )
    return ProductState(m)


def affine_ratio_separable(x, y, tol: float = DEFAULT_TOL) -> RatioResult:
    """Certified interval for the affine ratio on the separable set.

    hi is Tr(xy): the full-space minimizer rho -> Tr(x rho), the witness,
    stays feasible on the smaller space, so the separable infimum can only
    be lower.  lo is the bound actually certified: 1 when x == y (forced by
    f(x) = 1), else 0.
    """
    mx = product_state(x, tol, "x").matrix
    my = product_state(y, tol, "y").matrix
    hi = min(1.0, max(0.0, float(np.real(np.trace(mx @ my)))))
    lo = 1.0 if float(np.max(np.abs(mx - my))) <= tol else 0.0
    return RatioResult(lo=lo, hi=hi, witness=mx,
                       detail={"upper_bound_formula": "Tr(xy) on the full space"})


def affine_ratio(h: StateSpaceHandle, x, y, tol: float = DEFAULT_TOL) -> RatioResult:
    """The engine for ``h``'s kind; ``tol`` reaches the matrix engines."""
    if h.kind == KIND_VPOLYTOPE:
        return affine_ratio_polytope(h.payload, x, y)
    if h.kind == KIND_BLOCH:
        return affine_ratio_bloch(x, y)
    if h.kind == KIND_FULL_QUANTUM:
        return affine_ratio_quantum(x, y, tol)
    if h.kind == KIND_SEPARABLE:
        return affine_ratio_separable(x, y, tol)
    raise PreconditionError(f"unknown state-space kind {h.kind!r}")


def is_orthogonal(h: StateSpaceHandle, x, y, tol: float = DEFAULT_TOL) -> bool:
    """Transition probability zero (exactly, where the engine is exact)."""
    r = affine_ratio(h, x, y, tolerance(tol))
    if isinstance(r.hi, Fraction):
        return r.hi == 0
    return float(r.hi) <= tol


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
                           tol: float = DEFAULT_TOL) -> SuperposabilityCertificate:
    """Look for an extreme z with both transition probabilities 1/2.

    Preconditions: x, y extreme and orthogonal in h.  Closed-form engines
    accept 1/2 within 1e-8; the rational polytope engine requires 1/2
    exactly.  The separable engine certifies absence via the overlap-square
    identity described in the module docstring.  ``tol`` validates the
    matrix states and the orthogonality.
    """
    if h.kind == KIND_SEPARABLE:
        x, y = product_state(x, tol, "x"), product_state(y, tol, "y")
    if not is_orthogonal(h, x, y, tol):
        raise PreconditionError("superposability search needs orthogonal inputs")
    if h.kind == KIND_VPOLYTOPE:
        return _superposable_polytope(h.payload, x, y)
    if h.kind == KIND_BLOCH:
        return _superposable_bloch(x, y)
    if h.kind == KIND_FULL_QUANTUM:
        return _superposable_full_quantum(x, y, tol)
    if h.kind == KIND_SEPARABLE:
        return _superposable_separable(x, y, tol)
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


def _superposable_full_quantum(x, y, tol: float) -> SuperposabilityCertificate:
    mx = linalg.require_rank1_projection(x, tol=tol, what="x")
    my = linalg.require_rank1_projection(y, tol=tol, what="y")
    vx = linalg.top_eigenvector(mx)
    vy = linalg.top_eigenvector(my)
    z = linalg.projector(vx + vy)
    rxz = affine_ratio_quantum(mx, z, tol).value
    ryz = affine_ratio_quantum(my, z, tol).value
    found = abs(rxz - 0.5) <= 1e-8 and abs(ryz - 0.5) <= 1e-8
    return SuperposabilityCertificate(
        found=found, z=z, ratio_xz=rxz, ratio_yz=ryz,
        transcript={"construction": "projector onto (|x> + |y>)/sqrt(2)"},
    )


def overlap_square_surface(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """s(a, c) = a + c - 2ac, the sum of the two transition-probability
    upper bounds a*b + c*d after substituting b = 1-c, d = 1-a."""
    return a + c - 2.0 * a * c


SURFACE_IDENTITY = "1 - (a + c - 2ac) = (1 - a)(1 - c) + ac"
# Both right-hand terms are >= 0 on [0,1]^2 and vanish together only here.
SURFACE_MAXIMISERS = ((0.0, 1.0), (1.0, 0.0))


def _superposable_separable(x, y, tol: float) -> SuperposabilityCertificate:
    """Certify that no product state z has both ratios 1/2.

    Requires x, y orthogonal in BOTH factors (which covers pairs like
    |01>,|10> and |00>,|11>).  Writing a = Tr(x_A z_A), c = Tr(y_B z_B),
    the two full-space ratios are a(1-c) and (1-a)c; each upper-bounds the
    separable ratio, so a pair of 1/2s forces a + c - 2ac >= 1.  The
    identity SURFACE_IDENTITY proves max = 1, attained only at the corners
    (0,1), (1,0); at each one bound (hence one separable ratio) is 0.
    """
    px, py = product_state(x, tol, "x"), product_state(y, tol, "y")
    mx, my = px.matrix, py.matrix
    (xa, xb), (ya, yb) = px.factors, py.factors
    tol = max(tol, 1e-10)
    oa = float(np.real(np.trace(xa @ ya)))
    ob = float(np.real(np.trace(xb @ yb)))
    if oa > tol or ob > tol:
        raise PreconditionError(
            "separable superposability engine needs inputs orthogonal in both "
            f"factors; factor overlaps are {oa:.3e} (A) and {ob:.3e} (B)"
        )

    # At the corner (a, c) = (0, 1) the product state z has z_A = y_A and
    # z_B = y_B, so z = y; at (1, 0) it is x.  Verify with the full complex
    # states that one transition probability vanishes there.
    corner_reports = []
    for (a_val, c_val), z in zip(SURFACE_MAXIMISERS, (my, mx)):
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


# ---------------------------------------------------------------------------
# Norm-continuous paths of product states
# ---------------------------------------------------------------------------

def qubit_great_circle(p: np.ndarray, q: np.ndarray, steps: int) -> np.ndarray:
    """Pure-state path from qubit projector p to q along the Bloch great
    circle, with `steps` segments, as a (steps + 1, 2, 2) array; endpoints
    are the inputs themselves."""
    if steps < 1:
        raise PreconditionError(f"steps must be >= 1, got {steps}")
    a = linalg.bloch_vector(p)
    b = linalg.bloch_vector(q)
    dot = float(np.clip(a @ b, -1.0, 1.0))
    theta = math.acos(dot)
    if theta < 1e-12:
        return np.repeat(p[None], steps + 1, axis=0)
    # acos is ill-conditioned at -1: antipodal vectors a few ulps off give
    # theta ~ pi - 1e-8, where b - dot * a is rounding noise, not a direction.
    if math.pi - theta < 1e-6:
        ortho = _perp_unit(a)
    else:
        ortho = b - dot * a
        ortho = ortho / float(np.sqrt(ortho @ ortho))
    ang = theta * np.arange(1, steps) / steps
    n = np.cos(ang)[:, None] * a + np.sin(ang)[:, None] * ortho
    # Row-wise n . n through matmul: the same dot kernel as a single n @ n.
    n = n / np.sqrt(n[:, None] @ n[:, :, None])[:, 0]
    nrm = np.linalg.norm(n, axis=1)
    if not np.all(np.abs(nrm - 1.0) <= 1e-10):
        raise PreconditionError(f"Bloch vectors must be unit length, |n| = {nrm!r}")
    c = n[:, :, None, None]
    inner = 0.5 * (linalg.IDENT2 + c[:, 0] * linalg.PAULI_X + c[:, 1] * linalg.PAULI_Y
                   + c[:, 2] * linalg.PAULI_Z)
    return np.concatenate([p[None], inner, q[None]])


def path_connect_product_states(x, y, steps: int = 64) -> np.ndarray:
    """Norm-continuous path of pure product states from x to y, as a
    (2 * steps + 1, 4, 4) array.

    Two legs: rotate the A factor with B frozen, then the B factor with A
    frozen.  On each leg the difference of consecutive states factorizes as
    (f(t) - f(t')) tensor P with P a projector, and the Hilbert-Schmidt
    norm is multiplicative, so consecutive distances equal the single-qubit
    factor distances.  Endpoints are exactly the inputs.
    """
    px, py = product_state(x, 1e-10, "x"), product_state(y, 1e-10, "y")
    (xa, xb), (ya, yb) = px.factors, py.factors
    fa = np.concatenate([qubit_great_circle(xa, ya, steps),
                         np.broadcast_to(ya, (steps, 2, 2))])
    fb = np.concatenate([np.broadcast_to(xb, (steps + 1, 2, 2)),
                         qubit_great_circle(xb, yb, steps)[1:]])
    # np.kron's outer product, state by state: path[n] = fa[n] (x) fb[n]
    path = (fa[:, :, None, :, None] * fb[:, None, :, None, :]).reshape(-1, 4, 4)
    path[0], path[-1] = px.matrix, py.matrix
    return path


def path_report(path: np.ndarray) -> dict:
    """Summary of a product-state path: consecutive distances and the
    factor-distance identity (checked from the states themselves)."""
    states = np.asarray(path, dtype=complex)
    dists = linalg.hs_norm(np.diff(states, axis=0))
    da = linalg.hs_norm(np.diff(linalg.partial_trace(states, "B", validate=False), axis=0))
    db = linalg.hs_norm(np.diff(linalg.partial_trace(states, "A", validate=False), axis=0))
    # On each leg exactly one factor moves; the moving factor's distance
    # must reproduce the full distance (HS norm multiplicativity).
    identity_dev = np.abs(dists - np.maximum(da, db))
    return {
        "points": len(states),
        "max_consecutive_distance": float(np.max(dists, initial=0.0)),
        "factor_identity_deviation": float(np.max(identity_dev, initial=0.0)),
    }
