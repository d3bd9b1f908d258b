"""Model zoo: example state spaces and oracles for the separable set.

Polytope models
    make_spekkens_hull     six-outcome toy-theory hull: the cross-polytope
                           conv{+-e1, +-e2, +-e3}
    make_classical_simplex standard n-simplex conv{0, e1, ..., en}
    make_square            conv{(+-1,0), (0,+-1)}

Separable two-qubit set
    membership is the partial-transpose test, which is exact (necessary and
    sufficient) at 2x2; linear functionals are maximized over pure product
    states by a see-saw ascent cross-checked against a grid oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import PreconditionError
from .polytope import VPolytope

SPEKKENS_VERTEX_NAMES = ("e1", "-e1", "e2", "-e2", "e3", "-e3")

# How far below zero an eigenvalue may dip and still count as positive
# semidefinite.
PSD_SLACK = 1e-10


def make_spekkens_hull() -> VPolytope:
    return VPolytope(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        name="spekkens",
    )


def make_classical_simplex(n: int) -> VPolytope:
    if n < 1:
        raise PreconditionError(f"simplex dimension must be >= 1, got {n}")
    verts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        v = [Fraction(0)] * n
        v[i] = Fraction(1)
        verts.append(tuple(v))
    return VPolytope(verts, name=f"simplex:{n}")


def make_square() -> VPolytope:
    return VPolytope([(1, 0), (0, 1), (-1, 0), (0, -1)], name="square")


# ---------------------------------------------------------------------------
# Product states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductStateParam:
    """A pure product state of two qubits, as a pair of unit Bloch vectors."""

    bloch_a: tuple[float, float, float]
    bloch_b: tuple[float, float, float]

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        return (linalg.bloch_projector(self.bloch_a),
                linalg.bloch_projector(self.bloch_b))

    def density(self) -> np.ndarray:
        ea, fb = self.factors()
        return linalg.tensor(ea, fb)


def _unit(v: np.ndarray) -> tuple[float, float, float]:
    n = float(np.sqrt(v @ v))
    if n == 0.0:
        return (0.0, 0.0, 1.0)
    return tuple(float(x) for x in v / n)


def sample_pure_product(rng: np.random.Generator) -> ProductStateParam:
    """Uniform (Haar per factor) pure product state."""
    return ProductStateParam(_unit(rng.normal(size=3)), _unit(rng.normal(size=3)))


def separable_membership(rho, tol: float = PSD_SLACK) -> bool:
    """Exact separability test for two qubits: valid state + positive
    partial transpose."""
    m = linalg.as_matrix(rho)
    if m.shape != (4, 4):
        raise PreconditionError(f"expected a 4x4 two-qubit state, got {m.shape}")
    if not linalg.is_density(m, tol=max(tol, 1e-10)):
        return False
    return linalg.min_eigenvalue(linalg.partial_transpose(m, "B")) >= -tol


# ---------------------------------------------------------------------------
# Linear optimization over pure product states
# ---------------------------------------------------------------------------

def _pauli_contraction(w: np.ndarray) -> np.ndarray:
    """Real 4x4 coefficient matrix C with
    Tr[W (E_a x F_b)] = m(a)^T C m(b),  m(v) = (1, v1, v2, v3),
    for pure qubit states E_a, F_b with Bloch vectors a, b."""
    sig = (linalg.IDENT2,) + linalg.PAULIS
    c = np.empty((4, 4))
    for mu in range(4):
        for nu in range(4):
            c[mu, nu] = float(np.real(np.trace(w @ linalg.tensor(sig[mu], sig[nu])))) / 4.0
    return c


def product_value(w, param: ProductStateParam) -> float:
    """Tr[W (E_a x F_b)] for a pure product state."""
    wm = linalg.require_hermitian(w, what="functional")
    return float(np.real(np.trace(wm @ param.density())))


@dataclass(frozen=True)
class SeeSawResult:
    value: float
    argmax: ProductStateParam
    upper_bound: float       # largest eigenvalue of W over ALL states
    tight: bool              # product maximum meets the global bound
    starts: int
    best_start: int
    iterations: int


def maximize_linear_over_separable(w, starts: int = 16, seed: int = 0) -> SeeSawResult:
    """Maximize Tr(W rho) over pure product states by see-saw ascent.

    With one Bloch vector fixed the objective is affine in the other, so
    the optimal partner factor is the top eigenvector of the contracted
    single-qubit operator; in Bloch coordinates that eigenprojector is
    (I + v_hat.sigma)/2 where v is the contraction, which is what the
    update computes.  Each alternating step can only increase the value.

    The product maximum is also the separable maximum (the objective is
    linear and pure products are the extreme points).  Multiple seeded
    starts are merged best-value-first, ties to the lowest start index.
    """
    if starts < 1:
        raise PreconditionError(f"starts must be >= 1, got {starts}")
    wm = linalg.require_hermitian(w, what="functional")
    c = _pauli_contraction(wm)
    best_val, best_param, best_start, best_iters = -math.inf, None, -1, 0
    for s in range(starts):
        rng = np.random.default_rng([int(seed), s])
        p = sample_pure_product(rng)
        a = np.array(p.bloch_a)
        b = np.array(p.bloch_b)
        val = float(np.array([1.0, *a]) @ c @ np.array([1.0, *b]))
        iters = 0
        for _ in range(500):
            iters += 1
            va = c @ np.array([1.0, *b])
            if float(va[1:] @ va[1:]) > 0.0:
                a = va[1:] / float(np.sqrt(va[1:] @ va[1:]))
            vb = c.T @ np.array([1.0, *a])
            if float(vb[1:] @ vb[1:]) > 0.0:
                b = vb[1:] / float(np.sqrt(vb[1:] @ vb[1:]))
            new_val = float(np.array([1.0, *a]) @ c @ np.array([1.0, *b]))
            if abs(new_val - val) < 1e-12:
                val = new_val
                break
            val = new_val
        if val > best_val:
            best_val, best_param = val, ProductStateParam(_unit(a), _unit(b))
            best_start, best_iters = s, iters
    ub = float(linalg.eigvalsh(wm)[-1])
    return SeeSawResult(
        value=best_val, argmax=best_param, upper_bound=ub,
        tight=abs(best_val - ub) <= 1e-8, starts=starts,
        best_start=best_start, iterations=best_iters,
    )


def _angles_to_bloch(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(..., ) angle arrays -> (..., 3) Bloch vectors."""
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def grid_maximize_over_product(w, coarse: int = 50, refine_rounds: int = 20):
    """Brute-force grid oracle for the product-state maximum of Tr(W rho).

    Scans the full coarse^4 grid of Bloch angles (theta_a, phi_a, theta_b,
    phi_b), then repeatedly rescans a shrinking local angle window around
    the best point.  Pure sampling, no eigenvector steps: independent of
    the see-saw route.  Deterministic.
    """
    wm = linalg.require_hermitian(w, what="functional")
    c = _pauli_contraction(wm)

    def scan(th_a, ph_a, th_b, ph_b):
        """Evaluate all combinations of the four angle grids; return the
        best value and its angle 4-tuple."""
        ba = _angles_to_bloch(*np.meshgrid(th_a, ph_a, indexing="ij"))
        bb = _angles_to_bloch(*np.meshgrid(th_b, ph_b, indexing="ij"))
        ma = np.concatenate([np.ones(ba.shape[:-1] + (1,)), ba], axis=-1).reshape(-1, 4)
        mb = np.concatenate([np.ones(bb.shape[:-1] + (1,)), bb], axis=-1).reshape(-1, 4)
        vals = ma @ c @ mb.T
        flat = int(np.argmax(vals))
        ia, ib = divmod(flat, mb.shape[0])
        best = (
            th_a[ia // len(ph_a)], ph_a[ia % len(ph_a)],
            th_b[ib // len(ph_b)], ph_b[ib % len(ph_b)],
        )
        return float(vals.flat[flat]), best

    th = np.linspace(0.0, math.pi, coarse)
    ph = np.linspace(0.0, 2.0 * math.pi, coarse, endpoint=False)
    value, center = scan(th, ph, th, ph)
    win_t, win_p = math.pi / coarse, 2.0 * math.pi / coarse
    pts = 9
    for _ in range(refine_rounds):
        th_a = np.linspace(center[0] - win_t, center[0] + win_t, pts)
        ph_a = np.linspace(center[1] - win_p, center[1] + win_p, pts)
        th_b = np.linspace(center[2] - win_t, center[2] + win_t, pts)
        ph_b = np.linspace(center[3] - win_p, center[3] + win_p, pts)
        value, center = scan(th_a, ph_a, th_b, ph_b)
        win_t *= 0.35
        win_p *= 0.35
    param = ProductStateParam(
        tuple(float(x) for x in _angles_to_bloch(np.array(center[0]), np.array(center[1]))),
        tuple(float(x) for x in _angles_to_bloch(np.array(center[2]), np.array(center[3]))),
    )
    return value, param


class SeparableTwoQubits:
    """Oracle view of the separable two-qubit state space.

    Extreme points are the pure product states; membership and linear
    maximization are delegated to the module-level oracles.
    """

    dims = (2, 2)

    def contains(self, rho, tol: float = PSD_SLACK) -> bool:
        return separable_membership(rho, tol=tol)

    def maximize_linear(self, w, starts: int = 16, seed: int = 0) -> SeeSawResult:
        return maximize_linear_over_separable(w, starts=starts, seed=seed)

    def sample_extreme(self, rng: np.random.Generator) -> ProductStateParam:
        return sample_pure_product(rng)
