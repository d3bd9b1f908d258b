"""Model zoo: example state spaces and oracles for the separable set.

Polytope models
    make_spekkens_hull     six-outcome toy-theory hull: the cross-polytope
                           conv{+-e1, +-e2, +-e3}
    make_classical_simplex standard n-simplex conv{0, e1, ..., en}

Separable two-qubit set
    membership is the partial-transpose test, which is exact (necessary and
    sufficient) at 2x2; linear functionals are maximized over pure product
    states by a see-saw ascent, which returns its maximizer as the pair
    (a, b) of unit Bloch vectors.  The state itself is
    linalg.tensor(linalg.bloch_projector(a), linalg.bloch_projector(b)),
    the one way the package builds a pure product state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import tolerance
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
    verts = [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return VPolytope(verts, name=f"simplex:{n}")


def separable_membership(rho, tol: float = PSD_SLACK) -> bool:
    """Exact separability test for two qubits: valid state + positive
    partial transpose."""
    m = linalg.as_matrix(rho)
    if m.shape != (4, 4):
        raise PreconditionError(f"expected a 4x4 two-qubit state, got {m.shape}")
    if not linalg.is_density(m, tol=max(tolerance(tol), 1e-10)):
        return False
    return linalg.min_eigenvalue(linalg.partial_transpose(m, "B")) >= -tol


# ---------------------------------------------------------------------------
# Linear optimization over pure product states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeeSawResult:
    value: float
    argmax: tuple[np.ndarray, np.ndarray]   # unit Bloch vectors (a, b)
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
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    wm = linalg.require_hermitian(w, what="functional")
    # Tr[W (E_a (x) F_b)] = m(a)^T c m(b), m(v) = (1, v), for pure qubit
    # states E_a, F_b with Bloch vectors a, b.
    c = linalg.pauli_coefficients(wm) / 4.0
    best_val, best_param, best_start, best_iters = -math.inf, None, -1, 0
    for s in range(starts):
        a, b = (v / float(np.sqrt(v @ v))
                for v in np.random.default_rng([int(seed), s]).normal(size=(2, 3)))
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
            best_val, best_param = val, tuple(v / float(np.sqrt(v @ v)) for v in (a, b))
            best_start, best_iters = s, iters
    ub = float(linalg.eigvalsh(wm)[-1])
    return SeeSawResult(
        value=best_val, argmax=best_param, upper_bound=ub,
        tight=abs(best_val - ub) <= 1e-8, starts=starts,
        best_start=best_start, iterations=best_iters,
    )
