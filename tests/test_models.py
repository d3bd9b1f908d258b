"""Model zoo: polytope constructors, the separable two-qubit set, and the
see-saw product-state maximizer, checked against a test-side oracle."""

import numpy as np
import pytest

from convexstate import linalg
from convexstate.errors import PreconditionError
from convexstate.models import (ProductStateParam, make_classical_simplex,
                                make_spekkens_hull,
                                maximize_linear_over_separable,
                                sample_pure_product, separable_membership)
from shapes import barycenter, make_square


def random_hermitian4(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return 0.5 * (m + m.conj().T)


def product_maximum_oracle(w, points: int = 4000) -> float:
    """A product-state value of Tr(W rho) near the maximum, attained.

    With C[mu, nu] = Tr[W (s_mu x s_nu)] / 4 and m(v) = (1, v), the value at
    Bloch vectors a, b is m(a)^T C m(b).  For fixed a it is affine in b, so
    its maximum over unit b is exactly u_0 + |u_1:| with u = C^T m(a).  Only
    a is sampled, on a Fibonacci lattice of the sphere.
    """
    sig = (np.eye(2), linalg.PAULI_X, linalg.PAULI_Y, linalg.PAULI_Z)
    c = np.array([[np.real(np.trace(w @ np.kron(s, t))) for t in sig] for s in sig]) / 4
    i = np.arange(points) + 0.5
    z = 1.0 - 2.0 * i / points
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    r = np.sqrt(1.0 - z * z)
    u = np.column_stack([np.ones(points), r * np.cos(phi), r * np.sin(phi), z]) @ c
    return float(np.max(u[:, 0] + np.linalg.norm(u[:, 1:], axis=1)))


EPR = linalg.projector(linalg.ket("01") - linalg.ket("10"))


# ---------------------------------------------------------------------------
# Polytope constructors
# ---------------------------------------------------------------------------

def test_spekkens_vertices_in_order():
    k = make_spekkens_hull()
    assert k.name == "spekkens"
    assert [tuple(int(c) for c in v) for v in k.vertices] == [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_classical_simplex_shape(n):
    k = make_classical_simplex(n)
    assert k.name == f"simplex:{n}"
    assert len(k.vertices) == n + 1
    assert k.ambient_dim == n
    assert k.contains(barycenter(k.vertices))


def test_square_shape():
    k = make_square()
    assert len(k.vertices) == 4
    assert k.ambient_dim == 2


# ---------------------------------------------------------------------------
# Separable membership
# ---------------------------------------------------------------------------

def test_product_states_are_separable():
    rng = np.random.default_rng(51)
    for _ in range(10):
        assert separable_membership(sample_pure_product(rng).density())


def test_mixtures_of_products_are_separable():
    rng = np.random.default_rng(52)
    for _ in range(10):
        parts = [sample_pure_product(rng).density() for _ in range(4)]
        w = rng.dirichlet(np.ones(4))
        rho = sum(wi * p for wi, p in zip(w, parts))
        assert separable_membership(rho)


def test_epr_not_separable():
    assert not separable_membership(EPR)


def test_werner_threshold():
    # w * EPR + (1 - w) * I/4 has partial-transpose minimum eigenvalue
    # (1 - 3w)/4: separable exactly up to w = 1/3 at two qubits.
    for w, expected in [(0.0, True), (0.3, True), (1 / 3, True),
                        (0.35, False), (0.8, False)]:
        rho = w * EPR + (1 - w) * np.eye(4) / 4
        assert separable_membership(rho) is expected


def test_membership_rejects_nondensity():
    assert not separable_membership(np.diag([2.0, -1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# Product parameterization
# ---------------------------------------------------------------------------

def test_product_param_density():
    p = ProductStateParam((0, 0, 1), (0, 0, -1))
    assert np.max(np.abs(p.density() - linalg.projector(linalg.ket("01")))) <= 1e-14


def test_sample_pure_product_deterministic():
    a = sample_pure_product(np.random.default_rng(9))
    b = sample_pure_product(np.random.default_rng(9))
    assert a == b


# ---------------------------------------------------------------------------
# See-saw maximizer
# ---------------------------------------------------------------------------

def test_seesaw_epr_value():
    res = maximize_linear_over_separable(EPR, starts=8, seed=0)
    assert abs(res.value - 0.5) <= 1e-9
    assert abs(res.upper_bound - 1.0) <= 1e-10
    assert not res.tight


def test_seesaw_bounded_by_operator_norm():
    rng = np.random.default_rng(54)
    for _ in range(10):
        w = random_hermitian4(rng)
        res = maximize_linear_over_separable(w, starts=4, seed=1)
        assert res.value <= res.upper_bound + 1e-9
        assert abs(np.real(np.trace(w @ res.argmax.density())) - res.value) <= 1e-12


def test_seesaw_product_target_is_tight():
    w = linalg.tensor(linalg.projector(linalg.ket("0")),
                      linalg.projector(linalg.ket("+")))
    res = maximize_linear_over_separable(w, starts=8, seed=0)
    assert abs(res.value - 1.0) <= 1e-9
    assert res.tight


def test_seesaw_identity():
    res = maximize_linear_over_separable(np.eye(4), starts=2, seed=0)
    assert abs(res.value - 1.0) <= 1e-12


def test_seesaw_rejects_negative_seed():
    with pytest.raises(PreconditionError, match="seed must be non-negative"):
        maximize_linear_over_separable(EPR, starts=2, seed=-1)


def test_seesaw_deterministic_given_seed():
    rng = np.random.default_rng(55)
    w = random_hermitian4(rng)
    r1 = maximize_linear_over_separable(w, starts=6, seed=3)
    r2 = maximize_linear_over_separable(w, starts=6, seed=3)
    assert r1.value == r2.value
    assert r1.best_start == r2.best_start


def test_seesaw_vs_grid():
    # The oracle's value is attained, so the see-saw may not fall below it;
    # the grid over a leaves it at most a small gap under the maximum.
    rng = np.random.default_rng(56)
    for _ in range(20):
        w = random_hermitian4(rng)
        see = maximize_linear_over_separable(w, starts=8, seed=0).value
        oracle = product_maximum_oracle(w)
        assert oracle - 1e-9 <= see <= oracle + 2e-3


def test_grid_epr_value():
    # For the singlet every a reaches 1/2, at b = -a.
    assert abs(product_maximum_oracle(EPR) - 0.5) <= 1e-12
