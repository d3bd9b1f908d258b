"""Kernel checks against independent oracles.

The library computes eigensystems with numpy.linalg (LAPACK's divide and
conquer drivers), so eigenvalues are checked against scipy.linalg (the
relatively robust representation drivers) and eigenvectors by their own
residuals ||Av - lambda v|| and ||V^H V - I||.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from convexstate import linalg
from convexstate.errors import PreconditionError


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def random_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Kets, projectors, Jordan product
# ---------------------------------------------------------------------------

def test_ket_labels():
    assert np.allclose(linalg.ket("0"), [1, 0])
    assert np.allclose(linalg.ket("1"), [0, 1])
    assert np.allclose(linalg.ket("+"), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert np.allclose(linalg.ket("-"), [1 / np.sqrt(2), -1 / np.sqrt(2)])
    assert np.allclose(linalg.ket("01"), [0, 1, 0, 0])
    assert np.allclose(linalg.ket("10"), [0, 0, 1, 0])


def test_ket_rejects_unknown_symbol():
    with pytest.raises(PreconditionError):
        linalg.ket("02")


def test_projector_is_rank1_idempotent():
    p = linalg.projector(linalg.ket("+-"))
    assert np.allclose(p @ p, p, atol=1e-14)
    assert abs(np.trace(p) - 1) < 1e-14
    linalg.require_rank1_projection(p)
    with pytest.raises(PreconditionError, match="not a rank-1 projection"):
        linalg.require_rank1_projection(np.eye(2) / 2)


def test_jordan_product_example():
    a = np.diag([1.0, 0.0])
    b = linalg.PAULI_X
    expected = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(linalg.jordan_product(a, b), expected, atol=1e-14)


def test_jordan_product_commutative_and_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        ab = linalg.jordan_product(a, b)
        assert np.allclose(ab, linalg.jordan_product(b, a), atol=1e-12)
        assert np.allclose(ab, ab.conj().T, atol=1e-12)


def test_require_hermitian_symmetrizes_and_rejects():
    almost = np.array([[1.0, 1e-14], [0.0, 2.0]])
    out = linalg.require_hermitian(almost)
    assert np.allclose(out, out.conj().T, atol=0)
    with pytest.raises(PreconditionError):
        linalg.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Eigensolver vs scipy and its own residuals
# ---------------------------------------------------------------------------

def assert_eigensystem(h, w, v, tol=1e-10):
    """Residual checks that need no reference solver: every column is an
    eigenvector for its eigenvalue, and the columns are orthonormal."""
    n = h.shape[0]
    scale = 1 + linalg.hs_norm(h)
    assert np.max(np.linalg.norm(h @ v - v * w, axis=0)) <= tol * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= tol
    assert np.all(np.diff(w) >= 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_eigvalsh_matches_numpy(n):
    # Reference: scipy.linalg.eigvalsh, independent of the numpy call under test.
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        h = random_hermitian(rng, n)
        mine = linalg.eigvalsh(h)
        ref = scipy.linalg.eigvalsh(h)
        assert np.max(np.abs(mine - ref)) <= 1e-10 * (1 + np.abs(ref).max())


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_eigh_reconstructs(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(8):
        h = random_hermitian(rng, n)
        w, v = linalg.eigh(h)
        scale = 1 + linalg.hs_norm(h)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) <= 1e-10 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10
        assert_eigensystem(h, w, v)
        assert np.max(np.abs(w - scipy.linalg.eigh(h, eigvals_only=True))) <= 1e-10 * scale


def test_eigh_degenerate_spectra():
    cases = [
        np.eye(4),
        np.diag([2.0, 2.0, 1.0, 1.0]),
        linalg.tensor(linalg.PAULI_X, linalg.IDENT2),
        linalg.projector(linalg.ket("01") - linalg.ket("10")),
    ]
    for h in cases:
        w, v = linalg.eigh(h)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(h.shape[0]))) <= 1e-10
        assert_eigensystem(h, w, v)


@pytest.mark.parametrize("n", [8, 16])
def test_eigh_residuals_at_larger_sizes(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(4):
        h = random_hermitian(rng, n)
        w, v = linalg.eigh(h)
        assert_eigensystem(h, w, v)
        ref = scipy.linalg.eigvalsh(h)
        assert np.max(np.abs(linalg.eigvalsh(h) - ref)) <= 1e-10 * (1 + np.abs(ref).max())


def test_eigensolver_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        linalg.eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(PreconditionError):
        linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_extremal_eigen_helpers():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = random_hermitian(rng, 4)
        ref = scipy.linalg.eigvalsh(h)
        assert abs(linalg.min_eigenvalue(h) - ref[0]) <= 1e-10
        assert abs(linalg.operator_norm(h) - np.abs(ref).max()) <= 1e-10
        vec = linalg.top_eigenvector(h)
        assert np.linalg.norm(h @ vec - ref[-1] * vec) <= 1e-8


# ---------------------------------------------------------------------------
# Partial trace and partial transpose
# ---------------------------------------------------------------------------

def test_partial_trace_product_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(10):
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 2)
        prod = linalg.tensor(r1, r2)
        assert np.max(np.abs(linalg.partial_trace(prod, "B") - r1)) <= 1e-12
        assert np.max(np.abs(linalg.partial_trace(prod, "A") - r2)) <= 1e-12


def test_partial_trace_preserves_trace_and_positivity():
    rng = np.random.default_rng(32)
    for _ in range(10):
        rho = random_density(rng, 4)
        for side in ("A", "B"):
            red = linalg.partial_trace(rho, side)
            assert abs(np.trace(red).real - 1) <= 1e-12
            assert scipy.linalg.eigvalsh(red)[0] >= -1e-12


def test_partial_trace_epr_is_maximally_mixed():
    epr = linalg.projector(linalg.ket("01") - linalg.ket("10"))
    for side in ("A", "B"):
        assert np.max(np.abs(linalg.partial_trace(epr, side) - np.eye(2) / 2)) <= 1e-14


def test_partial_transpose_involution_and_product():
    rng = np.random.default_rng(33)
    for _ in range(10):
        rho = random_density(rng, 4)
        for side in ("A", "B"):
            pt = linalg.partial_transpose(rho, side)
            assert np.max(np.abs(linalg.partial_transpose(pt, side) - rho)) <= 1e-14
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 2)
        prod = linalg.tensor(r1, r2)
        assert np.max(np.abs(linalg.partial_transpose(prod, "B")
                             - linalg.tensor(r1, r2.T))) <= 1e-14


def test_partial_transpose_epr_negative():
    epr = linalg.projector(linalg.ket("01") - linalg.ket("10"))
    w = scipy.linalg.eigvalsh(linalg.partial_transpose(epr, "B"))
    assert abs(w[0] + 0.5) <= 1e-12


@pytest.mark.parametrize("n", [3, 8])
def test_partial_maps_reject_non_two_qubit_sizes(n):
    rho = np.eye(n) / n
    with pytest.raises(PreconditionError, match=f"dimension {n} does not factor as 2x2"):
        linalg.partial_trace(rho, "A")
    with pytest.raises(PreconditionError, match=f"dimension {n} does not factor as 2x2"):
        linalg.partial_transpose(rho, "B")


# ---------------------------------------------------------------------------
# Norms, Bloch coordinates, densities
# ---------------------------------------------------------------------------

def test_hs_norm_matches_numpy():
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert abs(linalg.hs_norm(m) - np.linalg.norm(m)) <= 1e-12


def test_stacked_hs_norm_and_partial_trace_match_per_matrix():
    rng = np.random.default_rng(43)
    stack = np.stack([random_density(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
    flat = stack.reshape(6, 4, 4)
    norms = linalg.hs_norm(stack)
    assert norms.shape == (2, 3)
    assert np.array_equal(norms.reshape(6), [linalg.hs_norm(m) for m in flat])
    for side in "AB":
        traced = linalg.partial_trace(stack, side, validate=False)
        assert traced.shape == (2, 3, 2, 2)
        assert np.array_equal(traced.reshape(6, 2, 2),
                              [linalg.partial_trace(m, side) for m in flat])


# ---------------------------------------------------------------------------
# Pauli coefficients
# ---------------------------------------------------------------------------

def _kron_paulis():
    return [[np.kron(p, q) for q in linalg.PAULI4] for p in linalg.PAULI4]


def test_pauli_coefficients_round_trip():
    rng = np.random.default_rng(75)
    rho = 2 * random_hermitian(rng, 4)
    c = linalg.pauli_coefficients(rho)
    back = sum(c[i, j] * pp for i, row in enumerate(_kron_paulis()) for j, pp in enumerate(row))
    assert np.max(np.abs(back / 4 - rho)) <= 1e-14
    assert abs(np.sum(c * c) / 4 - linalg.hs_norm(rho) ** 2) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_pauli_coefficients_match_sixteen_traces(seed):
    # Tr[W (E_a (x) F_b)] = m(a)^T (C / 4) m(b), the see-saw's contraction,
    # by its plain definition: one trace per pair of Paulis.
    w = random_hermitian(np.random.default_rng([76, seed]), 4)
    plain = np.array([[np.real(np.trace(w @ pp)) / 4.0 for pp in row] for row in _kron_paulis()])
    assert np.max(np.abs(linalg.pauli_coefficients(w) / 4 - plain)) <= 1e-15


def test_bloch_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        back = linalg.bloch_vector(linalg.bloch_projector(v))
        assert np.max(np.abs(back - v)) <= 1e-12


def test_bloch_projector_requires_unit_vector():
    with pytest.raises(PreconditionError):
        linalg.bloch_projector(np.array([0.0, 0.0, 0.5]))


def test_density_validation():
    assert linalg.is_density(np.eye(2) / 2)
    assert not linalg.is_density(np.diag([1.5, -0.5]))
    with pytest.raises(PreconditionError):
        linalg.require_density(np.diag([2.0, -1.0]))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_is_density_rejects_a_bad_tolerance(tol):
    # A valid state with a bad tolerance is a usage error, not "not a state".
    with pytest.raises(PreconditionError, match="tolerance must be finite"):
        linalg.is_density(np.eye(4) / 4, tol=tol)


_NONFINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("bad", _NONFINITE)
def test_validators_reject_nonfinite_matrices(bad):
    # A comparison with NaN is False, so each check must fail unless it holds.
    for at in ((0, 0), (0, 1)):
        m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        m[at] = bad
        for check in (linalg.require_hermitian, linalg.require_density,
                      linalg.require_rank1_projection):
            with pytest.raises(PreconditionError):
                check(m)


@pytest.mark.parametrize("bad", _NONFINITE)
def test_bloch_projector_rejects_nonfinite_vectors(bad):
    with pytest.raises(PreconditionError):
        linalg.bloch_projector(np.array([bad, 0.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_eigvalsh_sum_is_trace(seed, n):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    w = linalg.eigvalsh(h)
    assert abs(np.sum(w) - np.trace(h).real) <= 1e-9 * (1 + linalg.hs_norm(h))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_jordan_square_psd(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 3)
    sq = linalg.jordan_product(a, a)
    assert scipy.linalg.eigvalsh(sq)[0] >= -1e-10 * (1 + linalg.hs_norm(a) ** 2)
