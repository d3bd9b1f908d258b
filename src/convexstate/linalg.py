"""Dense complex linear algebra for small state spaces.

Conventions used package-wide:

* matrices are numpy ``complex128`` arrays; callers may pass anything
  array-like and get validated arrays back;
* tensor products are laid out in the lexicographic product basis
  |00>, |01>, |10>, |11>, with the FIRST factor as subsystem A;
* Hermitian and density-matrix inputs are validated, never trusted;
* ``hs_norm`` and the unvalidated ``partial_trace`` also take stacks, and
  ``pauli_coefficients`` over ``PAULI4`` is the one two-qubit Pauli table.

Eigensystems come from numpy.linalg (LAPACK's Hermitian solvers), called
only through ``eigvalsh`` and ``eigh`` here, after the input has been
validated and symmetrized by ``require_hermitian``.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

from .config import tolerance
from .errors import PreconditionError

HERMITIAN_ATOL = 1e-12

IDENT2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
PAULI4 = np.stack([IDENT2, *PAULIS])        # P_0..P_3 = I, X, Y, Z

_SINGLE_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
}


def ket(label: str) -> np.ndarray:
    """Product ket from a string of single-qubit symbols, e.g. ket("01"),
    ket("+-").  Symbols: 0, 1, + (= (|0>+|1>)/sqrt2), - (= (|0>-|1>)/sqrt2)."""
    if not label or any(ch not in _SINGLE_KETS for ch in label):
        raise PreconditionError(
            f"unknown ket label {label!r}; use symbols from 01+-"
        )
    vec = _SINGLE_KETS[label[0]]
    for ch in label[1:]:
        vec = np.kron(vec, _SINGLE_KETS[ch])
    return vec


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projector onto a (not necessarily normalized) vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    nrm2 = float(np.real(np.vdot(v, v)))
    if nrm2 <= 0.0:
        raise PreconditionError("cannot project onto the zero vector")
    return np.outer(v, v.conj()) / nrm2


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
    return m


def require_hermitian(a, atol: float = HERMITIAN_ATOL, what: str = "matrix") -> np.ndarray:
    m = as_matrix(a)
    if not np.isfinite(m).all():
        raise PreconditionError(f"{what} has a non-finite entry")
    mh = m.conj().T
    dev = float(np.abs(m - mh).max())
    if dev > atol:
        raise PreconditionError(
            f"{what} is not Hermitian: max |a - a^dagger| = {dev:.3e} > {atol:.1e}"
        )
    # Symmetrize away representation noise so downstream exact identities
    # hold to machine precision.
    return 0.5 * (m + mh)


def jordan_product(a, b) -> np.ndarray:
    """Symmetrized product (ab + ba)/2 of two Hermitian matrices."""
    ma = require_hermitian(a, what="left factor")
    mb = require_hermitian(b, what="right factor")
    if ma.shape != mb.shape:
        raise PreconditionError(
            f"dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}"
        )
    return 0.5 * (ma @ mb + mb @ ma)


def tensor(a, b) -> np.ndarray:
    """Kronecker product in the lexicographic basis (first factor = A)."""
    return np.kron(as_matrix(a), as_matrix(b))


def hs_norm(a) -> np.ndarray:
    """Hilbert-Schmidt (Frobenius) norm over the last two axes: one value
    for a matrix, one per matrix for a stack."""
    m = np.asarray(a, dtype=complex)
    return np.sqrt(np.real(np.sum(m * m.conj(), axis=(-2, -1))))


def hs_distance(a, b) -> float:
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise PreconditionError(
            f"dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}"
        )
    return float(hs_norm(ma - mb))


def _require_two_qubit(m: np.ndarray) -> None:
    if m.shape[-1] != 4:
        raise PreconditionError(
            f"matrix of dimension {m.shape[-1]} does not factor as 2x2"
        )


def partial_trace(rho, subsystem: str, *, validate: bool = True) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator.  ``subsystem`` names
    the factor REMOVED: partial_trace(rho, "A") returns the state of B.
    Unvalidated, ``rho`` may be a stack of matrices, traced one by one."""
    m = as_matrix(rho) if validate else np.asarray(rho, dtype=complex)
    _require_two_qubit(m)
    if validate:
        require_density(m, what="partial_trace input")
    t = m.reshape(*m.shape[:-2], 2, 2, 2, 2)
    if subsystem == "A":
        return np.einsum("...ijik->...jk", t)
    if subsystem == "B":
        return np.einsum("...ijkj->...ik", t)
    raise PreconditionError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def pauli_coefficients(rho) -> np.ndarray:
    """C[..., i, j] = Tr(rho P_i (x) P_j) of Hermitian two-qubit operators
    or stacks of them, with P = ``PAULI4``; rho = sum_ij C[i,j] P_i (x) P_j / 4."""
    t = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    return np.einsum("...aibj,xba,yji->...xy", t, PAULI4, PAULI4).real


def partial_transpose(rho, subsystem: str = "B") -> np.ndarray:
    """Transpose one qubit of a two-qubit operator (the PPT-test map)."""
    m = as_matrix(rho)
    _require_two_qubit(m)
    t = m.reshape(2, 2, 2, 2)
    if subsystem == "A":
        out = t.transpose(2, 1, 0, 3)
    elif subsystem == "B":
        out = t.transpose(0, 3, 2, 1)
    else:
        raise PreconditionError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return out.reshape(4, 4)


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------

def eigvalsh(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(require_hermitian(a))


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition (w ascending, unitary columns v)."""
    w, v = np.linalg.eigh(require_hermitian(a))
    return w, v


def operator_norm(a) -> float:
    """Spectral norm of a Hermitian matrix (largest |eigenvalue|)."""
    return float(np.max(np.abs(eigvalsh(a))))


def min_eigenvalue(a) -> float:
    return float(eigvalsh(a)[0])


def top_eigenvector(a) -> np.ndarray:
    """Unit eigenvector for the largest eigenvalue."""
    return eigh(a)[1][:, -1].copy()


# ---------------------------------------------------------------------------
# State validation
# ---------------------------------------------------------------------------

def is_density(rho, tol: float = 1e-10) -> bool:
    """Whether rho is a density matrix; a bad ``tol`` raises, not False."""
    tol = tolerance(tol)
    try:
        require_density(rho, tol=tol)
    except PreconditionError:
        return False
    return True


def require_density(rho, tol: float = 1e-10, what: str = "state") -> np.ndarray:
    m = require_hermitian(rho, atol=max(HERMITIAN_ATOL, tolerance(tol)), what=what)
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > tol:
        raise PreconditionError(f"{what} has trace {tr!r}, expected 1")
    lo = min_eigenvalue(m)
    if lo < -tol:
        raise PreconditionError(
            f"{what} is not positive semidefinite: min eigenvalue {lo:.3e}"
        )
    return m


def require_rank1_projection(p, tol: float = 1e-10, what: str = "state") -> np.ndarray:
    m = require_hermitian(p, atol=max(HERMITIAN_ATOL, tolerance(tol)), what=what)
    if abs(float(np.real(np.trace(m))) - 1.0) > tol:
        raise PreconditionError(f"{what} must have trace 1")
    dev = float(np.max(np.abs(m @ m - m)))
    if dev > tol:
        raise PreconditionError(
            f"{what} is not a rank-1 projection: max |p^2 - p| = {dev:.3e}"
        )
    return m


# ---------------------------------------------------------------------------
# Bloch-sphere helpers (qubits)
# ---------------------------------------------------------------------------

def bloch_projector(a) -> np.ndarray:
    """Pure qubit state (I + a.sigma)/2 from a unit Bloch vector."""
    v = np.asarray(a, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise PreconditionError(f"Bloch vector must have 3 components, got {v.shape}")
    nrm = float(np.sqrt(v @ v))
    if not abs(nrm - 1.0) <= 1e-10:
        raise PreconditionError(f"Bloch vector must be unit length, |a| = {nrm!r}")
    return 0.5 * (IDENT2 + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)


def bloch_vector(p) -> np.ndarray:
    """Bloch components (Tr(p sigma_x), Tr(p sigma_y), Tr(p sigma_z))."""
    m = as_matrix(p)
    if m.shape != (2, 2):
        raise PreconditionError(f"expected a qubit operator, got shape {m.shape}")
    return np.array([float(np.real(np.trace(m @ s))) for s in PAULIS])
