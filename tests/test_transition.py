"""Transition ratios and superposability across all four state-space kinds."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexstate import linalg, lp, transition
from convexstate.errors import InternalCheckError, PreconditionError
from convexstate.lp import OPTIMAL
from convexstate.models import ProductStateParam, make_spekkens_hull
from convexstate.polytope import VPolytope
from convexstate.transition import (StateSpaceHandle, affine_ratio,
                                    affine_ratio_bloch, affine_ratio_polytope,
                                    affine_ratio_quantum,
                                    affine_ratio_separable, is_orthogonal,
                                    overlap_square_surface,
                                    path_connect_product_states, path_report,
                                    qubit_great_circle, superposability_search)
from lp_forms import bounded_lp


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Polytope ratios
# ---------------------------------------------------------------------------

def test_spekkens_ratio_matrix_identity():
    k = make_spekkens_hull()
    for i, x in enumerate(k.vertices):
        for j, y in enumerate(k.vertices):
            r = affine_ratio_polytope(k, x, y)
            assert r.exact
            assert r.value == (Fraction(1) if i == j else Fraction(0))


def test_polytope_witness_is_feasible_exactly():
    k = make_spekkens_hull()
    for x in k.vertices:
        for y in k.vertices:
            r = affine_ratio_polytope(k, x, y)
            f = r.witness
            assert f(x) == 1
            assert f(y) == r.value
            for v in k.vertices:
                assert 0 <= f(v) <= 1


def test_polytope_ratio_requires_vertices():
    k = make_spekkens_hull()
    with pytest.raises(PreconditionError):
        affine_ratio_polytope(k, (0, 0, 0), (1, 0, 0))


def functional_ratio(k, x, y):
    """The affine ratio from its defining LP: minimize f(y) over free
    u = (normal, offset) with f(x) = 1 and 0 <= f(v) <= 1 on every vertex,
    each free u_j split into a nonnegative pair.  The reference the package
    solved before it took the mixture LP (its LP dual) instead."""
    rows = [[*v, 1] for v in k.vertices]
    sol = bounded_lp([*y, 1], a_eq=[[*x, 1]], b_eq=[1],
                     a_ub=[r for row in rows for r in ([-c for c in row], row)],
                     b_ub=[0, 1] * len(rows), bounds=[(None, None)] * len(rows[0])).solve()
    assert sol.status == OPTIMAL
    return sol.value


def _scrambled(points, seed):
    """A seeded signed coordinate permutation plus an integer shift, with
    the vertices shuffled."""
    rng = random.Random(seed)
    d = len(points[0])
    perm = rng.sample(range(d), d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    shift = [rng.randint(-2, 2) for _ in range(d)]
    verts = [tuple(signs[i] * p[perm[i]] + shift[i] for i in range(d)) for p in points]
    rng.shuffle(verts)
    return VPolytope(verts)


def _cross(d):
    return [tuple(s if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1)]


ORACLE_THEORIES = {
    "cube3": lambda: _scrambled(list(itertools.product((0, 1), repeat=3)), 3),
    "cube4": lambda: _scrambled(list(itertools.product((0, 1), repeat=4)), 4),
    "cross3": lambda: _scrambled(_cross(3), 3),
    "cross5": lambda: _scrambled(_cross(5), 5),
    "cyclic9_3": lambda: VPolytope([(t, t * t, t ** 3) for t in range(9)]),
    "bipyramid": lambda: VPolytope([(0, 0, 0), (4, 0, 0), (0, 4, 0),
                                    ("1/2", "3/2", 2), ("1/2", "3/2", "-1/3")]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_THEORIES))
def test_mixture_ratio_matches_functional_lp(name):
    k = ORACLE_THEORIES[name]()
    for x, y in itertools.product(k.vertices, repeat=2):
        r = affine_ratio_polytope(k, x, y)
        assert r.exact and r.value == functional_ratio(k, x, y)
        f = r.witness
        assert f(x) == 1 and f(y) == r.value
        assert all(0 <= f(v) <= 1 for v in k.vertices)


@pytest.mark.parametrize("entry", [0, -1])
def test_corrupted_multiplier_fails_the_witness_check(monkeypatch, entry):
    # Raising one multiplier by 1 lowers f by one coordinate (entry 0) or
    # by the constant 1 (entry -1, the offset): f(e1) = 1 breaks either way.
    def corrupted(problem, basis):
        y = list(lp.multipliers(problem, basis))
        y[entry] += 1
        return tuple(y)

    monkeypatch.setattr(transition, "multipliers", corrupted)
    k = make_spekkens_hull()
    with pytest.raises(InternalCheckError, match="witness"):
        affine_ratio_polytope(k, k.vertices[0], k.vertices[2])


def test_nan_bloch_vector_rejected():
    for bad in ([np.nan, 0, 0], [np.inf, 0, 0], [0, -np.inf, 0]):
        with pytest.raises(PreconditionError):
            affine_ratio_bloch(bad, [0, 0, 1])


# ---------------------------------------------------------------------------
# Bloch and full quantum ratios
# ---------------------------------------------------------------------------

def test_bloch_matches_projector_overlap():
    rng = np.random.default_rng(17)
    for _ in range(200):
        x, y = random_unit(rng), random_unit(rng)
        closed = affine_ratio_bloch(x, y).value
        overlap = float(np.real(np.trace(
            linalg.bloch_projector(x) @ linalg.bloch_projector(y))))
        assert abs(closed - overlap) <= 1e-10


def test_bloch_formula_values():
    assert abs(affine_ratio_bloch((1, 0, 0), (0, 1, 0)).value - 0.5) <= 1e-14
    assert abs(affine_ratio_bloch((1, 0, 0), (1, 0, 0)).value - 1.0) <= 1e-14
    assert abs(affine_ratio_bloch((0, 0, 1), (0, 0, -1)).value) <= 1e-14


def test_bloch_requires_unit_vectors():
    with pytest.raises(PreconditionError):
        affine_ratio_bloch((0.5, 0, 0), (1, 0, 0))


def test_quantum_ratio_is_trace_overlap():
    rng = np.random.default_rng(18)
    for _ in range(50):
        x = linalg.bloch_projector(random_unit(rng))
        y = linalg.bloch_projector(random_unit(rng))
        r = affine_ratio_quantum(x, y)
        assert abs(r.value - float(np.real(np.trace(x @ y)))) <= 1e-12
        assert 0.0 <= r.value <= 1.0
    p = linalg.projector(linalg.ket("01"))
    assert abs(affine_ratio_quantum(p, p).value - 1.0) <= 1e-14


def test_quantum_ratio_rejects_mixed_states():
    with pytest.raises(PreconditionError):
        affine_ratio_quantum(np.eye(2) / 2, np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Separable interval
# ---------------------------------------------------------------------------

def test_separable_interval_brackets_quantum_value():
    rng = np.random.default_rng(19)
    for _ in range(10):
        x = ProductStateParam(tuple(random_unit(rng)), tuple(random_unit(rng))).density()
        y = ProductStateParam(tuple(random_unit(rng)), tuple(random_unit(rng))).density()
        r = affine_ratio_separable(x, y)
        quantum = float(np.real(np.trace(x @ y)))
        assert r.lo <= r.hi + 1e-12
        assert abs(r.hi - quantum) <= 1e-12
        best = r.detail["best_candidate_upper_bound"]
        assert r.lo <= best <= r.hi + 1e-9
        assert r.detail["witness_candidates"]


def test_separable_same_state_is_one():
    x = linalg.projector(linalg.ket("01"))
    r = affine_ratio_separable(x, x)
    assert r.exact and abs(r.value - 1.0) <= 1e-12


def test_separable_orthogonal_pair_is_zero():
    x = linalg.projector(linalg.ket("01"))
    y = linalg.projector(linalg.ket("10"))
    r = affine_ratio_separable(x, y)
    assert r.exact and abs(r.value) <= 1e-12


def test_separable_rejects_entangled_input():
    epr = linalg.projector(linalg.ket("01") - linalg.ket("10"))
    prod = linalg.projector(linalg.ket("00"))
    with pytest.raises(PreconditionError, match="product"):
        affine_ratio_separable(epr, prod)


# ---------------------------------------------------------------------------
# Orthogonality across kinds
# ---------------------------------------------------------------------------

def test_is_orthogonal_each_kind():
    k = make_spekkens_hull()
    hp = StateSpaceHandle.vpolytope(k)
    assert is_orthogonal(hp, (1, 0, 0), (0, 1, 0))
    assert not is_orthogonal(hp, (1, 0, 0), (1, 0, 0))

    hb = StateSpaceHandle.bloch_ball()
    assert is_orthogonal(hb, (0, 0, 1), (0, 0, -1))
    assert not is_orthogonal(hb, (0, 0, 1), (1, 0, 0))

    hq = StateSpaceHandle.full_quantum()
    p01 = linalg.projector(linalg.ket("01"))
    p10 = linalg.projector(linalg.ket("10"))
    assert is_orthogonal(hq, p01, p10)

    hs = StateSpaceHandle.separable_2x2()
    assert is_orthogonal(hs, p01, p10)


# ---------------------------------------------------------------------------
# Superposability
# ---------------------------------------------------------------------------

def test_superposable_polytope_none_found():
    h = StateSpaceHandle.vpolytope(make_spekkens_hull())
    cert = superposability_search(h, (1, 0, 0), (-1, 0, 0))
    assert not cert.found
    assert cert.z is None
    scanned = cert.transcript["scanned"]
    assert len(scanned) == 4  # every other vertex was tried


def test_superposable_bloch_found():
    h = StateSpaceHandle.bloch_ball()
    cert = superposability_search(h, (0, 0, 1), (0, 0, -1))
    assert cert.found
    z = np.asarray(cert.z, dtype=float)
    assert abs(np.linalg.norm(z) - 1) <= 1e-12
    assert abs(cert.ratio_xz - 0.5) <= 1e-12
    assert abs(cert.ratio_yz - 0.5) <= 1e-12


def test_superposable_full_quantum_found():
    h = StateSpaceHandle.full_quantum()
    x = linalg.projector(linalg.ket("01"))
    y = linalg.projector(linalg.ket("10"))
    cert = superposability_search(h, x, y)
    assert cert.found
    assert abs(cert.ratio_xz - 0.5) <= 1e-12
    assert abs(cert.ratio_yz - 0.5) <= 1e-12
    assert linalg.is_rank1_projection(np.asarray(cert.z))


def test_superposable_needs_orthogonal_inputs():
    h = StateSpaceHandle.bloch_ball()
    with pytest.raises(PreconditionError, match="orthogonal"):
        superposability_search(h, (0, 0, 1), (1, 0, 0))


def test_separable_superposability_absent():
    h = StateSpaceHandle.separable_2x2()
    x = linalg.projector(linalg.ket("01"))
    y = linalg.projector(linalg.ket("10"))
    cert = superposability_search(h, x, y)
    assert not cert.found
    t = cert.transcript
    assert abs(t["surface_max"] - 1.0) <= 1e-10
    assert t["corners_only"]
    for rep in t["corner_reports"]:
        assert rep["vanishing_bound"] <= 1e-12


def test_separable_superposability_needs_both_factors_orthogonal():
    h = StateSpaceHandle.separable_2x2()
    x = linalg.projector(linalg.ket("00"))
    y = linalg.projector(linalg.ket("01"))
    # orthogonal as states, but the A factors coincide
    assert is_orthogonal(h, x, y)
    with pytest.raises(PreconditionError, match="factor"):
        superposability_search(h, x, y)


def test_overlap_surface_shape():
    a, c = np.meshgrid(np.linspace(0, 1, 201), np.linspace(0, 1, 201),
                       indexing="ij")
    s = overlap_square_surface(a, c)
    assert float(s.max()) <= 1.0 + 1e-12
    assert abs(overlap_square_surface(np.float64(1.0), np.float64(0.0)) - 1.0) == 0.0
    assert abs(overlap_square_surface(np.float64(0.0), np.float64(1.0)) - 1.0) == 0.0
    assert abs(overlap_square_surface(np.float64(0.5), np.float64(0.5)) - 0.5) == 0.0


# ---------------------------------------------------------------------------
# Product-state paths
# ---------------------------------------------------------------------------

def test_great_circle_endpoints_and_steps():
    rng = np.random.default_rng(23)
    p = linalg.bloch_projector(random_unit(rng))
    q = linalg.bloch_projector(random_unit(rng))
    path = qubit_great_circle(p, q, steps=16)
    assert len(path) == 17
    assert np.array_equal(path[0], p)
    assert np.array_equal(path[-1], q)
    blochs = [linalg.bloch_vector(r) for r in path]
    for v in blochs:
        assert abs(np.linalg.norm(v) - 1) <= 1e-10
    angles = [np.arccos(np.clip(blochs[i] @ blochs[i + 1], -1, 1))
              for i in range(16)]
    assert np.ptp(angles) <= 1e-9


def test_great_circle_same_and_antipodal():
    p = linalg.projector(linalg.ket("0"))
    q = linalg.projector(linalg.ket("1"))
    same = qubit_great_circle(p, p, steps=4)
    assert all(np.array_equal(r, p) for r in same)
    anti = qubit_great_circle(p, q, steps=8)
    assert np.array_equal(anti[-1], q)
    for r in anti:
        assert linalg.is_rank1_projection(r)


def test_path_factor_identity():
    x = linalg.projector(linalg.ket("01"))
    y = linalg.projector(linalg.ket("10"))
    path = path_connect_product_states(x, y, steps=32)
    assert len(path) == 65
    assert np.array_equal(path[0], x)
    assert np.array_equal(path[-1], y)
    rep = path_report(path)
    assert rep["factor_identity_deviation"] <= 1e-12
    assert rep["max_consecutive_distance"] <= np.pi / 32 * np.sqrt(2)


def test_path_states_are_pure_products():
    x = linalg.projector(linalg.ket("0-"))
    y = linalg.projector(linalg.ket("+1"))
    path = path_connect_product_states(x, y, steps=8)
    for rho in path:
        assert linalg.is_rank1_projection(rho)
        ra = linalg.partial_trace(rho, "B")
        # the reduction of a pure product state is again pure
        assert abs(np.real(np.trace(ra @ ra)) - 1.0) <= 1e-10


def test_path_rejects_entangled_endpoint():
    epr = linalg.projector(linalg.ket("01") - linalg.ket("10"))
    prod = linalg.projector(linalg.ket("00"))
    with pytest.raises(PreconditionError):
        path_connect_product_states(epr, prod, steps=8)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_bloch_ratio_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    x, y = random_unit(rng), random_unit(rng)
    rxy = affine_ratio_bloch(x, y).value
    ryx = affine_ratio_bloch(y, x).value
    assert abs(rxy - ryx) <= 1e-12
    assert -1e-12 <= rxy <= 1 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_dispatcher_matches_engines(seed):
    rng = np.random.default_rng(seed)
    x, y = random_unit(rng), random_unit(rng)
    h = StateSpaceHandle.bloch_ball()
    assert affine_ratio(h, x, y).value == affine_ratio_bloch(x, y).value
