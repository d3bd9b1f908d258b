"""Admissibility verdicts, certificate re-validation, and the Jordan
axiom suites."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexstate import linalg
from convexstate.admissibility import (CONNECTED_BUT_UNSUPERPOSABLE,
                                       FACE_NOT_BALL, FINITE_NONSIMPLEX,
                                       NOT_REFUTED, PATH_STEPS, REFUTED,
                                       ball_descriptor,
                                       check_polytope, check_separable_pair,
                                       jb_norm_inequalities,
                                       jordan_identity_residual)
from convexstate.errors import PreconditionError
from convexstate.lp import lp_solve
from convexstate.models import make_classical_simplex, make_spekkens_hull
from convexstate.polytope import (AmbiguousMixtureCertificate, VPolytope,
                                  affine_dimension_of, generated_face,
                                  minimal_face, parse_point)
from convexstate.serialize import jsonable
from shapes import is_face, make_square

BIPYRAMID = VPolytope(
    [(1, 0, 0), (0, 1, 0), (0, 0, 0),
     ("1/3", "1/3", 1), ("1/3", "1/3", -1)],
    name="bipyramid",
)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def jordan_identity_scale(a, b) -> float:
    """The identity residual's natural size: cubic in a, linear in b."""
    return (1.0 + linalg.hs_norm(a)) ** 3 * (1.0 + linalg.hs_norm(b))


# ---------------------------------------------------------------------------
# Polytope verdicts
# ---------------------------------------------------------------------------

def test_spekkens_refuted():
    verdict = check_polytope(make_spekkens_hull())
    assert verdict.verdict == REFUTED
    assert verdict.failed_condition == FINITE_NONSIMPLEX
    cert = verdict.certificate
    assert cert["kind"] == "ambiguous_mixture"
    rebuilt = AmbiguousMixtureCertificate(
        indices=tuple(cert["indices"]),
        w=cert["w"], x=cert["x"], y=cert["y"], z=cert["z"],
        lam=cert["lam"], mu=cert["mu"],
    )
    assert rebuilt.validate()
    assert rebuilt.mixture_point() == cert["mixture_point"]


def test_square_refuted():
    verdict = check_polytope(make_square())
    assert verdict.verdict == REFUTED
    assert verdict.failed_condition == FINITE_NONSIMPLEX


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simplexes_not_refuted(n):
    verdict = check_polytope(make_classical_simplex(n))
    assert verdict.verdict == NOT_REFUTED
    assert verdict.failed_condition is None


def test_single_point_not_refuted():
    verdict = check_polytope(VPolytope([(0, 0)]))
    assert verdict.verdict == NOT_REFUTED


def test_bipyramid_refuted_by_face():
    verdict = check_polytope(BIPYRAMID)
    assert verdict.verdict == REFUTED
    assert verdict.failed_condition == FACE_NOT_BALL
    cert = verdict.certificate
    assert cert["kind"] == "non_ball_face"
    i, j = cert["pair"]
    face = generated_face(BIPYRAMID, BIPYRAMID.vertices[i], BIPYRAMID.vertices[j])
    assert list(face.vertex_indices) == cert["face_vertices"]
    assert len(face.vertex_indices) > 2
    assert is_face(BIPYRAMID, face.vertex_indices)
    assert not cert["ball"]["is_ball"]


def _check_radon_json(cert, vertices):
    """Exact re-check from the JSON alone: two convex combinations of
    disjoint vertex sets that land on the reported point."""
    point = [Fraction(c) for c in cert["point"]]
    first, second = cert["first"], cert["second"]
    assert not set(first["indices"]) & set(second["indices"])
    for side in (first, second):
        weights = [Fraction(w) for w in side["weights"]]
        assert all(w > 0 for w in weights) and sum(weights) == 1
        mix = [sum(w * Fraction(vertices[i][k]) for i, w in zip(side["indices"], weights))
               for k in range(len(point))]
        assert mix == point


@pytest.mark.parametrize("ts", [(-3, -1, 0, 1, 2, 4), (0, 1, 2, 3, 4, 5, 6)])
def test_neighbourly_polytope_refuted_by_affine_dependence(ts):
    # Cyclic polytopes C(n, 4) on the moment curve: every vertex pair spans
    # an edge, and the first affine circuit is three vertices against three,
    # so the Radon partition itself is the certificate.
    points = [(t, t ** 2, t ** 3, t ** 4) for t in ts]
    k = VPolytope(points)
    verdict = check_polytope(k)
    assert verdict.verdict == REFUTED
    assert verdict.failed_condition == FINITE_NONSIMPLEX
    cert = jsonable(verdict)["certificate"]
    assert cert["kind"] == "affine_dependence"
    assert all(ball_descriptor(generated_face(k, x, y))["is_ball"]
               for x, y in itertools.combinations(k.vertices, 2))
    _check_radon_json(cert, points)


def _cube(d):
    return list(itertools.product((0, 1), repeat=d))


def _cross(d):
    return [tuple(s if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1)]


def _cyclic(n, d):
    return [tuple(t ** e for e in range(1, d + 1)) for t in range(n)]


# The scrambled 3- and 4-cubes of the report pins in test_lp_pivot_path.py.
_CUBE3 = [(v[2], 1 - v[0], -v[1]) for v in _cube(3)]
random.Random(3).shuffle(_CUBE3)
_CUBE4 = [(1 - v[2], v[0], v[3] - 1, -v[1]) for v in _cube(4)]
random.Random(4).shuffle(_CUBE4)


@pytest.fixture
def counted_lps(monkeypatch):
    import convexstate.admissibility as adm
    import convexstate.polytope as poly

    counts = {"lp": 0, "generated_face": 0}

    def counting_lp(problem, warm=None):
        counts["lp"] += 1
        return lp_solve(problem, warm)

    def counting_face(k, x, y):
        counts["generated_face"] += 1
        return generated_face(k, x, y)

    monkeypatch.setattr(poly, "lp_solve", counting_lp)
    monkeypatch.setattr(adm, "generated_face", counting_face)
    return counts


# name -> vertices: the first affine circuit certifies the verdict alone
CIRCUIT_VERDICTS = {
    "spekkens": make_spekkens_hull().vertices, "cube3": _CUBE3, "cube4": _CUBE4,
    "cube5": _cube(5), "cross5": _cross(5), "cyclic6_4": _cyclic(6, 4), "cyclic7_4": _cyclic(7, 4),
}
# name -> vertices: the first circuit is a vertex pair against three or more
PAIR_CIRCUIT_VERDICTS = {
    "bipyramid": BIPYRAMID.vertices, "cyclic5_3": _cyclic(5, 3), "cyclic9_3": _cyclic(9, 3),
}


@pytest.mark.parametrize("name", sorted(CIRCUIT_VERDICTS))
def test_circuit_verdict_solves_no_lp(counted_lps, name):
    k = VPolytope(CIRCUIT_VERDICTS[name])
    counted_lps.update(lp=0, generated_face=0)
    verdict = check_polytope(k)
    assert verdict.failed_condition == FINITE_NONSIMPLEX
    assert counted_lps == {"lp": 0, "generated_face": 0}


# 0, e1, ..., e11: any first n of them are affinely independent
_SIMPLEX11 = make_classical_simplex(11).vertices


@pytest.mark.parametrize("n", range(1, 13))
def test_simplex_verdict_solves_no_lp(counted_lps, n):
    # The verdict is the simplex itself, with one certificate at every size.
    k = VPolytope(_SIMPLEX11[:n])
    counted_lps.update(lp=0, generated_face=0)
    verdict = check_polytope(k)
    assert (verdict.verdict, verdict.failed_condition) == (NOT_REFUTED, None)
    assert verdict.certificate["kind"] == "simplex"
    assert counted_lps == {"lp": 0, "generated_face": 0}


def test_simplex_certificate_keys_do_not_depend_on_size():
    small, large = (check_polytope(VPolytope(_SIMPLEX11[:n])) for n in (3, 12))
    assert small.certificate.keys() == large.certificate.keys() == {"kind", "note"}


@pytest.mark.parametrize("name", sorted(PAIR_CIRCUIT_VERDICTS))
def test_pair_circuit_verdict_computes_one_face(counted_lps, name):
    k = VPolytope(PAIR_CIRCUIT_VERDICTS[name])
    counted_lps.update(lp=0, generated_face=0)
    verdict = check_polytope(k)
    assert verdict.failed_condition == FACE_NOT_BALL
    assert counted_lps["generated_face"] == 1
    assert 0 < counted_lps["lp"] <= len(k.vertices)


def _rational_image(data, verts):
    """A rational affine image of full rank, into d or d + 1 dimensions."""
    d = len(verts[0])
    e = data.draw(st.integers(d, d + 1))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    m = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=e, max_size=e))
    assume(affine_dimension_of([tuple(col) for col in zip(*m)] + [(0,) * e]) == d)
    shift = data.draw(st.lists(entry, min_size=e, max_size=e))
    return VPolytope(verts).affine_image(m, shift)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("family", ["cube", "cross", "cyclic"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_verdict_refutes_exactly_the_dependent_images(family, d, data):
    if family == "cyclic":
        verts = _cyclic(data.draw(st.integers(2, d + 3)), d)
    else:
        verts = _cube(d) if family == "cube" else _cross(d)
    k = _rational_image(data, verts)
    n = len(k.vertices)
    verdict = jsonable(check_polytope(k))
    assert (verdict["verdict"] == REFUTED) == (n > affine_dimension_of(k.vertices) + 1)
    cert = verdict["certificate"]
    if cert["kind"] == "simplex":
        assert verdict["verdict"] == NOT_REFUTED
    elif cert["kind"] == "ambiguous_mixture":
        fields = {key: parse_point(cert[key]) for key in "wxyz"}
        assert [fields[key] for key in "wxyz"] == [k.vertices[i] for i in cert["indices"]]
        assert AmbiguousMixtureCertificate(
            indices=tuple(cert["indices"]), **fields,
            lam=Fraction(cert["lam"]), mu=Fraction(cert["mu"]),
        ).validate()
    elif cert["kind"] == "non_ball_face":
        assert set(cert["pair"]) <= set(cert["face_vertices"])
        assert len(cert["face_vertices"]) >= 3
        assert is_face(k, cert["face_vertices"])
    else:
        assert cert["kind"] == "affine_dependence"
        _check_radon_json(cert, k.vertices)


@pytest.mark.parametrize("name", sorted({**CIRCUIT_VERDICTS, **PAIR_CIRCUIT_VERDICTS}))
def test_check_polytope_row_reduces_once(monkeypatch, name):
    # The verdict and its ambiguous mixture read one circuit: the vertices
    # are row-reduced once, whatever the circuit's shape.
    import convexstate.admissibility as adm
    import convexstate.polytope as poly

    calls = []
    original = poly.radon_partition

    def counting(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(poly, "radon_partition", counting)
    monkeypatch.setattr(adm, "radon_partition", counting)
    verts = {**CIRCUIT_VERDICTS, **PAIR_CIRCUIT_VERDICTS}[name]
    assert check_polytope(VPolytope(verts)).verdict == REFUTED
    assert len(calls) == 1


def test_check_polytope_computes_each_generated_face_once(monkeypatch):
    import convexstate.admissibility as adm

    calls = []
    original = adm.generated_face

    def counting(k, x, y):
        calls.append((x, y))
        return original(k, x, y)

    monkeypatch.setattr(adm, "generated_face", counting)
    verdict = check_polytope(BIPYRAMID)
    assert verdict.failed_condition == FACE_NOT_BALL
    assert len(calls) == 1


def test_ball_descriptor_cases():
    k = make_spekkens_hull()
    edge = generated_face(k, (1, 0, 0), (0, 1, 0))
    d = ball_descriptor(edge)
    assert d == {"is_ball": True, "n": 1, "note": "segment"}
    whole = generated_face(k, (1, 0, 0), (-1, 0, 0))
    assert not ball_descriptor(whole)["is_ball"]
    point = minimal_face(k, (1, 0, 0))
    assert ball_descriptor(point)["n"] == "not_a_ball"


def test_verdict_json_shape():
    out = jsonable(check_polytope(make_spekkens_hull()))
    assert sorted(out.keys()) == ["certificate", "failed_condition", "verdict"]
    assert out["verdict"] == "refuted"


# ---------------------------------------------------------------------------
# Affine invariance
# ---------------------------------------------------------------------------

def _random_affine(rng, dim):
    while True:
        m = [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
              for _ in range(dim)] for _ in range(dim)]
        if affine_dimension_of([tuple(row) for row in m] + [tuple([Fraction(0)] * dim)]) == dim:
            shift = tuple(Fraction(int(rng.integers(-5, 6)), 2) for _ in range(dim))
            return m, shift


def test_affine_invariance():
    rng = np.random.default_rng(61)
    for k in (make_spekkens_hull(), make_classical_simplex(2), make_square()):
        base = check_polytope(k)
        for _ in range(3):
            m, shift = _random_affine(rng, k.ambient_dim)
            img = k.affine_image(m, shift)
            moved = check_polytope(img)
            assert moved.verdict == base.verdict
            assert moved.failed_condition == base.failed_condition


# ---------------------------------------------------------------------------
# Separable pair verdict
# ---------------------------------------------------------------------------

def test_separable_pair_refuted():
    x = linalg.projector(linalg.ket("01"))
    y = linalg.projector(linalg.ket("10"))
    verdict = check_separable_pair(x, y)
    assert verdict.verdict == REFUTED
    assert verdict.failed_condition == CONNECTED_BUT_UNSUPERPOSABLE
    cert = verdict.certificate
    path = cert["path"]
    assert path["steps_per_leg"] == PATH_STEPS
    assert path["factor_identity_deviation"] <= 1e-12
    assert path["max_consecutive_distance"] <= path["distance_bound"]
    search = cert["search"]
    assert search["found"] is False
    assert search["corners_only"]


def test_separable_pair_runs_no_seesaw(monkeypatch, tmp_path):
    # Orthogonality and the separable ratio need only the bracket
    # [lo, Tr(xy)]; neither the verdict nor the ratio runs the see-saw.
    import convexstate.models as models
    from convexstate import cli, transition

    calls = []
    original = models.maximize_linear_over_separable

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(models, "maximize_linear_over_separable", counting)
    monkeypatch.setattr(transition, "maximize_linear_over_separable", counting,
                        raising=False)
    x = linalg.projector(linalg.ket("01"))
    y = linalg.projector(linalg.ket("10"))
    assert check_separable_pair(x, y).verdict == REFUTED
    for a, b in ((x, y), (x, x), (linalg.projector(linalg.ket("0+")), y)):
        r = transition.affine_ratio_separable(a, b)
        assert r.lo <= r.hi
    out = tmp_path / "ratio.json"
    assert cli.main(["ratio", "separable2x2", "01", "10", "--out", str(out)]) == 0
    assert calls == []


def test_separable_pair_rejects_entangled_input():
    epr = linalg.projector(linalg.ket("01") - linalg.ket("10"))
    y = linalg.projector(linalg.ket("10"))
    with pytest.raises(PreconditionError):
        check_separable_pair(epr, y)


def test_separable_pair_rejects_shared_factor():
    x = linalg.projector(linalg.ket("00"))
    y = linalg.projector(linalg.ket("01"))
    with pytest.raises(PreconditionError):
        check_separable_pair(x, y)


# ---------------------------------------------------------------------------
# Jordan axiom suites
# ---------------------------------------------------------------------------

def test_jordan_identity_commuting_pair_zero():
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([-1.0, 0.5, 4.0])
    assert jordan_identity_residual(a, b) <= 1e-15


def test_jordan_identity_random():
    rng = np.random.default_rng(62)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a, b = random_hermitian(rng, n), random_hermitian(rng, n)
        res = jordan_identity_residual(a, b)
        assert res <= 1e-11 * jordan_identity_scale(a, b)


def test_jordan_identity_scaled_inputs():
    rng = np.random.default_rng(63)
    a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
    assert jordan_identity_residual(2 * a, b) <= 1e-11 * jordan_identity_scale(2 * a, b)
    assert jordan_identity_residual(a, -3 * b) <= 1e-11 * jordan_identity_scale(a, -3 * b)


def test_norm_inequalities_hand_case():
    a = np.diag([1.0, -1.0])
    rep = jb_norm_inequalities(a, linalg.PAULI_X)
    assert rep.submultiplicative and rep.square_identity and rep.square_dominance
    assert rep.all_hold


def test_norm_inequalities_random():
    rng = np.random.default_rng(64)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        rep = jb_norm_inequalities(random_hermitian(rng, n),
                                   random_hermitian(rng, n))
        assert rep.all_hold


# ---------------------------------------------------------------------------
# Property: random rational simplexes survive
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_random_simplexes_not_refuted(dim, data):
    count = data.draw(st.integers(2, min(dim + 1, 5)))
    pts = data.draw(st.lists(
        st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)
                    for _ in range(dim)]),
        min_size=count, max_size=count, unique=True,
    ))
    assume(affine_dimension_of([parse_point(p) for p in pts]) == count - 1)
    verdict = check_polytope(VPolytope(pts))
    assert verdict.verdict == NOT_REFUTED
