"""Exact convex geometry: faces, simplex decisions, certificates, and the
theory file format."""

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexstate import cli, polytope
from convexstate.errors import TheoryFormatError
from convexstate.lp import OPTIMAL, LPProblem, _integer_rows, lp_solve
from convexstate.models import make_classical_simplex, make_spekkens_hull
from convexstate.polytope import (AmbiguousMixtureCertificate, VPolytope,
                                  affine_dimension_of, find_ambiguous_mixture,
                                  generated_face, load_theory, minimal_face,
                                  parse_point, theory_from_dict, theory_to_dict)
from shapes import barycenter, is_face, make_square

BIPYRAMID = VPolytope(
    [(1, 0, 0), (0, 1, 0), (0, 0, 0),
     ("1/3", "1/3", 1), ("1/3", "1/3", -1)],
    name="bipyramid",
)


# ---------------------------------------------------------------------------
# Construction and membership
# ---------------------------------------------------------------------------

def test_rejects_redundant_vertex():
    with pytest.raises(ValueError, match="vertex"):
        VPolytope([(0,), (1,), ("1/2",)])


def test_contains_and_vertex_index():
    k = make_spekkens_hull()
    assert k.contains((0, 0, 0))
    assert k.contains(("1/2", "1/2", 0))
    assert not k.contains(("2/3", "2/3", 0))
    assert k.vertex_index((1, 0, 0)) == 0
    assert k.vertex_index((0, 0, -1)) == 5
    assert k.vertex_index(("1/2", 0, 0)) is None


def test_parse_point_fractions():
    assert parse_point(["1/2", 1, "0"]) == (Fraction(1, 2), Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------

def test_octahedron_edge_face():
    k = make_spekkens_hull()
    face = generated_face(k, (1, 0, 0), (0, 1, 0))
    assert face.vertex_indices == (0, 2)
    assert face.affine_dimension == 1
    assert is_face(k, (0, 2))


def test_octahedron_facet_face():
    k = make_spekkens_hull()
    face = minimal_face(k, ("1/3", "1/3", "1/3"))
    assert face.vertex_indices == (0, 2, 4)
    assert face.affine_dimension == 2


def test_antipodal_pair_generates_everything():
    k = make_spekkens_hull()
    face = generated_face(k, (1, 0, 0), (-1, 0, 0))
    assert face.vertex_indices == (0, 1, 2, 3, 4, 5)
    assert face.affine_dimension == 3


def test_bipyramid_apex_pair_face():
    face = generated_face(BIPYRAMID, ("1/3", "1/3", 1), ("1/3", "1/3", -1))
    assert face.vertex_indices == (0, 1, 2, 3, 4)


def test_minimal_face_requires_membership():
    k = make_spekkens_hull()
    with pytest.raises(ValueError, match="not in the polytope"):
        minimal_face(k, (2, 0, 0))


def _per_vertex_face(k, point):
    """The minimal face by its definition: one LP per vertex, maximizing
    that vertex's weight over all convex representations of the point."""
    p = parse_point(point)
    n = len(k.vertices)
    support = []
    for i in range(n):
        obj = [Fraction(0)] * n
        obj[i] = Fraction(-1)
        sol = lp_solve(replace(polytope._membership_problem(k.homogeneous, p), objective=tuple(obj)))
        assert sol.status == OPTIMAL
        if sol.value < 0:
            support.append(i)
    return tuple(support)


def _scrambled(verts, seed):
    """An affine image (signed permutation, shear, shift) with the vertices
    shuffled: the same face lattice in general position."""
    rng = random.Random(seed)
    d = len(verts[0])
    perm = rng.sample(range(d), d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    shear = Fraction(rng.randint(1, 5), rng.randint(2, 7))
    shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
    out = []
    for v in verts:
        w = [signs[a] * Fraction(v[perm[a]]) + shift[a] for a in range(d)]
        w[0] += shear * w[-1]
        out.append(tuple(w))
    rng.shuffle(out)
    return out


def _face_cases():
    """Seeded (name, polytope, point) cases: vertices, barycentres of random
    vertex subsets and interior points of scrambled cubes, cross-polytopes,
    the bipyramid and cyclic polytopes."""
    cube4 = list(itertools.product((0, 1), repeat=4))
    cross5 = [tuple(s if j == i else 0 for j in range(5))
              for i in range(5) for s in (1, -1)]
    polytopes = [("cube4_s0", VPolytope(_scrambled(cube4, 0))),
                 ("cube4_s1", VPolytope(_scrambled(cube4, 1))),
                 ("cross5_s0", VPolytope(_scrambled(cross5, 0))),
                 ("cross5_s1", VPolytope(_scrambled(cross5, 1))),
                 ("bipyramid", BIPYRAMID),
                 ("cyclic9_3", VPolytope([(t, t**2, t**3) for t in range(9)])),
                 ("cyclic7_4", VPolytope([(t, t**2, t**3, t**4) for t in range(7)]))]
    rng = random.Random(7)
    cases = []
    for name, k in polytopes:
        n = len(k.vertices)
        points = [k.vertices[i] for i in rng.sample(range(n), 2)]
        points += [barycenter([k.vertices[i] for i in sorted(rng.sample(range(n), size))])
                   for size in (2, 2, 3, 4)]
        weights = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        points.append(tuple(sum(w * v[a] for w, v in zip(weights, k.vertices)) / sum(weights)
                            for a in range(k.ambient_dim)))
        cases += [(f"{name}_{j}", k, p) for j, p in enumerate(points)]
    return cases


FACE_CASES = _face_cases()


@pytest.fixture
def counted_lps(monkeypatch):
    solved = []

    def counting(problem):
        solved.append(problem)
        return lp_solve(problem)

    monkeypatch.setattr(polytope, "lp_solve", counting)
    return solved


@pytest.mark.parametrize("name,k,point", FACE_CASES, ids=[c[0] for c in FACE_CASES])
def test_minimal_face_matches_per_vertex_oracle(name, k, point):
    face = minimal_face(k, point)
    assert face.vertex_indices == _per_vertex_face(k, point)


def test_minimal_face_lp_count_is_bounded(counted_lps):
    for _, k, point in FACE_CASES:
        counted_lps.clear()
        face = minimal_face(k, point)
        assert len(counted_lps) <= min(len(face.vertex_indices) + 1, len(k.vertices))
    for k, point in ((make_spekkens_hull(), ("1/3", "1/3", "1/3")),
                     (BIPYRAMID, (0, 0, 0))):
        counted_lps.clear()
        minimal_face(k, point)
        assert len(counted_lps) == 2
    counted_lps.clear()
    with pytest.raises(ValueError, match="not in the polytope"):
        minimal_face(BIPYRAMID, (2, 0, 0))
    assert len(counted_lps) == 1
    with pytest.raises(ValueError, match="coordinates"):
        minimal_face(BIPYRAMID, (0, 0))


def test_contains_solves_no_lp_on_a_vertex(counted_lps):
    assert BIPYRAMID.contains(("1/3", "1/3", 1))
    assert counted_lps == []
    assert BIPYRAMID.contains(("1/3", "1/3", 0))
    assert len(counted_lps) == 1
    assert not BIPYRAMID.contains((1, 1, 0))
    assert len(counted_lps) == 2


# ---------------------------------------------------------------------------
# Irredundancy at load: centroid certificates, then LPs
# ---------------------------------------------------------------------------

def _lp_sweep_error(vertices):
    """The irredundancy check by one LP per vertex, each stated in
    ``Fraction``s (v = sum lam_j u_j over the others u, sum lam = 1,
    lam >= 0): the error text for the first vertex in the hull of the
    others, or None."""
    verts = [parse_point(v) for v in vertices]
    if len(verts) == 1:
        return None
    for i, v in enumerate(verts):
        others = verts[:i] + verts[i + 1:]
        problem = LPProblem.make([0] * len(others), a_eq=[*zip(*others), [1] * len(others)],
                                 b_eq=[*v, 1])
        if lp_solve(problem).status == OPTIMAL:
            return (f"vertex {i} {tuple(map(str, v))} is redundant: it lies in "
                    "the hull of the remaining vertices")
    return None


def _load_error(vertices):
    try:
        VPolytope(vertices)
    except ValueError as exc:
        return str(exc)
    return None


def _recheck_exposed(vertices):
    """Re-check in Fractions each vertex the package says the centroid
    functional c = n*v_i - sum_j v_j exposes: c.v_i > c.v_j for j != i."""
    verts = [parse_point(v) for v in vertices]
    flags = polytope.centroid_exposed(_integer_rows((*v, 1) for v in verts))
    n = len(verts)
    total = [sum(col, Fraction(0)) for col in zip(*verts)]
    for i, exposed in enumerate(flags):
        if exposed:
            c = [n * a - s for a, s in zip(verts[i], total)]
            top = sum(a * b for a, b in zip(c, verts[i]))
            assert all(sum(a * b for a, b in zip(c, v)) < top
                       for j, v in enumerate(verts) if j != i)
    return flags


def _isometric(verts, seed):
    """Signed coordinate permutation and shift, vertices shuffled: an
    isometry keeps the centroid functional exposing every vertex."""
    rng = random.Random(seed)
    d = len(verts[0])
    perm = rng.sample(range(d), d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
    out = [tuple(signs[a] * Fraction(v[perm[a]]) + shift[a] for a in range(d)) for v in verts]
    rng.shuffle(out)
    return out


_COORD = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _point_sets(draw):
    """Collinear points in 3D, or random rational points or points on a
    parabola (in convex position, mostly not exposed by the centroid), with
    drawn duplicates and mixtures of drawn points inserted."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        base, step = (draw(st.tuples(_COORD, _COORD, _COORD)) for _ in range(2))
        ts = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
        return [tuple(b + t * s for b, s in zip(base, step)) for t in ts]
    if kind == 1:
        ts = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=10, unique=True))
        pts = [(t, t * t) for t in ts]
    else:
        d = draw(st.integers(1, 4))
        pts = draw(st.lists(st.tuples(*[_COORD] * d), min_size=1, max_size=10))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        picks = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))
        extra = tuple(sum(col, Fraction(0)) / len(picks) for col in zip(*picks))
        pts.insert(draw(st.integers(0, len(pts))), extra)
    return pts


@settings(max_examples=100, deadline=None)
@given(_point_sets())
def test_irredundancy_matches_lp_sweep(vertices):
    counted = []

    def counting(problem):
        counted.append(problem)
        return lp_solve(problem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "lp_solve", counting)
        error = _load_error(vertices)
    assert error == _lp_sweep_error(vertices)
    flags = _recheck_exposed(vertices)
    if error is None:
        assert len(counted) == flags.count(False)


@pytest.mark.parametrize("vertices,error", [
    ([(1, 2, 3)], None),
    ([(0, 0, 0), (1, 2, 3)], None),
    ([(1, 2, 3), (1, 2, 3)], "vertex 0"),
    ([(0, 0, 0), (1, 1, 1), (2, 2, 2)], "vertex 1"),
    ([(0, 0, 0), (2, 2, 2), (1, 1, 1), (3, 3, 3)], "vertex 1"),
    ([(0,), ("1/2",), (1,)], "vertex 1"),
])
def test_irredundancy_edge_cases(vertices, error):
    got = _load_error(vertices)
    assert got == _lp_sweep_error(vertices)
    assert (got is None) == (error is None)
    if error is not None:
        assert got.startswith(error + " ")


def test_zoo_and_isometric_scrambles_load_with_no_lp(counted_lps):
    cube4 = list(itertools.product((0, 1), repeat=4))
    cross5 = [tuple(s if j == i else 0 for j in range(5)) for i in range(5) for s in (1, -1)]
    cli.resolve_theory("spekkens")
    for n in range(1, 13):
        cli.resolve_theory(f"simplex:{n}")
    for seed in range(5):
        VPolytope(_isometric(cube4, seed))
        VPolytope(_isometric(cross5, seed))
    assert counted_lps == []


def test_face_query_solves_only_minimal_face_lps(counted_lps, tmp_path):
    verts = _isometric(list(itertools.product((0, 1), repeat=4)), 4)
    path = tmp_path / "cube4.json"
    path.write_text(json.dumps({"name": "cube4", "ambient_dim": 4,
                                "vertices": [[str(c) for c in v] for v in verts]}))
    assert cli.main(["face", str(path), "1", "2", "3", "--out", str(tmp_path / "r.json")]) == 0
    in_cli = len(counted_lps)
    counted_lps.clear()
    k = load_theory(str(path))
    assert counted_lps == []
    minimal_face(k, barycenter(k.vertices[1:4]))
    assert in_cli == len(counted_lps) <= 9


def test_unexposed_vertices_still_get_an_lp(counted_lps):
    decagon = [(t, t * t) for t in range(-5, 5)]
    k = VPolytope(decagon)
    flags = _recheck_exposed(k.vertices)
    assert flags.count(False) == len(counted_lps) == 8
    with pytest.raises(ValueError, match=r"^vertex 10 \('0', '10'\) is redundant"):
        VPolytope(decagon + [(0, 10)])


def test_face_as_polytope_round_trip():
    k = make_spekkens_hull()
    face = generated_face(k, (1, 0, 0), (0, 1, 0))
    sub = VPolytope(face.vertices)
    assert sub.vertices == (k.vertices[0], k.vertices[2])


# ---------------------------------------------------------------------------
# Dimension and simplex decisions
# ---------------------------------------------------------------------------

def test_affine_dimensions():
    assert affine_dimension_of(make_classical_simplex(3).vertices) == 3
    assert affine_dimension_of(make_spekkens_hull().vertices) == 3
    assert affine_dimension_of(make_square().vertices) == 2
    assert affine_dimension_of([(0, 0), (1, 1)]) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classical_simplexes_are_simplexes(n):
    k = make_classical_simplex(n)
    assert polytope.radon_partition(k) is None
    assert find_ambiguous_mixture(k) is None


def test_octahedron_is_not_simplex():
    k = make_spekkens_hull()
    assert polytope.radon_partition(k) is not None
    cert = find_ambiguous_mixture(k)
    assert cert is not None and cert.validate()


def test_square_is_not_simplex():
    k = make_square()
    assert polytope.radon_partition(k) is not None
    assert find_ambiguous_mixture(k).validate()


def test_bipyramid_pairwise_but_dependent():
    # Affinely dependent (5 points in a 3-space), but its only circuit is
    # the apex pair against the base triangle: no two vertex segments cross.
    assert find_ambiguous_mixture(BIPYRAMID) is None
    first, second, _ = polytope.radon_partition(BIPYRAMID)
    assert sorted(map(len, (first, second))) == [2, 3]


def test_octahedron_certificate_values():
    cert = find_ambiguous_mixture(make_spekkens_hull())
    assert cert is not None
    assert cert.indices == (0, 1, 2, 3)
    assert cert.lam == Fraction(1, 2) and cert.mu == Fraction(1, 2)
    assert cert.mixture_point() == (Fraction(0), Fraction(0), Fraction(0))
    assert cert.validate()


def test_certificate_validation_catches_tampering():
    k = make_square()
    good = find_ambiguous_mixture(k)
    assert good.validate()
    bad = AmbiguousMixtureCertificate(
        indices=good.indices, w=good.w, x=good.x, y=good.y, z=good.z,
        lam=Fraction(1, 4), mu=good.mu,
    )
    assert not bad.validate()


def test_hand_built_square_certificate():
    square = VPolytope([(1, 1), (-1, -1), (1, -1), (-1, 1)])
    cert = AmbiguousMixtureCertificate(
        indices=(0, 1, 2, 3),
        w=(Fraction(1), Fraction(1)), x=(Fraction(-1), Fraction(-1)),
        y=(Fraction(1), Fraction(-1)), z=(Fraction(-1), Fraction(1)),
        lam=Fraction(1, 2), mu=Fraction(1, 2),
    )
    assert cert.validate()
    assert cert.mixture_point() == (Fraction(0), Fraction(0))
    assert square.contains(cert.mixture_point())


# ---------------------------------------------------------------------------
# Affine images
# ---------------------------------------------------------------------------

def test_affine_image_exact_and_structure_preserving():
    k = make_spekkens_hull()
    m = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    shift = ("1/2", 2, -3)
    img = k.affine_image(m, shift)
    assert len(img.vertices) == 6
    assert img.vertices[0] == (Fraction(3, 2), Fraction(2), Fraction(-3))
    assert polytope.radon_partition(img) is not None


def test_affine_image_of_simplex_stays_simplex():
    k = make_classical_simplex(2)
    img = k.affine_image([["2/3", 1], [0, "1/5"]], (7, -1))
    assert polytope.radon_partition(img) is None


# ---------------------------------------------------------------------------
# Theory files
# ---------------------------------------------------------------------------

def test_theory_round_trip(tmp_path):
    k = make_spekkens_hull()
    data = theory_to_dict(k)
    path = tmp_path / "oct.json"
    path.write_text(json.dumps(data))
    back = load_theory(str(path))
    assert back.vertices == k.vertices
    assert back.name == k.name


def test_theory_missing_field():
    with pytest.raises(TheoryFormatError, match="missing field 'vertices'"):
        theory_from_dict({"name": "x", "ambient_dim": 2})


def test_theory_bad_coordinate():
    with pytest.raises(TheoryFormatError, match="vertex 0 coordinate 1"):
        theory_from_dict({
            "name": "x", "ambient_dim": 2,
            "vertices": [["1", "nope"], ["0", "0"]],
        })


def test_theory_wrong_row_length():
    with pytest.raises(TheoryFormatError, match="vertex 1 must be a list of 2"):
        theory_from_dict({
            "name": "x", "ambient_dim": 2,
            "vertices": [["1", "0"], ["0"]],
        })


def test_theory_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "ambient_dim": }')
    with pytest.raises(TheoryFormatError, match="line 2"):
        load_theory(str(path))


def test_theory_redundant_vertex_rejected():
    with pytest.raises(TheoryFormatError, match="redundant|vertex"):
        theory_from_dict({
            "name": "x", "ambient_dim": 1,
            "vertices": [["0"], ["1"], ["1/2"]],
        })


# ---------------------------------------------------------------------------
# Property: affinely independent point sets form simplexes
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_random_independent_points_are_simplexes(dim, data):
    count = data.draw(st.integers(2, dim + 1))
    pts = data.draw(st.lists(
        st.tuples(*[st.integers(-5, 5) for _ in range(dim)]),
        min_size=count, max_size=count, unique=True,
    ))
    assume(affine_dimension_of([parse_point(p) for p in pts]) == count - 1)
    assert polytope.radon_partition(VPolytope(pts)) is None
