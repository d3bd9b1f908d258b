"""V-representation polytopes with exact rational face machinery.

A polytope is given by its vertices (rational coordinates) and keeps the
homogenised vertices as one integer matrix, from which every LP takes its
rows.  Loading one proves each vertex extreme: by the exact centroid
functional c_i = n*v_i - sum_j v_j, which exposes v_i when
c_i.v_i > c_i.v_j for every other j (from the rows' Gram matrix, one
product per pair), and by an irredundancy LP for the vertices it leaves
open.  Faces are represented as vertex subsets, and every face query
reduces to support linear programs solved in exact rational arithmetic,
so the answers are exact certificates rather than approximations.
``minimal_face`` harvests the face from the supports of successive
optimal representations of the point, at most min(|F| + 1, n) LPs for a
face of |F| of the n vertices; they share their rows, so only the first
runs phase 1 and each later one starts from the previous final tableau.

A polytope is a simplex iff its vertices are affinely independent.
``radon_partition`` decides that without an LP: the first affine
dependence among the vertices, read off an integer kernel vector of the
homogenised vertices by ``lp._rref``, is a circuit whose two sides give
the same point.
When both sides are vertex pairs, ``circuit_mixture`` turns it into a
machine-checkable crossing of two segments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import InternalCheckError, TheoryFormatError
from .lp import LPProblem, OPTIMAL, WarmStart, _integer_rows, _rref, lp_solve, rat
from .serialize import read_json, read_numbers

Point = tuple[Fraction, ...]


def parse_point(coords: Sequence) -> Point:
    return tuple(map(rat, coords))


class VPolytope:
    """Convex hull of finitely many points, stored irredundantly.

    Construction rejects duplicate or non-extreme input points, so
    ``vertices`` always equals the extreme points, and ``homogeneous``
    holds s*(v, 1) for each, with s the LCM of the denominators.  A vertex
    that the centroid functional exposes is extreme by that certificate;
    each other vertex gets an irredundancy LP against the rest.
    """

    def __init__(self, vertices: Iterable[Sequence], name: str | None = None):
        verts = [parse_point(v) for v in vertices]
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        dim = len(verts[0])
        for i, v in enumerate(verts):
            if len(v) != dim:
                raise ValueError(
                    f"vertex {i} has {len(v)} coordinates, expected {dim}"
                )
        self.ambient_dim = dim
        self.vertices: tuple[Point, ...] = tuple(verts)
        self.homogeneous = tuple(map(tuple, _integer_rows((*v, 1) for v in verts)))
        self._index = {r: i for i, r in enumerate(self.homogeneous)}  # int keys hash fast
        self.name = name
        self._check_irredundant()

    def _check_irredundant(self) -> None:
        rows = self.homogeneous
        exposed = centroid_exposed(rows)
        for i, v in enumerate(self.vertices):
            if exposed[i]:
                continue
            if _hull_contains(rows[:i] + rows[i + 1:], v):
                raise ValueError(
                    f"vertex {i} {tuple(map(str, v))} is redundant: it lies in "
                    "the hull of the remaining vertices"
                )

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"VPolytope(dim={self.ambient_dim}, vertices={len(self.vertices)}{tag})"

    def contains(self, point: Sequence) -> bool:
        p = parse_point(point)
        return self.vertex_index(p) is not None or _hull_contains(self.homogeneous, p)

    def vertex_index(self, point: Sequence) -> int | None:
        s = self.homogeneous[0][-1]  # the index holds s*(v, 1), as the rows do
        return self._index.get((*(x * s for x in parse_point(point)), s))

    def affine_image(self, matrix: Sequence[Sequence], shift: Sequence) -> "VPolytope":
        """Polytope with vertices M v + t (exact rational arithmetic)."""
        m = [[rat(x) for x in row] for row in matrix]
        t = [rat(x) for x in shift]
        if len(t) != len(m) or any(len(row) != self.ambient_dim for row in m):
            raise ValueError("affine map shape does not match the polytope")
        return VPolytope([tuple(sum(map(mul, row, v)) + s for row, s in zip(m, t))
                          for v in self.vertices], name=self.name)


def centroid_exposed(rows: Sequence[Sequence[int]]) -> list[bool]:
    """Whether the centroid functional c_i = n*v_i - sum_j v_j exposes each
    vertex: c_i.v_i > c_i.v_j for every j != i, which proves v_i an exposed
    point, so extreme and not repeated.

    Exact, with no LP.  With the Gram matrix G of the homogenised integer
    rows (one positive scale keeps every strict inequality; the common last
    entry adds one constant to G, which cancels) and s_j = sum_k G[k][j] =
    v_j.(sum_k v_k), c_i.v_j = n*G[i][j] - s_j.  G is symmetric, so each
    unordered pair's product is computed once and gives both scores.
    """
    n = len(rows)
    total = [sum(col) for col in zip(*rows)]
    sums = [sum(map(mul, v, total)) for v in rows]
    score = [[0] * n for _ in rows]  # score[i][j] = c_i.v_j
    for i, u in enumerate(rows):
        for j in range(i, n):
            g = n * sum(map(mul, u, rows[j]))
            score[i][j], score[j][i] = g - sums[j], g - sums[i]
    return [max(sc) == sc[i] and sc.count(sc[i]) == 1 for i, sc in enumerate(score)]


def _membership_problem(rows: Sequence[Sequence[int]], point: Point) -> LPProblem:
    """point^ = sum lam_i v_i^, lam >= 0, from rows s*(v, 1) with s the LCM of
    the vertices' denominators: ``_integer_rows`` of the ``Fraction`` rows."""
    if len(point) + 1 != len(rows[0]):
        raise ValueError(
            f"point has {len(point)} coordinates, polytope lives in "
            f"dimension {len(rows[0]) - 1}"
        )
    s = rows[0][-1]
    ratios = [c.as_integer_ratio() for c in point]
    scale = lcm(s, *(q for _, q in ratios))
    a_eq = tuple(tuple(x * (scale // s) for x in col) for col in zip(*rows))
    b_eq = tuple(p * (scale // q) for p, q in ratios) + (scale,)
    return LPProblem((0,) * len(rows), a_eq, b_eq)


def _hull_contains(rows: Sequence[Sequence[int]], point: Point) -> bool:
    sol = lp_solve(_membership_problem(rows, point))
    return sol.status == OPTIMAL


@dataclass(frozen=True)
class Face:
    """A face of a polytope, identified by the vertices it contains."""

    parent: VPolytope
    vertex_indices: tuple[int, ...]

    @property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(self.parent.vertices[i] for i in self.vertex_indices)

    @cached_property
    def affine_dimension(self) -> int:
        return affine_dimension_of(self.vertices)


def minimal_face(k: VPolytope, point: Sequence) -> Face:
    """Smallest face of `k` containing `point`, harvested from LP supports.

    A vertex belongs to the minimal face iff some convex representation
    lam of the point gives it positive weight.  Over the representations,
    maximize the total weight of the undecided vertices U (all at first):
    every vertex with lam_i > 0 at the exact optimum is in the face, with
    that optimum as its certificate, and leaves U.  An optimum of 0 means
    every vertex left in U has weight 0 in every representation, so none
    is in the face.  Each LP that does not stop the loop decides at least
    one vertex, so a call solves at most min(|F| + 1, n) LPs; they share
    one feasible set, so the first also decides membership, and the rows
    are built once.  Only the first runs phase 1: each later LP starts
    from the previous optimal tableau (``WarmStart``), which the call
    drops when it returns.  It may end at another optimal representation
    than a cold solve, but the face, being unique, is the same.
    """
    p = parse_point(point)
    n = len(k.vertices)
    problem = _membership_problem(k.homogeneous, p)
    undecided = set(range(n))
    face = []
    warm = WarmStart()
    while undecided:
        obj = tuple(-1 if i in undecided else 0 for i in range(n))
        sol = lp_solve(replace(problem, objective=obj), warm)
        if sol.status != OPTIMAL:
            raise ValueError(f"point {tuple(map(str, p))} is not in the polytope")
        if sol.value == 0:
            break
        hit = [i for i in undecided if sol.point[i] > 0]
        face += hit
        undecided.difference_update(hit)
    return Face(k, tuple(sorted(face)))


def generated_face(k: VPolytope, x: Sequence, y: Sequence) -> Face:
    """Smallest face containing both points: the minimal face of their
    midpoint (any face containing an interior segment point contains both
    endpoints)."""
    px, py = parse_point(x), parse_point(y)
    if px == py:
        raise ValueError("generated_face needs two distinct points")
    mid = tuple((a + b) / 2 for a, b in zip(px, py))
    return minimal_face(k, mid)


def affine_dimension_of(points: Sequence[Point]) -> int:
    """Dimension of the affine hull: the rank of the homogenised points
    (p, 1), scaled to integers and row-reduced exactly, minus 1.  It equals
    the rank of the differences from the first point."""
    return len(_rref(_integer_rows((*p, 1) for p in points))[1]) - 1

# ---------------------------------------------------------------------------
# Simplex decisions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmbiguousMixtureCertificate:
    """A point written two ways as an interior mixture of vertex pairs:
    lam*w + (1-lam)*x == mu*y + (1-mu)*z with lam, mu in (0,1) and
    w not in {y, z}."""

    indices: tuple[int, int, int, int]  # w, x, y, z
    w: Point
    x: Point
    y: Point
    z: Point
    lam: Fraction
    mu: Fraction

    def mixture_point(self) -> Point:
        return tuple(self.lam * a + (1 - self.lam) * b for a, b in zip(self.w, self.x))

    def validate(self) -> bool:
        """Exact re-check, independent of how the certificate was found."""
        if not (0 < self.lam < 1 and 0 < self.mu < 1):
            return False
        iw, _, iy, iz = self.indices
        if iw in (iy, iz):
            return False
        left = self.mixture_point()
        right = tuple(self.mu * a + (1 - self.mu) * b for a, b in zip(self.y, self.z))
        return left == right


def radon_partition(k: VPolytope):
    """Radon partition from the first affine dependence among the vertices.

    ``_rref`` reduces the integer matrix whose columns are the rows
    s*(v_i, 1) of ``k.homogeneous``.  Its first non-pivot column gives an
    integer kernel vector lam supported on a circuit.  Returns its positive
    and negative parts as {index: weight} maps, each scaled to sum 1, and
    the point both convex combinations give; None if independent.
    """
    verts = k.vertices
    tab, pivots, den = _rref([list(row) for row in zip(*k.homogeneous)])
    col = next((j for j, p in enumerate(pivots) if p != j), len(pivots))
    if col == len(verts):
        return None
    # Columns 0..col-1 are den times unit columns:
    # den * column col = sum_i tab[i][col] * column i.
    lam = [-tab[i][col] for i in range(col)] + [den]
    total = sum(c for c in lam if c > 0)
    first = {i: Fraction(c, total) for i, c in enumerate(lam) if c > 0}
    second = {i: Fraction(-c, total) for i, c in enumerate(lam) if c < 0}
    point = tuple(sum(w * verts[i][d] for i, w in first.items()) for d in range(k.ambient_dim))
    return first, second, point


def find_ambiguous_mixture(k: VPolytope) -> AmbiguousMixtureCertificate | None:
    """The first affine circuit, when it is two vertices against two."""
    return circuit_mixture(k, radon_partition(k))


def circuit_mixture(k: VPolytope, radon) -> AmbiguousMixtureCertificate | None:
    """The ambiguous mixture a ``radon_partition`` result gives, if any.

    A circuit of two vertices against two says that two segments between
    disjoint vertex pairs cross at an interior point.  The pair holding the
    lower index comes first (w < x, y < z), with lam and mu the weights on
    w and y.  Any other circuit, or None, gives None.
    """
    if radon is None or len(radon[0]) != 2 or len(radon[1]) != 2:
        return None
    low, high = sorted(sorted(side.items()) for side in radon[:2])
    (w, lam), (x, _) = low
    (y, mu), (z, _) = high
    cert = AmbiguousMixtureCertificate(
        indices=(w, x, y, z),
        w=k.vertices[w], x=k.vertices[x], y=k.vertices[y], z=k.vertices[z],
        lam=lam, mu=mu,
    )
    if not cert.validate():
        raise InternalCheckError("constructed ambiguous-mixture certificate failed validation")
    return cert


# ---------------------------------------------------------------------------
# Theory files
# ---------------------------------------------------------------------------

def theory_to_dict(k: VPolytope) -> dict:
    return {
        "name": k.name or "polytope",
        "ambient_dim": k.ambient_dim,
        "vertices": [[str(c) for c in v] for v in k.vertices],
    }


def theory_from_dict(data, source: str = "<dict>") -> VPolytope:
    if not isinstance(data, dict):
        raise TheoryFormatError(f"{source}: top level must be an object")
    for field in ("name", "ambient_dim", "vertices"):
        if field not in data:
            raise TheoryFormatError(f"{source}: missing field {field!r}")
    name = data["name"]
    if not isinstance(name, str):
        raise TheoryFormatError(f"{source}: field 'name' must be a string")
    dim = data["ambient_dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise TheoryFormatError(f"{source}: field 'ambient_dim' must be a positive integer")
    raw = data["vertices"]
    if not isinstance(raw, list) or not raw:
        raise TheoryFormatError(f"{source}: field 'vertices' must be a nonempty list")
    verts = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise TheoryFormatError(
                f"{source}: vertex {i} must be a list of {dim} coordinates"
            )
        verts.append(read_numbers(row, f"{source}: vertex {i} coordinate", TheoryFormatError))
    try:
        return VPolytope(verts, name=name)
    except ValueError as exc:
        raise TheoryFormatError(f"{source}: {exc}") from exc


def load_theory(path: str) -> VPolytope:
    return theory_from_dict(read_json(path, TheoryFormatError), source=path)
