"""Test-side shapes and re-checks that the package itself does not need."""

from fractions import Fraction

from convexstate.polytope import VPolytope, minimal_face


def make_square() -> VPolytope:
    """conv{(+-1,0), (0,+-1)}: the smallest polytope that is not a simplex."""
    return VPolytope([(1, 0), (0, 1), (-1, 0), (0, -1)], name="square")


# Not full-dimensional, so the rows of their membership and ratio LPs are
# dependent and each start drops one: a square in the plane z = 0 of R^3
# (its z row is all zero) and a tilted triangle in R^3 (four rows of rank
# three).
FLAT_POLYTOPES = {
    "square_z0": VPolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    "tilted_triangle": VPolytope([("1/2", 0, 2), (0, 3, -1), (1, 1, 1)]),
}


def barycenter(points) -> tuple:
    """Exact mean of rational points."""
    return tuple(sum(col, Fraction(0)) / len(points) for col in zip(*points))


def is_face(k: VPolytope, vertex_indices) -> bool:
    """Whether a vertex subset is exactly a face of k: the minimal face of
    its barycenter must list the same vertices."""
    idx = tuple(sorted(vertex_indices))
    return minimal_face(k, barycenter([k.vertices[i] for i in idx])).vertex_indices == idx
