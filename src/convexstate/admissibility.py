"""Necessary conditions for a convex set to be a JB-algebra state space.

The state space of a JB algebra (self-adjoint part of a matrix or operator
algebra with the symmetrized product) is constrained:

1. the face generated by two distinct extreme points is a Euclidean ball
   B^n for some n >= 1 (a segment when n = 1);
2. if the space is not a simplex, some generated face is a ball with
   n >= 2, so the extreme points form a continuum — a polytope that is not
   a simplex is therefore ruled out immediately;
3. if the extreme points are norm-path-connected, some pair must admit an
   equal-superposition state z (both transition probabilities 1/2).

``check_polytope`` and ``check_separable_pair`` return a JBVerdict that
carries the certificate of its verdict and nothing else: for a polytope,
one read off its first affine circuit, or the simplex (the state space of R^n);
for the separable pair, the closed-form path certificate (factor angles,
Lipschitz constant, norm identity) and the superposability transcript.

Jordan-algebra sanity checks for matrix inputs (the Jordan identity and
the JB norm inequalities) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, transition
from .config import DEFAULT_TOL
from .errors import PreconditionError
from .polytope import Face, VPolytope, circuit_mixture, generated_face, radon_partition

REFUTED = "refuted"
NOT_REFUTED = "not_refuted"

FINITE_NONSIMPLEX = "finite_nonsimplex"
FACE_NOT_BALL = "face_not_ball"
CONNECTED_BUT_UNSUPERPOSABLE = "connected_but_unsuperposable"


# ---------------------------------------------------------------------------
# Jordan-algebra checks on matrices
# ---------------------------------------------------------------------------

def jordan_identity_residual(a, b) -> float:
    """HS norm of ((a.a).b).a - (a.a).(b.a), zero for any JB algebra
    (with . the symmetrized product)."""
    ma = linalg.require_hermitian(a, what="a")
    mb = linalg.require_hermitian(b, what="b")
    aa = linalg.jordan_product(ma, ma)
    lhs = linalg.jordan_product(linalg.jordan_product(aa, mb), ma)
    rhs = linalg.jordan_product(aa, linalg.jordan_product(mb, ma))
    return linalg.hs_distance(lhs, rhs)


@dataclass(frozen=True)
class NormInequalityReport:
    submultiplicative: bool   # |a.b|  <= |a| |b|
    square_identity: bool     # |a.a|  == |a|^2
    square_dominance: bool    # |a.a|  <= |a.a + b.b|
    norms: dict

    @property
    def all_hold(self) -> bool:
        return self.submultiplicative and self.square_identity and self.square_dominance


def jb_norm_inequalities(a, b) -> NormInequalityReport:
    """The three JB norm conditions in the operator norm, with additive
    slack ``DEFAULT_TOL``."""
    ma = linalg.require_hermitian(a, what="a")
    mb = linalg.require_hermitian(b, what="b")
    na, nb = linalg.operator_norm(ma), linalg.operator_norm(mb)
    ab = linalg.jordan_product(ma, mb)
    aa = linalg.jordan_product(ma, ma)
    bb = linalg.jordan_product(mb, mb)
    n_ab = linalg.operator_norm(ab)
    n_aa = linalg.operator_norm(aa)
    n_sum = linalg.operator_norm(aa + bb)
    scale = max(1.0, na, nb) ** 2
    return NormInequalityReport(
        submultiplicative=n_ab <= na * nb + DEFAULT_TOL * scale,
        square_identity=abs(n_aa - na * na) <= DEFAULT_TOL * scale,
        square_dominance=n_aa <= n_sum + DEFAULT_TOL * scale,
        norms={"|a|": na, "|b|": nb, "|a.b|": n_ab, "|a.a|": n_aa,
               "|a.a + b.b|": n_sum},
    )


# ---------------------------------------------------------------------------
# Ball descriptors and verdicts
# ---------------------------------------------------------------------------

def ball_descriptor(face: Face) -> dict:
    """Which ball B^n a face could be, as {"is_ball", "n", "note"}.  Only
    n = 1 is decidable from a polytope face: a segment.  Anything else with
    finitely many vertices is not a ball at all, and n is "not_a_ball"."""
    k = len(face.vertex_indices)
    if k == 2:
        return {"is_ball": True, "n": 1, "note": "segment"}
    note = ("single point (degenerate: not generated by two distinct extreme points)"
            if k == 1 else f"{k} extreme points, affine dimension {face.affine_dimension}")
    return {"is_ball": False, "n": "not_a_ball", "note": note}


@dataclass(frozen=True)
class JBVerdict:
    verdict: str                      # refuted | not_refuted
    failed_condition: str | None
    certificate: dict | None


def check_polytope(k: VPolytope) -> JBVerdict:
    """Decide the necessary conditions for a finite-vertex state space.

    A polytope's extreme points are isolated, so the path-connectivity
    condition never applies; the binding conditions are (1) and (2).  The
    vertices are a simplex iff they are affinely independent, and a
    non-simplex JB state space would need continuum many extreme points, so
    any affine dependence refutes a polytope outright.  The verdict reads
    the first affine circuit A | B off ``radon_partition``, exactly and
    without an LP, and certifies it by its shape:

    * no circuit: a simplex, the state space of R^n; every vertex subset
      spans a face, so each pair generates its own edge (no LP);
    * |A| = |B| = 2: two vertex segments cross, an ambiguous mixture;
    * one side is a pair: the Radon point is interior to that pair's
      segment, so the face the pair generates holds the whole circuit, at
      least 5 extreme points, which no ball B^n has (one face computation);
    * otherwise: the Radon partition itself.

    One side cannot be a single vertex, since ``VPolytope`` keeps only
    extreme points.
    """
    n = len(k.vertices)
    nonsimplex_note = ("a non-simplex JB state space needs continuum many "
                       f"extreme points, but this polytope has {n}")
    radon = radon_partition(k)
    cert = circuit_mixture(k, radon)
    if cert is not None:
        failed, certificate = FINITE_NONSIMPLEX, {
            "kind": "ambiguous_mixture",
            "indices": list(cert.indices),
            "w": cert.w, "x": cert.x, "y": cert.y, "z": cert.z,
            "lam": cert.lam, "mu": cert.mu,
            "mixture_point": cert.mixture_point(),
            "note": "a point interior to two different vertex segments; " + nonsimplex_note,
        }
    elif radon is None:
        failed, certificate = None, {
            "kind": "simplex",
            "note": ("the vertices are affinely independent, so every vertex "
                     "subset spans a face and each pair generates its own "
                     "edge, a ball B^1; the simplex is the state space of the "
                     f"commutative JB algebra R^{n}"),
        }
    elif pair := next((sorted(side) for side in radon[:2] if len(side) == 2), None):
        f = generated_face(k, *(k.vertices[i] for i in pair))
        failed, certificate = FACE_NOT_BALL, {
            "kind": "non_ball_face",
            "pair": pair,
            "face_vertices": list(f.vertex_indices),
            "ball": ball_descriptor(f),
            "note": (
                "the face generated by this extreme pair has "
                f"{len(f.vertex_indices)} extreme points; no "
                "Euclidean ball B^n has finitely many extreme "
                "points beyond a segment's two"
            ),
        }
    else:
        first, second, point = radon
        failed, certificate = FINITE_NONSIMPLEX, {
            "kind": "affine_dependence",
            "first": {"indices": list(first), "weights": list(first.values())},
            "second": {"indices": list(second), "weights": list(second.values())},
            "point": point,
            "note": ("two convex combinations of disjoint vertex sets give "
                     "the same point; " + nonsimplex_note),
        }
    return JBVerdict(NOT_REFUTED if failed is None else REFUTED, failed, certificate)


def check_separable_pair(x, y) -> JBVerdict:
    """Connectivity vs superposability for the separable two-qubit theory.

    The inputs must be orthogonal pure product states, orthogonal in both
    factors.  A Lipschitz path of pure product states connects them (its
    certificate is the factor angles and one norm identity), yet no pure
    product state is an equal superposition of them; a JB state space with
    path-connected extreme points cannot do that.
    """
    x, y = transition.product_state(x, what="x"), transition.product_state(y, what="y")
    path = transition.product_path_certificate(x, y)
    search = transition.superposability_search(transition.StateSpaceHandle.separable_2x2(), x, y)
    if not path["factor_identity_deviation"] <= 1e-12:
        raise PreconditionError(f"product path failed its norm identity: {path}")
    certificate = {
        "kind": "connected_but_unsuperposable",
        "path": path,
        "search": {
            "found": search.found,
            "overlaps": search.overlaps,
            **search.transcript,
        },
        "note": (
            "extreme points are norm-path-connected but the pair admits no "
            "equal superposition, which a JB state space would require"
        ),
    }
    return JBVerdict(REFUTED, CONNECTED_BUT_UNSUPERPOSABLE, certificate)
