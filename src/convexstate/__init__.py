"""Convex state spaces versus Jordan-algebraic admissibility.

The toolkit decides whether a convex state space, given by its extreme
points or by membership and maximization oracles, passes the necessary
conditions for being the state space of a Jordan-Banach algebra, and
reproduces two worked refutations: the octahedral epistemic toy theory
and the separable two-qubit theory.  Protocol consequences (cloning,
bit commitment) live in :mod:`convexstate.protocols`.
"""

from .admissibility import (FACE_NOT_BALL, FINITE_NONSIMPLEX,
                            CONNECTED_BUT_UNSUPERPOSABLE, NOT_REFUTED,
                            REFUTED, JBVerdict, check_polytope,
                            check_separable_pair, jb_norm_inequalities,
                            jordan_identity_residual)
from .config import DEFAULT_TOL
from .errors import InternalCheckError, PreconditionError, TheoryFormatError
from .models import (SeparableTwoQubits, make_classical_simplex,
                     make_spekkens_hull, separable_membership)
from .polytope import (Face, VPolytope, find_ambiguous_mixture, generated_face,
                       is_simplex, load_theory, minimal_face, theory_from_dict,
                       theory_to_dict)
from .protocols import (binding_attack_search, build_bb84_states,
                        cloning_contradiction, concealment_check,
                        qm_unbinding_demo, run_bit_commitment_analysis)
from .transition import (RatioResult, StateSpaceHandle, affine_ratio,
                         affine_ratio_bloch, affine_ratio_polytope,
                         affine_ratio_quantum, affine_ratio_separable,
                         path_connect_product_states, path_report,
                         superposability_search)

__version__ = "0.1.0"

__all__ = [
    "CONNECTED_BUT_UNSUPERPOSABLE",
    "DEFAULT_TOL",
    "FACE_NOT_BALL",
    "FINITE_NONSIMPLEX",
    "Face",
    "InternalCheckError",
    "JBVerdict",
    "NOT_REFUTED",
    "PreconditionError",
    "RatioResult",
    "REFUTED",
    "SeparableTwoQubits",
    "StateSpaceHandle",
    "TheoryFormatError",
    "VPolytope",
    "affine_ratio",
    "affine_ratio_bloch",
    "affine_ratio_polytope",
    "affine_ratio_quantum",
    "affine_ratio_separable",
    "binding_attack_search",
    "build_bb84_states",
    "check_polytope",
    "check_separable_pair",
    "cloning_contradiction",
    "concealment_check",
    "find_ambiguous_mixture",
    "generated_face",
    "is_simplex",
    "jb_norm_inequalities",
    "jordan_identity_residual",
    "load_theory",
    "make_classical_simplex",
    "make_spekkens_hull",
    "minimal_face",
    "path_connect_product_states",
    "path_report",
    "qm_unbinding_demo",
    "run_bit_commitment_analysis",
    "separable_membership",
    "superposability_search",
    "theory_from_dict",
    "theory_to_dict",
]
