"""Static traceability table: which claim is checked where.

Each entry names a mathematical claim the toolkit verifies, the library
operations that implement the check, and the tests that pin its expected
values.  The ``trace`` CLI subcommand renders this table; the acceptance
suite asserts that every claim lists at least one operation and one test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .serialize import jsonable


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    operations: tuple[str, ...]
    tests: tuple[str, ...]


CLAIMS: tuple[Claim, ...] = (
    Claim(
        id="octahedron-refuted",
        statement=(
            "The octahedral state space (convex hull of the six signed "
            "coordinate vectors) is not a simplex yet has finitely many "
            "extreme points, so it is refuted as a Jordan-algebraic state "
            "space; the refutation certificate is an exact rational point "
            "with two distinct convex decompositions."
        ),
        operations=(
            "admissibility.check_polytope",
            "polytope.radon_partition",
            "polytope.circuit_mixture",
            "models.make_spekkens_hull",
        ),
        tests=(
            "tests/test_admissibility.py::test_spekkens_refuted",
            "tests/test_acceptance.py::test_octahedron_refutation",
        ),
    ),
    Claim(
        id="octahedron-ratio-identity",
        statement=(
            "All pairwise transition ratios between the six octahedron "
            "vertices form the exact identity pattern: 1 on the diagonal, "
            "0 off it."
        ),
        operations=(
            "transition.affine_ratio_polytope",
            "lp.lp_solve",
        ),
        tests=(
            "tests/test_transition.py::test_spekkens_ratio_matrix_identity",
            "tests/test_acceptance.py::test_octahedron_refutation",
        ),
    ),
    Claim(
        id="octahedron-zero-witness",
        statement=(
            "The functional f(x) = (1 + (e1 - e2 + e3) . x) / 2 is feasible "
            "on all six octahedron vertices with f(e1) = 1 and f(e2) = 0, so "
            "it certifies ratio(e1, e2) = 0 and matches the LP optimum "
            "exactly."
        ),
        operations=(
            "transition.affine_ratio_polytope",
            "transition.AffineFunctional",
        ),
        tests=(
            "tests/test_acceptance.py::test_explicit_zero_witness",
        ),
    ),
    Claim(
        id="qubit-ratio-closed-form",
        statement=(
            "For pure qubit states the transition ratio has the closed form "
            "(1 + x . y) / 2 in Bloch coordinates and equals the overlap "
            "Tr(E F) of the corresponding projectors."
        ),
        operations=(
            "transition.affine_ratio_bloch",
            "transition.affine_ratio_quantum",
        ),
        tests=(
            "tests/test_transition.py::test_bloch_matches_projector_overlap",
            "tests/test_acceptance.py::test_bloch_closed_form",
        ),
    ),
    Claim(
        id="separable-superposition-gap",
        statement=(
            "For product states orthogonal in both factors, no separable "
            "state has transition ratio 1/2 to both: by the identity "
            "1 - (a + c - 2ac) = (1 - a)(1 - c) + ac the overlap bound "
            "a + c - 2ac reaches 1 only at the corners (1,0) and (0,1), "
            "where one of the two required transition probabilities is 0."
        ),
        operations=(
            "transition.superposability_search",
            "transition.overlap_square_surface",
        ),
        tests=(
            "tests/test_transition.py::test_separable_superposability_absent",
            "tests/test_acceptance.py::test_overlap_surface_corners",
        ),
    ),
    Claim(
        id="product-path-connectivity",
        statement=(
            "Any two pure product states are joined by a norm-continuous "
            "path of pure product states: turning one factor at a time "
            "along its Bloch great circle, the path is Lipschitz with "
            "constant max(theta_A, theta_B)/sqrt(2), since "
            "||(P - P') (x) Q||_HS = ||P - P'||_HS for a pure Q.  The "
            "certificate is the two factor angles; no path is sampled."
        ),
        operations=(
            "transition.product_path_certificate",
        ),
        tests=(
            "tests/test_acceptance.py::test_product_path_certificate",
        ),
    ),
    Claim(
        id="separable-theory-refuted",
        statement=(
            "The separable two-qubit state space has norm-connected extreme "
            "points but lacks equal superpositions, so it is refuted as a "
            "Jordan-algebraic state space; both certificate halves, the "
            "closed-form path certificate and the overlap-square identity, "
            "re-validate independently."
        ),
        operations=(
            "admissibility.check_separable_pair",
            "transition.superposability_search",
            "transition.product_path_certificate",
        ),
        tests=(
            "tests/test_admissibility.py::test_separable_pair_refuted",
            "tests/test_acceptance.py::test_separable_theory_refutation",
        ),
    ),
    Claim(
        id="jordan-axioms-hold",
        statement=(
            "The symmetrized matrix product satisfies the Jordan identity "
            "and the three norm inequalities (submultiplicativity, square "
            "identity, square dominance) on random Hermitian pairs."
        ),
        operations=(
            "linalg.jordan_product",
            "admissibility.jordan_identity_residual",
            "admissibility.jb_norm_inequalities",
        ),
        tests=(
            "tests/test_admissibility.py::test_jordan_identity_random",
            "tests/test_acceptance.py::test_jordan_axiom_suites",
        ),
    ),
    Claim(
        id="cloning-contradiction",
        statement=(
            "A cloner would force ratio(x, y) <= ratio(x, y)^2 through the "
            "embedding and doubling chain, impossible for ratios strictly "
            "between 0 and 1; the embedded ratio equals r and the doubled "
            "ratio equals r squared."
        ),
        operations=(
            "protocols.cloning_contradiction",
            "transition.affine_ratio_quantum",
        ),
        tests=(
            "tests/test_protocols.py::test_cloning_chain_random_pairs",
            "tests/test_acceptance.py::test_cloning_chain",
        ),
    ),
    Claim(
        id="commitment-concealing-not-binding-qm",
        statement=(
            "The two commitment states have identical reductions on the "
            "receiving side (concealment), and with entanglement the "
            "committer can steer a shared singlet into either commitment by "
            "a local measurement channel (no binding in quantum mechanics)."
        ),
        operations=(
            "protocols.build_bb84_states",
            "protocols.concealment_check",
            "protocols.qm_unbinding_demo",
        ),
        tests=(
            "tests/test_protocols.py::test_concealment",
            "tests/test_protocols.py::test_qm_unbinding_exact",
            "tests/test_acceptance.py::test_bit_commitment_analysis",
        ),
    ),
    Claim(
        id="commitment-binding-separable",
        statement=(
            "Without entanglement the singlet is unavailable (partial "
            "transpose eigenvalue -1/2), and a multi-start search over "
            "separable commitments with local opening channels finds no "
            "attack: the best residual stays above the evidence threshold "
            "0.01.  This is evidence for binding, not a proof."
        ),
        operations=(
            "protocols.binding_attack_search",
            "models.separable_membership",
        ),
        tests=(
            "tests/test_protocols.py::test_binding_residual_stays_large",
            "tests/test_acceptance.py::test_bit_commitment_analysis",
        ),
    ),
    Claim(
        id="verdict-affine-invariance",
        statement=(
            "JB admissibility verdicts for polytopes are invariant under "
            "invertible rational affine maps of the ambient space."
        ),
        operations=(
            "admissibility.check_polytope",
            "polytope.VPolytope.affine_image",
        ),
        tests=(
            "tests/test_admissibility.py::test_affine_invariance",
            "tests/test_acceptance.py::test_affine_invariance",
        ),
    ),
)


def claims_table() -> list[dict]:
    return [jsonable(c) for c in CLAIMS]
