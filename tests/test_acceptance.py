"""End-to-end acceptance checks for the toolkit's headline claims.

Each test prints a single pass or fail line, so running this file with
`pytest tests/test_acceptance.py -s` doubles as a human-readable report.
Expected values are frozen from independent derivations; nothing here is
read back from the code under test.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from convexstate import cli, linalg
from convexstate.admissibility import (
    CONNECTED_BUT_UNSUPERPOSABLE,
    FINITE_NONSIMPLEX,
    NOT_REFUTED,
    REFUTED,
    check_polytope,
    check_separable_pair,
    jb_norm_inequalities,
    jordan_identity_residual,
)
from convexstate.models import make_classical_simplex, make_spekkens_hull
from convexstate.polytope import AmbiguousMixtureCertificate
from convexstate.protocols import cloning_contradiction, run_bit_commitment_analysis
from convexstate.transition import (
    AffineFunctional,
    StateSpaceHandle,
    affine_ratio_bloch,
    affine_ratio_polytope,
    overlap_square_surface,
    path_connect_product_states,
    path_report,
    superposability_search,
)
from shapes import make_square

F = Fraction


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _fracs(row):
    return tuple(F(v) for v in row)


# ---------------------------------------------------------------------------
# 1. The octahedral hull is refuted, with an exact certificate and an
#    identity-pattern transition matrix, in under a second.
# ---------------------------------------------------------------------------

def test_octahedron_refutation(tmp_path):
    with criterion("octahedron refutation"):
        out = tmp_path / "analysis.json"
        start = time.perf_counter()
        assert cli.main(["analyze", "spekkens", "--out", str(out)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"analyze took {elapsed:.2f}s"

        report = json.loads(out.read_text())
        verdict = report["verdict"]
        assert verdict["verdict"] == "refuted"
        assert verdict["failed_condition"] == "finite_nonsimplex"

        cert = verdict["certificate"]
        rebuilt = AmbiguousMixtureCertificate(
            indices=tuple(cert["indices"]),
            w=_fracs(cert["w"]), x=_fracs(cert["x"]),
            y=_fracs(cert["y"]), z=_fracs(cert["z"]),
            lam=F(cert["lam"]), mu=F(cert["mu"]),
        )
        assert rebuilt.validate()
        assert _fracs(cert["mixture_point"]) == rebuilt.mixture_point()

        matrix = report["ratio_matrix"]
        assert len(matrix) == 6
        for i, row in enumerate(matrix):
            assert row == ["1" if j == i else "0" for j in range(6)]


# ---------------------------------------------------------------------------
# 2. The hand-written zero witness f(p) = (p1 - p2 + p3 + 1) / 2 is feasible
#    and meets the LP optimum for the e1 -> e2 transition.
# ---------------------------------------------------------------------------

def test_explicit_zero_witness():
    with criterion("explicit zero witness"):
        hull = make_spekkens_hull()
        f = AffineFunctional(normal=(F(1, 2), F(-1, 2), F(1, 2)), offset=F(1, 2))

        for v in hull.vertices:
            assert 0 <= f(v) <= 1
        e1, e2 = hull.vertices[0], hull.vertices[2]
        assert f(e1) == 1
        assert f(e2) == 0

        result = affine_ratio_polytope(hull, e1, e2)
        assert result.exact
        assert result.value == 0 == f(e2)
        # The solver's own witness must be feasible and optimal too.
        g = result.witness
        assert g(e1) == 1 and g(e2) == result.value
        assert all(0 <= g(v) <= 1 for v in hull.vertices)


# ---------------------------------------------------------------------------
# 3. On the Bloch ball the affine ratio is (1 + x.y) / 2 = Tr(E F).
# ---------------------------------------------------------------------------

def test_bloch_closed_form():
    with criterion("Bloch closed form"):
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for _ in range(1000):
            x, y = rng.normal(size=(2, 3))
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            ratio = affine_ratio_bloch(x, y).value
            overlap = float(np.real(np.trace(
                linalg.bloch_projector(x) @ linalg.bloch_projector(y))))
            worst = max(worst, abs(ratio - overlap))
        assert worst <= 1e-10, f"worst deviation {worst:.3e}"


# ---------------------------------------------------------------------------
# 4. The overlap surface a + c - 2ac maxes at exactly 1, only at the two
#    corners, where one transition probability vanishes; under 10 seconds.
# ---------------------------------------------------------------------------

def test_overlap_surface_corners():
    with criterion("overlap surface corners"):
        x = linalg.projector(linalg.ket("01"))
        y = linalg.projector(linalg.ket("10"))
        handle = StateSpaceHandle.separable_2x2()

        start = time.perf_counter()
        cert = superposability_search(handle, x, y)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"search took {elapsed:.2f}s"

        assert not cert.found
        t = cert.transcript
        assert abs(t["surface_max"] - 1.0) <= 1e-10
        assert t["corners_only"]
        assert sorted(t["near_max_points"]) == [(0.0, 1.0), (1.0, 0.0)]
        for report in t["corner_reports"]:
            assert report["vanishing_bound"] <= 1e-12

        # Independent sweep: away from the two corner cells the surface
        # stays clear of 1 by much more than 1e-6.
        axis = np.linspace(0.0, 1.0, 1024)
        aa, cc = np.meshgrid(axis, axis, indexing="ij")
        surface = overlap_square_surface(aa, cc)
        assert abs(float(surface.max()) - 1.0) <= 1e-10
        surface[0, -1] = surface[-1, 0] = -np.inf
        assert float(surface.max()) < 1.0 - 1e-6


# ---------------------------------------------------------------------------
# 5. The two-leg product path has exact endpoints and every step's full-state
#    distance equals the moving factor's distance.
# ---------------------------------------------------------------------------

def test_product_path_distances():
    with criterion("product path distances"):
        x = linalg.projector(linalg.ket("01"))
        y = linalg.projector(linalg.ket("10"))
        path = path_connect_product_states(x, y, steps=64)

        assert np.array_equal(path[0], x)
        assert np.array_equal(path[-1], y)
        report = path_report(path)
        assert report["factor_identity_deviation"] <= 1e-12
        assert report["max_consecutive_distance"] <= np.pi / 64 * np.sqrt(2.0)


# ---------------------------------------------------------------------------
# 6. The separable two-qubit theory is refuted: connected but unsuperposable,
#    and both halves of the certificate re-validate from the dict alone.
# ---------------------------------------------------------------------------

def test_separable_theory_refutation():
    with criterion("separable theory refutation"):
        x = linalg.projector(linalg.ket("01"))
        y = linalg.projector(linalg.ket("10"))
        verdict = check_separable_pair(x, y)
        assert verdict.verdict == REFUTED
        assert verdict.failed_condition == CONNECTED_BUT_UNSUPERPOSABLE

        cert = verdict.certificate
        path_half = cert["path"]
        assert path_half["factor_identity_deviation"] <= 1e-12
        assert path_half["max_consecutive_distance"] <= path_half["distance_bound"]

        search_half = cert["search"]
        assert search_half["found"] is False
        assert search_half["corners_only"]
        assert abs(search_half["surface_max"] - 1.0) <= 1e-10
        for report in search_half["corner_reports"]:
            assert report["vanishing_bound"] <= 1e-12


# ---------------------------------------------------------------------------
# 7. Hermitian matrices satisfy the Jordan identity and the three JB norm
#    inequalities across dimensions 2 through 6.
# ---------------------------------------------------------------------------

def test_jordan_axiom_suites():
    with criterion("Jordan axiom suites"):
        rng = np.random.default_rng(8675309)
        for trial in range(1000):
            dim = 2 + trial % 5
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = (a + a.conj().T) / 2
            b = (b + b.conj().T) / 2
            residual = jordan_identity_residual(a, b)
            # The identity is cubic in a and linear in b.
            scale = (1.0 + np.linalg.norm(a)) ** 3 * (1.0 + np.linalg.norm(b))
            assert residual <= 1e-11 * scale
            assert jb_norm_inequalities(a, b).all_hold


# ---------------------------------------------------------------------------
# 8. The cloning chain r_embed = r, clone bound = r^2 < r holds for random
#    non-orthogonal pure qubit pairs, always yielding the contradiction.
# ---------------------------------------------------------------------------

def test_cloning_chain():
    with criterion("cloning chain"):
        rng = np.random.default_rng(424242)
        checked = 0
        while checked < 1000:
            x, y = rng.normal(size=(2, 3))
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            r = (1.0 + float(np.dot(x, y))) / 2.0
            if not 1e-6 < r < 1.0 - 1e-6:
                continue
            report = cloning_contradiction(x, y)
            assert abs(report.r_embed - report.r) <= 1e-10
            assert abs(report.r_clone_bound - report.r ** 2) <= 1e-10
            assert report.r > report.r_squared
            assert report.contradiction
            checked += 1


# ---------------------------------------------------------------------------
# 9. Bit commitment: the standard scheme conceals exactly; quantum mechanics
#    unbinds it through an entangled opening; the separable theory resists a
#    budgeted attack search (evidence of binding, not a proof).
# ---------------------------------------------------------------------------

def test_bit_commitment_analysis():
    with criterion("bit commitment analysis"):
        report = run_bit_commitment_analysis(support=8, starts=32, seed=0,
                                             sweeps=30)
        assert report.concealing
        assert report.concealment_deviation <= 1e-12

        assert abs(report.epr_partial_transpose_min_eig + 0.5) <= 1e-10
        assert not report.epr_separable

        assert report.qm_unbinding_demonstrated
        assert report.qm_unbinding_max_deviation <= 1e-12

        search = report.search
        assert (search.support, search.starts, search.seed) == (8, 32, 0)
        assert search.residual > 0.01
        assert report.separable_binding_residual == search.residual
        assert "not a proof" in search.message
        assert search.evaluations == 222638
        assert search.best_start == 0
        assert search.residual == 0.12500482608117544


# ---------------------------------------------------------------------------
# 10. Verdicts are invariant under invertible rational affine images.
# ---------------------------------------------------------------------------

def _exact_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _exact_det(minor)
    return total


def _random_affine(rng, n):
    while True:
        m = [[F(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
              for _ in range(n)] for _ in range(n)]
        if _exact_det(m) != 0:
            shift = [F(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))
                     for _ in range(n)]
            return m, shift


def test_affine_invariance():
    with criterion("affine invariance of verdicts"):
        rng = np.random.default_rng(1234)
        spaces = [make_spekkens_hull(), make_classical_simplex(3), make_square()]
        expected = [(REFUTED, FINITE_NONSIMPLEX), (NOT_REFUTED, None),
                    (REFUTED, FINITE_NONSIMPLEX)]
        for space, (want_verdict, want_condition) in zip(spaces, expected):
            base = check_polytope(space)
            assert (base.verdict, base.failed_condition) == (want_verdict,
                                                             want_condition)
            for _ in range(10):
                matrix, shift = _random_affine(rng, space.ambient_dim)
                moved = check_polytope(space.affine_image(matrix, shift))
                assert moved.verdict == base.verdict
                assert moved.failed_condition == base.failed_condition
