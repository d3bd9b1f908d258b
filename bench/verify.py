"""Independent checks of the program's outputs.

Nothing here calls ``convexstate`` or compares against a stored copy of
its output.  Exact claims are re-checked in ``Fraction`` arithmetic; float
claims are recomputed with numpy and scipy (HiGHS ``linprog`` for LPs,
``scipy.linalg.eigvalsh`` for spectra).  Every check raises ``CheckError``
with a message naming what disagreed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import eigvalsh
from scipy.optimize import linprog

RATIO_TOL = 1e-9
FACE_TOL = 1e-9
SPECTRAL_RTOL = 1e-9
PSD_SLACK = 1e-10


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _floats(verts) -> np.ndarray:
    return np.array([[float(c) for c in v] for v in verts])


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

def affine_rank(verts) -> int:
    pts = _floats(verts)
    return int(np.linalg.matrix_rank(pts[1:] - pts[0])) if len(pts) > 1 else 0


def scipy_ratio(verts, i: int, j: int) -> float:
    """min f(v_j) over affine f with 0 <= f <= 1 on the vertices, f(v_i) = 1."""
    pts = _floats(verts)
    n, d = pts.shape
    hom = np.hstack([pts, np.ones((n, 1))])
    res = linprog(hom[j], A_ub=np.vstack([hom, -hom]),
                  b_ub=np.concatenate([np.ones(n), np.zeros(n)]),
                  A_eq=hom[i:i + 1], b_eq=[1.0], bounds=[(None, None)] * (d + 1),
                  method="highs")
    require(res.status == 0, f"scipy ratio LP failed: {res.message}")
    return float(res.fun)


def scipy_minimal_face(verts, point) -> list[int]:
    """Vertices that some convex representation of `point` uses."""
    pts = _floats(verts)
    n = len(pts)
    a_eq = np.vstack([pts.T, np.ones((1, n))])
    b_eq = np.concatenate([[float(c) for c in point], [1.0]])
    face = []
    for i in range(n):
        c = np.zeros(n)
        c[i] = -1.0
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n, method="highs")
        require(res.status == 0, f"scipy support LP failed: {res.message}")
        if -res.fun > FACE_TOL:
            face.append(i)
    return face


def _mean(points):
    return tuple(sum(col, Fraction(0)) / len(points) for col in zip(*points))


def check_ambiguous_mixture(cert: dict, verts) -> None:
    idx = cert["indices"]
    require(len(idx) == 4 and all(0 <= i < len(verts) for i in idx),
            f"certificate indices {idx} out of range")
    iw, ix, iy, iz = idx
    names = ("w", "x", "y", "z")
    for name, i in zip(names, idx):
        point = tuple(Fraction(c) for c in cert[name])
        require(point == verts[i], f"certificate point {name} is not vertex {i}")
    require(iw != ix and iy != iz, "certificate segment has equal endpoints")
    require(iw not in (iy, iz) and {iw, ix} != {iy, iz},
            "certificate segments are not two different vertex pairs")
    lam, mu = Fraction(cert["lam"]), Fraction(cert["mu"])
    require(0 < lam < 1 and 0 < mu < 1, f"weights {lam}, {mu} not in (0, 1)")
    left = tuple(lam * a + (1 - lam) * b for a, b in zip(verts[iw], verts[ix]))
    right = tuple(mu * a + (1 - mu) * b for a, b in zip(verts[iy], verts[iz]))
    require(left == right, "the two mixtures differ")
    require(tuple(Fraction(c) for c in cert["mixture_point"]) == left,
            "reported mixture point differs from the mixtures")


def check_face_set(verts, pair, face_vertices) -> None:
    mid = _mean([verts[pair[0]], verts[pair[1]]])
    expected = scipy_minimal_face(verts, mid)
    require(list(face_vertices) == expected,
            f"face of pair {pair} is {face_vertices}, support LPs give {expected}")


def check_ball(ball: dict, face_size: int) -> None:
    require(ball["is_ball"] == (face_size == 2),
            f"a face with {face_size} vertices reported is_ball={ball['is_ball']}")


def check_analyze_polytope(report: dict, spec: dict) -> None:
    verts = spec["vertices"]
    n = len(verts)
    require(report["num_vertices"] == n, f"{report['num_vertices']} vertices, expected {n}")
    refuted = n > affine_rank(verts) + 1
    verdict = report["verdict"]
    require(verdict["verdict"] == ("refuted" if refuted else "not_refuted"),
            f"verdict {verdict['verdict']} for {n} vertices of affine rank "
            f"{affine_rank(verts)}")
    cert = verdict["certificate"] or {}
    if verdict["failed_condition"] == "finite_nonsimplex":
        require(cert.get("kind") == "ambiguous_mixture", "missing mixture certificate")
        check_ambiguous_mixture(cert, verts)
    elif verdict["failed_condition"] == "face_not_ball":
        require(cert.get("kind") == "non_ball_face", "missing face certificate")
        require(len(cert["face_vertices"]) > 2, "a non-ball face needs 3 or more vertices")
        check_face_set(verts, cert["pair"], cert["face_vertices"])
    else:
        require(verdict["failed_condition"] is None, "not refuted but a condition failed")
    for entry in cert.get("face_evidence", []):
        check_face_set(verts, entry["pair"], entry["face_vertices"])
        check_ball(entry["ball"], len(entry["face_vertices"]))
    matrix = [[Fraction(v) for v in row] for row in report["ratio_matrix"]]
    require(len(matrix) == n and all(len(row) == n for row in matrix), "ratio matrix shape")
    for i in range(n):
        for j in range(n):
            expect = scipy_ratio(verts, i, j)
            require(abs(float(matrix[i][j]) - expect) <= RATIO_TOL,
                    f"ratio[{i}][{j}] = {matrix[i][j]}, HiGHS gives {expect!r}")
    if spec["family"] in ("cross", "simplex"):
        require(all(matrix[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)),
                "octahedron and simplex ratio matrices must be the identity")


def check_ratio_polytope(report: dict, spec: dict) -> None:
    verts = spec["vertices"]
    i, j = spec["x"], spec["y"]
    value = Fraction(report["value"])
    require(report["exact"] and Fraction(report["lo"]) == value == Fraction(report["hi"]),
            "polytope ratio must be exact")
    expect = scipy_ratio(verts, i, j)
    require(abs(float(value) - expect) <= RATIO_TOL,
            f"ratio({i}, {j}) = {value}, HiGHS gives {expect!r}")
    normal = [Fraction(c) for c in report["witness"]["normal"]]
    offset = Fraction(report["witness"]["offset"])

    def f(v):
        return sum((a * b for a, b in zip(normal, v)), Fraction(0)) + offset

    require(all(0 <= f(v) <= 1 for v in verts), "witness leaves [0, 1] on a vertex")
    require(f(verts[i]) == 1, "witness is not 1 at x")
    require(f(verts[j]) == value, "witness at y differs from the reported value")


def check_face_polytope(report: dict, spec: dict) -> None:
    verts = spec["vertices"]
    idx = spec["points"]
    point = _mean([verts[i] for i in idx])
    expected = scipy_minimal_face(verts, point)
    got = report["face_vertex_indices"]
    require(got == expected, f"face of {idx} is {got}, support LPs give {expected}")
    require(report["affine_dimension"] == affine_rank([verts[i] for i in got]),
            "face affine dimension disagrees with numpy's rank")
    check_ball(report["ball"], len(got))


# ---------------------------------------------------------------------------
# Quantum and separable side
# ---------------------------------------------------------------------------

def _jordan(a, b):
    return 0.5 * (a @ b + b @ a)


def _opnorm(m) -> float:
    w = eigvalsh(m)
    return float(max(abs(w[0]), abs(w[-1])))


def check_jordan(out: dict, spec: dict) -> None:
    a, b = spec["a"], spec["b"]
    scale = (1.0 + np.linalg.norm(a)) ** 3 * (1.0 + np.linalg.norm(b))
    require(out["residual"] <= 1e-11 * scale,
            f"Jordan identity residual {out['residual']!r} above 1e-11 x {scale:.3g}")
    norms = out["norms"].norms
    expect = {"|a|": _opnorm(a), "|b|": _opnorm(b), "|a.b|": _opnorm(_jordan(a, b)),
              "|a.a|": _opnorm(_jordan(a, a)),
              "|a.a + b.b|": _opnorm(_jordan(a, a) + _jordan(b, b))}
    big = max(1.0, *expect.values())
    for key, value in expect.items():
        require(abs(norms[key] - value) <= SPECTRAL_RTOL * big,
                f"norm {key} = {norms[key]!r}, scipy eigvalsh gives {value!r}")
    slack = SPECTRAL_RTOL * big
    require(expect["|a.b|"] <= expect["|a|"] * expect["|b|"] + slack
            and abs(expect["|a.a|"] - expect["|a|"] ** 2) <= slack
            and expect["|a.a|"] <= expect["|a.a + b.b|"] + slack,
            "JB norm inequalities fail on the scipy norms")
    require(out["norms"].all_hold, "program reports a JB norm inequality failing")


def _trace_product(x, y) -> float:
    (xa, xb), (ya, yb) = x, y
    return (1.0 + float(xa @ ya)) / 2.0 * (1.0 + float(xb @ yb)) / 2.0


def check_separable_ratio(report: dict, spec: dict) -> None:
    expect = _trace_product(spec["x"], spec["y"])
    require(abs(report["hi"] - expect) <= 1e-12,
            f"hi = {report['hi']!r}, Tr(xy) = {expect!r}")
    require(report["lo"] <= report["hi"], "lo above hi")


def _check_corners(search: dict) -> None:
    require(search["found"] is False, "separable search reports a superposition")
    corners = search["corner_reports"]
    require(len(corners) > 0, "no corner reports")
    require(all(c["vanishing_bound"] < 1e-12 for c in corners),
            "a corner has no vanishing transition bound")


def check_superposable(report: dict, spec: dict) -> None:
    _check_corners({"found": report["found"], **report["transcript"]})


def check_analyze_separable(report: dict, spec: dict) -> None:
    verdict = report["verdict"]
    require(verdict["verdict"] == "refuted"
            and verdict["failed_condition"] == "connected_but_unsuperposable",
            f"separable verdict {verdict['verdict']}/{verdict['failed_condition']}")
    cert = verdict["certificate"]
    _check_corners(cert["search"])
    require(cert["path"]["factor_identity_deviation"] <= 1e-12, "path identity fails")


def check_clone(report: dict, spec: dict) -> None:
    r = (1.0 + math.cos(math.radians(spec["angle"]))) / 2.0
    require(abs(report["r"] - r) <= 1e-12, f"r = {report['r']!r}, expected {r!r}")
    require(abs(report["r_embed"] - r) <= 1e-12, "r_embed differs from r")
    require(abs(report["r_clone_bound"] - r * r) <= 1e-12, "r_clone differs from r^2")
    require(report["contradiction"] is True, "cloning chain not contradicted")


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def ppt_separable(rho: np.ndarray) -> bool:
    herm = np.allclose(rho, rho.conj().T, atol=1e-12)
    unit = abs(np.trace(rho) - 1.0) <= 1e-10
    return bool(herm and unit and eigvalsh(rho)[0] >= -PSD_SLACK
                and eigvalsh(partial_transpose(rho))[0] >= -PSD_SLACK)


def check_membership(answer, spec: dict) -> None:
    expect = ppt_separable(spec["rho"])
    require(expect == spec["separable"], "benchmark state lost its intended separability")
    require(answer is expect, f"separable_membership says {answer}, PPT test says {expect}")


# ---------------------------------------------------------------------------
# Binding search
# ---------------------------------------------------------------------------

def _ket(bits: str) -> np.ndarray:
    single = {"0": np.array([1.0, 0.0]), "1": np.array([0.0, 1.0]),
              "+": np.array([1.0, 1.0]) / math.sqrt(2.0),
              "-": np.array([1.0, -1.0]) / math.sqrt(2.0)}
    return np.kron(single[bits[0]], single[bits[1]]).astype(complex)


def commitment_targets() -> tuple[np.ndarray, np.ndarray]:
    def proj(v):
        return np.outer(v, v.conj())
    d0 = 0.5 * (proj(_ket("01")) + proj(_ket("10")))
    d1 = 0.5 * (proj(_ket("+-")) + proj(_ket("-+")))
    return d0, d1


def channel_output(kraus: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """sum_n (K_n x I) sigma (K_n x I)^dagger."""
    s = sigma.reshape(2, 2, 2, 2)
    return np.einsum("nab,bicj,ndc->aidj", kraus, s, kraus.conj()).reshape(4, 4)


def check_binding(report, spec: dict) -> None:
    search = report.search
    sigma, k0, k1 = search.best_sigma, search.best_kraus0, search.best_kraus1
    d0, d1 = commitment_targets()
    residual = (float(np.sum(np.abs(channel_output(k0, sigma) - d0) ** 2))
                + float(np.sum(np.abs(channel_output(k1, sigma) - d1) ** 2)))
    require(abs(residual - report.separable_binding_residual) <= 1e-9,
            f"reported residual {report.separable_binding_residual!r}, "
            f"recomputed {residual!r}")
    for k in (k0, k1):
        tp = np.einsum("nba,nbc->ac", k.conj(), k)
        require(np.max(np.abs(tp - np.eye(2))) <= 1e-10, "channel is not trace-preserving")
    require(ppt_separable(sigma), "committed state is not a separable state")
    warm = float(np.sum(np.abs(d0 - d1) ** 2))
    require(0.01 < residual <= warm + 1e-12,
            f"residual {residual!r} outside (0.01, {warm!r}]")
    require(report.concealing and not report.epr_separable
            and report.qm_unbinding_demonstrated, "commitment analysis flags wrong")


CLI_CHECKS = {
    "analyze": check_analyze_polytope,
    "ratio": check_ratio_polytope,
    "face": check_face_polytope,
    "separable_ratio": check_separable_ratio,
    "superposable": check_superposable,
    "analyze_separable": check_analyze_separable,
    "clone": check_clone,
}
LIBRARY_CHECKS = {
    "jordan": check_jordan,
    "membership": check_membership,
    "binding": check_binding,
}


def check_output(kind: str, output, spec: dict) -> None:
    """Check one operation's output; CLI outputs are parsed here."""
    if kind in CLI_CHECKS:
        require(output["code"] == 0, f"exit code {output['code']}: {output['stderr'].strip()}")
        CLI_CHECKS[kind](json.loads(output["stdout"]), spec)
    else:
        LIBRARY_CHECKS[kind](output, spec)

