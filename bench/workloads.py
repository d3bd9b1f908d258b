"""The benchmark's three workloads: seeded inputs and a fixed list of operations.

Each workload turns a seed into inputs, loads them into the program's
objects (``setup``), and exposes one round: the fixed list of operations
a timed pass makes.  Operations call the package's public entry points,
``cli.main`` in-process or the library function the CLI would call, and
look every function up at call time so that a tracer's wrappers apply.
``Op.spec`` holds what the checker needs to verify the output, computed
by the benchmark itself and never by the program.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np


@dataclass
class Op:
    label: str
    kind: str                      # selects the check in verify.py
    call: Callable[[], object]
    spec: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]                  # one round
    warmup: list[Op]               # untimed, run once before the first round
    loaded: dict = field(default_factory=dict)   # program objects from setup


def run_cli(pkg, argv: list[str]) -> dict:
    """In-process ``convexstate`` call; the report, parsed later, plus the
    exit code and anything written to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def fingerprint(kind: str, output):
    """What must repeat exactly when the same operation runs again."""
    if isinstance(output, dict) and "stdout" in output:
        return (output["code"], output["stdout"])
    if kind == "jordan":
        return (output["residual"], sorted(output["norms"].norms.items()))
    if kind == "binding":
        return (output.separable_binding_residual, output.search.start_residuals,
                output.search.evaluations)
    return output


# ---------------------------------------------------------------------------
# polytope_theories
# ---------------------------------------------------------------------------

def _frac_rows(rows) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(c) for c in r) for r in rows]


def cross_polytope(d: int):
    return _frac_rows([[s if k == i else 0 for k in range(d)]
                       for i in range(d) for s in (1, -1)])


def cube(d: int):
    return _frac_rows(itertools.product((0, 1), repeat=d))


def cyclic(ts, d: int):
    """Points on the moment curve t -> (t, t^2, ..., t^d)."""
    return _frac_rows([[t ** k for k in range(1, d + 1)] for t in ts])


def bipyramid(rng: random.Random):
    """A triangle in z = 0 and two apexes above and below an interior point:
    pairwise a simplex, but the apexes generate the whole polytope."""
    ax, ay = rng.choice([(1, 1), (1, 2), (2, 1)])
    return _frac_rows([(0, 0, 0), (4, 0, 0), (0, 4, 0),
                       (ax, ay, rng.randint(1, 3)), (ax, ay, -rng.randint(1, 3))])


def standard_simplex(d: int):
    return _frac_rows([[1 if k == i else 0 for k in range(d)] for i in range(-1, d)])


def scramble(rng: random.Random, verts):
    """Signed coordinate permutation, shift by -1, 0 or 1, shuffled order:
    an affine image with the same combinatorics and about the same number
    sizes, so that the seed moves the inputs but hardly their cost."""
    d = len(verts[0])
    perm = rng.sample(range(d), d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    shift = [rng.randint(-1, 1) for _ in range(d)]
    out = [tuple(signs[i] * v[perm[i]] + shift[i] for i in range(d)) for v in verts]
    rng.shuffle(out)
    return out


SPEKKENS = cross_polytope(3)           # e1, -e1, e2, -e2, e3, -e3
SIMPLEX3 = standard_simplex(3)          # 0, e1, e2, e3


def polytope_theories(pkg, seed: int, workdir: str) -> Workload:
    rng = random.Random(f"polytope_theories:{seed}")
    analyzed = [
        ("square", "cross", scramble(rng, cross_polytope(2))),
        ("parallelogram", "cube", scramble(rng, cube(2))),
        ("pentagon", "cyclic", scramble(rng, cyclic(range(-2, 3), 2))),
        ("cyclic3_5", "cyclic", scramble(rng, cyclic(range(-2, 3), 3))),
        ("bipyramid", "bipyramid", scramble(rng, bipyramid(rng))),
        ("triangle", "simplex", scramble(rng, standard_simplex(2))),
    ]
    # Larger theories get queries: (name, family, vertices, ratio queries,
    # sizes of the point sets of the face queries).  A ratio query solves one
    # LP whose cost varies by up to 2x with the pair and the vertex order; a
    # 4-cube face query solves 35 or 36 and varies far less, though a cube's
    # scramble moves the cost of all its queries together, so there are
    # seven differently scrambled cubes.  Eight operations of the round cost
    # less than a cube face query and six cost more, so the median operation
    # is a cube face query whatever the seed drew.
    queried = [(f"cube4_{c}", "cube", scramble(rng, cube(4)), 0, (2, 3)) for c in "abcdefg"]
    queried += [
        ("cross5", "cross", scramble(rng, cross_polytope(5)), 1, (3,)),
        ("decagon", "cyclic", scramble(rng, cyclic(range(-5, 5), 2)), 1, (2,)),
        ("cyclic3_9", "cyclic", scramble(rng, cyclic(range(-4, 5), 3)), 1, (3,)),
    ]
    theories = {"spekkens": ("cross", SPEKKENS), "simplex:3": ("simplex", SIMPLEX3)}
    paths = {}
    for name, family, verts, *_ in analyzed + queried:
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump({"name": name, "ambient_dim": len(verts[0]),
                       "vertices": [[str(c) for c in v] for v in verts]}, fh)
        theories[paths[name]] = (family, verts)

    # Set-up proper: load every input into the program's objects.
    loaded = {"spekkens": pkg.models.make_spekkens_hull(),
              "simplex:3": pkg.models.make_classical_simplex(3)}
    for token in paths.values():
        loaded[token] = pkg.polytope.load_theory(token)

    def cli_op(kind, argv, token, **spec):
        family, verts = theories[token]
        return Op(" ".join(argv[:1] + [os.path.basename(token)] + argv[2:]), kind,
                  lambda: run_cli(pkg, argv),
                  {"vertices": verts, "family": family, **spec})

    ops = [cli_op("analyze", ["analyze", t], t) for t in ("spekkens", "simplex:3")]
    ops += [cli_op("analyze", ["analyze", paths[name]], paths[name]) for name, *_ in analyzed]
    for name, _, verts, ratios, face_sizes in queried:
        token, n = paths[name], len(verts)
        for _ in range(ratios):
            i, j = rng.sample(range(n), 2)
            ops.append(cli_op("ratio", ["ratio", token, str(i), str(j)], token, x=i, y=j))
        for size in face_sizes:
            idx = rng.sample(range(n), size)
            ops.append(cli_op("face", ["face", token, *map(str, idx)], token, points=idx))
    return Workload("polytope_theories", ops, warmup=ops, loaded=loaded)


# ---------------------------------------------------------------------------
# binding_search
# ---------------------------------------------------------------------------

DEFAULT_BUDGET = (8, 32, 30)       # the CLI's --support, --starts, --sweeps
REDUCED_BUDGET = (4, 6, 12)        # run_all_analyses.py without --full-bc
REDUCED_SEEDS = 4


def binding_search(pkg, seed: int, workdir: str) -> Workload:
    rng = random.Random(f"binding_search:{seed}")
    seeds = [rng.randrange(2 ** 31) for _ in range(REDUCED_SEEDS + 2)]
    loaded = {"states": pkg.protocols.build_bb84_states()}

    def bc_op(budget, s):
        support, starts, sweeps = budget
        return Op(f"bc support={support} starts={starts} sweeps={sweeps} seed={s}", "binding",
                  lambda: pkg.protocols.run_bit_commitment_analysis(
                      support=support, starts=starts, seed=s, sweeps=sweeps),
                  {"budget": budget, "seed": s})

    ops = [bc_op(DEFAULT_BUDGET, seeds[0])]
    ops += [bc_op(REDUCED_BUDGET, s) for s in seeds[1:REDUCED_SEEDS + 1]]
    # A full pass would take as long as the run; one reduced search warms
    # the same code paths.
    warmup = [bc_op(REDUCED_BUDGET, seeds[-1])]
    return Workload("binding_search", ops, warmup=warmup, loaded=loaded)


# ---------------------------------------------------------------------------
# spectral_checks
# ---------------------------------------------------------------------------

JORDAN_SIZES = (2, 3, 4, 5, 6, 7, 8, 2, 3, 4, 5, 6, 7, 8)
SEPARABLE_RATIO_PAIRS = 6
CLONE_ANGLES = 4
MEMBERSHIP_STATES = 8


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def _unit3(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / float(np.sqrt(v @ v))


def _bloch_token(v) -> str:
    return "(" + ",".join(repr(float(c)) for c in v) + ")"


def _qubit(v) -> np.ndarray:
    x, y, z = v
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def _separable_state(rng: np.random.Generator) -> np.ndarray:
    """Four random pure products mixed with white noise: PPT with margin."""
    w = rng.dirichlet(np.ones(4))
    rho = sum(wi * np.kron(_qubit(_unit3(rng)), _qubit(_unit3(rng))) for wi in w)
    return 0.8 * rho + 0.2 * np.eye(4) / 4.0


def _entangled_state(rng: np.random.Generator) -> np.ndarray:
    """A Bell state under random local unitaries, with 30% white noise."""
    def unitary():
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))
    bell = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
    psi = np.kron(unitary(), unitary()) @ bell
    return 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(4) / 4.0


def spectral_checks(pkg, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 7])
    pairs = [(_hermitian(rng, n), _hermitian(rng, n)) for n in JORDAN_SIZES]
    products = [tuple(_unit3(rng) for _ in range(4)) for _ in range(SEPARABLE_RATIO_PAIRS)]
    angles = [float(rng.uniform(10.0, 170.0)) for _ in range(CLONE_ANGLES)]
    states = [(_separable_state(rng), True) if i % 2 == 0 else (_entangled_state(rng), False)
              for i in range(MEMBERSHIP_STATES)]

    # Set-up proper: the program's validated matrices and state-space handle.
    loaded = {
        "pairs": [(pkg.linalg.require_hermitian(a), pkg.linalg.require_hermitian(b))
                  for a, b in pairs],
        "states": [pkg.linalg.as_matrix(rho) for rho, _ in states],
        "separable": pkg.transition.StateSpaceHandle.separable_2x2(),
    }

    def jordan(a, b):
        adm = pkg.admissibility
        return {"residual": adm.jordan_identity_residual(a, b),
                "norms": adm.jb_norm_inequalities(a, b)}

    ops = []
    for (a, b), (ma, mb) in zip(pairs, loaded["pairs"]):
        ops.append(Op(f"jordan n={a.shape[0]}", "jordan",
                      lambda ma=ma, mb=mb: jordan(ma, mb), {"a": a, "b": b}))
    for xa, xb, ya, yb in products:
        x, y = _bloch_token(xa) + ";" + _bloch_token(xb), _bloch_token(ya) + ";" + _bloch_token(yb)
        ops.append(Op("ratio separable2x2", "separable_ratio",
                      lambda x=x, y=y: run_cli(pkg, ["ratio", "separable2x2", x, y]),
                      {"x": (xa, xb), "y": (ya, yb)}))
    ops.append(Op("superposable separable2x2 01 10", "superposable",
                  lambda: run_cli(pkg, ["superposable", "separable2x2", "01", "10"])))
    ops.append(Op("analyze separable2x2", "analyze_separable",
                  lambda: run_cli(pkg, ["analyze", "separable2x2"])))
    for theta in angles:
        ops.append(Op("protocol clone", "clone",
                      lambda theta=theta: run_cli(
                          pkg, ["protocol", "clone", "--bloch-angle", repr(theta)]),
                      {"angle": theta}))
    for (rho, separable), m in zip(states, loaded["states"]):
        ops.append(Op("separable_membership", "membership",
                      lambda m=m: pkg.models.separable_membership(m),
                      {"rho": rho, "separable": separable}))
    return Workload("spectral_checks", ops, warmup=ops, loaded=loaded)


WORKLOADS = {
    "polytope_theories": polytope_theories,
    "binding_search": binding_search,
    "spectral_checks": spectral_checks,
}
