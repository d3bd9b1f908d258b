"""Command-line front end.

Grammar::

    convexstate <analyze|ratio|superposable|face|trace> [args]
                [--out PATH] [--format json|csv|text]
    convexstate protocol <bc|clone> [args] [--out PATH] [--format ...]

``ratio``, ``superposable`` and ``protocol clone`` also take ``--tol X``.
``protocol bc`` and ``protocol clone`` each accept only their own options.

Theories are addressed by zoo name (spekkens, simplex:<n>, bloch,
full2x2, separable2x2) or by a JSON theory file path.  ``parse_state``
reads every state token, in the forms ``STATE_FORMS`` allows each
theory kind: vertex name or index (polytopes), coordinate tuples like
"(1,0,0)" (polytopes and the Bloch ball), ket labels over the alphabet
01+- (qubit and two-qubit spaces), a product pair like
"(0,0,1);(0,0,-1)" (two-qubit spaces), or a JSON state file.  Digits are
ASCII only, and a number written as text goes through ``lp.rat``.  Theory
and state files both go through ``serialize.read_json``.

JSON is the canonical output; text and CSV renderings derive from the
same report dictionary.  Identical invocations, including seeds, produce
byte-identical JSON.

Exit codes: 0 success, 2 usage or parse error (a theory file that is not
UTF-8 or not JSON, a bare second ``--`` in place of a value, a ``protocol
bc`` budget above ``BC_MAX`` or an ``--out`` path that cannot be written),
3 domain error (state not in the theory, a state file that cannot be
read, precondition violated), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import admissibility, claims, linalg, models, protocols, transition
from .config import ENV_TOL, resolve_tol, tolerance
from .errors import InternalCheckError, PreconditionError, TheoryFormatError
from .lp import rat
from .polytope import VPolytope, load_theory, minimal_face
from .serialize import canonical_json, jsonable, read_json, read_numbers
from .transition import (KIND_BLOCH, KIND_FULL_QUANTUM, KIND_SEPARABLE,
                         KIND_VPOLYTOPE, StateSpaceHandle)

ZOO_HELP = "spekkens, simplex:<n>, bloch, full2x2, separable2x2, or a JSON file path"


# ---------------------------------------------------------------------------
# Theory and state resolution
# ---------------------------------------------------------------------------

# ASCII digits only, and at most nine of them: no theory here has 10**9
# vertices, and int() refuses text longer than 4,300 digits.
_NATURAL = re.compile(r"[0-9]{1,9}")

# simplex:n holds (n + 1) * n coordinates; in-process on a 2-core host,
# analyze simplex:32 takes 0.9 s and simplex:64 13 s.
SIMPLEX_MAX = 32


def resolve_theory(token: str) -> StateSpaceHandle:
    if token == "spekkens":
        return StateSpaceHandle.vpolytope(models.make_spekkens_hull())
    if token.startswith("simplex:"):
        tail = token.split(":", 1)[1]
        if not _NATURAL.fullmatch(tail) or not 1 <= int(tail) <= SIMPLEX_MAX:
            raise TheoryFormatError(
                f"simplex size must be a positive integer of at most {SIMPLEX_MAX}, got {tail!r}")
        return StateSpaceHandle.vpolytope(models.make_classical_simplex(int(tail)))
    if token == "bloch":
        return StateSpaceHandle.bloch_ball()
    if token == "full2x2":
        return StateSpaceHandle.full_quantum()
    if token == "separable2x2":
        return StateSpaceHandle.separable_2x2()
    if token.endswith(".json") or os.path.exists(token):
        return StateSpaceHandle.vpolytope(load_theory(token))
    raise TheoryFormatError(f"unknown theory {token!r}; expected {ZOO_HELP}")


def vertex_labels(k: VPolytope) -> list[str]:
    if k.name == "spekkens" and len(k.vertices) == len(models.SPEKKENS_VERTEX_NAMES):
        return list(models.SPEKKENS_VERTEX_NAMES)
    return [f"v{i}" for i in range(len(k.vertices))]


# The state forms each theory kind accepts, in the order they are tried:
# README's "States accept" list.  "point", "bloch" and "matrix" are the
# keys a state file may hold.
STATE_FORMS = {
    KIND_VPOLYTOPE: ("vertex", "tuple", "point"),
    KIND_BLOCH: ("ket", "tuple", "bloch", "matrix"),
    KIND_FULL_QUANTUM: ("ket", "product", "matrix"),
    KIND_SEPARABLE: ("ket", "product", "matrix"),
}
FORM_HELP = {
    "vertex": "a vertex label or index",
    "ket": "a ket label over 01+-, one letter per qubit",
    "tuple": "coordinates (a,b,...)",
    "product": "a pair of Bloch vectors (ax,ay,az);(bx,by,bz)",
    "point": 'a file {"point": [...]}',
    "bloch": 'a file {"bloch": [...]}',
    "matrix": 'a file {"matrix": [[...]]}',
}
_QUBITS = {KIND_BLOCH: 1, KIND_FULL_QUANTUM: 2, KIND_SEPARABLE: 2}
_KET = re.compile(r"[01+-]+")
_TUPLE = re.compile(r"\(([^()]*)\)")


def _coordinates(h: StateSpaceHandle, coords, source: str):
    """A coordinate list as ``h`` reads it: an exact point of a polytope,
    else a Bloch vector in floats (of the state, or of a product factor)."""
    where = f"state {source} coordinate"
    if h.kind != KIND_VPOLYTOPE:
        return np.array(read_numbers(coords, where, PreconditionError, lambda c: float(rat(c))))
    point = tuple(read_numbers(coords, where, PreconditionError))
    if len(point) != h.payload.ambient_dim:
        raise PreconditionError(
            f"point {source} has {len(point)} coordinates, theory is "
            f"{h.payload.ambient_dim}-dimensional"
        )
    return point


def _complex_entry(c) -> complex:
    """A matrix entry: a number, or an [re, im] pair of exactly two."""
    re_part, im_part = c if isinstance(c, list) else (c, 0)
    return complex(float(rat(re_part)), float(rat(im_part)))


def _density(h: StateSpaceHandle, m: np.ndarray) -> np.ndarray:
    """A density matrix as ``h``'s engines take it: its Bloch vector on the
    Bloch ball, the matrix itself on the two-qubit spaces."""
    return linalg.bloch_vector(m) if h.kind == KIND_BLOCH else m


def _matrix(h: StateSpaceHandle, rows, source: str) -> np.ndarray:
    where = f"state {source} matrix row"
    rows = [read_numbers(row, f"{where} {i} entry", PreconditionError, _complex_entry)
            for i, row in enumerate(read_numbers(rows, where, PreconditionError, lambda r: r))]
    if len({len(row) for row in rows}) > 1:
        raise PreconditionError(f"state {source}: matrix rows of different lengths")
    return _density(h, np.array(rows))


_FILE_READERS = {"point": _coordinates, "bloch": _coordinates, "matrix": _matrix}


def parse_state(h: StateSpaceHandle, token: str):
    """The state ``token`` names in ``h``, read in the first of the kind's
    ``STATE_FORMS`` that fits it; a token that fits none is a domain error."""
    forms = STATE_FORMS[h.kind]
    if "vertex" in forms:
        k = h.payload
        labels = vertex_labels(k)
        if token in labels:
            return k.vertices[labels.index(token)]
        if _NATURAL.fullmatch(token):
            if int(token) < len(k.vertices):
                return k.vertices[int(token)]
            raise PreconditionError(
                f"vertex index {token} out of range; theory has {len(k.vertices)} vertices"
            )
    if "ket" in forms and _KET.fullmatch(token) and len(token) == _QUBITS[h.kind]:
        return _density(h, linalg.projector(linalg.ket(token)))
    tuples = [_TUPLE.fullmatch(part) for part in token.split(";")]
    if all(tuples):
        coords = [[c.strip(" ") for c in m[1].split(",")] for m in tuples]
        if len(coords) == 1 and "tuple" in forms:
            return _coordinates(h, coords[0], token)
        if len(coords) == 2 and "product" in forms:
            a, b = (linalg.bloch_projector(_coordinates(h, c, token)) for c in coords)
            return linalg.tensor(a, b)
    elif os.path.exists(token):
        data = read_json(token, PreconditionError)
        keys = [f for f in forms if f in _FILE_READERS]
        for key in keys:
            if isinstance(data, dict) and key in data:
                return _FILE_READERS[key](h, data[key], token)
        raise PreconditionError(f"state file {token} holds none of the keys "
                                + ", ".join(map(repr, keys)))
    raise PreconditionError(f"cannot resolve state {token!r}; use "
                            + "; ".join(FORM_HELP[f] for f in forms))


def theory_name(h: StateSpaceHandle) -> str:
    if h.kind == KIND_VPOLYTOPE:
        return h.payload.name or "polytope"
    return {KIND_BLOCH: "bloch", KIND_FULL_QUANTUM: "full2x2",
            KIND_SEPARABLE: "separable2x2"}[h.kind]


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns a JSON-ready report dict)
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> dict:
    h = resolve_theory(args.theory)
    report = {"command": "analyze", "theory": theory_name(h), "kind": h.kind}
    if h.kind == KIND_VPOLYTOPE:
        k = h.payload
        verdict = admissibility.check_polytope(k)
        labels = vertex_labels(k)
        # The diagonal is 1: the LP's own constraint f(x) = 1 fixes it.
        matrix = [
            [Fraction(1) if x == y else transition.affine_ratio_polytope(k, x, y).value
             for y in k.vertices]
            for x in k.vertices
        ]
        report.update({
            "num_vertices": len(k.vertices),
            "ambient_dim": k.ambient_dim,
            "vertex_labels": labels,
            "verdict": jsonable(verdict),
            "ratio_matrix": matrix,
        })
        return report
    if h.kind == KIND_BLOCH:
        x, y = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
        pair = ["(0,0,1)", "(0,0,-1)"]
        face_note = ("the face generated by two distinct pure states is the "
                     "whole ball B3")
    else:
        pair = ["01", "10"]
        x, y = (linalg.projector(linalg.ket(t)) for t in pair)
        face_note = ("the face generated by two pure states is the state "
                     "space of the spanned 2-dimensional subsystem, a ball B3")
    if h.kind == KIND_SEPARABLE:
        report.update({"pair": pair, "verdict": jsonable(admissibility.check_separable_pair(x, y))})
        return report
    # Bloch ball and the full two-qubit space: both conditions are
    # satisfiable, shown on a canonical orthogonal pair.
    cert = transition.superposability_search(h, x, y)
    verdict = admissibility.JBVerdict(
        verdict=admissibility.NOT_REFUTED,
        failed_condition=None,
        certificate={
            "kind": "sample_checks",
            "pair": pair,
            "superposition": jsonable(cert),
            "note": ("no necessary condition fails on the sampled pair; "
                     + face_note),
        },
    )
    report.update({"pair": pair, "verdict": jsonable(verdict)})
    return report


def cmd_ratio(args) -> dict:
    h = resolve_theory(args.theory)
    x, y = (parse_state(h, t) for t in (args.x, args.y))
    res = transition.affine_ratio(h, x, y, args.tol)
    return {
        "command": "ratio",
        "theory": theory_name(h),
        "x": args.x,
        "y": args.y,
        "lo": res.lo,
        "hi": res.hi,
        "exact": res.exact,
        "value": res.value,
        "witness": jsonable(res.witness) if res.witness is not None else None,
        "detail": jsonable(res.detail),
    }


def cmd_superposable(args) -> dict:
    h = resolve_theory(args.theory)
    x, y = (parse_state(h, t) for t in (args.x, args.y))
    cert = transition.superposability_search(h, x, y, tol=args.tol)
    return {"command": "superposable", "theory": theory_name(h), "x": args.x, "y": args.y,
            **jsonable(cert)}


def cmd_face(args) -> dict:
    h = resolve_theory(args.theory)
    if h.kind != KIND_VPOLYTOPE:
        raise PreconditionError(
            "face analysis needs a polytope theory; "
            f"{theory_name(h)} is not finitely generated"
        )
    k = h.payload
    points = [parse_state(h, t) for t in args.points]
    for t, p in zip(args.points, points):
        if not k.contains(p):
            raise PreconditionError(f"point {t} is not in the polytope")
    # The face the points generate is the minimal face of their mean.
    mean = tuple(sum(col, Fraction(0)) / len(points) for col in zip(*points))
    face = minimal_face(k, mean)
    labels = vertex_labels(k)
    return {
        "command": "face",
        "theory": theory_name(h),
        "points": list(args.points),
        "face_vertex_indices": list(face.vertex_indices),
        "face_vertex_labels": [labels[i] for i in face.vertex_indices],
        "affine_dimension": face.affine_dimension,
        "ball": admissibility.ball_descriptor(face),
    }


def cmd_protocol(args) -> dict:
    if args.task == "clone":
        if args.bloch_angle is not None:
            theta = float(np.radians(args.bloch_angle))
            x = (0.0, 0.0, 1.0)
            y = (float(np.sin(theta)), 0.0, float(np.cos(theta)))
        else:
            ball = StateSpaceHandle.bloch_ball()
            x, y = (tuple(parse_state(ball, t)) for t in (args.x, args.y))
        rep = protocols.cloning_contradiction(x, y, tol=args.tol)
        return {"command": "protocol", "task": "clone", **jsonable(rep)}
    rep = protocols.run_bit_commitment_analysis(
        support=args.support, starts=args.starts, seed=args.seed,
        sweeps=args.sweeps)
    return {"command": "protocol", "task": "bc", **rep.to_json_dict()}


def cmd_trace(args) -> dict:
    table = claims.claims_table()
    if args.claim is not None:
        table = [c for c in table if c["id"] == args.claim]
        if not table:
            known = ", ".join(c.id for c in claims.CLAIMS)
            raise PreconditionError(f"unknown claim {args.claim!r}; known: {known}")
    return {"command": "trace", "claims": table}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _text_lines(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key in value:
            v = value[key]
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}{key}:")
                _text_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}{key}: {_scalar(v)}")
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            out.append(pad + "[" + ", ".join(_scalar(v) for v in value) + "]")
        else:
            for v in value:
                _text_lines(v, indent, out)
                out.append(pad + "-")
            out.pop()
    else:
        out.append(pad + _scalar(value))


def _scalar(v) -> str:
    if isinstance(v, bool) or v is None or (isinstance(v, (list, dict)) and not v):
        return json.dumps(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_text(report: dict) -> str:
    lines: list[str] = []
    _text_lines(jsonable(report), 0, lines)
    return "\n".join(lines) + "\n"


def render_csv(report: dict) -> str:
    data = jsonable(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "claims" in data:
        writer.writerow(["id", "statement", "operations", "tests"])
        for c in data["claims"]:
            writer.writerow([c["id"], c["statement"],
                             ";".join(c["operations"]), ";".join(c["tests"])])
    elif "ratio_matrix" in data:
        labels = data["vertex_labels"]
        writer.writerow([""] + labels)
        for label, row in zip(labels, data["ratio_matrix"]):
            writer.writerow([label] + list(row))
    else:
        writer.writerow(["key", "value"])
        for key, value in _flatten(data):
            writer.writerow([key, value])
    return buf.getvalue()


def _flatten(value, prefix: str = ""):
    if isinstance(value, dict):
        for k in value:
            yield from _flatten(value[k], f"{prefix}{k}.")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], _scalar(value)


# ---------------------------------------------------------------------------
# Argument parsing and entry points
# ---------------------------------------------------------------------------

def _count(least: int, must: str, most: int = 10 ** 9):
    """An argparse type: an int of ``_NATURAL`` digits, from ``least`` to
    ``most``.  A leading '-' is read only to name a negative value in the error."""
    def read(token: str) -> int:
        if not _NATURAL.fullmatch(token.removeprefix("-")):
            raise argparse.ArgumentTypeError(f"must be at most nine ASCII digits, got {token!r}")
        if int(token) < least:
            raise argparse.ArgumentTypeError(f"must be {must}, got {int(token)}")
        if int(token) > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {int(token)}")
        return int(token)
    return read


seed = _count(0, "non-negative")  # the --seed type
# The bc budget caps: with one flag at its cap and the others at their defaults,
# a call takes 7-10 s on a 2-core host (0.5-0.9 s with all at their defaults).
BC_MAX = {"support": 100, "starts": 800, "sweeps": 600}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    with_tol = argparse.ArgumentParser(add_help=False)
    with_tol.add_argument("--tol", type=tolerance, default=None,
                          help="equality tolerance override (also via "
                               f"{ENV_TOL}; the flag wins)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the report here "
                        "instead of stdout")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="json", help="output format")

    parser = argparse.ArgumentParser(
        prog="convexstate",
        description="decide necessary conditions for Jordan-algebraic state "
                    "spaces and reproduce the toolkit's counterexample analyses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="admissibility verdict for a theory")
    p.add_argument("theory", help=ZOO_HELP)

    p = sub.add_parser("ratio", parents=[common, with_tol],
                       help="transition ratio between two states")
    p.add_argument("theory", help=ZOO_HELP)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("superposable", parents=[common, with_tol],
                       help="search for an equal superposition of two "
                            "orthogonal states")
    p.add_argument("theory", help=ZOO_HELP)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("face", parents=[common],
                       help="face of a polytope generated by given points")
    p.add_argument("theory", help=ZOO_HELP)
    p.add_argument("points", nargs="+")

    p = sub.add_parser("protocol",
                       help="protocol analyses: bit commitment or cloning")
    tasks = p.add_subparsers(dest="task", required=True)
    p = tasks.add_parser("bc", parents=[common],
                         help="bit commitment: concealment, the quantum "
                              "attack and the separable binding search")
    p.add_argument("--support", type=_count(1, "positive", BC_MAX["support"]), default=8,
                   help="product states in the committed mixture")
    p.add_argument("--starts", type=_count(1, "positive", BC_MAX["starts"]), default=32,
                   help="search restarts")
    p.add_argument("--sweeps", type=_count(1, "positive", BC_MAX["sweeps"]), default=30,
                   help="descent sweeps per start")
    p.add_argument("--seed", type=seed, default=0,
                   help="seed for the binding search's starts")
    p = tasks.add_parser("clone", parents=[common, with_tol],
                         help="the cloning contradiction for two qubit states")
    p.add_argument("--bloch-angle", type=float, default=None,
                   help="angle in degrees between the Bloch vectors")
    p.add_argument("--x", default="(0,0,1)", help="first Bloch state")
    p.add_argument("--y", default="(1,0,0)", help="second Bloch state")

    p = sub.add_parser("trace", parents=[common],
                       help="traceability table: claims to operations to tests")
    p.add_argument("--claim", default=None, help="show a single claim")

    return parser


_DISPATCH = {
    "analyze": cmd_analyze,
    "ratio": cmd_ratio,
    "superposable": cmd_superposable,
    "face": cmd_face,
    "protocol": cmd_protocol,
    "trace": cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse reads a second "--" as a positional or option with no value.
        if [] in vars(args).values():
            parser.error("'--' stands for no value here; give each state after the first '--'")
        if "tol" in args:
            try:
                args.tol = resolve_tol(args.tol)
            except ValueError as exc:
                parser.error(f"{ENV_TOL}: {exc}")
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    try:
        report = _DISPATCH[args.command](args)
    except TheoryFormatError as exc:
        print(f"convexstate: theory error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"convexstate: domain error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"convexstate: internal check failed: {exc}", file=sys.stderr)
        return 4
    # Looked up per call, so a wrapper installed on a module name is seen.
    render = {"json": canonical_json, "csv": render_csv, "text": render_text}[args.format]
    rendered = render(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"convexstate: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
