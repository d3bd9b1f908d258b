"""Command-line front end.

Grammar::

    convexstate <analyze|ratio|superposable|face|protocol|trace> [args]
                [--tol X] [--seed N] [--out PATH] [--format json|csv|text]

Theories are addressed by zoo name (spekkens, simplex:<n>, bloch,
full2x2, separable2x2) or by a JSON theory file path.  States are
addressed by vertex name or index (polytopes), coordinate tuples like
"(1,0,0)" (polytopes and the Bloch ball), ket labels over the alphabet
01+- (qubit and two-qubit spaces), a product pair like
"(0,0,1);(0,0,-1)" (two-qubit spaces), or a JSON state file.

JSON is the canonical output; text and CSV renderings derive from the
same report dictionary.  Identical invocations, including seeds, produce
byte-identical JSON.

Exit codes: 0 success, 2 usage or parse error, 3 domain error (state not
in the theory, precondition violated), 4 internal invariant violation.
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
from .config import ENV_TOL, resolve_tol
from .errors import InternalCheckError, PreconditionError, TheoryFormatError
from .lp import rat
from .polytope import VPolytope, load_theory, minimal_face
from .serialize import canonical_json, jsonable
from .transition import (KIND_BLOCH, KIND_FULL_QUANTUM, KIND_SEPARABLE,
                         KIND_VPOLYTOPE, StateSpaceHandle)

ZOO_HELP = "spekkens, simplex:<n>, bloch, full2x2, separable2x2, or a JSON file path"


# ---------------------------------------------------------------------------
# Theory and state resolution
# ---------------------------------------------------------------------------

def resolve_theory(token: str) -> StateSpaceHandle:
    if token == "spekkens":
        return StateSpaceHandle.vpolytope(models.make_spekkens_hull())
    if token.startswith("simplex:"):
        tail = token.split(":", 1)[1]
        try:
            n = int(tail)
        except ValueError:
            raise TheoryFormatError(f"simplex size {tail!r} is not an integer")
        if n < 1:
            raise TheoryFormatError(f"simplex size must be positive, got {n}")
        return StateSpaceHandle.vpolytope(models.make_classical_simplex(n))
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


_TUPLE_RE = re.compile(r"^\(.*\)$")
_KET_RE = re.compile(r"^[01+-]+$")


def _parse_tuple(token: str) -> list[str]:
    parts = [p.strip() for p in token[1:-1].split(",")]
    if any(not p for p in parts):
        raise PreconditionError(f"malformed coordinate tuple {token!r}")
    return parts


def _numbers(values, source: str, read=rat) -> list:
    """``read`` of each entry of a JSON list, every number going through
    ``rat``; anything else is a domain error."""
    try:
        if not isinstance(values, list):
            raise TypeError(f"expected a list, got {type(values).__name__}")
        return [read(v) for v in values]
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise PreconditionError(f"bad {source}: {exc}") from exc


def _complex_entry(c) -> complex:
    """A matrix entry: a number, or an [re, im] pair of exactly two."""
    re_part, im_part = c if isinstance(c, list) else (c, 0)
    return complex(float(rat(re_part)), float(rat(im_part)))


def _load_state_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PreconditionError(f"state file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise PreconditionError(f"state file {path}: top level must be an object")
    if "point" in data:
        return ("point", data["point"])
    if "bloch" in data:
        return ("bloch", data["bloch"])
    if "matrix" in data:
        source = f"matrix in state file {path}"
        rows = [_numbers(row, source, _complex_entry)
                for row in _numbers(data["matrix"], source, lambda row: row)]
        if len({len(row) for row in rows}) > 1:
            raise PreconditionError(f"{source}: rows of different lengths")
        return ("matrix", np.array(rows))
    raise PreconditionError(
        f"state file {path}: expected one of the keys 'point', 'bloch', 'matrix'"
    )


def _polytope_point(k: VPolytope, coords: list, source: str):
    point = tuple(_numbers(coords, f"coordinates {source!r}"))
    if len(point) != k.ambient_dim:
        raise PreconditionError(
            f"point {source} has {len(point)} coordinates, theory is "
            f"{k.ambient_dim}-dimensional"
        )
    return point


def parse_polytope_state(k: VPolytope, token: str):
    labels = vertex_labels(k)
    if token in labels:
        return k.vertices[labels.index(token)]
    if re.fullmatch(r"\d+", token):
        i = int(token)
        if 0 <= i < len(k.vertices):
            return k.vertices[i]
        raise PreconditionError(
            f"vertex index {i} out of range; theory has {len(k.vertices)} vertices"
        )
    if _TUPLE_RE.match(token):
        return _polytope_point(k, _parse_tuple(token), token)
    if os.path.exists(token):
        kind, payload = _load_state_file(token)
        if kind != "point":
            raise PreconditionError(f"state file {token} does not hold a 'point'")
        return _polytope_point(k, payload, token)
    raise PreconditionError(
        f"cannot resolve state {token!r}; use a vertex name ({', '.join(labels[:6])}"
        f"{', ...' if len(labels) > 6 else ''}), a vertex index, or coordinates (a,b,...)"
    )


def _bloch_vector(coords: list, source: str) -> np.ndarray:
    return np.array(_numbers(coords, f"Bloch vector {source!r}", lambda c: float(rat(c))))


def parse_bloch_state(token: str) -> np.ndarray:
    if _KET_RE.match(token) and len(token) == 1:
        return linalg.bloch_vector(linalg.projector(linalg.ket(token)))
    if _TUPLE_RE.match(token):
        return _bloch_vector(_parse_tuple(token), token)
    if os.path.exists(token):
        kind, payload = _load_state_file(token)
        if kind == "bloch":
            return _bloch_vector(payload, token)
        if kind == "matrix":
            return linalg.bloch_vector(payload)
        raise PreconditionError(f"state file {token} does not hold a Bloch state")
    raise PreconditionError(
        f"cannot resolve state {token!r}; use a ket label (0, 1, +, -) or a "
        "Bloch vector (x,y,z)"
    )


def parse_two_qubit_state(token: str) -> np.ndarray:
    if _KET_RE.match(token) and len(token) == 2:
        return linalg.projector(linalg.ket(token))
    if ";" in token:
        left, right = token.split(";", 1)
        if not (_TUPLE_RE.match(left) and _TUPLE_RE.match(right)):
            raise PreconditionError(
                f"product state {token!r} must look like (ax,ay,az);(bx,by,bz)"
            )
        a = parse_bloch_state(left)
        b = parse_bloch_state(right)
        return models.ProductStateParam(tuple(a), tuple(b)).density()
    if os.path.exists(token):
        kind, payload = _load_state_file(token)
        if kind != "matrix":
            raise PreconditionError(f"state file {token} does not hold a 'matrix'")
        return payload
    raise PreconditionError(
        f"cannot resolve state {token!r}; use a two-letter ket label over 01+-, "
        "a product pair (ax,ay,az);(bx,by,bz), or a state file"
    )


def parse_state(h: StateSpaceHandle, token: str):
    if h.kind == KIND_VPOLYTOPE:
        return parse_polytope_state(h.payload, token)
    if h.kind == KIND_BLOCH:
        return parse_bloch_state(token)
    return parse_two_qubit_state(token)


def theory_name(h: StateSpaceHandle) -> str:
    if h.kind == KIND_VPOLYTOPE:
        return h.payload.name or "polytope"
    return {KIND_BLOCH: "bloch", KIND_FULL_QUANTUM: "full2x2",
            KIND_SEPARABLE: "separable2x2"}[h.kind]


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns a JSON-ready report dict)
# ---------------------------------------------------------------------------

def cmd_analyze(args, tol: float) -> dict:
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
            "verdict": verdict.to_json_dict(),
            "ratio_matrix": matrix,
        })
        return report
    if h.kind == KIND_SEPARABLE:
        x = linalg.projector(linalg.ket("01"))
        y = linalg.projector(linalg.ket("10"))
        verdict = admissibility.check_separable_pair(x, y)
        report.update({
            "pair": ["01", "10"],
            "verdict": verdict.to_json_dict(),
        })
        return report
    # Bloch ball and the full two-qubit space: both conditions are
    # satisfiable, shown on a canonical orthogonal pair.
    if h.kind == KIND_BLOCH:
        x, y = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
        pair = ["(0,0,1)", "(0,0,-1)"]
        face_note = ("the face generated by two distinct pure states is the "
                     "whole ball B3")
    else:
        x = linalg.projector(linalg.ket("01"))
        y = linalg.projector(linalg.ket("10"))
        pair = ["01", "10"]
        face_note = ("the face generated by two pure states is the state "
                     "space of the spanned 2-dimensional subsystem, a ball B3")
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
    report.update({"pair": pair, "verdict": verdict.to_json_dict()})
    return report


def cmd_ratio(args, tol: float) -> dict:
    h = resolve_theory(args.theory)
    x = parse_state(h, args.x)
    y = parse_state(h, args.y)
    if h.kind == KIND_SEPARABLE:
        res = transition.affine_ratio_separable(x, y, tol=tol,
                                                seed=args.seed)
    else:
        res = transition.affine_ratio(h, x, y)
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


def cmd_superposable(args, tol: float) -> dict:
    h = resolve_theory(args.theory)
    x = parse_state(h, args.x)
    y = parse_state(h, args.y)
    cert = transition.superposability_search(h, x, y, tol=tol)
    return {
        "command": "superposable",
        "theory": theory_name(h),
        "x": args.x,
        "y": args.y,
        "found": cert.found,
        "z": jsonable(cert.z),
        "ratio_xz": jsonable(cert.ratio_xz),
        "ratio_yz": jsonable(cert.ratio_yz),
        "overlaps": jsonable(cert.overlaps),
        "transcript": jsonable(cert.transcript),
    }


def cmd_face(args, tol: float) -> dict:
    h = resolve_theory(args.theory)
    if h.kind != KIND_VPOLYTOPE:
        raise PreconditionError(
            "face analysis needs a polytope theory; "
            f"{theory_name(h)} is not finitely generated"
        )
    k = h.payload
    points = [parse_polytope_state(k, t) for t in args.points]
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
        "affine_dimension": face.affine_dimension(),
        "ball": admissibility.ball_descriptor(face).to_json_dict(),
    }


def cmd_protocol(args, tol: float) -> dict:
    if args.task == "clone":
        if args.bloch_angle is not None:
            theta = float(np.radians(args.bloch_angle))
            x = (0.0, 0.0, 1.0)
            y = (float(np.sin(theta)), 0.0, float(np.cos(theta)))
        else:
            x = tuple(parse_bloch_state(args.x if args.x else "(0,0,1)"))
            y = tuple(parse_bloch_state(args.y if args.y else "(1,0,0)"))
        rep = protocols.cloning_contradiction(x, y, tol=tol)
        return {"command": "protocol", "task": "clone", **jsonable(rep)}
    rep = protocols.run_bit_commitment_analysis(
        support=args.support, starts=args.starts, seed=args.seed,
        sweeps=args.sweeps)
    return {"command": "protocol", "task": "bc", **rep.to_json_dict()}


def cmd_trace(args, tol: float) -> dict:
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

def render_json(report: dict) -> str:
    return canonical_json(jsonable(report))


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
    if isinstance(v, bool) or v is None:
        return json.dumps(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list) and not v:
        return "[]"
    if isinstance(v, dict) and not v:
        return "{}"
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="equality tolerance override (also via "
                             f"{ENV_TOL}; the flag wins)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized searches")
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

    p = sub.add_parser("ratio", parents=[common],
                       help="transition ratio between two states")
    p.add_argument("theory", help=ZOO_HELP)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("superposable", parents=[common],
                       help="search for an equal superposition of two "
                            "orthogonal states")
    p.add_argument("theory", help=ZOO_HELP)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("face", parents=[common],
                       help="face of a polytope generated by given points")
    p.add_argument("theory", help=ZOO_HELP)
    p.add_argument("points", nargs="+")

    p = sub.add_parser("protocol", parents=[common],
                       help="protocol analyses: bit commitment or cloning")
    p.add_argument("task", choices=("bc", "clone"))
    p.add_argument("--support", type=int, default=8,
                   help="product states in the committed mixture (bc)")
    p.add_argument("--starts", type=int, default=32,
                   help="search restarts (bc)")
    p.add_argument("--sweeps", type=int, default=30,
                   help="descent sweeps per start (bc)")
    p.add_argument("--bloch-angle", type=float, default=None,
                   help="angle in degrees between the Bloch vectors (clone)")
    p.add_argument("--x", default=None, help="first Bloch vector (clone)")
    p.add_argument("--y", default=None, help="second Bloch vector (clone)")

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

_RENDER = {"json": render_json, "csv": render_csv, "text": render_text}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    if args.command == "protocol" and args.task == "bc":
        for flag in ("support", "starts", "sweeps"):
            if getattr(args, flag) <= 0:
                print(f"convexstate: error: --{flag} must be positive",
                      file=sys.stderr)
                return 2
    tol = resolve_tol(args.tol)
    try:
        report = _DISPATCH[args.command](args, tol)
    except TheoryFormatError as exc:
        print(f"convexstate: theory error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"convexstate: domain error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"convexstate: internal check failed: {exc}", file=sys.stderr)
        return 4
    rendered = _RENDER[args.format](report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
