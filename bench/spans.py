"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function with a wrapper in every
``convexstate`` module that holds a reference to it, so calls through
``from .lp import lp_solve``-style names are caught as well as calls
through the defining module.  ``Tracer.uninstall`` restores the originals;
untraced rounds run with no wrappers at all.

A span is ``[name, start, end, parent, tag, note]``: ``parent`` is the
index of the enclosing span (-1 for none), ``tag`` the module whose name
was called, and ``note`` an optional per-call value (see ``TARGETS``).
A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

KERNEL_SPAN = "bench.refkernel"
PACKAGE = "convexstate"


def _face_key(args, kwargs, result):
    k, point = args[0], args[1]
    return (k.vertices, tuple(point))


def _diagonal(args, kwargs, result):
    return tuple(args[1]) == tuple(args[2])


def _evaluations(args, kwargs, result):
    return result.evaluations


# (defining module, attribute, span name, note).  Functions are wrapped
# wherever the package binds them; "polytope.build" wraps the constructor.
TARGETS = [
    ("lp", "lp_solve", "lp.solve", None),
    ("polytope", "VPolytope.__init__", "polytope.build", None),
    ("polytope", "minimal_face", "polytope.minimal_face", _face_key),
    ("polytope", "find_ambiguous_mixture", "polytope.find_ambiguous_mixture", None),
    ("transition", "affine_ratio_polytope", "transition.affine_ratio_polytope", _diagonal),
    ("transition", "superposability_search", "transition.superposability_search", None),
    ("transition", "affine_ratio_separable", "transition.affine_ratio_separable", None),
    ("admissibility", "check_polytope", "admissibility.check_polytope", None),
    ("admissibility", "check_separable_pair", "admissibility.check_separable_pair", None),
    ("admissibility", "jordan_identity_residual", "admissibility.jordan_checks", None),
    ("admissibility", "jb_norm_inequalities", "admissibility.jordan_checks", None),
    ("linalg", "eigvalsh", "linalg.eigvalsh", None),
    ("linalg", "eigh", "linalg.eigh", None),
    ("models", "maximize_linear_over_separable", "models.maximize_linear_over_separable", None),
    ("models", "separable_membership", "models.separable_membership", None),
    ("protocols", "binding_attack_search", "protocols.binding_attack_search", _evaluations),
    ("serialize", "canonical_json", "serialize.canonical_json", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, tag: str, note):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tag, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under whatever span is open now."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, "bench", None])

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {key[len(PACKAGE) + 1:] or PACKAGE: mod
                   for key, mod in list(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))}
        for home, attr, name, note in TARGETS:
            owner = modules[home]
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, name, home, note))
                continue
            original = getattr(owner, attr)
            for short, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, self._wrap(original, name, short, note))

    def _patch(self, obj, key: str, value) -> None:
        self._restore.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        while self._restore:
            obj, key, value = self._restore.pop()
            setattr(obj, key, value)


def layer_totals(spans: list[list], factors: list[float], first: int = 0) -> dict:
    """Per span name: calls, nominal self seconds, per-tag calls and notes.

    ``spans`` is a slice of ``Tracer.spans`` starting at index ``first``
    (parents are indices into the whole list), and ``factors[i]`` converts
    span i's raw seconds to nominal seconds.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= first:
            own[s[3] - first] -= s[2] - s[1]
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                               "tags": defaultdict(int), "notes": []})
    for s, t, f in zip(spans, own, factors):
        entry = out[s[0]]
        entry["calls"] += 1
        entry["self_s"] += t * f
        entry["tags"][s[4]] += 1
        if s[5] is not None:
            entry["notes"].append(s[5])
    return out
