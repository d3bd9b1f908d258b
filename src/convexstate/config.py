"""Numeric configuration: the one float tolerance for equality comparisons.

The CLI resolves it from the ``--tol`` flag, else the CONVEXSTATE_TOL
environment variable, else ``DEFAULT_TOL``.  Rational computations ignore
it: they are exact.
"""

from __future__ import annotations

import os

from .errors import PreconditionError

ENV_TOL = "CONVEXSTATE_TOL"
DEFAULT_TOL = 1e-10


def tolerance(text) -> float:
    """A tolerance from a number or its text, finite and >= 0: NaN or inf
    would make every ``> tol`` check false.  Anything else raises
    PreconditionError, a ValueError."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise PreconditionError(f"tolerance must be finite and non-negative, got {text!r}")
    return value


def resolve_tol(override: float | None = None) -> float:
    """``override`` if given, else CONVEXSTATE_TOL, else ``DEFAULT_TOL``."""
    if override is not None:
        return float(override)
    env = os.environ.get(ENV_TOL)
    return DEFAULT_TOL if env is None else tolerance(env)
