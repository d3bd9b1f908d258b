"""Numeric configuration: the one float tolerance for equality comparisons.

The CLI resolves it from the ``--tol`` flag, else the CONVEXSTATE_TOL
environment variable, else ``DEFAULT_TOL``.  Rational computations ignore
it: they are exact.
"""

from __future__ import annotations

import os

from .errors import PreconditionError
from .lp import rat

ENV_TOL = "CONVEXSTATE_TOL"
DEFAULT_TOL = 1e-10


def tolerance(text) -> float:
    """A tolerance from a number, or from its text read by ``lp.rat``,
    finite and >= 0: NaN or inf would make every ``> tol`` check false.
    Text that is not a number raises rat's ValueError, any other value
    PreconditionError, a ValueError."""
    try:
        value = float(rat(text)) if isinstance(text, str) else float(text)
    except (ZeroDivisionError, OverflowError):  # 'p/0', or text beyond the float range
        value = float("nan")
    if not 0.0 <= value < float("inf"):
        raise PreconditionError(f"tolerance must be finite and non-negative, got {text!r}")
    return value


def resolve_tol(override: float | None = None) -> float:
    """``override`` if given, else CONVEXSTATE_TOL, else ``DEFAULT_TOL``."""
    if override is not None:
        return float(override)
    env = os.environ.get(ENV_TOL)
    return DEFAULT_TOL if env is None else tolerance(env)
