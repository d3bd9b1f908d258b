"""Numeric configuration: the one float tolerance for equality comparisons.

The CLI resolves it from the ``--tol`` flag, else the CONVEXSTATE_TOL
environment variable, else ``DEFAULT_TOL``.  Rational computations ignore
it: they are exact.
"""

from __future__ import annotations

import os

ENV_TOL = "CONVEXSTATE_TOL"
DEFAULT_TOL = 1e-10


def resolve_tol(override: float | None = None) -> float:
    """``override`` if given, else CONVEXSTATE_TOL, else ``DEFAULT_TOL``."""
    if override is not None:
        return float(override)
    env = os.environ.get(ENV_TOL)
    return DEFAULT_TOL if env is None else float(env)
