"""The benchmark's tracer looks up package functions by name, so a rename or
deletion in the package breaks ``bench/run.py --trace 1``.  Every name it
wraps must still exist where it says."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from spans import PACKAGE, TARGETS  # noqa: E402


@pytest.mark.parametrize("home, attr", [t[:2] for t in TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_span_target_resolves(home, attr):
    owner = importlib.import_module(f"{PACKAGE}.{home}")
    if "." in attr:  # a method, patched in its class's own namespace
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
