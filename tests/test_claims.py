"""Integrity of the claim registry: every claim points at operations that
exist and tests that are actually written."""

import importlib
from pathlib import Path

import pytest

from convexstate.claims import CLAIMS, claims_table

TESTS_DIR = Path(__file__).resolve().parent


def test_ids_unique_and_nonempty():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    for claim in CLAIMS:
        assert claim.statement
        assert claim.operations
        assert claim.tests


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_operations_resolve(claim):
    for op in claim.operations:
        module_name, _, attr_path = op.partition(".")
        target = importlib.import_module(f"convexstate.{module_name}")
        for attr in attr_path.split("."):
            assert hasattr(target, attr), op
            target = getattr(target, attr)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_referenced_tests_exist(claim):
    for ref in claim.tests:
        rel_path, _, name = ref.partition("::")
        path = TESTS_DIR.parent / rel_path
        assert path.is_file(), ref
        assert f"def {name}(" in path.read_text(), ref


def test_lookup_helpers():
    table = claims_table()
    assert [c["id"] for c in table] == [c.id for c in CLAIMS]
    first = CLAIMS[0]
    assert table[0] == {"id": first.id, "statement": first.statement,
                        "operations": list(first.operations), "tests": list(first.tests)}
