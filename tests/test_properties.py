"""Seeded randomized invariants over the certificate transformations.

The per-seed work lives in property_cases.run_case; this module drives 500
seeds and then checks that every operation was exercised often enough to
mean something.
"""
from __future__ import annotations

from collections import Counter

import pytest

from property_cases import run_case

SEED_COUNT = 500
_seen: Counter = Counter()

FLOORS = {
    "chain": SEED_COUNT,
    "reverse": SEED_COUNT,
    "prune": SEED_COUNT,
    "roundtrip": SEED_COUNT,
    "strip": SEED_COUNT,
    "normalize": 250,
    "merge": 250,
    "replace": 250,
    "duality": 300,
    "refute": 250,
    "sandwich": 100,
    "sandwich_refused": 100,
}


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_random_certificate_case(seed):
    ops = run_case(seed)
    assert "chain" in ops
    _seen.update(ops)


def test_operation_coverage_floors():
    if not _seen:
        pytest.skip("floors only apply after the seeded cases in this module ran")
    for op, floor in sorted(FLOORS.items()):
        assert _seen[op] >= floor, f"{op} exercised {_seen[op]} times, need {floor}"


def test_cases_are_deterministic():
    assert run_case(7) == run_case(7)
