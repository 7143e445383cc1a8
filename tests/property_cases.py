"""Randomized invariant checks shared by test_properties.

Each case builds a valid certificate by stacking transversals of a random
subgroup chain, then drags it through every transformation whose hypothesis
holds, asserting validity after each step.  ``run_case`` returns the set of
operation names it managed to exercise so the caller can enforce coverage
floors over a whole seed range.
"""
from __future__ import annotations

import random

from factorix.certify import (
    Certificate, ConditionFailed, certificate, compose_sandwich,
    divisibility_prune, from_dict,
    lift_by_transversal, load_json, merge_adjacent, normalize, replace_factor,
    reverse, to_dict,
)
from factorix.group import GroupTable, generate_group
from factorix.patterns import enumerate_words
from factorix.perm import parse_cycles
from factorix.search import generic_search, refute
from factorix.structure import double_cosets, subgroup_from_indices

from helpers import (
    canonical, cert_json, conjugate_intersection_trivial,
    enumerate_ordered_factorizations, standalone_table, strip_singletons,
)


def _table(degree: int, *cycle_texts: str) -> GroupTable:
    gens = [parse_cycles(t, degree) for t in cycle_texts]
    return generate_group(gens, degree=degree)


def group_pool() -> dict[str, GroupTable]:
    return {
        "c5": _table(5, "(1,2,3,4,5)"),
        "s3": _table(3, "(1,2)", "(1,2,3)"),
        "c6": _table(6, "(1,2,3,4,5,6)"),
        "q8": _table(8, "(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"),
        "d4": _table(4, "(1,2,3,4)", "(1,3)"),
        "e8": _table(6, "(1,2)", "(3,4)", "(5,6)"),
        "c2xc4": _table(6, "(1,2)", "(3,4,5,6)"),
        "c9": _table(9, "(1,2,3,4,5,6,7,8,9)"),
        "a4": _table(4, "(1,2)(3,4)", "(1,2,3)"),
        "d6": _table(6, "(1,2,3,4,5,6)", "(2,6)(3,5)"),
        "c12": _table(12, "(1,2,3,4,5,6,7,8,9,10,11,12)"),
        "s4": _table(4, "(1,2)", "(1,2,3,4)"),
        "a5": _table(5, "(1,2,3,4,5)", "(1,2,3)"),
    }


_POOL: dict[str, GroupTable] | None = None


def pool() -> dict[str, GroupTable]:
    global _POOL
    if _POOL is None:
        _POOL = group_pool()
    return _POOL


def random_proper_subgroup(table: GroupTable, rng: random.Random, tries: int = 6):
    for _ in range(tries):
        k = rng.choice((1, 1, 2))
        gens = [rng.randrange(1, table.order) for _ in range(k)]
        closed = table.closure_indices(gens)
        if closed is not None and 1 < len(closed) < table.order:
            return subgroup_from_indices(table, tuple(closed))
    return None


def chain_certificate(table: GroupTable, rng: random.Random, depth: int = 0) -> Certificate:
    """A valid certificate built from nested transversal lifts."""
    if table.order == 1 or depth >= 3 or rng.random() < 0.2:
        return certificate(table, [tuple(range(table.order))])
    h = random_proper_subgroup(table, rng)
    if h is None:
        return certificate(table, [tuple(range(table.order))])
    inner = chain_certificate(standalone_table(h), rng, depth + 1)
    return lift_by_transversal(inner, h, side=rng.choice(("left", "right")))


def shifted(cert: Certificate, rng: random.Random) -> Certificate:
    """Translate one factor and compensate in its right neighbour; validity
    is preserved because (A*x)*(x^-1*B) = A*B."""
    g = cert.group
    i = rng.randrange(len(cert.factors) - 1)
    x = rng.randrange(g.order)
    xinv = g.inv[x]
    row_xinv = g.row(xinv)
    sets = [f.indices for f in cert.factors]
    sets[i] = tuple(sorted(g.mul_idx(a, x) for a in sets[i]))
    sets[i + 1] = tuple(sorted(row_xinv[b] for b in sets[i + 1]))
    return certificate(g, sets)


def with_singleton(cert: Certificate, rng: random.Random) -> Certificate:
    g = cert.group
    i = rng.randrange(len(cert.factors))
    x = rng.randrange(g.order)
    xinv = g.inv[x]
    sets = [f.indices for f in cert.factors]
    sets[i] = tuple(sorted(g.mul_idx(a, xinv) for a in sets[i]))
    sets.insert(i + 1, (x,))
    return certificate(g, sets)


def run_case(seed: int) -> set[str]:
    rng = random.Random(seed)
    name = rng.choice(sorted(pool()))
    table = pool()[name]
    ops: set[str] = set()

    cert = chain_certificate(table, rng)
    assert cert.verify().valid
    ops.add("chain")

    rev = reverse(cert)
    assert rev.verify().valid
    assert rev.pattern == cert.pattern[::-1]
    back = reverse(rev)
    assert [f.indices for f in back.factors] == [f.indices for f in cert.factors]
    ops.add("reverse")

    assert divisibility_prune(cert.factors[0])
    assert divisibility_prune(cert.factors[-1])
    ops.add("prune")

    again = from_dict(to_dict(cert))
    assert canonical(again) == canonical(cert)
    assert canonical(load_json(cert_json(cert))) == canonical(cert)
    ops.add("roundtrip")

    if len(cert.factors) >= 2:
        moved = shifted(cert, rng)
        assert moved.verify().valid
        norm = normalize(moved)
        assert norm.is_normalized
        assert norm.pattern == moved.pattern
        assert norm.verify().valid
        ops.add("normalize")

        pos = rng.randrange(len(cert.factors) - 1)
        merged = merge_adjacent(cert, pos)
        assert merged.verify().valid
        assert len(merged.factors) == len(cert.factors) - 1
        ops.add("merge")
        split = replace_factor(merged, pos, [cert.factors[pos], cert.factors[pos + 1]])
        assert [f.indices for f in split.factors] == [f.indices for f in cert.factors]
        ops.add("replace")

    padded = with_singleton(cert, rng)
    assert padded.verify().valid
    lean = strip_singletons(padded)
    assert lean.verify().valid
    assert all(len(f) > 1 for f in lean.factors) or table.order == 1
    ops.add("strip")

    a = random_proper_subgroup(table, rng)
    b = random_proper_subgroup(table, rng)
    if a is not None and b is not None:
        if conjugate_intersection_trivial(a, b) and double_cosets(a, b).all_full_size:
            cert_ab = compose_sandwich(a, b)
            assert cert_ab.verify().valid
            ops.add("sandwich")
        else:
            with_failure = False
            try:
                compose_sandwich(a, b)
            except ConditionFailed:
                with_failure = True
            assert with_failure
            ops.add("sandwich_refused")

    if table.order <= 12:
        words = enumerate_words(table.order)
        word = rng.choice(words)
        forward = generic_search(table, word, find_all=True)
        backward = generic_search(table, word[::-1], find_all=True)
        assert forward.solution_count == backward.solution_count
        assert {canonical(reverse(c)) for c in forward.solutions} == {
            canonical(c) for c in backward.solutions
        }
        ops.add("duality")

        choices = enumerate_ordered_factorizations(table.order, rng.choice((2, 3)))
        choices = [p for p in choices if all(m > 1 for m in p)]
        if choices:
            pattern = rng.choice(choices)
            record = refute(table, pattern)
            if record.verdict == "FOUND":
                assert record.certificate is not None
                assert record.certificate.verify().valid
                assert record.certificate.pattern == pattern
            else:
                assert record.verdict == "NONE"
                probe = generic_search(table, pattern, find_all=False)
                assert probe.exhaustive and not probe.solutions
            ops.add("refute")

    return ops
