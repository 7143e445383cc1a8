from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref
from itertools import combinations, islice

import pytest

from factorix.certify import certificate, product_distinct
from factorix.group import FactorSet, iter_bits
from factorix import search
from factorix.perm import parse_cycles
from factorix.search import (
    AnchorInvalid, _block_fit, _block_masks, _coset_lists, _coset_masks, _meet_set, _right_cosets,
    case1_search, case2_search, case2_search_reversed, case3_search,
    conjugacy_class, generic_search, involution_class_reps, refute,
)
from factorix.structure import cosets, subgroup_from_indices, subgroup_from_perms
from helpers import block_fit_reference, fs, group_from


def sub(group, *texts):
    return subgroup_from_perms(group, [parse_cycles(t, group.degree) for t in texts])


def verified_count(group, factor_tuples):
    """Verify raw candidates one by one, independent of any engine pruning."""
    return sum(certificate(group, f).verify().valid for f in factor_tuples)


def punctured(a, anchor_indices):
    reps, coset_of = cosets(a)
    blocked = {coset_of[x] for x in anchor_indices}
    return [w for w in reps if coset_of[w] not in blocked]


# ---------------------------------------------------------------- case 1


def case1_candidates(a, d, b_size, c_size):
    g = a.group
    w_free = punctured(a, d.indices)
    v_reps = cosets(d, "left")[0]
    lcoset = [-1] * g.order
    for pos, r in enumerate(v_reps):
        row = g.row(r)
        for x in d.indices:
            lcoset[row[x]] = pos
    vblocked = {lcoset[x] for x in a.indices}
    v_free = [v for v in v_reps if lcoset[v] not in vblocked]
    for be in combinations(w_free, b_size - 1):
        for ce in combinations(v_free, c_size - 1):
            yield (a.indices, tuple(sorted((0,) + be)), tuple(sorted((0,) + ce)), d.indices)


def test_case1_matches_brute_force(s4):
    a = sub(s4, "(1,2)")
    d = sub(s4, "(1,2)(3,4)")
    rep = case1_search(a, d, (3, 2))
    assert rep.engine == "case1"
    assert rep.pattern == (2, 3, 2, 2)
    assert rep.candidate_space == 450
    assert rep.solution_count == 56
    assert rep.solution_count == verified_count(s4, case1_candidates(a, d, 3, 2))
    assert rep.exhaustive and not rep.budget_hit
    seen = set()
    for cert in rep.solutions:
        assert cert.verify().valid and cert.is_normalized
        seen.add(tuple(f.indices for f in cert.factors))
    assert len(seen) == 56


def test_case1_empty_space_is_exhaustive(s4):
    rep = case1_search(sub(s4, "(1,2)"), sub(s4, "(3,4)"), (3, 2))
    assert rep.solution_count == 0
    assert rep.candidates_examined == rep.candidate_space == 450
    assert rep.exhaustive


def test_find_first_without_solution_is_exhaustive(s3, a4, s4):
    """``exhaustive`` means the whole space was searched: a find-first
    search (case3, generic) that finds nothing within its budget is
    exhaustive, and one that stops at its first solution is not."""
    a = sub(s4, "(1,2)")
    rep = case3_search(a, fs(s4, "()", "(3,4)"), 3, 2)
    assert rep.solution_count == 0 and not rep.budget_hit
    assert rep.candidates_examined == rep.candidate_space == 45
    assert rep.exhaustive
    rep = generic_search(a4, (2, 3, 2), find_all=False)
    assert rep.solution_count == 0 and not rep.budget_hit
    assert rep.exhaustive
    rep = case3_search(a, fs(s4, "()", "(1,2)(3,4)"), 3, 2)
    assert rep.solution_count == 1 and rep.candidates_examined < rep.candidate_space
    assert not rep.exhaustive and not rep.budget_hit
    rep = generic_search(s3, (2, 3), find_all=False)
    assert rep.solution_count == 1 and not rep.budget_hit
    assert not rep.exhaustive


def test_case1_budget(s4):
    rep = case1_search(sub(s4, "(1,2)"), sub(s4, "(1,2)(3,4)"), (3, 2), budget_s=0.0)
    assert rep.budget_hit
    assert not rep.exhaustive
    assert rep.solution_count == 0


def test_case1_anchor_validation(s4, a4):
    a = sub(s4, "(1,2)")
    with pytest.raises(AnchorInvalid):
        case1_search(a, sub(a4, "(1,2)(3,4)"), (3, 2))
    with pytest.raises(AnchorInvalid):
        case1_search(a, sub(s4, "(3,4)"), (3, 2, 1))
    with pytest.raises(AnchorInvalid):
        case1_search(a, sub(s4, "(3,4)"), (2, 2))
    with pytest.raises(AnchorInvalid):
        case1_search(a, sub(s4, "(1,2)"), (3, 2))


# ---------------------------------------------------------------- case 2


def test_case2_single_middle_matches_brute_force(s4):
    a = sub(s4, "(1,2)")
    last = fs(s4, "()", "(1,2)(3,4)")
    rep = case2_search(a, last, (6,))
    assert rep.engine == "case2"
    assert rep.pattern == (2, 6, 2)
    assert rep.candidate_space == 252
    w_free = punctured(a, last.indices)
    brute = verified_count(
        s4,
        ((a.indices, tuple(sorted((0,) + be)), last.indices) for be in combinations(w_free, 5)),
    )
    assert rep.solution_count == brute == 32
    assert rep.exhaustive
    assert all(c.verify().valid and c.is_normalized for c in rep.solutions)


def test_case2_two_middles_matches_brute_force(s4):
    a = sub(s4, "(1,2,3)")
    last = fs(s4, "()", "(1,4)(2,3)")
    rep = case2_search(a, last, (2, 2))
    assert rep.pattern == (3, 2, 2, 2)
    assert rep.candidate_space == 72
    w_free = punctured(a, last.indices)
    brute = verified_count(
        s4,
        (
            (a.indices, (0, w), (0, x), last.indices)
            for w in w_free
            for x in range(1, s4.order)
        ),
    )
    assert rep.solution_count == brute == 48


def test_case2_threads_agree(s4):
    a = sub(s4, "(1,2)")
    last = fs(s4, "()", "(1,2)(3,4)")
    one = case2_search(a, last, (6,), threads=1)
    two = case2_search(a, last, (6,), threads=2)
    key = lambda c: tuple(f.indices for f in c.factors)
    assert [key(c) for c in one.solutions] == [key(c) for c in two.solutions]


def test_case2_find_first_and_budget(s4):
    a = sub(s4, "(1,2)")
    last = fs(s4, "()", "(1,2)(3,4)")
    starved = case2_search(a, last, (6,), budget_s=0.0)
    assert starved.budget_hit and not starved.exhaustive and not starved.solutions


def test_case2_reversed(s4):
    first = fs(s4, "()", "(1,4)(2,3)")
    d = sub(s4, "(1,2,3)")
    rep = case2_search_reversed(first, d, (2, 2))
    assert rep.pattern == (2, 2, 2, 3)
    assert rep.solution_count == 48
    assert "reversed task" in rep.notes
    for cert in rep.solutions:
        assert cert.verify().valid
        assert cert.factors[0].indices == first.indices
        assert cert.factors[-1].indices == d.indices
    mirror = case2_search(d, first.inverse(), (2, 2))
    assert mirror.solution_count == rep.solution_count


def test_case2_anchor_validation(s4):
    a = sub(s4, "(1,2)")
    with pytest.raises(AnchorInvalid):
        case2_search(a, fs(s4, "(3,4)", "(1,3)"), (6,))
    with pytest.raises(AnchorInvalid):
        case2_search(a, fs(s4, "()", "(3,4)"), (2, 2, 2))
    with pytest.raises(AnchorInvalid):
        case2_search(a, fs(s4, "()", "(3,4)"), (5,))
    with pytest.raises(AnchorInvalid):
        case2_search(a, fs(s4, "()", "(1,2)"), (6,))
    with pytest.raises(AnchorInvalid):
        case2_search(a, fs(s4, "()", "(3,4)"), (2, 3))
    # a zero budget stops before any C candidate: the sizes are checked first
    with pytest.raises(AnchorInvalid):
        case2_search(a, fs(s4, "()", "(1,2)(3,4)"), (2, 3), budget_s=0.0)


# Each anchored engine on a subgroup anchor A and a second anchor D (a
# subgroup for case1) of matching sizes: |A| = 3, |D| = 2 and middle sizes
# 2, 2 in S4.
ANCHORED_ENGINES = {
    "case1": lambda a, d: case1_search(a, d, (2, 2)),
    "case2": lambda a, d: case2_search(a, d, (2, 2)),
    "case2-reversed": lambda a, d: case2_search_reversed(d, a, (2, 2)),
    "case3": lambda a, d: case3_search(a, d, 2, 2),
}


@pytest.mark.parametrize("engine", ["case2", "case2-reversed", "case3"])
def test_case2_set_anchor_without_identity(s4, engine):
    """The set anchor is first in a reversed search and last otherwise, so
    the error when it lacks e names neither side; case3 gives the same."""
    with pytest.raises(AnchorInvalid, match="^the set anchor must contain the identity$"):
        ANCHORED_ENGINES[engine](sub(s4, "(1,2,3)"), fs(s4, "(1,4)(2,3)", "(1,2)"))


@pytest.mark.parametrize("engine", sorted(ANCHORED_ENGINES))
def test_anchors_in_different_groups(s4, a4, engine):
    with pytest.raises(AnchorInvalid, match="^anchors live in different groups$"):
        ANCHORED_ENGINES[engine](sub(s4, "(1,2,3)"), sub(a4, "(1,2)(3,4)"))


@pytest.mark.parametrize("engine", sorted(ANCHORED_ENGINES))
def test_subgroup_anchor_is_closed(s4, engine):
    """A catalog's inline subgroup end reaches the engines as a bare factor
    set: one that is a subgroup runs as the subgroup does, one that is not
    is refused."""
    d = fs(s4, "()", "(1,2)")
    inline = ANCHORED_ENGINES[engine](fs(s4, "()", "(1,2,3)", "(1,3,2)"), d)
    assert inline.solutions and inline.solutions == ANCHORED_ENGINES[engine](sub(s4, "(1,2,3)"), d).solutions
    with pytest.raises(AnchorInvalid, match="^the subgroup anchor is not a subgroup: not closed under products$"):
        ANCHORED_ENGINES[engine](fs(s4, "()", "(1,2,3)", "(1,2,4)"), d)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("a_gens, middle, t, count", [
    (("(1,2)(3,4)", "(1,2,3)"), (1,), "(1,2)", 1),
    (("(1,2)", "(1,2,3)"), (1, 2), "(1,4)", 0),
    (("(1,2)", "(1,2,3)"), (1, 2), "(1,2)(3,4)", 12),
    (("(1,2)", "(1,2,3)"), (1, 2), "(1,2,3,4)", 6),
])
def test_case2_single_element_b_matches_brute_force(s4, threads, a_gens, middle, t, count):
    """With |B| = 1 the search is the one chunk B = {e}; its answers are
    the candidates that verify, over every x when C = {e, x}."""
    a = sub(s4, *a_gens)
    last = fs(s4, "()", t)
    rep = case2_search(a, last, middle, threads=threads)
    cs = [((0, x),) for x in range(1, s4.order)] if len(middle) == 2 else [()]
    candidates = [(a.indices, (0,)) + c + (last.indices,) for c in cs]
    brute = [f for f in candidates if certificate(s4, f).verify().valid]
    assert [tuple(f.indices for f in c.factors) for c in rep.solutions] == brute
    assert rep.solution_count == count
    assert rep.exhaustive and not rep.budget_hit


@pytest.mark.parametrize("threads", [1, 2])
def test_case2_keeps_no_group_alive(threads):
    g = group_from(4, "(1,2)", "(1,2,3,4)")
    case2_search(sub(g, "(1,2)"), fs(g, "()", "(1,2)(3,4)"), (6,), threads=threads)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def catalog_case2(cat, search_id, **kwargs):
    spec = cat.search(search_id)
    group = cat.group(spec["group"])
    engine = case2_search_reversed if spec["engine"] == "case2-reversed" else case2_search
    return engine(cat.anchor(group, spec["first"]), cat.anchor(group, spec["last"]),
                  tuple(spec["middle"]), **kwargs)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("search_id, examined, solutions", [
    # fixed ids keep each row's name stable in test reports
    pytest.param("search-lemma-3.5", 8, 8, id="search-lemma-3.5-True-8-8"),
    pytest.param("search-lemma-4.4", 206640, 144, id="search-lemma-4.4-True-206640-144"),
    pytest.param("search-lemma-4.7", 30780, 288, id="search-lemma-4.7-True-30780-288"),
    pytest.param("search-lemma-3.3", 3890880, 24, id="search-lemma-3.3-True-3890880-24"),
])
def test_case2_counters_pinned(cat, threads, search_id, examined, solutions):
    rep = catalog_case2(cat, search_id, threads=threads)
    assert (rep.candidates_examined, rep.solution_count) == (examined, solutions)
    assert rep.exhaustive and not rep.budget_hit


def test_case2_forks_no_more_workers_than_chunks(a4, monkeypatch):
    """A fork pool starts all of its workers at once, so a search with two
    chunks forks two workers however many ``threads`` it may use."""
    import concurrent.futures

    workers = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    a = sub(a4, "(1,2,3)")
    last = fs(a4, "()", "(1,2)(3,4)")
    serial = case2_search(a, last, (2,))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    forked = case2_search(a, last, (2,), threads=3)
    key = lambda c: tuple(f.indices for f in c.factors)
    assert workers == [2]
    assert [key(c) for c in forked.solutions] == [key(c) for c in serial.solutions]
    assert serial.solution_count == 2


@pytest.mark.parametrize("middle, counts", [((4,), [8, 2, 8, 0]), ((2, 2), [48, 16, 20, 0])])
def test_case2_matches_generic_search(s4, middle, counts):
    """Every case2 answer, and only those, among the generic engine's
    factorizations with the same end factors and B in the transversal."""
    a = sub(s4, "(1,2,3)")
    reps = set(cosets(a)[0])
    key = lambda c: tuple(f.indices for f in c.factors)
    generic = [key(c) for c in generic_search(s4, (3,) + middle + (2,), find_all=True).solutions]
    got = []
    # (1,2,4) is conjugate into A, so some y*D meet a single coset
    for t in ("(1,4)(2,3)", "(1,2,3,4)", "(1,4)", "(1,2,4)"):
        last = fs(s4, "()", t)
        want = [f for f in generic if f[0] == a.indices and f[-1] == last.indices and set(f[1]) <= reps]
        assert [key(c) for c in case2_search(a, last, middle).solutions] == want
        got.append(len(want))
    assert got == counts


def order3_outside(g, a):
    """The least element of order 3 outside A: with D = {e, t}, some y*D
    then lies inside one right A-coset iff t is conjugate into A."""
    return next(t for t in range(g.order) if g.element_orders[t] == 3 and t not in a.indices)


LEAF_ANCHORS = {
    # name: (group fixture or catalog group, A, D, b) with |A|*b*2*|D| = |G|
    "s4-c3-double-transposition": ("s4", ("(1,2,3)",), ("()", "(1,4)(2,3)"), 2),
    "s4-c3-4-cycle": ("s4", ("(1,2,3)",), ("()", "(1,2,3,4)"), 2),
    "s4-c3-transposition": ("s4", ("(1,2,3)",), ("()", "(1,4)"), 2),
    # (1,2,4) is conjugate into A, so some y*D meet a single coset
    "s4-c3-conjugate-into-a": ("s4", ("(1,2,3)",), ("()", "(1,2,4)"), 2),
    "a5-c5": ("a5", ("(1,2,3,4,5)",), ("()", "(1,2)(3,4)"), 3),
    "a5-c3": ("a5", ("(1,2,3)",), ("()", "(1,2)(3,4)"), 5),
    "a5-c5-conjugate-into-a": ("a5", ("(1,2,3,4,5)",), ("()", "(1,2,3,5,4)"), 3),
    "168-q21": ("g168-q21", None, ("()", "(2,7)(3,4,5,6)"), 2),
    "168-q21-conjugate-into-a": ("g168-q21", None, None, 2),
    # D is the subgroup generated by the 7-cycle, taken as a set
    "168-h6-sylow7": ("g168-h6", None, ("(1,2,3,5,6,7,4)",), 2),
}


@pytest.fixture(params=sorted(LEAF_ANCHORS))
def leaf_anchor(request, cat):
    """(A, D, b, yd_masks, w_free) for one (b, 2) anchor of LEAF_ANCHORS."""
    source, a_gens, d_texts, b_size = LEAF_ANCHORS[request.param]
    if a_gens is None:
        a = cat.subgroup(source)
        g = a.group
    else:
        g = request.getfixturevalue(source)
        a = sub(g, *a_gens)
    if d_texts is None:
        d = FactorSet(g, (0, order3_outside(g, a)))
    elif len(d_texts) == 1:
        d = FactorSet(g, tuple(g.closure_indices(fs(g, *d_texts).indices)))
    else:
        d = fs(g, *d_texts)
    assert len(a) * b_size * 2 * len(d) == g.order
    _, coset_of, w_free = _right_cosets(a, d)
    return a, d, b_size, _coset_masks(g, d, coset_of), w_free


def test_meet_sets_match_brute_force(leaf_anchor):
    """Part p of w's meet set, at stride |G|+1, holds the x with w*x*D
    meeting coset p; every guard bit p*(|G|+1) + |G| is clear."""
    a, d, _, yd, w_free = leaf_anchor
    g = a.group
    cosets = g.order // len(a)
    stride = g.order + 1
    met = _coset_lists(yd, cosets)
    guards = sum(1 << p * stride + g.order for p in range(cosets))
    for w in [0] + w_free:
        packed = _meet_set(g, met, w)
        row = g.row(w)
        ref = [sum(1 << x for x in range(g.order) if yd[row[x]] >> p & 1) for p in range(cosets)]
        assert packed == sum(ref[p] << p * stride for p in range(cosets))
        assert not packed & guards


def test_case2_leaf_accepts_what_block_masks_accepts(leaf_anchor):
    """For every completed B, the x read off the AND, over the cosets p that
    A*B*D misses, of part p of the OR of the packed meet sets of b in B
    (bits p*(|G|+1) to p*(|G|+1) + |G| - 1) are the x whose block masks
    are disjoint and fill G; the engine emits exactly those."""
    a, d, b_size, yd, w_free = leaf_anchor
    g = a.group
    cosets = g.order // len(a)
    full = (1 << cosets) - 1
    elements = (1 << g.order) - 1
    met = _coset_lists(yd, cosets)
    meet = {w: _meet_set(g, met, w) for w in [0] + w_free}
    want = set()
    completed = 0
    for extra in combinations(w_free, b_size - 1):
        b = (0,) + extra
        mask = 0
        for w in b:
            if yd[w] & mask or yd[w].bit_count() != len(d):
                break
            mask |= yd[w]
        else:
            completed += 1
            rows = [g.row(w) for w in b]
            ref = {x for x, m in _block_masks(rows, yd, range(g.order)) if not m & mask and m | mask == full}
            accepted = -1
            for p in iter_bits(full & ~mask):
                union = 0
                for w in b:
                    union |= meet[w] >> p * (g.order + 1) & elements
                accepted &= union
            assert set(iter_bits(accepted)) == ref
            want.update((tuple(sorted(b)), x) for x in ref)
    assert completed > 0
    got = {(c.factors[1].indices, c.factors[2].indices[1]) for c in case2_search(a, d, (b_size, 2)).solutions}
    assert got == want


# Under ``python -O`` an ``assert`` disappears; the reversed paths must still
# verify what they report.  The index-tuple reversal ``_reversed_indices`` is
# replaced by one that corrupts.
CORRUPT_REVERSE = """
from factorix import search
from factorix.group import FactorSet, generate_group
from factorix.perm import parse_cycles
from factorix.structure import subgroup_from_indices


def group(degree, *texts):
    return generate_group([parse_cycles(t, degree) for t in texts], degree=degree)


def corrupt(group, factors):
    return (factors[0],) * len(factors)


search._reversed_indices = corrupt
"""

REVERSED_PATHS = {
    "case2_search_reversed": """
s4 = group(4, "(1,2)", "(1,2,3,4)")
first = FactorSet(s4, (0, s4.index_of(parse_cycles("(1,4)(2,3)", 4))))
d = s4.closure_indices([s4.index_of(parse_cycles("(1,2,3)", 4))])
search.case2_search_reversed(first, subgroup_from_indices(s4, d), (2, 2))
""",
    "refute": """
e32 = group(10, "(1,2)", "(3,4)", "(5,6)", "(7,8)", "(9,10)")
search.refute(e32, (2, 4, 2, 2))
""",
}


@pytest.mark.parametrize("path", sorted(REVERSED_PATHS))
def test_reversed_certificates_checked_under_optimize(path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # this test's factorix
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_REVERSE + REVERSED_PATHS[path]],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "AssertionError: engine produced an invalid certificate" in proc.stderr


# ---------------------------------------------------------------- case 3


def test_case3_counts_transversals(a4, s4):
    """case3 finds a verified solution iff the brute force over B and C
    has one: C a right transversal of A in A4 (81 of them), and none in S4
    with A = <(1,2)>, D = {e, (3,4)} and sizes (3, 2)."""
    for a, d, b_size, c_size, want in (
        (sub(a4, "(1,2,3)"), FactorSet(a4, (0,)), 1, 4, 81),
        (sub(s4, "(1,2)"), fs(s4, "()", "(3,4)"), 3, 2, 0),
    ):
        g = a.group
        rep = case3_search(a, d, b_size, c_size)
        assert rep.engine == "case3"
        assert rep.pattern == (len(a), b_size, c_size, len(d))
        brute = verified_count(
            g,
            ((a.indices, (0,) + b, c, d.indices)
             for b in combinations(punctured(a, d.indices), b_size - 1)
             for c in combinations(range(g.order), c_size)),
        )
        assert brute == want
        assert rep.solution_count == min(brute, 1)
        assert rep.exhaustive == (brute == 0) and not rep.budget_hit
        assert all(c.verify().valid for c in rep.solutions)


def test_case3_caps_and_find_first(a4):
    a = sub(a4, "(1,2,3)")
    d = FactorSet(a4, (0,))
    first = case3_search(a, d, 1, 4)
    assert first.solution_count == 1 and not first.exhaustive and not first.budget_hit
    starved = case3_search(a, d, 1, 4, budget_s=0.0)
    assert starved.budget_hit and not starved.exhaustive


def test_case3_anchor_validation(a4):
    a = sub(a4, "(1,2,3)")
    with pytest.raises(AnchorInvalid):
        case3_search(a, fs(a4, "(1,2)(3,4)", "(1,3)(2,4)"), 1, 4)
    with pytest.raises(AnchorInvalid):
        case3_search(a, FactorSet(a4, (0,)), 5, 4)
    with pytest.raises(AnchorInvalid):
        case3_search(a, FactorSet(a4, (0,)), 2, 3)
    with pytest.raises(AnchorInvalid):
        case3_search(a, fs(a4, "()", "(1,2,3)"), 1, 2)
    for b_size, c_size in ((0, 4), (-2, -2)):
        with pytest.raises(AnchorInvalid, match="^factor sizes must be positive$"):
            case3_search(a, FactorSet(a4, (0,)), b_size, c_size)


@pytest.mark.parametrize("group_name, a_gens, d_texts, b_size, c_size, builds", [
    ("s4", ("(1,2)",), ("()", "(3,4)"), 3, 2, 24),
    ("s4", ("(1,2)",), ("()", "(3,4)"), 2, 3, 8),
    ("a5", ("(1,2)(3,4)",), ("()", "(1,3)(2,4)"), 3, 5, 312),
])
def test_case3_builds_match_product_reference(request, group_name, a_gens, d_texts, b_size, c_size, builds):
    """Blocks are built for exactly the B with A*B*D distinct.  Each
    instance has no solution, so the search visits every B."""
    g = request.getfixturevalue(group_name)
    a = sub(g, *a_gens)
    d = fs(g, *d_texts)
    reference = 0
    for extra in combinations(punctured(a, d.indices), b_size - 1):
        ab = product_distinct(g, a.indices, (0,) + extra)
        reference += ab is not None and product_distinct(g, ab, d.indices) is not None
    rep = case3_search(a, d, b_size, c_size)
    assert rep.exhaustive and not rep.solutions
    assert rep.graph_builds == reference == builds


# ---------------------------------------------------------------- generic


def normalized_brute(group, pattern):
    rest = range(1, group.order)
    return verified_count(
        group,
        (
            ((0,) + b, (0,) + c)
            for b in combinations(rest, pattern[0] - 1)
            for c in combinations(rest, pattern[1] - 1)
        ),
    )


def test_generic_matches_brute_force(s3, c6):
    for group, expect in ((c6, 6), (s3, 12)):
        rep = generic_search(group, (2, 3), find_all=True)
        assert rep.engine == "generic"
        assert rep.solution_count == expect == normalized_brute(group, (2, 3))
        assert rep.exhaustive
        assert all(c.verify().valid and c.is_normalized for c in rep.solutions)


def test_generic_find_first_and_budget(s3, s4):
    first = generic_search(s3, (2, 3), find_all=False)
    assert first.solution_count == 1
    starved = generic_search(s4, (2, 2, 2, 3), find_all=True, budget_s=0.0)
    assert starved.budget_hit and not starved.exhaustive


def test_generic_validation(c6):
    with pytest.raises(AnchorInvalid):
        generic_search(c6, (2, 2))
    with pytest.raises(AnchorInvalid, match="positive"):
        generic_search(c6, (-2, -3))


# ------------------------------------------------------------- refutation


def test_conjugacy_helpers(s3, s4, a4):
    transpositions = conjugacy_class(s3, s3.index_of(parse_cycles("(1,2)", 3)))
    assert len(transpositions) == 3
    assert len(involution_class_reps(s4)) == 2
    assert len(involution_class_reps(a4)) == 1


def test_conjugacy_class_sizes(s4, a5):
    for group, sizes in ((a5, [1, 12, 12, 15, 20]), (s4, [1, 3, 6, 6, 8])):
        classes = {conjugacy_class(group, x) for x in range(group.order)}
        assert sorted(map(len, classes)) == sizes
        assert sorted(x for cls in classes for x in cls) == list(range(group.order))


def test_refute_parity_found():
    v4 = group_from(4, "(1,2)(3,4)", "(1,3)(2,4)")
    rec = refute(v4, (2, 1, 2))
    assert rec.verdict == "FOUND"
    assert rec.strategy == "coset-parity"
    assert rec.certificate is not None
    assert rec.certificate.verify().valid
    assert rec.certificate.pattern == (2, 1, 2)
    e8 = group_from(6, "(1,2)", "(3,4)", "(5,6)")
    assert refute(e8, (2, 2, 2)).verdict == "FOUND"


def test_refute_parity_none(a4):
    rec = refute(a4, (2, 3, 2))
    assert rec.verdict == "NONE"
    assert rec.strategy == "coset-parity"
    assert rec.instances_examined == 3
    assert rec.certificate is None


def test_refute_strategies_agree(a4):
    auto = refute(a4, (2, 3, 2))
    forced = refute(a4, (2, 3, 2), strategy="generic")
    reduction = refute(a4, (2, 3, 2), strategy="reduction")
    assert auto.verdict == forced.verdict == reduction.verdict == "NONE"
    assert forced.strategy == "generic"
    assert forced.instances_examined > 0


def test_refute_block_cover(a4):
    plain = refute(a4, (2, 1, 3, 2))
    assert (plain.verdict, plain.strategy) == ("NONE", "block-cover")
    swapped = refute(a4, (2, 3, 1, 2))
    assert (swapped.verdict, swapped.strategy) == ("NONE", "block-cover (reversed)")


def test_refute_block_cover_reuses_found_scan():
    c2_cubed = group_from(6, "(1,2)", "(3,4)", "(5,6)")
    first = refute(c2_cubed, (2, 1, 2, 2))
    assert (first.verdict, first.strategy, first.notes) == ("FOUND", "block-cover", "")
    second = refute(c2_cubed, (2, 2, 1, 2))
    assert (second.verdict, second.strategy) == ("FOUND", "block-cover (reversed)")
    assert second.instances_examined == first.instances_examined
    assert second.notes == "reused the completed block-cover scan of (2, 1, 2, 2)"
    assert second.certificate.pattern == (2, 2, 1, 2) and second.certificate.verify().valid


def test_block_cover_scan_work_pinned(a5, monkeypatch):
    """The A5 (2,3,5,2) scan examines all 6090 (d, B) instances and builds
    the 4368 with A*B*D distinct, read off the packed fit, but makes no
    block mask and hands none of them to the kernel: each has a right
    A-coset that no fitting block meets.  Its reversal (2,5,3,2) reuses the
    completed scan and builds no more."""
    monkeypatch.setattr(search, "_BLOCK_COVER_SCANS", weakref.WeakKeyDictionary())
    calls, builds, masked = [], [], []
    kernel, loop, block_masks = search.exact_cover, search._first_block_cover, search._block_masks

    def counted_loop(*args):
        examined, built, raw = loop(*args)
        builds.append(built)
        return examined, built, raw

    monkeypatch.setattr(search, "exact_cover", lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(search, "_first_block_cover", counted_loop)
    monkeypatch.setattr(search, "_block_masks", lambda *args: masked.append(args) or block_masks(*args))
    rec = refute(a5, (2, 3, 5, 2))
    assert (rec.verdict, rec.strategy, rec.instances_examined) == ("NONE", "block-cover", 6090)
    assert (sum(builds), len(calls), len(masked)) == (4368, 0, 0)
    again = refute(a5, (2, 5, 3, 2))
    assert (again.verdict, again.instances_examined, sum(builds), len(calls)) == ("NONE", 6090, 4368, 0)
    assert again.notes == "reused the completed block-cover scan of (2, 3, 5, 2)"


@pytest.mark.parametrize("generators, pattern, instances, covered", [
    ((4, "(1,2)(3,4)", "(1,2,3)"), (2, 1, 3, 2), 3, 0),
    ((6, "(1,2)", "(3,4)", "(5,6)"), (2, 1, 2, 2), 49, 42),
    ((5, "(1,2,3,4,5)", "(1,2,3)"), (2, 3, 5, 2), 6090, 0),
], ids=["a4", "c2-cubed", "a5"])
def test_block_fit_matches_full_scan_on_block_cover_scans(generators, pattern, instances, covered):
    """For every (d, B) of a block-cover scan, involution class by class,
    the packed test gives the fitting blocks and the coverage verdict of a
    full ``_block_masks`` scan of G."""
    g = group_from(*generators)
    b_size = min(pattern[1:3])
    seen = passed = 0
    for a_rep in involution_class_reps(g):
        reps, coset_of = cosets(subgroup_from_indices(g, (0, a_rep)))
        for d in search._involutions(g):
            yd = _coset_masks(g, FactorSet(g, (0, d)), coset_of)
            fitting = _block_fit(g, yd, len(reps), 2)
            for extra in combinations(reps[1:], b_size - 1):
                b = (0,) + extra
                got = fitting(b)
                assert got == block_fit_reference(g, yd, b, len(reps), 2)
                seen += 1
                passed += got[1]
    assert (seen, passed) == (instances, covered)


@pytest.mark.parametrize("search_id", ["case3-lemma-3.6", "case3-lemma-4.6"])
def test_block_fit_matches_full_scan_on_case3(cat, search_id):
    """The packed test agrees with a full scan of G on every B case3
    examines, and the B it stops at has every coset in a fitting block."""
    spec = cat.search(search_id)
    g = cat.group(spec["group"])
    a, d = cat.anchor(g, spec["first"]), cat.anchor(g, spec["last"])
    reps, coset_of, w_free = _right_cosets(a, d)
    yd = _coset_masks(g, d, coset_of)
    fitting = _block_fit(g, yd, len(reps), len(d))
    rep = case3_search(a, d, spec["b_size"], spec["c_size"])
    verdicts = []
    for extra in islice(combinations(w_free, spec["b_size"] - 1), rep.candidates_examined):
        b = (0,) + extra
        got = fitting(b)
        assert got == block_fit_reference(g, yd, b, len(reps), len(d))
        verdicts.append(got[1])
    assert rep.solutions and verdicts[-1]


def test_refute_generic_found(s3):
    rec = refute(s3, (2, 3))
    assert rec.verdict == "FOUND"
    assert rec.strategy == "generic"
    assert rec.certificate.verify().valid


def test_refute_budget_unknown(a5):
    rec = refute(a5, (2, 15, 2), budget_s=0.0)
    assert rec.verdict == "UNKNOWN"
    assert rec.strategy == "coset-parity"


def test_refute_too_large(a5):
    rec = refute(a5, (2, 30), cap_generic=50)
    assert rec.verdict == "UNKNOWN"
    assert rec.strategy == "none-applicable"
    assert "too large" in rec.notes


def test_refute_validation(s3, s4):
    with pytest.raises(ValueError):
        refute(s3, (2, 3), strategy="bogus")
    with pytest.raises(AnchorInvalid):
        refute(s3, (2, 2))
    with pytest.raises(AnchorInvalid):
        refute(s3, (2, 3), strategy="reduction")
    with pytest.raises(AnchorInvalid):
        refute(s4, (2, 3, 2, 2), strategy="reduction")


@pytest.mark.parametrize("group_name, pattern", [
    ("a4", (-2, -3, 2)),
    ("a5", (-2, -30, 1)),
    ("a5", (2, -3, -5, 2)),
    ("a4", (12, 1, 0)),
])
def test_refute_rejects_nonpositive_sizes(request, group_name, pattern):
    group = request.getfixturevalue(group_name)
    for strategy in ("auto", "generic"):
        with pytest.raises(AnchorInvalid, match="positive"):
            refute(group, pattern, budget_s=1.0, strategy=strategy)
