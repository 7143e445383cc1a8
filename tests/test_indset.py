from __future__ import annotations

from itertools import combinations

from factorix.group import bits_of
from factorix.indset import exact_cover
from factorix.structure import cosets, subgroup_from_indices


def brute(masks, n_positions, size):
    full = (1 << n_positions) - 1
    out = []
    for combo in combinations(range(len(masks)), size):
        acc = 0
        for i in combo:
            if acc & masks[i]:
                break
            acc |= masks[i]
        else:
            if acc == full:
                out.append(combo)
    return out


def case3_blocks(group, a_indices, b_indices, d_indices):
    """Masks of the blocks A*B*x*D over the right A-cosets, for every x whose
    block has |B||D| cosets; computed from the group rows directly."""
    a = subgroup_from_indices(group, a_indices)
    reps, coset_of = cosets(a)
    need = len(b_indices) * len(d_indices)
    masks = []
    for x in range(group.order):
        mask = bits_of(coset_of[group.row(group.row(b)[x])[d]] for b in b_indices for d in d_indices)
        if mask.bit_count() == need:
            masks.append(mask)
    return masks, len(reps)


def agrees_with_brute(masks, n_positions, size):
    """exact_cover returns None exactly when brute force finds no cover, and
    otherwise one of brute force's covers; returns that cover or None."""
    want = brute(masks, n_positions, size)
    got = exact_cover(masks, n_positions, size)
    assert (got is None) == (not want)
    assert got is None or got in want
    return got


def involution(group, k=0):
    return [x for x in range(group.order) if group.element_orders[x] == 2][k]


def test_path_graph_find_all():
    # blocks {0,1}, {1,2}, {2,3}: their overlap graph is a path
    assert agrees_with_brute([0b0011, 0b0110, 0b1100], 4, 2) == (0, 2)
    assert agrees_with_brute([0b0011, 0b0110, 0b1100], 4, 3) is None


def test_cycle_graph_infeasible_size():
    # the edges of an n-cycle as blocks over its vertices: the covers are the
    # two perfect matchings for even n and none for odd n
    def cycle(n):
        return [(1 << i) | (1 << (i + 1) % n) for i in range(n)]
    assert brute(cycle(6), 6, 3) == [(0, 2, 4), (1, 3, 5)]
    assert agrees_with_brute(cycle(6), 6, 3) is not None
    assert agrees_with_brute(cycle(5), 5, 2) is None
    assert agrees_with_brute(cycle(5), 5, 3) is None
    assert agrees_with_brute(cycle(6), 6, 2) is None


def test_empty_graph():
    # pairwise disjoint blocks: the only cover takes all of them
    assert exact_cover([1 << i for i in range(6)], 6, 6) == tuple(range(6))
    assert exact_cover([1 << i for i in range(6)], 6, 5) is None


def test_complete_graph():
    # every pair of blocks overlaps
    # the first cover found is the first fitting block in index order
    assert exact_cover([0b11] * 4, 2, 1) == (0,)
    assert exact_cover([0b11] * 4, 2, 2) is None
    assert exact_cover([0b011, 0b110, 0b101], 3, 1) is None


def test_find_first_and_limit():
    masks = [1 << (i % 4) for i in range(12)]  # three copies of each position
    every = brute(masks, 4, 4)
    assert len(every) == 3 ** 4
    assert exact_cover(masks, 4, 4) in every
    assert exact_cover(masks, 4, 3) is None


def test_size_zero_and_empty():
    assert exact_cover([], 0, 0) == ()
    assert exact_cover([0b1], 1, 0) is None
    assert exact_cover([], 0, 1) is None
    assert exact_cover([], 3, 1) is None
    assert exact_cover([], 3, 0) is None


def test_matches_brute_force(a4, a5):
    cases = []
    for k in range(3):
        t = involution(a4, k)
        for d in (t, involution(a4, (k + 1) % 3)):
            cases.append((a4, (0, t), (0,), (0, d), 3))
    c3 = next(x for x in range(a4.order) if a4.element_orders[x] == 3)
    a_c3 = tuple(sorted(a4.closure_indices([c3])))
    cases.append((a4, a_c3, (0,), (0,), 4))
    t = involution(a5)
    reps = cosets(subgroup_from_indices(a5, (0, t)))[0]
    c5 = next(x for x in range(a5.order) if a5.element_orders[x] == 5)
    a5_c5 = tuple(sorted(a5.closure_indices([c5])))
    for extra in list(combinations(reps[1:], 2))[:60:3]:
        cases.append((a5, (0, t), (0,) + extra, a5_c5, 2))
    for extra in list(combinations(reps[1:], 4))[:40:8]:
        cases.append((a5, (0, t), (0,) + extra, (0, involution(a5, 7)), 3))
    nontrivial = 0
    for group, a_idx, b_idx, d_idx, size in cases:
        masks, n = case3_blocks(group, a_idx, b_idx, d_idx)
        nontrivial += agrees_with_brute(masks, n, size) is not None
    assert nontrivial >= 3


def test_deterministic(a4):
    c3 = next(x for x in range(a4.order) if a4.element_orders[x] == 3)
    masks, n = case3_blocks(a4, tuple(sorted(a4.closure_indices([c3]))), (0,), (0,))
    cover = agrees_with_brute(masks, n, 4)
    assert cover is not None
    assert exact_cover(masks, n, 4) == exact_cover(tuple(masks), n, 4) == cover
