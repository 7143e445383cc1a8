from __future__ import annotations

import pytest

from factorix.group import bits_of
from factorix.perm import parse_cycles
from factorix.structure import (
    NotASubgroup, cosets, double_cosets,
    subgroup_from_indices, subgroup_from_perms, subgroup_generated,
)
from helpers import (
    all_subgroups, conjugate_intersection_trivial, standalone_table,
    subgroup_generators,
)


def sub(group, *texts):
    return subgroup_from_perms(group, [parse_cycles(t, group.degree) for t in texts])


def test_subgroup_from_indices(s3):
    a3 = sub(s3, "(1,2,3)")
    again = subgroup_from_indices(s3, a3.indices)
    assert again.indices == a3.indices
    assert len(a3) == 3


def test_subgroup_from_indices_rejects_junk(s3):
    t = s3.index_of(parse_cycles("(1,2)", 3))
    r = s3.index_of(parse_cycles("(1,2,3)", 3))
    with pytest.raises(NotASubgroup):
        subgroup_from_indices(s3, (t, r))  # missing identity
    with pytest.raises(NotASubgroup):
        subgroup_from_indices(s3, (0, r))  # not closed


def test_subgroup_generators_regenerate(s4):
    d8 = sub(s4, "(1,2,3,4)", "(1,3)")
    assert len(d8) == 8
    gens = subgroup_generators(d8)
    assert len(subgroup_from_perms(s4, gens)) == len(d8)


def test_standalone_table(s4):
    c4 = sub(s4, "(1,2,3,4)")
    table = standalone_table(c4)
    assert table.order == 4
    assert sorted(table.element_orders) == [1, 2, 4, 4]


def test_right_transversal_covers(a4):
    v4 = sub(a4, "(1,2)(3,4)", "(1,3)(2,4)")
    reps, where = cosets(v4)
    assert len(reps) == 3
    assert reps[0] == 0
    for pos, r in enumerate(reps):
        block = [x for x in range(a4.order) if where[x] == pos]
        assert block == sorted(a4.row(a)[r] for a in v4.indices)
        assert block[0] == r  # the least element represents its coset
    assert sorted(where) == sorted(list(range(len(reps))) * len(v4))  # a partition


def test_left_transversal_covers(a4):
    c3 = sub(a4, "(1,2,3)")
    reps, where = cosets(c3, "left")
    assert len(reps) == 4
    covered = 0
    for pos, r in enumerate(reps):
        row = a4.row(r)
        block = bits_of(row[x] for x in c3.indices)
        assert covered & block == 0
        assert all(where[row[x]] == pos for x in c3.indices)
        covered |= block
    assert covered == (1 << a4.order) - 1


def test_coset_index_map(s4):
    c4 = sub(s4, "(1,2,3,4)")
    reps, where = cosets(c4)
    assert all(w >= 0 for w in where)
    for pos, r in enumerate(reps):
        assert where[r] == pos


@pytest.fixture(scope="module", params=["s4", "a5"])
def subgroups(request):
    """Every 2-generated subgroup of S4 or of A5 (all of their subgroups)."""
    return all_subgroups(request.getfixturevalue(request.param))


def coset_of(h, x, side):
    """The coset Hx (xH with ``side="left"``) by set arithmetic."""
    g = h.group
    return frozenset(g.mul_idx(a, x) if side == "right" else g.mul_idx(x, a) for a in h.indices)


@pytest.mark.parametrize("side", ["right", "left"])
def test_cosets_match_set_arithmetic(subgroups, side):
    for h in subgroups:
        g = h.group
        reps, where = cosets(h, side)
        blocks = [coset_of(h, x, side) for x in range(g.order)]
        assert reps == sorted(reps)
        assert [min(blocks[r]) for r in reps] == reps  # least element of its coset
        assert len(reps) * len(h) == g.order
        for x in range(g.order):
            for y in range(g.order):
                assert (where[x] == where[y]) == (blocks[x] == blocks[y])


def test_double_cosets_match_brute_force(subgroups):
    for a in subgroups:
        g = a.group
        for b in subgroups:
            seen, reps, sizes = set(), [], []
            for x in range(g.order):
                if x in seen:
                    continue
                block = {g.mul_idx(g.mul_idx(p, x), q) for p in a.indices for q in b.indices}
                reps.append(x)
                sizes.append(len(block))
                seen |= block
            dc = double_cosets(a, b)
            assert (dc.representatives, dc.sizes) == (tuple(reps), tuple(sizes))


def test_double_cosets_partition(a5):
    c2 = sub(a5, "(1,2)(3,4)")
    c5 = sub(a5, "(1,2,3,4,5)")
    dc = double_cosets(c2, c5)
    assert len(dc) == 6
    assert sum(dc.sizes) == a5.order
    assert dc.all_full_size
    assert dc.representatives[0] == 0


def test_double_cosets_not_full_size(s3):
    c2 = sub(s3, "(1,2)")
    dc = double_cosets(c2, c2)
    assert sum(dc.sizes) == 6
    assert not dc.all_full_size  # the identity coset C2*e*C2 has size 2


def test_conjugate_intersection(a5, s3):
    assert conjugate_intersection_trivial(sub(a5, "(1,2)(3,4)"), sub(a5, "(1,2,3,4,5)"))
    assert not conjugate_intersection_trivial(sub(s3, "(1,2)"), sub(s3, "(1,3)"))


def test_conjugate_intersection_is_full_size_double_cosets(s4):
    # |AxB| = |A||B| / |A ∩ xBx⁻¹|, so the two tests agree on every pair
    subgroups = all_subgroups(s4)
    assert len(subgroups) == 30
    for a in subgroups:
        for b in subgroups:
            assert conjugate_intersection_trivial(a, b) == double_cosets(a, b).all_full_size


def test_subgroup_generated_caches_nothing_weird(a5):
    h = subgroup_generated(a5, [a5.index_of(parse_cycles("(1,2,3)", 5))])
    assert len(h) == 3
    assert 0 in h
