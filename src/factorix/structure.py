"""Subgroups and coset structure: transversals, coset maps, double cosets,
quotients and normality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import FactorSet, GroupTable, bits_of, generate_group
from .perm import Perm


class NotASubgroup(ValueError):
    pass


class NotNormal(ValueError):
    pass


@dataclass(frozen=True)
class Subgroup(FactorSet):
    """A factor set that is closed under products: a subgroup of its
    tabulated group.  It adds no fields, so every set operation (``bits``,
    membership, ``inverse``) is the ``FactorSet`` one.  Build it with the
    constructors below, which check or generate the closure."""


def subgroup_from_indices(group: GroupTable, indices) -> Subgroup:
    idx = tuple(sorted(set(indices)))
    if not idx or idx[0] != 0:
        raise NotASubgroup("missing identity")
    memb = set(idx)
    for a in idx:
        row = group.row(a)
        for b in idx:
            if row[b] not in memb:
                raise NotASubgroup("not closed under products")
    return Subgroup(group, idx)


def subgroup_generated(group: GroupTable, gen_indices) -> Subgroup:
    return Subgroup(group, tuple(group.closure_indices(list(gen_indices))))


def subgroup_from_perms(group: GroupTable, perms: list[Perm]) -> Subgroup:
    return subgroup_generated(group, [group.index_of(p) for p in perms])


def right_transversal(h: Subgroup) -> list[int]:
    """One representative per right coset Hx, the smallest index in each,
    listed in increasing order (so the identity represents H itself)."""
    g = h.group
    seen = 0
    reps = []
    for x in range(g.order):
        if seen >> x & 1:
            continue
        reps.append(x)
        row_targets = [g.row(a)[x] for a in h.indices]
        seen |= bits_of(row_targets)
    return reps


def left_transversal(h: Subgroup) -> list[int]:
    """One representative per left coset xH, smallest index first."""
    g = h.group
    seen = 0
    reps = []
    for x in range(g.order):
        if seen >> x & 1:
            continue
        reps.append(x)
        row = g.row(x)
        seen |= bits_of(row[a] for a in h.indices)
    return reps


def coset_index_map(h: Subgroup, reps: list[int]) -> list[int]:
    """Map element index -> position of its right-H-coset in ``reps``."""
    g = h.group
    where = [-1] * g.order
    for pos, r in enumerate(reps):
        for a in h.indices:
            where[g.row(a)[r]] = pos
    return where


def left_coset_index_map(h: Subgroup, reps: list[int]) -> list[int]:
    """Map element index -> position of its left-H-coset in ``reps``."""
    g = h.group
    where = [-1] * g.order
    for pos, r in enumerate(reps):
        row = g.row(r)
        for a in h.indices:
            where[row[a]] = pos
    return where


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    group: GroupTable
    left: Subgroup
    right: Subgroup
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.representatives)

    @property
    def all_full_size(self) -> bool:
        full = len(self.left) * len(self.right)
        return all(s == full for s in self.sizes)


def double_cosets(a: Subgroup, b: Subgroup) -> DoubleCosetDecomposition:
    """Decompose G into A x B double cosets; representatives are the
    smallest element index in each coset, in increasing order."""
    g = a.group
    if b.group is not g:
        raise ValueError("subgroups of different groups")
    seen = 0
    reps, sizes = [], []
    for x in range(g.order):
        if seen >> x & 1:
            continue
        mask = 0
        for p in a.indices:
            px = g.row(p)[x]
            row = g.row(px)
            mask |= bits_of(row[q] for q in b.indices)
        reps.append(x)
        sizes.append(mask.bit_count())
        seen |= mask
    return DoubleCosetDecomposition(g, a, b, tuple(reps), tuple(sizes))


def conjugate_intersection_trivial(a: Subgroup, b: Subgroup) -> bool:
    """True when x^-1 A x meets B only in the identity, for every x in G."""
    g = a.group
    b_bits = b.bits
    nontrivial_a = [p for p in a.indices if p != 0]
    for x in range(g.order):
        for p in nontrivial_a:
            if b_bits >> g.conjugate_idx(p, x) & 1:
                return False
    return True


def is_normal(h: Subgroup) -> bool:
    g = h.group
    hb = h.bits
    for x in range(g.order):
        for p in h.indices:
            if not hb >> g.conjugate_idx(p, x) & 1:
                return False
    return True


def quotient_group(h: Subgroup) -> tuple[GroupTable, list[int]]:
    """Quotient G/H for normal H, tabulated on the left-transversal cosets.

    Returns (quotient table, projection) where projection[i] is the index in
    the quotient of element i's coset.  The quotient is realized as a
    permutation group acting on its own coset positions (1-based).
    """
    if not is_normal(h):
        raise NotNormal("subgroup is not normal")
    g = h.group
    reps = left_transversal(h)
    m = len(reps)
    where = left_coset_index_map(h, reps)
    # each coset acts on coset positions by right multiplication
    perms = []
    for r in reps:
        images = tuple(where[g.row(rep)[r]] + 1 for rep in reps)
        perms.append(Perm(images))
    qgens = [perms[where[g.index_of(p)]] for p in g.generators] or [perms[0]]
    qtable = generate_group([p for p in qgens if not p.is_identity()] or [perms[0]])
    if qtable.order != m:
        raise NotNormal("coset action did not close on the cosets")
    reindex = [qtable.index_of(p) for p in perms]
    projection = [reindex[where[i]] for i in range(g.order)]
    return qtable, projection
