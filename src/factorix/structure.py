"""Subgroups and coset structure: one coset pass (``cosets``) under the
transversals, coset maps and double cosets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import FactorSet, GroupTable, bits_of
from .perm import Perm


class NotASubgroup(ValueError):
    pass


@dataclass(frozen=True)
class Subgroup(FactorSet):
    """A factor set that is closed under products: a subgroup of its
    tabulated group.  It adds no fields, so every set operation (membership,
    ``inverse``) is the ``FactorSet`` one.  Build it with the constructors
    below, which check or generate the closure."""


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


def cosets(h: Subgroup, side: str = "right") -> tuple[list[int], list[int]]:
    """The cosets of H in one pass over G: the representatives of the right
    cosets Hx (left cosets xH with ``side="left"``) and each element's coset
    position.  Elements are visited in index order, so one with no position
    yet is the least element of a new coset and represents it; the
    representatives ascend, and the identity represents H itself."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be left or right, not {side!r}")
    g = h.group
    h_rows = [g.row(a) for a in h.indices]
    where = [-1] * g.order
    reps: list[int] = []
    for x in range(g.order):
        if where[x] >= 0:
            continue
        pos = len(reps)
        reps.append(x)
        if side == "right":
            for row in h_rows:
                where[row[x]] = pos
        else:
            row = g.row(x)
            for a in h.indices:
                where[row[a]] = pos
    return reps, where


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
    smallest element index in each coset, in increasing order.  A*r*B is
    the union of the right A-cosets of r*q, q in B, so it costs |B| lookups
    in ``cosets(a)``, and the least element of each double coset is the
    first right A-coset representative it holds."""
    g = a.group
    if b.group is not g:
        raise ValueError("subgroups of different groups")
    a_reps, where = cosets(a)
    seen = 0
    reps, sizes = [], []
    for pos, r in enumerate(a_reps):
        if seen >> pos & 1:
            continue
        row = g.row(r)
        mask = bits_of(where[row[q]] for q in b.indices)
        reps.append(r)
        sizes.append(len(a) * mask.bit_count())
        seen |= mask
    return DoubleCosetDecomposition(g, a, b, tuple(reps), tuple(sizes))
