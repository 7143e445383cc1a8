"""Finite permutation groups as fully tabulated multiplication structures.

Elements are indexed 0..n-1 in lexicographic order of their image tuples,
which puts the identity at index 0.  All higher layers work with indices;
every derived fact is a table lookup away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perm import Perm, compose, identity, inverse

# The largest group tabulated; S6 (720) is the largest the catalog uses.  A
# larger group, say from untrusted certificate JSON, stops the BFS at once.
MAX_ORDER = 1_000


class OrderCapExceeded(RuntimeError):
    pass


class ElementNotInGroup(KeyError):
    pass


def bits_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FactorSet:
    """A subset of group elements held as sorted indices."""

    group: "GroupTable"
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.indices))) != self.indices:
            object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, idx: int) -> bool:
        return idx in self.indices

    def perms(self) -> list[Perm]:
        return [self.group.elements[i] for i in self.indices]

    def inverse(self) -> "FactorSet":
        inv = self.group.inv
        return FactorSet(self.group, tuple(sorted(inv[i] for i in self.indices)))

    def contains_identity(self) -> bool:
        return bool(self.indices) and self.indices[0] == 0


class GroupTable:
    """Closed element list with the full n*n multiplication table, the
    inverse table and the element orders."""

    def __init__(self, elements: list[Perm], generators: list[Perm]):
        self.degree = elements[0].degree if elements else 1
        self.elements: list[Perm] = sorted(elements, key=lambda p: p.images)
        self.generators: list[Perm] = list(generators)
        self.index: dict[tuple[int, ...], int] = {
            p.images: i for i, p in enumerate(self.elements)
        }
        n = len(self.elements)
        self.order = n
        if not self.elements[0].is_identity():
            raise ValueError("element list lacks the identity")
        self.inv: list[int] = [self.index[inverse(p).images] for p in self.elements]
        self.mul: list[list[int]] = [self._make_row(a) for a in range(n)]
        self.element_orders: list[int] = self._order_table()

    def _make_row(self, a: int) -> list[int]:
        pa = self.elements[a]
        idx = self.index
        return [idx[compose(pa, pb).images] for pb in self.elements]

    def row(self, a: int) -> list[int]:
        return self.mul[a]

    def mul_idx(self, a: int, b: int) -> int:
        return self.row(a)[b]

    def _order_table(self) -> list[int]:
        orders = [0] * self.order
        orders[0] = 1
        for i in range(1, self.order):
            k, j = 1, i
            while j != 0:
                j = self.mul_idx(j, i)
                k += 1
            orders[i] = k
        return orders

    def index_of(self, p: Perm) -> int:
        try:
            return self.index[p.images]
        except KeyError:
            raise ElementNotInGroup(str(p)) from None

    def __contains__(self, p: Perm) -> bool:
        return p.images in self.index

    def __len__(self) -> int:
        return self.order

    def conjugate_idx(self, x: int, g: int) -> int:
        """Index of g^-1 * x * g."""
        return self.mul_idx(self.mul_idx(self.inv[g], x), g)

    def closure_indices(self, seed: list[int]) -> list[int]:
        """Subgroup generated by the given element indices, as sorted indices."""
        members = {0}
        frontier = [0]
        gens = [g for g in seed if g != 0]
        for g in gens:
            if g not in members:
                members.add(g)
                frontier.append(g)
        while frontier:
            nxt = []
            for a in frontier:
                row = self.row(a)
                for g in gens:
                    b = row[g]
                    if b not in members:
                        members.add(b)
                        nxt.append(b)
            frontier = nxt
        return sorted(members)


def generate_group(generators: list[Perm], degree: int | None = None) -> GroupTable:
    """Breadth-first closure of the generators under composition."""
    if not generators:
        return GroupTable([identity(degree or 1)], [])
    deg = generators[0].degree
    if any(g.degree != deg for g in generators):
        raise ValueError("generators have mixed degrees")
    if degree is not None and degree != deg:
        raise ValueError(f"declared degree {degree} != generator degree {deg}")
    e = identity(deg)
    seen: dict[tuple[int, ...], Perm] = {e.images: e}
    frontier = [e]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = compose(p, g)
                if q.images not in seen:
                    if len(seen) >= MAX_ORDER:
                        raise OrderCapExceeded(f"group order exceeds {MAX_ORDER}")
                    seen[q.images] = q
                    nxt.append(q)
        frontier = nxt
    return GroupTable(list(seen.values()), generators)
