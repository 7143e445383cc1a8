"""Builders shared across the test modules."""
from __future__ import annotations

import json
from functools import reduce
from itertools import product

from factorix.certify import Certificate, Verdict, product_distinct, to_dict
from factorix.group import FactorSet, GroupTable, bits_of, generate_group
from factorix.patterns import prime_factors
from factorix.perm import Perm, compose, parse_cycles
from factorix.search import _block_masks
from factorix.structure import Subgroup


def group_from(degree: int, *cycle_texts: str) -> GroupTable:
    gens = [parse_cycles(t, degree) for t in cycle_texts]
    return generate_group(gens, degree=degree)


def fs(group: GroupTable, *cycle_texts: str) -> FactorSet:
    idx = tuple(group.index_of(parse_cycles(t, group.degree)) for t in cycle_texts)
    return FactorSet(group, idx)


def cert_from(group: GroupTable, *factor_texts: tuple[str, ...]) -> Certificate:
    return Certificate(group, tuple(fs(group, *texts) for texts in factor_texts))


def cert_json(cert: Certificate) -> str:
    """A certificate as the JSON text ``factorix verify`` and ``load_json``
    read."""
    return json.dumps(to_dict(cert))


def reference_verdict(cert: Certificate) -> Verdict:
    """The verifier's verdict by brute force, without the Cayley table: each
    prefix product is every ``itertools.product`` choice of elements from
    the first k factors, composed as permutations, and it collides when it
    has fewer distinct images than choices."""
    g = cert.group
    factors = [f.perms() for f in cert.factors]
    if any(not f for f in factors):
        return Verdict(False, None, 0, "empty factor")
    size = 1
    for k in range(1, len(factors) + 1):
        choices = list(product(*factors[:k]))
        images = {reduce(compose, word).images for word in choices}
        if len(images) != len(choices):
            return Verdict(False, k, size, f"prefix of length {k} collides")
        size = len(images)
    if size != g.order:
        return Verdict(False, None, size, f"product covers {size} of {g.order}")
    return Verdict(True, None, size)


def block_fit_reference(group: GroupTable, yd_masks: list[int], b: tuple[int, ...],
                        n_cosets: int, d_size: int) -> tuple[int, bool]:
    """The fitting blocks of B by a full scan of G: the x whose block
    A*B*x*D (``_block_masks`` over the rows of B) meets |B||D| of the
    ``n_cosets`` right A-cosets, as an element bitset, and whether those
    blocks together meet every coset."""
    need = len(b) * d_size
    fit = union = 0
    for x, mask in _block_masks([group.row(w) for w in b], yd_masks, range(group.order)):
        if mask.bit_count() == need:
            fit |= 1 << x
            union |= mask
    return fit, union == (1 << n_cosets) - 1


def canonical(cert: Certificate) -> str:
    """Order-insensitive fingerprint of a certificate, for set comparisons."""
    return json.dumps(to_dict(cert), sort_keys=True)


def all_subgroups(group: GroupTable) -> list[Subgroup]:
    """Every subgroup generated by at most two elements (all of them for
    groups like S4, whose subgroups are all 2-generated), least first."""
    found = {tuple(group.closure_indices([x, y])) for x in range(group.order) for y in range(x, group.order)}
    return [Subgroup(group, idx) for idx in sorted(found, key=lambda idx: (len(idx), idx))]


def subgroup_generators(h: Subgroup) -> list[Perm]:
    """A small generating set of ``h``, grown greedily over its member list."""
    g = h.group
    have = {0}
    gens: list[int] = []
    for x in h.indices:
        if x in have:
            continue
        gens.append(x)
        have = set(g.closure_indices(gens))
        if len(have) == len(h.indices):
            break
    return [g.elements[i] for i in gens]


def standalone_table(h: Subgroup) -> GroupTable:
    """``h`` re-tabulated as a group in its own right."""
    return generate_group(subgroup_generators(h) or [h.group.elements[0]])


def enumerate_ordered_factorizations(n: int, k: int) -> list[tuple[int, ...]]:
    """Ordered k-tuples of integers > 1 with product n, lexicographic."""
    if k == 0:
        return [()] if n == 1 else []
    if k == 1:
        return [(n,)] if n > 1 else []
    out = []
    for d in range(2, n + 1):
        if n % d == 0:
            for tail in enumerate_ordered_factorizations(n // d, k - 1):
                out.append((d,) + tail)
    return sorted(out)


def omega_reduction(n: int) -> int:
    """Number of prime factors of n counted with multiplicity."""
    return len(prime_factors(n))


def strip_singletons(cert: Certificate) -> Certificate:
    """Remove size-1 factors by merging them into a neighbour."""
    factors = list(cert.factors)
    i = 0
    while i < len(factors) and len(factors) > 1:
        if len(factors[i]) == 1:
            j = i + 1 if i + 1 < len(factors) else i - 1
            lo, hi = min(i, j), max(i, j)
            fused = product_distinct(cert.group, factors[lo].indices, factors[hi].indices)
            assert fused is not None  # a singleton product cannot collide
            factors[lo:hi + 1] = [FactorSet(cert.group, tuple(fused))]
            i = 0
        else:
            i += 1
    return Certificate(cert.group, tuple(factors))


def conjugate_intersection_trivial(a: Subgroup, b: Subgroup) -> bool:
    """True when x^-1 A x meets B only in the identity, for every x in G:
    the reference the double-coset test ``all_full_size`` is checked
    against."""
    g = a.group
    b_bits = bits_of(b.indices)
    nontrivial_a = [p for p in a.indices if p != 0]
    for x in range(g.order):
        for p in nontrivial_a:
            if b_bits >> g.conjugate_idx(p, x) & 1:
                return False
    return True
