"""Factorization certificates: a group plus an ordered list of factor sets
whose left-to-right product hits every group element exactly once.

Verification is the ground truth for everything downstream: one left fold
of ``product_distinct`` over plain index lists, starting from ``[0]``.
Transformations (reverse, normalize, lifts, sandwich composition, factor
surgery) construct candidate certificates but never bypass the verifier;
the two that multiply factors (``merge_adjacent``, ``replace_factor``) fold
the same step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from .group import FactorSet, GroupTable, generate_group
from .perm import MAX_DEGREE, Perm, parse_cycles
from .structure import Subgroup, cosets, double_cosets


class MalformedCertificate(ValueError):
    """Certificate JSON, or a catalog entry, does not have the shape its
    reader needs."""


class ConditionFailed(ValueError):
    """A construction hypothesis (trivial conjugate intersection, set
    equality, coset distinctness) does not hold."""


class InvalidPosition(ValueError):
    """A factor position outside the certificate."""


@dataclass(frozen=True)
class Verdict:
    valid: bool
    failing_prefix: int | None
    product_size: int
    message: str = ""


@dataclass(frozen=True)
class Certificate:
    group: GroupTable
    factors: tuple[FactorSet, ...]
    _verdict: Verdict | None = field(default=None, compare=False, repr=False)

    @property
    def pattern(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    @property
    def is_normalized(self) -> bool:
        return all(f.contains_identity() for f in self.factors)

    def verify(self) -> Verdict:
        if self._verdict is None:
            object.__setattr__(self, "_verdict", verify_certificate(self))
        return self._verdict  # type: ignore[return-value]


def certificate(group: GroupTable, index_sets) -> Certificate:
    return Certificate(group, tuple(FactorSet(group, tuple(s)) for s in index_sets))


def product_distinct(group: GroupTable, s, t) -> list[int] | None:
    """The |s|*|t| products x*y of two index sequences, in row order (x
    outer, y inner), when they are all distinct, else None.

    The one step that multiplies two sets.  A None is a pruning signal for
    searches, not an error.
    """
    if len(s) * len(t) > group.order:  # more products than elements
        return None
    prod = [row[y] for row in map(group.mul.__getitem__, s) for y in t]
    return prod if len(set(prod)) == len(prod) else None


def verify_certificate(cert: Certificate) -> Verdict:
    """Left fold of product_distinct over the factors' index lists, from
    ``[0]``; valid iff no prefix collides and the final product is the whole
    group.  ``product_size`` is the size of the last prefix whose products
    are distinct."""
    g = cert.group
    if any(len(f) == 0 for f in cert.factors):
        return Verdict(False, None, 0, "empty factor")
    acc = [0]
    for k, f in enumerate(cert.factors, start=1):
        nxt = product_distinct(g, acc, f.indices)
        if nxt is None:
            return Verdict(False, k, len(acc), f"prefix of length {k} collides")
        acc = nxt
    if len(acc) != g.order:
        return Verdict(False, None, len(acc), f"product covers {len(acc)} of {g.order}")
    return Verdict(True, None, len(acc))


def reverse(cert: Certificate) -> Certificate:
    """G = A1...Ak gives G = Ak^-1 ... A1^-1."""
    return Certificate(cert.group, tuple(f.inverse() for f in reversed(cert.factors)))


def normalize(cert: Certificate) -> Certificate:
    """Slide each factor so that every factor contains the identity.

    With a_i the least-index element of A_i and c_i = a_1*...*a_i, the
    factors B_i = c_{i-1} * A_i * c_i^-1 multiply to the same group.
    """
    g = cert.group
    new_factors = []
    c_prev = 0
    for f in cert.factors:
        a = f.indices[0]
        c_cur = g.mul_idx(c_prev, a)
        inv_c = g.inv[c_cur]
        row_prev = g.row(c_prev)
        new_factors.append(tuple(sorted(g.mul_idx(row_prev[x], inv_c) for x in f.indices)))
        c_prev = c_cur
    return certificate(g, new_factors)


def merge_adjacent(cert: Certificate, position: int) -> Certificate:
    """Fuse factors at position and position+1 into their product set."""
    if not 0 <= position < len(cert.factors) - 1:
        raise InvalidPosition(f"merge position {position} outside 0..{len(cert.factors) - 2}")
    g = cert.group
    fused = product_distinct(g, cert.factors[position].indices, cert.factors[position + 1].indices)
    if fused is None:
        raise ConditionFailed("adjacent factors do not multiply distinctly")
    factors = cert.factors[:position] + (FactorSet(g, tuple(fused)),) + cert.factors[position + 2:]
    return Certificate(g, factors)


def replace_factor(cert: Certificate, position: int, parts: list[FactorSet]) -> Certificate:
    """Split the factor at ``position`` into several whose distinct product
    equals it; the certificate stays valid."""
    if not 0 <= position < len(cert.factors):
        raise InvalidPosition(f"factor position {position} outside 0..{len(cert.factors) - 1}")
    if not parts:
        raise ConditionFailed("no replacement parts")
    acc = parts[0].indices
    for p in parts[1:]:
        acc = product_distinct(cert.group, acc, p.indices)
        if acc is None:
            raise ConditionFailed("replacement parts collide")
    if sorted(acc) != list(cert.factors[position].indices):
        raise ConditionFailed("replacement parts do not multiply to the factor")
    factors = cert.factors[:position] + tuple(parts) + cert.factors[position + 1:]
    return Certificate(cert.group, factors)


def embed(parent: GroupTable, cert: Certificate) -> list[tuple[int, ...]]:
    """Map each factor of a certificate on a standalone table into parent
    element indices.  A lower-degree certificate acts trivially on the
    extra points, so its image tuples are padded with them."""
    pad = tuple(range(cert.group.degree + 1, parent.degree + 1))
    return [tuple(sorted(parent.index_of(Perm(p.images + pad)) for p in f.perms())) for f in cert.factors]


def lift_by_transversal(cert: Certificate, h: Subgroup, side: str = "right") -> Certificate:
    """From H = A1...Ak and a transversal T of H in G, build G = A1...Ak*T
    (side="right") or G = T*A1...Ak (side="left")."""
    reps = tuple(cosets(h, side)[0])
    factors = embed(h.group, cert)
    return certificate(h.group, factors + [reps] if side == "right" else [reps] + factors)


def compose_sandwich(
    a: Subgroup,
    b: Subgroup,
    a_cert: Certificate | None = None,
    b_cert: Certificate | None = None,
) -> Certificate:
    """G = A*T*B for a double-coset transversal T, valid exactly when every
    conjugate of A meets B trivially; optional certificates of A and B are
    spliced in place of the subgroup factors.  With one double coset the
    transversal is {e}, and the certificate leaves it out.

    The hypothesis is read off the double cosets: |AxB| = |A||B| / |A ∩ xBx⁻¹|
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005),
    so every double coset has size |A||B| exactly when x⁻¹Ax ∩ B = {e} for
    every x."""
    g = a.group
    dc = double_cosets(a, b)
    if not dc.all_full_size:
        raise ConditionFailed("some conjugate of A meets B beyond the identity")
    a_factors = [a.indices] if a_cert is None else embed(g, a_cert)
    b_factors = [b.indices] if b_cert is None else embed(g, b_cert)
    middle = [dc.representatives] if len(dc) > 1 else []
    return certificate(g, a_factors + middle + b_factors)


def divisibility_prune(factor: FactorSet) -> bool:
    """Keep an end factor only if |<F>| is a multiple of |F|; the first and
    last factor of any valid certificate generate such a subgroup."""
    g = factor.group
    closed = g.closure_indices(list(factor.indices))
    return len(closed) % len(factor) == 0


def to_dict(cert: Certificate) -> dict:
    g = cert.group
    return {
        "group": {
            "degree": g.degree,
            "generators": [str(p) for p in g.generators] or ["()"],
        },
        "pattern": list(cert.pattern),
        "factors": [[str(p) for p in f.perms()] for f in cert.factors],
        "normalized": cert.is_normalized,
    }


def shaped(spec: Any, what: str, **types: type | tuple[type, ...]) -> dict:
    """``spec`` itself, once checked to be an object whose named keys hold
    values of the given types; every reader of untrusted JSON checks its
    objects with it."""
    if not isinstance(spec, dict):
        raise MalformedCertificate(f"{what} must be an object, got {type(spec).__name__}")
    for key, kind in types.items():
        if key not in spec:
            raise MalformedCertificate(f"{what} has no {key!r}")
        if not isinstance(spec[key], kind):
            raise MalformedCertificate(f"{what}: {key!r} has the wrong type {type(spec[key]).__name__}")
    return spec


def read_perms(texts: Any, degree: int) -> list[Perm]:
    """The permutations a list of cycle strings names, at ``degree``."""
    if not isinstance(texts, list):
        raise MalformedCertificate(f"expected a list of cycle strings, got {type(texts).__name__}")
    try:
        return [parse_cycles(t, degree) for t in texts]
    except ValueError as exc:
        raise MalformedCertificate(str(exc)) from None


def read_factor(texts: Any, degree: int) -> list[Perm]:
    """The distinct permutations a factor's list of cycle strings names: the
    one reader of a factor, before any table places them."""
    perms = read_perms(texts, degree)
    if len({p.images for p in perms}) != len(perms):
        raise MalformedCertificate(f"repeated element in factor {texts}")
    return perms


def read_group_spec(spec: Any) -> tuple[list[Perm], int]:
    """The non-identity generators and the degree of a ``{degree,
    generators}`` spec, the one reader of that shape; ``generate_group``
    takes them as they are."""
    shaped(spec, "group", degree=int, generators=list)
    degree = spec["degree"]
    if not 1 <= degree <= MAX_DEGREE:
        raise MalformedCertificate(f"group degree {degree} outside 1..{MAX_DEGREE}")
    return [p for p in read_perms(spec["generators"], degree) if not p.is_identity()], degree


def from_dict(data: Any, group_of: Callable[[str], GroupTable] | None = None) -> Certificate:
    """The one reader of a ``{group, pattern, factors}`` certificate object.

    Every shape fact (types, one declared size per factor, equal to the
    number of elements listed, cycle syntax, no element listed twice) is
    checked before the group is tabulated; only membership waits for the
    table.  The group is a ``{degree, generators}`` spec or, where
    ``group_of`` resolves ids (the catalog's), a group id."""
    shaped(data, "certificate", group=(dict, str) if group_of else dict, pattern=list, factors=list)
    pattern, texts = data["pattern"], data["factors"]
    if len(pattern) != len(texts):
        raise MalformedCertificate("pattern and factor list lengths differ")
    table = group_of(data["group"]) if isinstance(data["group"], str) else None
    gens, degree = read_group_spec(data["group"]) if table is None else ([], table.degree)
    factors = [read_factor(t, degree) for t in texts]
    for m, f in zip(pattern, factors):
        if not isinstance(m, int):
            raise MalformedCertificate(f"declared factor size {m!r} is not an integer")
        if len(f) != m:
            raise MalformedCertificate(f"declared factor size {m} but {len(f)} elements given")
    if table is None:
        table = generate_group(gens, degree)
    return certificate(table, [[table.index_of(p) for p in f] for f in factors])


def load_json(text: str) -> Certificate:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCertificate(f"not JSON: {exc}") from exc
    except RecursionError:
        raise MalformedCertificate("not JSON: nested too deeply") from None
    return from_dict(data)
