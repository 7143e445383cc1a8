"""Builders shared across the test modules."""
from __future__ import annotations

import json

from factorix.certify import Certificate, to_dict
from factorix.group import FactorSet, GroupTable, generate_group
from factorix.perm import parse_cycles
from factorix.structure import Subgroup


def group_from(degree: int, *cycle_texts: str) -> GroupTable:
    gens = [parse_cycles(t, degree) for t in cycle_texts]
    return generate_group(gens, degree=degree)


def fs(group: GroupTable, *cycle_texts: str) -> FactorSet:
    idx = tuple(group.index_of(parse_cycles(t, group.degree)) for t in cycle_texts)
    return FactorSet(group, idx)


def cert_from(group: GroupTable, *factor_texts: tuple[str, ...]) -> Certificate:
    return Certificate(group, tuple(fs(group, *texts) for texts in factor_texts))


def canonical(cert: Certificate) -> str:
    """Order-insensitive fingerprint of a certificate, for set comparisons."""
    return json.dumps(to_dict(cert), sort_keys=True)


def all_subgroups(group: GroupTable) -> list[Subgroup]:
    """Every subgroup generated by at most two elements (all of them for
    groups like S4, whose subgroups are all 2-generated), least first."""
    found = {tuple(group.closure_indices([x, y])) for x in range(group.order) for y in range(x, group.order)}
    return [Subgroup(group, idx) for idx in sorted(found, key=lambda idx: (len(idx), idx))]
