"""Checked-in data: groups, subgroups, certificates, search and refutation
configurations, and the multifold recipe tables.

The catalog file is JSON.  Ids are flat strings, unique across sections, so
``load("lemma-4.4")`` works without knowing which section holds the entry.
Every certificate is verified as it is resolved; a catalog that asserts an
invalid factorization fails loudly at load time, not at use time.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

from .certify import Certificate, verify_certificate
from .group import FactorSet, GroupTable, generate_group
from .perm import parse_cycles
from .structure import Subgroup, subgroup_from_perms

ENV_VAR = "FACTORIX_CATALOG"


class UnknownId(KeyError):
    pass


class CatalogInvalid(ValueError):
    """The catalog asserts something the group arithmetic refutes."""


_SECTIONS = ("groups", "subgroups", "certificates", "searches", "refutations", "multifold")


@dataclass
class Catalog:
    data: dict[str, Any]
    path: str
    _groups: dict[str, GroupTable] = field(default_factory=dict)
    _subgroups: dict[str, Subgroup] = field(default_factory=dict)
    _certs: dict[str, Certificate] = field(default_factory=dict)

    def section_of(self, entry_id: str) -> str:
        for name in _SECTIONS:
            if entry_id in self.data.get(name, {}):
                return name
        raise UnknownId(entry_id)

    def ids(self, section: str) -> list[str]:
        return sorted(self.data.get(section, {}))

    def _entry(self, section: str, entry_id: str, **types: type | tuple[type, ...]) -> dict:
        try:
            spec = self.data[section][entry_id]
        except KeyError:
            raise UnknownId(entry_id) from None
        return _shaped(spec, entry_id, **types)

    def group(self, group_id: str) -> GroupTable:
        if group_id not in self._groups:
            spec = self._entry("groups", group_id, order=int)
            table = _generated(spec, group_id)
            if table.order != spec["order"]:
                raise CatalogInvalid(
                    f"{group_id}: generators give order {table.order}, "
                    f"entry says {spec['order']}"
                )
            self._groups[group_id] = table
        return self._groups[group_id]

    def subgroup(self, sub_id: str) -> Subgroup:
        if sub_id not in self._subgroups:
            spec = self._entry("subgroups", sub_id, group=str, generators=list, order=int)
            parent = self.group(spec["group"])
            gens = [parse_cycles(t, parent.degree) for t in spec["generators"]]
            sub = subgroup_from_perms(parent, gens)
            if len(sub) != spec["order"]:
                raise CatalogInvalid(
                    f"{sub_id}: generators give order {len(sub)}, "
                    f"entry says {spec['order']}"
                )
            self._subgroups[sub_id] = sub
        return self._subgroups[sub_id]

    def factor_set(self, group: GroupTable, texts: list[str]) -> FactorSet:
        if not isinstance(texts, list):
            raise CatalogInvalid(f"a factor must be a list of elements, got {type(texts).__name__}")
        indices = []
        for t in texts:
            indices.append(group.index_of(parse_cycles(t, group.degree)))
        if len(set(indices)) != len(indices):
            raise CatalogInvalid(f"repeated element in factor {texts}")
        return FactorSet(group, tuple(sorted(indices)))

    def certificate(self, cert_id: str) -> Certificate:
        if cert_id not in self._certs:
            spec = self._entry("certificates", cert_id, group=(str, dict), pattern=list, factors=list)
            g = spec["group"]
            table = self.group(g) if isinstance(g, str) else _generated(g, cert_id)
            factors = [self.factor_set(table, texts) for texts in spec["factors"]]
            cert = Certificate(table, tuple(factors))
            if list(cert.pattern) != list(spec["pattern"]):
                raise CatalogInvalid(
                    f"{cert_id}: factors have pattern {cert.pattern}, "
                    f"entry says {tuple(spec['pattern'])}"
                )
            verdict = verify_certificate(cert)
            if not verdict.valid:
                raise CatalogInvalid(f"{cert_id}: invalid certificate: {verdict.message}")
            self._certs[cert_id] = cert
        return self._certs[cert_id]

    def search(self, search_id: str) -> dict:
        try:
            return self.data["searches"][search_id]
        except KeyError:
            raise UnknownId(search_id) from None

    def refutation(self, ref_id: str) -> dict:
        try:
            return self.data["refutations"][ref_id]
        except KeyError:
            raise UnknownId(ref_id) from None

    def multifold_table(self, group_id: str) -> dict:
        try:
            return self.data["multifold"][group_id]
        except KeyError:
            raise UnknownId(group_id) from None

    def anchor(self, group: GroupTable, ref) -> Subgroup | FactorSet:
        """A search anchor is either a subgroup id or an inline element list."""
        if isinstance(ref, str):
            sub = self.subgroup(ref)
            if sub.group is not group:
                raise CatalogInvalid(f"anchor {ref} belongs to a different group")
            return sub
        return self.factor_set(group, list(ref))

    def load_entry(self, entry_id: str):
        """Resolve any id to its checked object (spec'd single entry point)."""
        section = self.section_of(entry_id)
        if section == "groups":
            return self.group(entry_id)
        if section == "subgroups":
            return self.subgroup(entry_id)
        if section == "certificates":
            return self.certificate(entry_id)
        if section == "searches":
            return self.search(entry_id)
        if section == "refutations":
            return self.refutation(entry_id)
        return self.multifold_table(entry_id)


def _shaped(spec: Any, where: str, **types: type | tuple[type, ...]) -> dict:
    """``spec`` itself, once checked to be an object whose named keys hold
    values of the given types; a catalog of another shape is invalid."""
    if not isinstance(spec, dict):
        raise CatalogInvalid(f"{where}: entry must be an object, got {type(spec).__name__}")
    for key, kind in types.items():
        if key not in spec:
            raise CatalogInvalid(f"{where}: entry has no {key!r}")
        if not isinstance(spec[key], kind):
            raise CatalogInvalid(f"{where}: {key!r} has the wrong type {type(spec[key]).__name__}")
    return spec


def _generated(spec: Any, where: str) -> GroupTable:
    """The group a ``{degree, generators}`` spec generates: the one reader
    of that shape, for group entries and inline certificate groups."""
    _shaped(spec, where, degree=int, generators=list)
    gens = [parse_cycles(t, spec["degree"]) for t in spec["generators"]]
    return generate_group([p for p in gens if not p.is_identity()], degree=spec["degree"])


def default_path() -> str:
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return str(resources.files("factorix").joinpath("data/catalog.json"))


def open_catalog(path: str | None = None) -> Catalog:
    p = path or default_path()
    with open(p, encoding="utf-8") as fh:
        data = json.load(fh)
    return Catalog(data, p)


def load(entry_id: str, path: str | None = None):
    return open_catalog(path).load_entry(entry_id)
