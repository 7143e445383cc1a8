"""Checked-in data: groups, subgroups, certificates, search and refutation
configurations, and the multifold recipe tables.

The catalog file is a JSON object with one object per section, mapping
flat string ids to entries; each section has its own resolver.  Every
certificate is verified as it is resolved; a catalog that asserts an
invalid factorization fails loudly at load time, not at use time.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

from .certify import (
    Certificate, MalformedCertificate, from_dict, read_factor, read_group_spec, read_perms,
    shaped,
)
from .group import FactorSet, GroupTable, generate_group
from .structure import Subgroup, subgroup_from_perms

ENV_VAR = "FACTORIX_CATALOG"


class UnknownId(KeyError):
    pass


class CatalogInvalid(ValueError):
    """The catalog asserts something the group arithmetic refutes, or one of
    its entries does not have the shape its reader needs."""


_SECTIONS = ("groups", "subgroups", "certificates", "searches", "refutations", "multifold")

# The keys an entry must hold, with their types: exactly those the driver
# reads without a default.  Certificates and group specs are shape-checked
# by their readers in ``certify``.
_KEYS: dict[str, dict[str, Any]] = {
    "groups": {"order": int},
    "subgroups": {"group": str, "generators": list, "order": int},
    "searches": {"group": str, "engine": str, "first": (str, list), "last": (str, list)},
    "refutations": {"group": str, "pattern": list, "expected": str},
}
_ENGINE_KEYS: dict[str, dict[str, Any]] = {
    "case1": {"middle": list},
    "case2": {"middle": list},
    "case2-reversed": {"middle": list},
    "case3": {"b_size": int, "c_size": int},
}
_RECIPE_KEYS: dict[str, dict[str, Any]] = {
    "explicit": {"certificate": str},
    "lift": {"certificate": str, "subgroup": str},
    "sandwich": {"a": str, "b": str},
    "refine": {"base": dict, "position": int},
}
# The keys the driver reads only where present, or with a default, with
# their types.
_NUMBER = (int, float)
_ID_OR_NULL = (str, type(None))
_OPTIONAL_KEYS: dict[str, dict[str, Any]] = {
    "searches": {"budget_s": _NUMBER, "expected_solutions": int, "expected_space": int,
                 "min_solutions": int, "max_builds": int},
    "refutations": {"budget_s": _NUMBER, "strategy": str},
    "multifold": {"classes": dict},
}
_RECIPE_OPTIONAL_KEYS: dict[str, dict[str, Any]] = {
    "lift": {"side": str},
    "sandwich": {"a_certificate": _ID_OR_NULL, "b_certificate": _ID_OR_NULL},
}
# The required list of factor sizes in each section, which must hold integers.
_SIZES = {"searches": "middle", "refutations": "pattern"}


@contextmanager
def _named(where: str):
    """Report a malformed entry as ``CatalogInvalid``, naming it."""
    try:
        yield
    except MalformedCertificate as exc:
        raise CatalogInvalid(f"{where}: {exc}") from None


def _typed(spec: Any, what: str, required: dict[str, Any], optional: dict[str, Any]) -> None:
    """Shape-check an object: each ``required`` key present with its type,
    and each ``optional`` key of its type where present."""
    shaped(spec, what, **required)
    shaped(spec, what, **{k: t for k, t in optional.items() if k in spec})


def _recipe(recipe: Any) -> None:
    """Shape-check a multifold recipe and, for ``refine``, its base; an
    unknown type is left to ``driver.build_recipe``."""
    kind = shaped(recipe, "recipe", type=str)["type"]
    _typed(recipe, f"{kind} recipe", _RECIPE_KEYS.get(kind, {}), _RECIPE_OPTIONAL_KEYS.get(kind, {}))
    if kind == "refine":
        parts = {"certificate": str} if "certificate" in recipe else {"parts": list}
        shaped(recipe, "refine recipe", **parts)
        _recipe(recipe["base"])


@dataclass
class Catalog:
    data: dict[str, Any]
    path: str
    _groups: dict[str, GroupTable] = field(default_factory=dict)
    _subgroups: dict[str, Subgroup] = field(default_factory=dict)
    _certs: dict[str, Certificate] = field(default_factory=dict)

    def ids(self, section: str) -> list[str]:
        return sorted(self.data.get(section, {}))

    def _entry(self, section: str, entry_id: str) -> dict:
        """An entry looked up and shape-checked: its section's keys, a
        search's engine keys, its factor sizes and a multifold table's
        recipes."""
        try:
            spec = self.data[section][entry_id]
        except KeyError:
            raise UnknownId(entry_id) from None
        with _named(entry_id):
            _typed(spec, "entry", _KEYS.get(section, {}), _OPTIONAL_KEYS.get(section, {}))
            if section == "searches":
                if spec["engine"] not in _ENGINE_KEYS:
                    raise MalformedCertificate(f"unknown search engine {spec['engine']!r}")
                shaped(spec, f"{spec['engine']} search", **_ENGINE_KEYS[spec["engine"]])
            if "budget_s" in spec and not spec["budget_s"] >= 0:
                raise MalformedCertificate("entry: 'budget_s' must be a non-negative number")
            sizes = _SIZES.get(section)
            if sizes in spec and not all(isinstance(m, int) for m in spec[sizes]):
                raise MalformedCertificate(f"entry: {sizes!r} must hold integers")
            if section == "multifold":
                for recipe in spec.get("classes", {}).values():
                    _recipe(recipe)
        return spec

    def group(self, group_id: str) -> GroupTable:
        if group_id not in self._groups:
            spec = self._entry("groups", group_id)
            with _named(group_id):
                table = generate_group(*read_group_spec(spec))
            if table.order != spec["order"]:
                raise CatalogInvalid(
                    f"{group_id}: generators give order {table.order}, "
                    f"entry says {spec['order']}"
                )
            self._groups[group_id] = table
        return self._groups[group_id]

    def subgroup(self, sub_id: str) -> Subgroup:
        if sub_id not in self._subgroups:
            spec = self._entry("subgroups", sub_id)
            parent = self.group(spec["group"])
            with _named(sub_id):
                gens = read_perms(spec["generators"], parent.degree)
            sub = subgroup_from_perms(parent, gens)
            if len(sub) != spec["order"]:
                raise CatalogInvalid(
                    f"{sub_id}: generators give order {len(sub)}, "
                    f"entry says {spec['order']}"
                )
            self._subgroups[sub_id] = sub
        return self._subgroups[sub_id]

    def factor_set(self, group: GroupTable, texts: list[str]) -> FactorSet:
        with _named("inline factor"):
            perms = read_factor(texts, group.degree)
        return FactorSet(group, tuple(group.index_of(p) for p in perms))

    def certificate(self, cert_id: str) -> Certificate:
        if cert_id not in self._certs:
            spec = self._entry("certificates", cert_id)
            with _named(cert_id):
                cert = from_dict(spec, self.group)
            verdict = cert.verify()
            if not verdict.valid:
                raise CatalogInvalid(f"{cert_id}: invalid certificate: {verdict.message}")
            self._certs[cert_id] = cert
        return self._certs[cert_id]

    def search(self, search_id: str) -> dict:
        return self._entry("searches", search_id)

    def refutation(self, ref_id: str) -> dict:
        return self._entry("refutations", ref_id)

    def multifold_table(self, group_id: str) -> dict:
        return self._entry("multifold", group_id)

    def double_cosets(self) -> list[dict]:
        """The double-coset claims, each shape-checked."""
        entries = self.data.get("double_cosets", [])
        with _named("double_cosets"):
            if not isinstance(entries, list):
                raise MalformedCertificate(f"expected a list, got {type(entries).__name__}")
            for entry in entries:
                shaped(entry, "entry", a=str, b=str, count=int)
        return entries

    def anchor(self, group: GroupTable, ref) -> Subgroup | FactorSet:
        """A search anchor is either a subgroup id or an inline element list."""
        if isinstance(ref, str):
            sub = self.subgroup(ref)
            if sub.group is not group:
                raise CatalogInvalid(f"anchor {ref} belongs to a different group")
            return sub
        return self.factor_set(group, ref)


def default_path() -> str:
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return str(resources.files("factorix").joinpath("data/catalog.json"))


def open_catalog(path: str | None = None) -> Catalog:
    """The catalog at ``path``, once its top level and each section are
    checked to be objects."""
    p = path or default_path()
    with open(p, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise CatalogInvalid(f"{p}: JSON nested too deeply") from None
    with _named(p):
        shaped(data, "catalog")
        shaped(data, "catalog", **{name: dict for name in _SECTIONS if name in data})
    return Catalog(data, p)
