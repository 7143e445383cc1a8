"""Recipe assembly, the multifold driver, and the reproduction harness.

A recipe is a small JSON object describing how to build a certificate from
catalog pieces:

    {"type": "explicit", "certificate": id}
    {"type": "lift", "certificate": id, "subgroup": id, "side": "right"}
    {"type": "sandwich", "a": id, "b": id,
     "a_certificate": id | null, "b_certificate": id | null}
    {"type": "refine", "base": recipe, "position": int,
     "certificate": id}           # parts taken from a stored certificate
    {"type": "refine", "base": recipe, "position": int,
     "parts": [[cycles, ...], ...]}  # parts given inline

The driver reverses an assembled certificate when the requested class
representative is the reversal of what the recipe naturally builds, which
keeps the recipes in their readable orientation.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .catalog import Catalog, CatalogInvalid
from .certify import (
    Certificate, certificate, compose_sandwich, embed, lift_by_transversal,
    replace_factor, reverse, to_dict,
)
from .group import FactorSet, GroupTable
from .patterns import enumerate_reversal_classes, reversal_class_count
from .search import (
    CAP_GENERIC, case1_search, case2_search, case2_search_reversed, case3_search,
    check_budget, refute,
)
from .structure import double_cosets


class RecipeInvalid(ValueError):
    pass


def build_recipe(cat: Catalog, group: GroupTable, recipe: dict) -> Certificate:
    kind = recipe.get("type")
    if kind == "explicit":
        cert = cat.certificate(recipe["certificate"])
        if cert.group is not group:
            cert = certificate(group, embed(group, cert))
        return cert
    if kind == "lift":
        sub = cat.subgroup(recipe["subgroup"])
        if sub.group is not group:
            raise RecipeInvalid("lift subgroup lives in a different group")
        base = cat.certificate(recipe["certificate"])
        return lift_by_transversal(base, sub, side=recipe.get("side", "right"))
    if kind == "sandwich":
        a = cat.subgroup(recipe["a"])
        b = cat.subgroup(recipe["b"])
        if a.group is not group or b.group is not group:
            raise RecipeInvalid("sandwich subgroups live in a different group")
        a_cert = recipe.get("a_certificate")
        b_cert = recipe.get("b_certificate")
        return compose_sandwich(
            a, b,
            a_cert=cat.certificate(a_cert) if a_cert else None,
            b_cert=cat.certificate(b_cert) if b_cert else None,
        )
    if kind == "refine":
        base = build_recipe(cat, group, recipe["base"])
        position = recipe["position"]
        if "certificate" in recipe:
            embedded = embed(group, cat.certificate(recipe["certificate"]))
            parts = [FactorSet(group, f) for f in embedded]
        else:
            parts = [cat.factor_set(group, texts) for texts in recipe["parts"]]
        return replace_factor(base, position, parts)
    raise RecipeInvalid(f"unknown recipe type: {kind!r}")


@dataclass
class ClassResult:
    word: tuple[int, ...]
    method: str
    certificate: Certificate | None
    note: str = ""

    @property
    def certified(self) -> bool:
        return self.certificate is not None

    def as_dict(self) -> dict:
        out = {"word": list(self.word), "method": self.method, "certified": self.certified}
        if self.note:
            out["note"] = self.note
        if self.certificate is not None:
            out["certificate"] = to_dict(self.certificate)
        return out


@dataclass
class MultifoldReport:
    group_id: str
    order: int
    classes: list[ClassResult]
    wall_s: float = 0.0

    @property
    def verdict(self) -> str:
        return "MULTIFOLD-CERTIFIED" if all(c.certified for c in self.classes) else "INCOMPLETE"

    @property
    def certified_count(self) -> int:
        return sum(1 for c in self.classes if c.certified)

    def as_dict(self) -> dict:
        return {
            "group": self.group_id,
            "order": self.order,
            "verdict": self.verdict,
            "certified": self.certified_count,
            "classes": [c.as_dict() for c in self.classes],
            "wall_s": round(self.wall_s, 3),
        }


def multifold(
    cat: Catalog,
    group_id: str,
    cap_generic: int = CAP_GENERIC,
    budget_s: float | None = None,
) -> MultifoldReport:
    """Certify one reversal class representative per prime word of |G|.

    Classes with a catalog recipe are assembled and re-verified; each other
    class is settled by ``refute``, whose strategy is its method and whose
    verdict gives its note when no certificate is found.
    """
    check_budget(budget_s)
    start = time.monotonic()
    group = cat.group(group_id)
    try:
        table = cat.multifold_table(group_id)
    except KeyError:
        table = {"classes": {}}
    recipes = table.get("classes", {})

    results: list[ClassResult] = []
    for word in enumerate_reversal_classes(group.order):
        key = ",".join(map(str, word))
        recipe = recipes.get(key)
        if recipe is not None:
            cert = build_recipe(cat, group, recipe)
            if cert.pattern != word:
                cert = reverse(cert)
            if cert.pattern != word:
                raise CatalogInvalid(
                    f"recipe for {key} builds pattern {cert.pattern}"
                )
            if not cert.verify().valid:
                raise CatalogInvalid(f"recipe for {key} assembled an invalid certificate")
            results.append(ClassResult(word, recipe["type"], cert))
        else:
            rec = refute(group, word, budget_s=budget_s, cap_generic=cap_generic)
            note = {"FOUND": "", "NONE": "no factorization found"}.get(rec.verdict, "budget exhausted")
            if rec.strategy == "none-applicable":
                note = "no recipe and group too large"
            results.append(ClassResult(word, rec.strategy, rec.certificate, note))
    return MultifoldReport(group_id, group.order, results, time.monotonic() - start)


def run_search(
    cat: Catalog,
    search_id: str,
    threads: int = 1,
    budget_s: float | None = None,
    with_solutions: bool = False,
) -> dict:
    """Run one catalog search entry and compare against its expectations.

    The counting engines (case1, case2) always enumerate everything; case3
    stops at its first solution.  ``threads`` bounds the forked workers of
    a case2 search.
    """
    spec = cat.search(search_id)
    group = cat.group(spec["group"])
    engine = spec["engine"]
    budget = budget_s if budget_s is not None else spec.get("budget_s")
    start = time.monotonic()
    first, last = cat.anchor(group, spec["first"]), cat.anchor(group, spec["last"])
    if engine == "case1":
        rep = case1_search(first, last, tuple(spec["middle"]), budget_s=budget)
    elif engine == "case3":
        rep = case3_search(first, last, spec["b_size"], spec["c_size"], budget_s=budget)
    else:
        engine_search = case2_search if engine == "case2" else case2_search_reversed
        rep = engine_search(first, last, tuple(spec["middle"]), budget_s=budget, threads=threads)
    wall = time.monotonic() - start

    checks = {}
    ok = all(c.verify().valid for c in rep.solutions)
    if "expected_solutions" in spec:
        checks["solutions"] = {"got": rep.solution_count, "want": spec["expected_solutions"]}
        # a count holds only for a search that covered its whole space
        ok = ok and rep.exhaustive and rep.solution_count == spec["expected_solutions"]
    if "expected_space" in spec:
        checks["space"] = {"got": rep.candidate_space, "want": spec["expected_space"]}
        ok = ok and rep.candidate_space == spec["expected_space"]
    if "min_solutions" in spec:
        checks["found"] = {"got": rep.solution_count, "want": f">= {spec['min_solutions']}"}
        ok = ok and rep.solution_count >= spec["min_solutions"]
    if "max_builds" in spec:
        checks["builds"] = {"got": rep.graph_builds, "want": f"<= {spec['max_builds']}"}
        ok = ok and rep.graph_builds <= spec["max_builds"]
    out = {
        "id": search_id,
        "engine": engine,
        "pattern": list(rep.pattern),
        "checks": checks,
        "exhaustive": rep.exhaustive,
        "budget_hit": rep.budget_hit,
        "pass": bool(ok),
        "wall_s": round(wall, 3),
    }
    if with_solutions:
        out["solutions"] = [to_dict(c) for c in rep.solutions]
    return out


def run_refutation(cat: Catalog, ref_id: str, budget_s: float | None = None,
                   cap_generic: int = CAP_GENERIC, strategy: str | None = None) -> dict:
    """Run one catalog refutation entry.  A given budget or strategy
    overrides the entry's; ``strategy=None`` takes the entry's, else auto."""
    spec = cat.refutation(ref_id)
    group = cat.group(spec["group"])
    budget = budget_s if budget_s is not None else spec.get("budget_s")
    rec = refute(
        group, tuple(spec["pattern"]), budget_s=budget, cap_generic=cap_generic,
        strategy=strategy or spec.get("strategy", "auto"),
    )
    return {"id": ref_id, **rec.as_dict(), "expected": spec["expected"],
            "pass": rec.verdict == spec["expected"]}


def _scope_matches(scope: str, row_id: str) -> bool:
    if scope == "all" or scope == row_id:
        return True
    return set(scope.split("-")) <= set(row_id.split("-"))


def repro(cat: Catalog, scope: str = "all", threads: int = 1) -> dict:
    """Replay catalog expectations and emit a PASS/FAIL table.

    Output is deterministic apart from wall_s values: rows are ordered by
    section then id, and every engine runs with canonical orderings.
    """
    rows: list[dict] = []

    def emit(row_id: str, ok: bool, detail: str, wall: float):
        rows.append({
            "id": row_id,
            "status": "PASS" if ok else "FAIL",
            "detail": detail,
            "wall_s": round(wall, 3),
        })

    for group_id in cat.ids("multifold"):
        row_id = f"patterns-{group_id}"
        if not _scope_matches(scope, row_id):
            continue
        start = time.monotonic()
        group = cat.group(group_id)
        classes = enumerate_reversal_classes(group.order)
        ok = len(classes) == reversal_class_count(group.order)
        emit(row_id, ok, f"{len(classes)} reversal classes", time.monotonic() - start)

    for cert_id in cat.ids("certificates"):
        row_id = f"verify-{cert_id}"
        if not _scope_matches(scope, row_id):
            continue
        start = time.monotonic()
        try:
            cert = cat.certificate(cert_id)
            ok = cert.verify().valid
            detail = f"pattern {tuple(cert.pattern)}"
        except CatalogInvalid as exc:
            ok, detail = False, str(exc)
        emit(row_id, ok, detail, time.monotonic() - start)

    for entry in cat.double_cosets():
        row_id = f"double-cosets-{entry['a']}-{entry['b']}"
        if not _scope_matches(scope, row_id):
            continue
        start = time.monotonic()
        dc = double_cosets(cat.subgroup(entry["a"]), cat.subgroup(entry["b"]))
        ok = len(dc.representatives) == entry["count"]
        if "representatives" in entry:
            group = cat.subgroup(entry["a"]).group
            got = [str(group.elements[r]) for r in dc.representatives]
            ok = ok and got == entry["representatives"]
        emit(row_id, ok, f"{len(dc.representatives)} double cosets", time.monotonic() - start)

    for search_id in cat.ids("searches"):
        if not _scope_matches(scope, search_id):
            continue
        res = run_search(cat, search_id, threads=threads)
        detail = ", ".join(
            f"{k}={v['got']} (want {v['want']})" for k, v in sorted(res["checks"].items())
        )
        emit(search_id, res["pass"], detail, res["wall_s"])

    for ref_id in cat.ids("refutations"):
        if not _scope_matches(scope, ref_id):
            continue
        res = run_refutation(cat, ref_id)
        emit(ref_id, res["pass"], f"verdict {res['verdict']} (want {res['expected']})", res["wall_s"])

    for group_id in cat.ids("multifold"):
        row_id = f"multifold-{group_id}"
        if not _scope_matches(scope, row_id):
            continue
        rep = multifold(cat, group_id)
        ok = rep.verdict == "MULTIFOLD-CERTIFIED"
        emit(row_id, ok, f"{rep.certified_count}/{len(rep.classes)} classes certified", rep.wall_s)

    if not rows:
        raise CatalogInvalid(f"scope {scope!r} matches no repro entries")
    return {"scope": scope, "pass": all(r["status"] == "PASS" for r in rows), "rows": rows}
