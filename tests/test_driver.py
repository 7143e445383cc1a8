from __future__ import annotations

import dataclasses
import sys

import pytest

from factorix import certify, driver
from factorix.catalog import Catalog, CatalogInvalid, open_catalog
from factorix.certify import verify_certificate
from factorix.driver import (
    RecipeInvalid, build_recipe, multifold, repro, run_refutation, run_search,
)
from factorix.search import case2_search, case3_search, generic_search, refute


def test_build_explicit_full_group(cat):
    g = cat.group("group-168")
    cert = build_recipe(cat, g, {"type": "explicit", "certificate": "lemma-3.3"})
    assert cert is cat.certificate("lemma-3.3")


def test_build_explicit_reparses_standalone_table(cat):
    a5 = cat.group("group-a5")
    cert = build_recipe(cat, a5, {"type": "explicit", "certificate": "word-a5-2235"})
    assert cert.group is a5
    assert cert.pattern == (2, 2, 3, 5)
    assert verify_certificate(cert).valid


def test_build_lift(cat):
    g = cat.group("group-168")
    recipe = cat.multifold_table("group-168")["classes"]["2,2,2,3,7"]
    assert recipe["type"] == "lift"
    cert = build_recipe(cat, g, recipe)
    assert cert.pattern == (2, 2, 2, 3, 7)
    assert verify_certificate(cert).valid


def test_build_lift_rejects_foreign_subgroup(cat):
    with pytest.raises(RecipeInvalid):
        build_recipe(
            cat, cat.group("group-168"),
            {"type": "lift", "certificate": "word-a5-2235", "subgroup": "a5-c2"},
        )


def test_build_sandwich(cat):
    g = cat.group("group-168")
    recipe = cat.multifold_table("group-168")["classes"]["2,2,2,7,3"]
    assert recipe["type"] == "sandwich"
    cert = build_recipe(cat, g, recipe)
    assert cert.pattern == (2, 2, 2, 7, 3)
    assert verify_certificate(cert).valid


def test_build_refine(cat):
    g = cat.group("group-168")
    table = cat.multifold_table("group-168")["classes"]
    key = next(k for k, r in table.items() if r["type"] == "refine")
    cert = build_recipe(cat, g, table[key])
    word = tuple(int(t) for t in key.split(","))
    assert cert.pattern in (word, word[::-1])
    assert verify_certificate(cert).valid


def test_build_refine_inline_parts(cat):
    s4 = cat.group("group-s4")
    data = {
        "groups": {"g": {"degree": 3, "generators": ["(1,2)", "(1,2,3)"], "order": 6}},
        "subgroups": {},
        "certificates": {
            "whole": {
                "group": "g",
                "pattern": [6],
                "factors": [["()", "(1,2)", "(1,3)", "(2,3)", "(1,2,3)", "(1,3,2)"]],
            },
        },
        "searches": {}, "refutations": {}, "multifold": {},
    }
    mini = Catalog(data, "<memory>")
    cert = build_recipe(
        cat=mini,
        group=mini.group("g"),
        recipe={
            "type": "refine",
            "base": {"type": "explicit", "certificate": "whole"},
            "position": 0,
            "parts": [["()", "(1,2)"], ["()", "(1,2,3)", "(1,3,2)"]],
        },
    )
    assert cert.pattern == (2, 3)
    assert verify_certificate(cert).valid
    assert s4.order == 24


def test_build_unknown_type(cat):
    with pytest.raises(RecipeInvalid):
        build_recipe(cat, cat.group("group-s4"), {"type": "mystery"})


def test_multifold_s4_generic_fallback(cat):
    rep = multifold(cat, "group-s4")
    assert rep.verdict == "MULTIFOLD-CERTIFIED"
    assert rep.order == 24
    assert [c.word for c in rep.classes] == [(2, 2, 2, 3), (2, 2, 3, 2)]
    assert all(c.method == "generic" and c.certified for c in rep.classes)
    out = rep.as_dict()
    assert out["verdict"] == "MULTIFOLD-CERTIFIED"
    assert out["certified"] == 2
    assert all("certificate" in c for c in out["classes"])


def test_multifold_a4_incomplete(cat):
    rep = multifold(cat, "group-a4")
    assert rep.verdict == "INCOMPLETE"
    assert rep.certified_count == 1
    words = {c.word: c for c in rep.classes}
    assert words[(2, 2, 3)].certified
    missing = words[(2, 3, 2)]
    assert not missing.certified
    assert missing.method == "coset-parity"
    assert missing.note == "no factorization found"


def test_multifold_budget_note(cat):
    """A class without a recipe is settled by ``refute``: the block-cover
    scan proves (2,3,5,2) impossible well inside the budget, while the
    generic engine can only stop on the budget for (2,5,2,3)."""
    rep = multifold(cat, "group-a5", budget_s=0.5)
    words = {c.word: c for c in rep.classes}
    refuted, starved = words[(2, 3, 5, 2)], words[(2, 5, 2, 3)]
    assert (refuted.method, refuted.note) == ("block-cover", "no factorization found")
    assert (starved.method, starved.note) == ("generic", "budget exhausted")
    assert not refuted.certified and not starved.certified
    assert rep.verdict == "INCOMPLETE"


def test_multifold_above_generic_cap(cat):
    """Above ``cap_generic`` the 2-...-2 reduction still settles its class;
    every other class without a recipe is left with no engine."""
    rep = multifold(cat, "group-a5", cap_generic=50)
    words = {c.word: c for c in rep.classes}
    refuted = words.pop((2, 3, 5, 2))
    assert (refuted.method, refuted.note) == ("block-cover", "no factorization found")
    assert len(words) == 5
    for c in words.values():
        assert (c.method, c.note) == ("none-applicable", "no recipe and group too large")
        assert not c.certified
    assert rep.verdict == "INCOMPLETE"


def test_multifold_group168_recipes(cat):
    rep = multifold(cat, "group-168")
    assert rep.verdict == "MULTIFOLD-CERTIFIED"
    assert rep.certified_count == len(rep.classes) == 10
    for c in rep.classes:
        assert c.certificate.pattern == c.word
        assert c.method in ("lift", "sandwich", "refine")


def test_run_search_case1_entry(cat):
    res = run_search(cat, "search-lemma-4.5")
    assert res["pass"] is True
    assert res["checks"]["solutions"] == {"got": 204, "want": 204}
    assert res["checks"]["space"] == {"got": 810, "want": 810}
    assert res["exhaustive"] and not res["budget_hit"]
    assert "solutions" not in res


def test_run_search_with_solutions(cat):
    res = run_search(cat, "search-lemma-4.5", with_solutions=True)
    assert len(res["solutions"]) == 204
    assert all(s["pattern"] == [9, 2, 2, 10] for s in res["solutions"])


def test_run_search_case3_entry(cat):
    res = run_search(cat, "case3-lemma-3.6")
    assert res["pass"] is True
    assert res["checks"]["found"]["got"] >= 1
    assert res["checks"]["builds"]["got"] <= 26


def test_run_search_budget_override(cat):
    res = run_search(cat, "search-lemma-4.5", budget_s=0.0)
    assert res["budget_hit"] is True
    assert res["pass"] is False


@pytest.mark.parametrize("threads", [1, 2])
def test_run_search_budget_at_any_thread_count(cat, threads):
    # the whole search takes about 0.2-0.4 s at 2 threads on a 2-core machine;
    # the budget must cut it well before that
    res = run_search(cat, "search-lemma-3.3", threads=threads, budget_s=0.1)
    assert res["budget_hit"] is True
    assert res["exhaustive"] is False and res["pass"] is False
    assert res["wall_s"] < 1.5


def test_run_search_count_needs_exhaustive_run(cat, monkeypatch):
    """A cut run that already found every expected solution still fails."""
    def cut(*args, **kwargs):
        return dataclasses.replace(case2_search(*args, **kwargs), exhaustive=False, budget_hit=True)

    monkeypatch.setattr(driver, "case2_search", cut)
    res = run_search(cat, "search-lemma-3.5")
    assert res["checks"]["solutions"] == {"got": 8, "want": 8}
    assert res["checks"]["space"] == {"got": 924, "want": 924}
    assert res["budget_hit"] is True and res["pass"] is False


def test_run_refutation_entry(cat):
    res = run_refutation(cat, "refute-a4-232")
    assert res["pass"] is True
    assert res["verdict"] == res["expected"] == "NONE"
    assert res["strategy"] == "generic"
    assert res["instances"] > 0


def test_refutation_instance_counts_pinned(cat):
    assert run_refutation(cat, "refute-a4-232")["instances"] == 285
    assert run_refutation(cat, "refute-a5-2-15-2")["instances"] == 15


def test_block_cover_refutations_pinned():
    fresh = open_catalog()
    first = run_refutation(fresh, "refute-a5-2-3-5-2")
    second = run_refutation(fresh, "refute-a5-2-5-3-2")
    assert (first["verdict"], first["instances"], first["strategy"]) == ("NONE", 6090, "block-cover")
    assert (second["verdict"], second["instances"], second["strategy"]) == (
        "NONE", 6090, "block-cover (reversed)")
    assert "notes" not in first
    assert second["notes"] == "reused the completed block-cover scan of (2, 3, 5, 2)"
    assert first["pass"] and second["pass"]


def test_block_cover_budget_unknown():
    fresh = open_catalog()
    res = run_refutation(fresh, "refute-a5-2-5-3-2", budget_s=0.0)
    assert (res["verdict"], res["strategy"]) == ("UNKNOWN", "block-cover (reversed)")
    assert res["pass"] is False and "notes" not in res
    # the cut scan was not kept: the full run scans afresh
    full = run_refutation(fresh, "refute-a5-2-3-5-2")
    assert (full["verdict"], full["instances"]) == ("NONE", 6090) and "notes" not in full


def test_case3_graph_builds_pinned(cat):
    assert run_search(cat, "case3-lemma-3.6")["checks"]["builds"]["got"] == 1
    assert run_search(cat, "case3-lemma-4.6")["checks"]["builds"]["got"] == 2


def test_run_refutation_budget_override(cat):
    res = run_refutation(cat, "refute-a5-2-15-2", budget_s=0.0)
    assert res["verdict"] == "UNKNOWN"
    assert res["pass"] is False


def test_repro_scoped(cat):
    out = repro(cat, scope="lemma-3.5")
    ids = [r["id"] for r in out["rows"]]
    assert ids == ["verify-lemma-3.5", "search-lemma-3.5"]
    assert out["pass"] is True
    assert all(r["status"] == "PASS" for r in out["rows"])


def test_repro_patterns_scope(cat):
    out = repro(cat, scope="patterns")
    assert [r["id"] for r in out["rows"]] == [
        "patterns-group-168", "patterns-group-a6", "patterns-group-s4",
    ]
    assert out["pass"] is True


def test_repro_double_coset_scope(cat):
    out = repro(cat, scope="double-cosets-a5-c2-a5-c5")
    assert len(out["rows"]) == 1
    assert out["rows"][0]["detail"] == "6 double cosets"
    assert out["pass"] is True


def test_repro_unknown_scope(cat):
    with pytest.raises(CatalogInvalid):
        repro(cat, scope="nothing-here")


def test_repro_verifies_each_catalog_certificate_once(monkeypatch):
    """Catalog.certificate verifies on first load and the verify rows read
    the memoised verdict, so each of the 41 certificates is verified once."""
    calls = []

    def counting(cert):
        calls.append(cert)
        return verify_certificate(cert)

    for name, module in list(sys.modules.items()):
        if name.startswith("factorix") and getattr(module, "verify_certificate", None) is verify_certificate:
            monkeypatch.setattr(module, "verify_certificate", counting)
    assert certify.verify_certificate is counting
    res = repro(open_catalog(), "verify")
    assert len(res["rows"]) == 41 and res["pass"]
    assert len(calls) == 41


@pytest.mark.parametrize("search_id, solutions", [
    ("case3-lemma-3.6", 1), ("case3-lemma-4.6", 1), ("search-lemma-3.3", 24),
    ("search-lemma-3.5", 8), ("search-lemma-4.4", 144), ("search-lemma-4.5", 204),
    ("search-lemma-4.7", 288),
])
def test_run_search_verifies_each_reported_certificate_once(cat, monkeypatch, search_id, solutions):
    """Every engine hands its raw answers to one verify step, so a search
    makes one verifier call per reported solution; the reversed case2
    search reverses raw index tuples and verifies only the reversed ones."""
    calls = []

    def counting(cert):
        calls.append(cert)
        return verify_certificate(cert)

    for name, module in list(sys.modules.items()):
        if name.startswith("factorix") and getattr(module, "verify_certificate", None) is verify_certificate:
            monkeypatch.setattr(module, "verify_certificate", counting)
    res = run_search(cat, search_id, threads=1, with_solutions=True)
    assert res["pass"] and len(res["solutions"]) == solutions
    assert len(calls) == solutions


LIBRARY_ENTRIES = {
    "refute": lambda cat, budget: refute(cat.group("group-a5"), (2, 15, 2), budget_s=budget),
    "run_search": lambda cat, budget: run_search(cat, "search-lemma-3.5", budget_s=budget),
    "case2_search": lambda cat, budget: case2_search(
        cat.anchor(cat.group("group-168"), "g168-a12"),
        cat.anchor(cat.group("group-168"), ["()", "(2,4,7,6)(3,5)"]), (7,), budget_s=budget),
    "case3_search": lambda cat, budget: case3_search(
        cat.anchor(cat.group("group-168"), "g168-h6"),
        cat.anchor(cat.group("group-168"), ["()", "(1,5)(2,7,4,6)"]), 2, 7, budget_s=budget),
    "generic_search": lambda cat, budget: generic_search(cat.group("group-a5"), (2, 30), budget_s=budget),
    "multifold": lambda cat, budget: multifold(cat, "group-s4", budget_s=budget),
    # every group-168 class has a recipe, so no engine sees the budget
    "multifold-recipes": lambda cat, budget: multifold(cat, "group-168", budget_s=budget),
}


@pytest.mark.parametrize("entry", sorted(LIBRARY_ENTRIES))
@pytest.mark.parametrize("budget", [float("nan"), -1.0], ids=["nan", "negative"])
def test_library_rejects_nan_and_negative_budgets(cat, budget, entry):
    """A NaN budget, which no clock passes, would run unbounded and a
    negative one would stop at once; every library entry point refuses
    both."""
    with pytest.raises(ValueError, match="^budget_s must be a non-negative number"):
        LIBRARY_ENTRIES[entry](cat, budget)
