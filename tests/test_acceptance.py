"""End-to-end acceptance battery.

One test per criterion, each with a pinned wall-clock budget and a single
PASS line on success.  These exercise the bundled catalog exactly as a
fresh checkout would: certificates re-verify from scratch, searches and
refutations re-run with their catalog budgets, and the reproduction
driver is checked for byte-level determinism.
"""
from __future__ import annotations

import json
import time

from factorix.catalog import open_catalog
from factorix.certify import from_dict, verify_certificate
from factorix.cli import main as cli_main
from factorix.driver import multifold, run_refutation, run_search
from factorix.patterns import (
    enumerate_words,
    palindrome_count,
    reversal_class_count,
    word_count,
)
from factorix.perm import parse_cycles
from factorix.search import refute
from factorix.structure import bits_of, double_cosets

CERT_PATTERNS = {
    "lemma-3.3": (6, 7, 2, 2),
    "lemma-3.5": (12, 7, 2),
    "lemma-3.6": (6, 2, 7, 2),
    "lemma-4.3-left": (60, 3, 2),
    "lemma-4.3-right": (2, 3, 60),
    "lemma-4.4": (18, 5, 2, 2),
    "lemma-4.5": (9, 2, 2, 10),
    "lemma-4.6": (12, 3, 5, 2),
    "lemma-4.7": (6, 2, 3, 10),
}

# search id -> (solutions, candidate space, wall budget in seconds)
SEARCH_COUNTS = {
    "search-lemma-4.5": (204, 810, 60.0),
    "search-lemma-3.5": (8, 924, 60.0),
    "search-lemma-3.3": (24, 19_339_320, 1800.0),
    "search-lemma-4.7": (288, 78_300, 120.0),
    "search-lemma-4.4": (144, 550_800, 300.0),
}

CASE3_BUILD_CAPS = {"case3-lemma-3.6": 26, "case3-lemma-4.6": 378}


def test_criterion_1_explicit_certificates():
    # fresh catalog: timing includes building both group tables
    t0 = time.monotonic()
    cat = open_catalog()
    for cert_id, pattern in CERT_PATTERNS.items():
        cert = cat.certificate(cert_id)
        assert cert.pattern == pattern, cert_id
        assert cert.verify().valid, cert_id
    wall = time.monotonic() - t0
    assert wall < 1.0
    print(f"criterion 1: PASS  9 certificates re-verified in {wall:.2f}s")


def test_criterion_2_word_counts():
    t0 = time.monotonic()
    assert reversal_class_count(168) == 10
    assert reversal_class_count(360) == 30
    for n in range(2, 1001):
        words = enumerate_words(n)
        assert len(words) == word_count(n), n
        assert sum(1 for w in words if w == w[::-1]) == palindrome_count(n), n
        assert len({min(w, w[::-1]) for w in words}) == reversal_class_count(n), n
    wall = time.monotonic() - t0
    assert wall < 10.0
    print(f"criterion 2: PASS  counts 10/30 and formulas match enumeration "
          f"for n <= 1000 in {wall:.2f}s")


def _coset_mask(sub_a, sub_b, x):
    g = sub_a.group
    mask = 0
    for p in sub_a.indices:
        row = g.row(g.row(p)[x])
        mask |= bits_of(row[q] for q in sub_b.indices)
    return mask


def test_criterion_3_double_cosets(cat):
    t0 = time.monotonic()
    checked = 0
    for entry in cat.data["double_cosets"]:
        a = cat.subgroup(entry["a"])
        b = cat.subgroup(entry["b"])
        dec = double_cosets(a, b)
        assert len(dec) == entry["count"], (entry["a"], entry["b"])
        checked += 1
        reps = entry.get("representatives")
        if reps is None:
            continue
        # the listed transversal must hit all six cosets, one each,
        # and every coset must have the full size |A| * |B|
        assert len(reps) == 6 and dec.all_full_size
        g = a.group
        masks = [_coset_mask(a, b, r) for r in dec.representatives]
        hit = set()
        for text in reps:
            x = g.index_of(parse_cycles(text, g.degree))
            hit.update(i for i, m in enumerate(masks) if m >> x & 1)
        assert hit == set(range(6))
    wall = time.monotonic() - t0
    assert wall < 5.0
    print(f"criterion 3: PASS  {checked} double-coset counts confirmed "
          f"in {wall:.2f}s")


def test_criterion_4_exhaustive_search_counts(cat):
    for sid, (solutions, space, budget) in SEARCH_COUNTS.items():
        res = run_search(cat, sid)
        assert res["pass"], sid
        assert res["exhaustive"] and not res["budget_hit"], sid
        assert res["checks"]["solutions"]["got"] == solutions, sid
        assert res["checks"]["space"]["got"] == space, sid
        assert res["wall_s"] < budget, sid
    print("criterion 4: PASS  5 exhaustive counts reproduced exactly")


def test_criterion_5_case3_build_caps(cat):
    for sid, cap in CASE3_BUILD_CAPS.items():
        res = run_search(cat, sid, with_solutions=True)
        assert res["pass"], sid
        assert res["checks"]["found"]["got"] >= 1, sid
        assert res["checks"]["builds"]["got"] <= cap, sid
        assert res["wall_s"] < 300.0, sid
        cert = from_dict(res["solutions"][0])
        assert verify_certificate(cert).valid, sid
    print("criterion 5: PASS  case3 certificates found within "
          "26 and 378 builds")


def test_criterion_6_refutations(cat):
    res = run_refutation(cat, "refute-a4-232")
    assert res["verdict"] == "NONE" and res["strategy"] == "generic"
    assert res["wall_s"] < 10.0

    for rid in ("refute-a5-2-15-2", "refute-a5-2-5-3-2", "refute-a5-2-3-5-2"):
        res = run_refutation(cat, rid)
        assert res["verdict"] == "NONE", rid
        assert res["wall_s"] < 3600.0, rid

    # a starved run may give up, but must never claim NONE
    a5 = cat.group("group-a5")
    for pattern in ((2, 15, 2), (2, 5, 3, 2), (2, 3, 5, 2)):
        rec = refute(a5, pattern, strategy="generic", budget_s=0.0)
        assert rec.verdict == "UNKNOWN", pattern
    print("criterion 6: PASS  4 refutations hold; starved runs "
          "report UNKNOWN")


def test_criterion_7_multifold(cat):
    t0 = time.monotonic()
    for group_id, expected in (("group-168", 10), ("group-a6", 30)):
        rep = multifold(cat, group_id)
        assert rep.verdict == "MULTIFOLD-CERTIFIED", group_id
        assert rep.certified_count == expected == len(rep.classes)
    s4 = multifold(cat, "group-s4")
    assert s4.verdict == "MULTIFOLD-CERTIFIED" and s4.certified_count == 2
    assert all(row.method == "generic" for row in s4.classes)
    wall = time.monotonic() - t0
    assert wall < 2700.0
    print(f"criterion 7: PASS  multifold 10/10, 30/30 and 2/2 "
          f"in {wall:.2f}s")


def test_criterion_8_property_corpus():
    from property_cases import run_case

    seen: set[str] = set()
    for seed in range(500):
        seen |= run_case(seed)
    for op in ("chain", "reverse", "normalize", "sandwich", "duality"):
        assert op in seen, op
    print("criterion 8: PASS  500 random property cases re-verified")


def _scrub(obj):
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items() if k != "wall_s"}
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def _repro_bytes(capsys, threads):
    rc = cli_main(["repro", "all", "--json", "--threads", str(threads)])
    out = capsys.readouterr().out
    assert rc == 0
    return json.dumps(_scrub(json.loads(out)), sort_keys=True).encode()


def test_criterion_9_determinism(capsys):
    first = _repro_bytes(capsys, 1)
    second = _repro_bytes(capsys, 1)
    pooled = _repro_bytes(capsys, 2)
    assert first == second == pooled
    print("criterion 9: PASS  repro output byte-identical across runs "
          "and thread counts")
