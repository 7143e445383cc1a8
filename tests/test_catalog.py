from __future__ import annotations

import copy
import json
import shutil

import pytest

from factorix.catalog import (
    Catalog, CatalogInvalid, UnknownId, default_path, open_catalog,
)
from factorix.certify import load_json, to_dict
from factorix.group import FactorSet


def mini_data():
    return {
        "groups": {
            "g": {"degree": 3, "generators": ["(1,2)", "(1,2,3)"], "order": 6},
            "g2": {"degree": 3, "generators": ["(1,2,3)"], "order": 3},
        },
        "subgroups": {"h": {"group": "g", "generators": ["(1,2,3)"], "order": 3}},
        "certificates": {
            "c-good": {
                "group": "g",
                "pattern": [2, 3],
                "factors": [["()", "(1,2)"], ["()", "(1,2,3)", "(1,3,2)"]],
            },
        },
        "searches": {},
        "refutations": {},
        "multifold": {},
    }


def mini_cat():
    return Catalog(mini_data(), "<memory>")


def test_bundled_sections(cat):
    assert cat.ids("groups") == [
        "group-168", "group-a4", "group-a5", "group-a6", "group-s4",
    ]
    assert len(cat.ids("certificates")) == 41
    assert len(cat.ids("searches")) == 7
    assert len(cat.ids("refutations")) == 4
    assert cat.ids("multifold") == ["group-168", "group-a6", "group-s4"]


def test_group_and_subgroup_resolution(cat):
    a5 = cat.group("group-a5")
    assert a5.order == 60 and a5.degree == 5
    assert cat.group("group-a5") is a5
    c2 = cat.subgroup("a5-c2")
    assert len(c2) == 2 and c2.group is a5
    assert cat.subgroup("a5-c2") is c2


def test_bundled_certificates_all_verify(cat):
    for cert_id in cat.ids("certificates"):
        cert = cat.certificate(cert_id)
        assert cert.verify().valid, cert_id
        assert list(cert.pattern) == cat.data["certificates"][cert_id]["pattern"]
    assert cat.certificate("lemma-3.3") is cat.certificate("lemma-3.3")


def test_inline_group_certificate(cat):
    cert = cat.certificate("word-g168s3-23")
    assert cert.group.order == 6
    assert cert.group.degree == 7
    assert cert.pattern == (2, 3)


def test_anchor_resolution(cat):
    a5 = cat.group("group-a5")
    assert cat.anchor(a5, "a5-c2") is cat.subgroup("a5-c2")
    inline = cat.anchor(a5, ["()", "(1,2)(3,4)"])
    assert isinstance(inline, FactorSet) and len(inline) == 2
    with pytest.raises(CatalogInvalid):
        cat.anchor(cat.group("group-a4"), "a5-c2")


def test_unknown_ids(cat):
    assert issubclass(UnknownId, KeyError)
    for probe in (
        cat.group, cat.subgroup, cat.certificate, cat.search,
        cat.refutation, cat.multifold_table,
    ):
        with pytest.raises(UnknownId):
            probe("no-such-id")


def test_env_override(tmp_path, monkeypatch):
    target = tmp_path / "cat.json"
    shutil.copy(default_path(), target)
    monkeypatch.setenv("FACTORIX_CATALOG", str(target))
    assert default_path() == str(target)
    assert open_catalog().path == str(target)
    monkeypatch.delenv("FACTORIX_CATALOG")
    assert default_path().endswith("catalog.json")


def test_mini_catalog_resolves():
    good = mini_cat()
    assert good.group("g").order == 6
    assert len(good.subgroup("h")) == 3
    assert good.certificate("c-good").verify().valid


def test_group_order_cross_check():
    bad = mini_cat()
    bad.data["groups"]["g"]["order"] = 7
    with pytest.raises(CatalogInvalid):
        bad.group("g")


def test_subgroup_order_cross_check():
    bad = mini_cat()
    bad.data["subgroups"]["h"]["order"] = 2
    with pytest.raises(CatalogInvalid):
        bad.subgroup("h")


def test_certificate_pattern_cross_check():
    bad = mini_cat()
    bad.data["certificates"]["c-good"]["pattern"] = [3, 2]
    with pytest.raises(CatalogInvalid):
        bad.certificate("c-good")


def test_certificate_repeated_element():
    bad = mini_cat()
    bad.data["certificates"]["c-good"]["factors"][0] = ["()", "()"]
    with pytest.raises(CatalogInvalid):
        bad.certificate("c-good")


def test_certificate_must_verify():
    bad = mini_cat()
    bad.data["certificates"]["c-good"]["factors"] = [
        ["()", "(1,2)"], ["()", "(1,2)", "(1,2,3)"],
    ]
    with pytest.raises(CatalogInvalid):
        bad.certificate("c-good")


def test_search_and_refutation_entries(cat):
    spec = cat.search("search-lemma-4.5")
    assert spec["engine"] == "case1"
    assert spec["expected_solutions"] == 204
    assert spec["expected_space"] == 810
    assert cat.refutation("refute-a4-232")["expected"] == "NONE"
    assert cat.multifold_table("group-s4") == {"classes": {}}


@pytest.mark.parametrize("section, entry_id, key, value, resolve", [
    ("groups", "g", "degree", "3", "group"),
    ("groups", "g", "generators", "(1,2)", "group"),
    ("subgroups", "h", "group", ["g"], "subgroup"),
    ("subgroups", "h", "generators", 5, "subgroup"),
    ("certificates", "c-good", "group", 3, "certificate"),
    ("certificates", "c-good", "pattern", 5, "certificate"),
    ("certificates", "c-good", "factors", [["()", "(1,2)"], 7], "certificate"),
])
def test_wrong_value_types_are_invalid(section, entry_id, key, value, resolve):
    bad = mini_cat()
    bad.data[section][entry_id][key] = value
    with pytest.raises(CatalogInvalid):
        getattr(bad, resolve)(entry_id)


def test_inline_certificate_group_shape_checked():
    bad = mini_cat()
    bad.data["certificates"]["c-good"]["group"] = {"generators": ["(1,2)", "(1,2,3)"]}
    with pytest.raises(CatalogInvalid, match="'degree'"):
        bad.certificate("c-good")


@pytest.mark.parametrize("cert_id", ["lemma-3.5", "word-g168s3-23"])
def test_catalog_and_load_json_read_alike(cat, cert_id):
    """A catalog certificate, and the same document given to ``load_json``
    with its group id replaced by that group's spec, are one certificate."""
    spec = copy.deepcopy(cat.data["certificates"][cert_id])
    if isinstance(spec["group"], str):
        spec["group"] = {k: cat.data["groups"][spec["group"]][k] for k in ("degree", "generators")}
    ours = cat.certificate(cert_id)
    theirs = load_json(json.dumps(spec))
    assert theirs.group.elements == ours.group.elements
    assert [f.indices for f in theirs.factors] == [f.indices for f in ours.factors]
    assert to_dict(theirs) == to_dict(ours)
