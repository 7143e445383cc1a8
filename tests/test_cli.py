from __future__ import annotations

import argparse
import copy
import io
import json
import signal
import time
from contextlib import contextmanager

import pytest

from factorix import cli
from factorix.certify import to_dict
from helpers import cert_json


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def spoiled(cat, cert_id, mutate):
    data = to_dict(cat.certificate(cert_id))
    mutate(data)
    return json.dumps(data)


def test_version():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# The flags each subcommand reads beyond --catalog and --json.
SUBCOMMAND_FLAGS = {
    "verify": set(),
    "search": {"--threads", "--budget"},
    "refute": {"--budget", "--cap-generic", "--strategy"},
    "patterns": set(),
    "multifold": {"--budget", "--cap-generic"},
    "repro": {"--threads"},
}


def test_each_subcommand_has_only_the_flags_it_reads():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    flags = {
        name: {o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, sub in subs.items()
    }
    assert flags == {name: {"--catalog", "--json"} | extra for name, extra in SUBCOMMAND_FLAGS.items()}
    assert sum(map(len, flags.values())) == 20


@pytest.mark.parametrize("argv", [
    ["repro", "all", "--budget", "1"],
    ["verify", "lemma-4.2", "--threads", "2"],
    ["patterns", "168", "--human"],
    # case3 stops at its first solution and has no every-solution mode
    ["search", "case3-lemma-3.6", "--find-all"],
])
def test_unread_flag_is_a_usage_error(capsys, argv):
    """Rejected by the parser, before any catalog or group table is read."""
    start = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("argv", [
    ["search", "search-lemma-3.5", "--threads", "0"],
    ["search", "search-lemma-3.5", "--threads", "-3"],
    ["repro", "all", "--threads", "0"],
    ["repro", "all", "--threads", "-3"],
    ["search", "search-lemma-3.5", "--budget", "nan"],
    ["search", "search-lemma-3.5", "--budget", "-1"],
    ["refute", "refute-a4-232", "--budget", "nan"],
    ["refute", "refute-a4-232", "--budget", "-1"],
    ["multifold", "group-s4", "--budget", "nan"],
    ["multifold", "group-s4", "--budget", "-0.5"],
])
def test_bad_threads_or_budget_is_a_usage_error(capsys, argv):
    """A thread count below 1, and a NaN or negative budget, are rejected by
    the parser before any catalog or group table is read."""
    start = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[2]}: must be a" in capsys.readouterr().err
    assert time.monotonic() - start < 0.5


def test_verify_catalog_id(capsys):
    rc, out, _ = run(capsys, "verify", "lemma-3.5")
    assert rc == 0
    assert out.startswith("VALID pattern (12,7,2) in a group of order 168")
    assert " * " in out


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "lemma-4.4", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["pattern"] == [18, 5, 2, 2]
    assert payload["certificate"]["factors"][0][0] == "()"


def test_verify_file(tmp_path, capsys, cat):
    target = tmp_path / "cert.json"
    target.write_text(cert_json(cat.certificate("lemma-3.5")))
    rc, out, _ = run(capsys, "verify", str(target))
    assert rc == 0
    assert out.startswith("VALID")


def test_verify_stdin(capsys, monkeypatch, cat):
    monkeypatch.setattr("sys.stdin", io.StringIO(cert_json(cat.certificate("lemma-3.5"))))
    rc, out, _ = run(capsys, "verify", "-")
    assert rc == 0


def test_verify_swapped_elements_exit1(capsys, monkeypatch, cat):
    def swap(data):
        data["factors"][1][1], data["factors"][2][1] = (
            data["factors"][2][1], data["factors"][1][1],
        )
    monkeypatch.setattr("sys.stdin", io.StringIO(spoiled(cat, "lemma-3.5", swap)))
    rc, out, _ = run(capsys, "verify", "-")
    assert rc == 1
    assert out.startswith("INVALID")


def test_verify_missing_element_exit2(capsys, monkeypatch, cat):
    def drop(data):
        data["factors"][0] = data["factors"][0][:-1]
    monkeypatch.setattr("sys.stdin", io.StringIO(spoiled(cat, "lemma-3.5", drop)))
    rc, _, err = run(capsys, "verify", "-")
    assert rc == 2
    assert "declared factor size 12 but 11 elements given" in err


def test_verify_foreign_element_exit2(capsys, monkeypatch, cat):
    def replace(data):
        data["factors"][1][1] = "(1,2)"
    monkeypatch.setattr("sys.stdin", io.StringIO(spoiled(cat, "lemma-3.5", replace)))
    rc, _, err = run(capsys, "verify", "-")
    assert rc == 2
    assert "element not in the declared group: (1,2)" in err


def test_verify_unknown_id_exit2(capsys):
    rc, _, err = run(capsys, "verify", "no-such-entry")
    assert rc == 2
    assert err.strip() == "factorix: unknown catalog id: no-such-entry"


def test_verify_missing_catalog_exit2(capsys):
    rc, _, err = run(capsys, "verify", "lemma-3.5", "--catalog", "/no/such/file.json")
    assert rc == 2
    assert err.startswith("factorix:")


def test_search_human(capsys):
    rc, out, _ = run(capsys, "search", "search-lemma-3.5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "search-lemma-3.5: engine case2, pattern (12,7,2)"
    assert "  solutions: 8 (want 8)" in lines
    assert "  space: 924 (want 924)" in lines
    assert lines[-1] == "PASS"
    assert sum(1 for line in lines if line.startswith("  {")) == 8


def test_search_json_solutions_round_trip(tmp_path, capsys):
    rc, out, _ = run(capsys, "search", "search-lemma-3.5", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["solutions"]) == 8
    target = tmp_path / "sol.json"
    target.write_text(json.dumps(payload["solutions"][0]))
    rc2, out2, _ = run(capsys, "verify", str(target))
    assert rc2 == 0 and out2.startswith("VALID")


def test_search_budget_exit3(capsys):
    # case1 enumerates search-lemma-4.5 in under 0.01 s; a zero budget cuts it
    rc, _, _ = run(capsys, "search", "search-lemma-4.5", "--budget", "0")
    assert rc == 3


def test_search_unknown_exit2(capsys):
    rc, _, err = run(capsys, "search", "search-nothing")
    assert rc == 2 and "unknown catalog id" in err


def test_refute_catalog_entry(capsys):
    rc, out, _ = run(capsys, "refute", "refute-a4-232")
    assert rc == 0
    assert "verdict NONE (want NONE)" in out


def test_refute_catalog_entry_flags_override_the_entry(capsys):
    # the entry asks for the generic engine; both flags override it
    rc, out, _ = run(capsys, "refute", "refute-a4-232", "--strategy", "reduction",
                     "--cap-generic", "1", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert (payload["strategy"], payload["instances"], payload["verdict"]) == ("coset-parity", 3, "NONE")
    # without the flags the entry's generic strategy runs
    rc, out, _ = run(capsys, "refute", "refute-a4-232", "--json")
    assert rc == 0
    assert (json.loads(out)["strategy"], json.loads(out)["instances"]) == ("generic", 285)


def test_refute_catalog_entry_cap_generic_overrides(tmp_path, capsys, cat):
    # an auto entry whose pattern has no 2-...-2 reduction: the generic cap decides
    data = copy.deepcopy(cat.data)
    data["refutations"]["refute-a4-232"].update(pattern=[3, 2, 2], strategy="auto")
    target = tmp_path / "catalog.json"
    target.write_text(json.dumps(data))
    rc, out, _ = run(capsys, "refute", "refute-a4-232", "--catalog", str(target))
    assert rc == 1 and "verdict FOUND" in out
    rc, out, _ = run(capsys, "refute", "refute-a4-232", "--catalog", str(target), "--cap-generic", "1")
    assert rc == 3 and "verdict UNKNOWN" in out and "strategy none-applicable" in out


def test_refute_adhoc_found_exit1(capsys):
    rc, out, _ = run(capsys, "refute", "group-s4", "2,3,2,2")
    assert rc == 1
    assert out.startswith("FOUND: pattern (2,3,2,2) in group-s4")
    assert " * " in out


def test_refute_adhoc_none_exit0(capsys):
    rc, out, _ = run(capsys, "refute", "group-a4", "2,3,2", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NONE"
    assert payload["strategy"] == "coset-parity"


def test_refute_adhoc_forced_generic(capsys):
    rc, out, _ = run(capsys, "refute", "group-a4", "2,3,2", "--strategy", "generic", "--json")
    assert rc == 0
    assert json.loads(out)["strategy"] == "generic"


def test_refute_budget_exit3(capsys):
    rc, _, _ = run(capsys, "refute", "group-a5", "2,15,2", "--budget", "0")
    assert rc == 3


def test_patterns_order(capsys):
    rc, out, _ = run(capsys, "patterns", "168")
    assert rc == 0
    lines = out.splitlines()
    assert "prime words      20" in lines
    assert "palindromes      0" in lines
    assert "reversal classes 10" in lines
    assert "  2,2,2,3,7" in lines


def test_patterns_group_id(capsys):
    rc, out, _ = run(capsys, "patterns", "group-s4", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["order"] == 24
    assert payload["words"] == 4
    assert payload["classes"] == [[2, 2, 2, 3], [2, 2, 3, 2]]


def test_patterns_a6_counts(capsys):
    rc, out, _ = run(capsys, "patterns", "360", "--json")
    payload = json.loads(out)
    assert payload["words"] == 60
    assert payload["palindromes"] == 0
    assert len(payload["classes"]) == 30


def test_patterns_rejects_nonpositive(capsys):
    rc, _, err = run(capsys, "patterns", "0")
    assert rc == 2
    assert err.startswith("factorix:")


class Overran(BaseException):
    """Raised by ``within``; no ``except Exception`` in the CLI catches it."""


@contextmanager
def within(seconds):
    """Abort the block once ``seconds`` of wall time have passed, so a slow
    path fails the test instead of hanging the suite or growing memory."""
    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("order", ["1000000016000000063", "7420738134810", "10001"])
def test_patterns_rejects_orders_above_the_cap(capsys, order):
    """Orders past the table cap exit 2 before any factoring or word
    enumeration starts."""
    with within(0.5):
        rc, _, err = run(capsys, "patterns", order)
    assert rc == 2
    assert err.startswith("factorix:")


def test_patterns_accepts_the_cap(capsys):
    rc, out, _ = run(capsys, "patterns", "10000", "--json")
    assert rc == 0
    assert json.loads(out)["order"] == 10000


def test_verify_group_past_the_table_cap_exit2(capsys, monkeypatch):
    """A small, well-formed certificate that declares S7 (order 5040) stops
    the table build at the cap instead of tabulating the group."""
    doc = '{"group":{"degree":7,"generators":["(1,2)","(1,2,3,4,5,6,7)"]},"pattern":[1],"factors":[["()"]]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    with within(0.5):
        rc, out, err = run(capsys, "verify", "-")
    assert rc == 2
    assert out == ""
    assert err == "factorix: group order exceeds 1000\n"


@pytest.mark.parametrize("group, pattern", [
    ("group-a4", "-2,-3,2"),
    ("group-a5", "-2,-30,1"),
    ("group-a5", "2,-3,-5,2"),
    ("group-a4", "12,1,0"),
])
def test_refute_adhoc_rejects_nonpositive_sizes(capsys, group, pattern):
    """Rejected before any engine runs, also where the sizes multiply to
    the group order."""
    with within(0.5):
        rc, out, err = run(capsys, "refute", group, "--", pattern)
    assert rc == 2
    assert out == ""
    assert err == "factorix: factor sizes must be positive\n"


def test_multifold_human(capsys):
    rc, out, _ = run(capsys, "multifold", "group-168")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == (
        "group-168 (order 168): MULTIFOLD-CERTIFIED, 10/10 classes certified"
    )
    assert sum(1 for line in lines if line.startswith("  ok ")) == 10


def test_multifold_incomplete_exit1(capsys):
    rc, out, _ = run(capsys, "multifold", "group-a4")
    assert rc == 1
    assert "INCOMPLETE" in out
    assert "(no factorization found)" in out


def test_multifold_budget_exit3(capsys):
    rc, out, _ = run(capsys, "multifold", "group-a5", "--budget", "0.05")
    assert rc == 3
    assert "(budget exhausted)" in out


def test_repro_scoped(capsys):
    rc, out, _ = run(capsys, "repro", "lemma-3.5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "2/2 PASS"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_repro_json(capsys):
    rc, out, _ = run(capsys, "repro", "patterns", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert [r["id"] for r in payload["rows"]] == [
        "patterns-group-168", "patterns-group-a6", "patterns-group-s4",
    ]


def test_repro_unknown_scope_exit2(capsys):
    rc, _, err = run(capsys, "repro", "nothing-matches-this")
    assert rc == 2
    assert "matches no repro entries" in err


@pytest.mark.parametrize("data", [
    {"group": {"degree": 3, "generators": [1]}, "pattern": [1], "factors": [["()"]]},
    {"group": {"degree": 3, "generators": ["(1,2)"]}, "pattern": [2], "factors": [[1, 2]]},
    {"group": {"degree": 3, "generators": ["(1,2)"]}, "pattern": [1], "factors": [5]},
], ids=["int-generator", "int-elements", "int-factor"])
def test_verify_wrong_value_types_exit2(tmp_path, capsys, data):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(data))
    rc, _, err = run(capsys, "verify", str(target))
    assert rc == 2
    assert err.startswith("factorix:")


def test_catalog_int_generator_exit2(tmp_path, capsys, cat):
    data = copy.deepcopy(cat.data)
    data["groups"]["group-s4"]["generators"][0] = 1
    target = tmp_path / "catalog.json"
    target.write_text(json.dumps(data))
    rc, _, err = run(capsys, "multifold", "group-s4", "--catalog", str(target))
    assert rc == 2
    assert err.startswith("factorix:")


def _drop(section, entry_id, key):
    return lambda data: data[section][entry_id].pop(key)


def _string(section, entry_id):
    return lambda data: data[section].__setitem__(entry_id, "not an object")


def _set(section, entry_id, key, value):
    return lambda data: data[section][entry_id].__setitem__(key, value)


def _refine(**changes):
    """A change to group-168's refine recipe for (2,2,3,7,2); inline
    ``parts`` take the place of its certificate."""
    def mutate(data):
        recipe = data["multifold"]["group-168"]["classes"]["2,2,3,7,2"]
        if "parts" in changes:
            del recipe["certificate"]
        recipe.update(changes)
    return mutate


# A search's subgroup end as an inline list of the right size that is not
# a subgroup: the subgroup's elements with the last swapped for the least
# element that breaks closure.
NOT_SUBGROUPS = {
    "search-lemma-3.5": ("first", [
        "()", "(3,4)(5,6)", "(3,5)(4,6)", "(3,6)(4,5)", "(2,3)(5,7)", "(1,2,7)(4,6,5)",
        "(1,2,7)(3,4,5)", "(1,2,7)(3,5,6)", "(1,2,7)(3,6,4)", "(1,7,2)(4,5,6)", "(1,7,2)(3,4,6)",
        "(1,7,2)(3,5,4)",
    ]),
    "search-lemma-4.5": ("first", [
        "()", "(4,5,6)", "(4,6,5)", "(3,4)(5,6)", "(1,2,3)", "(1,2,3)(4,5,6)", "(1,2,3)(4,6,5)",
        "(1,3,2)", "(1,3,2)(4,5,6)",
    ]),
    "case3-lemma-3.6": ("first", [
        "()", "(3,4)(5,6)", "(3,5)(4,6)", "(2,3)(5,7)", "(2,3,4)(5,6,7)", "(2,4,3)(5,7,6)",
    ]),
    "search-lemma-4.7": ("last", [
        "()", "(4,5,6)", "(2,3)(4,5)", "(1,2)(3,4)", "(1,2,4,5,3)", "(1,3,5,4,2)", "(1,3)(2,5)",
        "(1,4)(3,5)", "(1,4,3,2,5)", "(1,5,2,3,4)",
    ]),
}


@pytest.mark.parametrize("mutate, argv", [
    (_drop("groups", "group-s4", "degree"), ["multifold", "group-s4"]),
    (_string("groups", "group-s4"), ["multifold", "group-s4"]),
    (_drop("groups", "group-s4", "order"), ["multifold", "group-s4"]),
    (_drop("certificates", "lemma-4.2", "pattern"), ["verify", "lemma-4.2"]),
    (_string("certificates", "lemma-4.2"), ["verify", "lemma-4.2"]),
    (_drop("subgroups", "a5-c2", "order"), ["repro", "all"]),
    (_drop("searches", "search-lemma-3.5", "middle"), ["search", "search-lemma-3.5"]),
    (_drop("refutations", "refute-a4-232", "pattern"), ["refute", "refute-a4-232"]),
    (_string("multifold", "group-s4"), ["multifold", "group-s4"]),
    (lambda data: data["multifold"]["group-168"]["classes"]["2,2,2,3,7"].pop("subgroup"),
     ["multifold", "group-168"]),
    (lambda data: data["double_cosets"][0].pop("b"), ["repro", "double-cosets"]),
    (_set("refutations", "refute-a4-232", "budget_s", "10"), ["refute", "refute-a4-232"]),
    (_set("refutations", "refute-a4-232", "pattern", ["2", "3", "2"]), ["refute", "refute-a4-232"]),
    (_set("refutations", "refute-a4-232", "budget_s", float("nan")), ["refute", "refute-a4-232"]),
    (_set("refutations", "refute-a4-232", "budget_s", -1), ["refute", "refute-a4-232"]),
    (_set("searches", "search-lemma-3.5", "budget_s", -0.5), ["search", "search-lemma-3.5"]),
    (lambda data: data["multifold"]["group-168"]["classes"]["2,2,2,7,3"].__setitem__(
        "a_certificate", ["word-g168p2-222"]), ["multifold", "group-168"]),
    (_set("searches", "case3-lemma-3.6", "b_size", 0), ["search", "case3-lemma-3.6"]),
    (lambda data: data["searches"]["case3-lemma-3.6"].update(b_size=-2, c_size=-7),
     ["search", "case3-lemma-3.6"]),
    *[(_set("searches", sid, *end), ["search", sid]) for sid, end in NOT_SUBGROUPS.items()],
    (lambda data: data.__setitem__("certificates", []), ["verify", "lemma-4.2"]),
    (_refine(position=99), ["multifold", "group-168"]),
    (_refine(position=-1), ["multifold", "group-168"]),
    (_refine(parts=[]), ["multifold", "group-168"]),
], ids=["group-no-degree", "group-string", "group-no-order", "cert-no-pattern", "cert-string",
        "subgroup-no-order", "search-no-middle", "refutation-no-pattern", "multifold-string",
        "lift-no-subgroup", "double-coset-no-b", "refutation-string-budget",
        "refutation-string-pattern", "refutation-nan-budget", "refutation-negative-budget",
        "search-negative-budget", "sandwich-list-certificate", "case3-zero-b-size",
        "case3-negative-sizes", *[f"{sid}-not-a-subgroup" for sid in NOT_SUBGROUPS],
        "certificates-list", "refine-position-past-end", "refine-position-negative",
        "refine-no-parts"])
def test_catalog_wrong_entry_shape_exit2(tmp_path, capsys, cat, mutate, argv):
    data = copy.deepcopy(cat.data)
    mutate(data)
    target = tmp_path / "catalog.json"
    target.write_text(json.dumps(data))
    rc, _, err = run(capsys, *argv, "--catalog", str(target))
    assert rc == 2
    assert err.startswith("factorix:") and err.count("\n") == 1


# Deeper than the JSON reader's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", ["[]", '"x"', DEEP], ids=["list", "string", "deep"])
def test_catalog_not_an_object_exit2(tmp_path, capsys, text):
    target = tmp_path / "catalog.json"
    target.write_text(text)
    rc, _, err = run(capsys, "verify", "lemma-4.2", "--catalog", str(target))
    assert rc == 2
    assert err.startswith("factorix:") and err.count("\n") == 1


def test_verify_deep_nesting_exit2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(DEEP))
    rc, _, err = run(capsys, "verify", "-")
    assert rc == 2
    assert err == "factorix: not JSON: nested too deeply\n"


def test_verify_declared_size_rejected_before_table(tmp_path, capsys, monkeypatch):
    """A short document naming S7 (order 5040) fails on its declared size
    without tabulating the group."""
    def no_table(*args, **kwargs):
        raise AssertionError("a group table was built")

    monkeypatch.setattr("factorix.certify.generate_group", no_table)
    target = tmp_path / "s7.json"
    target.write_text('{"group":{"degree":7,"generators":["(1,2)","(1,2,3,4,5,6,7)"]},'
                      '"pattern":[5040],"factors":[["()"]]}')
    start = time.monotonic()
    rc, _, err = run(capsys, "verify", str(target))
    assert rc == 2 and time.monotonic() - start < 2.0
    assert err == "factorix: declared factor size 5040 but 1 elements given\n"
