from __future__ import annotations

import json
import random

import pytest

from factorix import certify
from factorix.certify import (
    ConditionFailed, InvalidPosition, MalformedCertificate, Verdict, certificate,
    compose_sandwich, divisibility_prune, from_dict,
    lift_by_transversal, load_json, merge_adjacent,
    normalize, product_distinct, replace_factor, reverse, to_dict,
    verify_certificate,
)
from factorix.perm import parse_cycles
from factorix.structure import subgroup_from_perms
from helpers import (
    all_subgroups, cert_from, cert_json, conjugate_intersection_trivial, fs,
    group_from, reference_verdict, standalone_table, strip_singletons,
)


def sub(group, *texts):
    return subgroup_from_perms(group, [parse_cycles(t, group.degree) for t in texts])


R = "(1,2,3,4,5,6)"
R2 = "(1,3,5)(2,4,6)"
R3 = "(1,4)(2,5)(3,6)"
R4 = "(1,5,3)(2,6,4)"
R5 = "(1,6,5,4,3,2)"


def test_product_distinct(c6):
    a = fs(c6, R, "()").indices
    b = fs(c6, "()", R2, R4).indices
    out = product_distinct(c6, a, b)
    assert out == [c6.mul_idx(x, y) for x in a for y in b]
    assert sorted(out) == list(range(6))
    # row order: x outer, y inner, in the order the sequences give them
    assert product_distinct(c6, a[::-1], b) == out[3:] + out[:3]
    assert product_distinct(c6, [0], b) == list(b)
    assert product_distinct(c6, a, fs(c6, "()", R, R2).indices) is None
    # more products than elements collide without any being formed
    assert product_distinct(c6, a, range(4)) is None


def test_verify_valid(c6):
    cert = cert_from(c6, ("()", R), ("()", R2, R4))
    v = verify_certificate(cert)
    assert v.valid
    assert v.product_size == 6
    assert cert.pattern == (2, 3)
    assert cert.is_normalized


def test_verify_collision(c6):
    cert = cert_from(c6, ("()", R), ("()", R, R2))
    v = verify_certificate(cert)
    assert not v.valid
    assert v.failing_prefix == 2
    assert "collides" in v.message


def test_verify_undersized_product(c6):
    cert = cert_from(c6, ("()", R3))
    v = verify_certificate(cert)
    assert not v.valid
    assert v.failing_prefix is None
    assert v.product_size == 2


def test_verify_empty_factor(c6):
    cert = certificate(c6, [(0,), ()])
    assert verify_certificate(cert).message == "empty factor"


def test_verify_caches(c6, monkeypatch):
    cert = cert_from(c6, ("()", R), ("()", R2, R4))
    assert cert.verify().valid

    def no_verifier(cert):
        raise AssertionError("the verifier ran again")

    monkeypatch.setattr(certify, "verify_certificate", no_verifier)
    assert cert.verify() is cert.verify()


def corruptions(cert, rng):
    """Seeded corruptions of a certificate: one element replaced by one
    outside its factor, one factor emptied, two factors swapped, and the
    last factor dropped."""
    g, factors = cert.group, [list(f.indices) for f in cert.factors]
    i = rng.randrange(len(factors))
    replaced = [list(f) for f in factors]
    replaced[i][rng.randrange(len(factors[i]))] = rng.choice(
        [x for x in range(g.order) if x not in factors[i]])
    emptied = [list(f) for f in factors]
    emptied[i] = []
    j, k = sorted(rng.sample(range(len(factors)), 2))
    swapped = [list(f) for f in factors]
    swapped[j], swapped[k] = swapped[k], swapped[j]
    return [certificate(g, index_sets) for index_sets in (replaced, emptied, swapped, factors[:-1])]


def test_verdict_matches_brute_force_reference(cat):
    """Every catalog certificate, and four seeded corruptions of each, get
    the same four Verdict fields from the verifier and from the brute-force
    reference; the corruptions reach every kind of verdict."""
    rng = random.Random(22)
    kinds = set()
    for cid in cat.ids("certificates"):
        cert = cat.certificate(cid)
        assert verify_certificate(cert) == reference_verdict(cert) == Verdict(True, None, cert.group.order)
        for bad in corruptions(cert, rng):
            got = verify_certificate(bad)
            assert got == reference_verdict(bad), cid
            kinds.add(got.message.split(" ")[0])
    assert kinds == {"", "empty", "prefix", "product"}


def test_reverse(c6):
    cert = cert_from(c6, ("()", R), ("()", R2, R4))
    rev = reverse(cert)
    assert rev.pattern == (3, 2)
    assert rev.verify().valid
    back = reverse(rev)
    assert [f.indices for f in back.factors] == [f.indices for f in cert.factors]


def test_normalize(c6):
    shifted = cert_from(c6, (R, R4), ("()", R2, R4))
    assert shifted.verify().valid
    assert not shifted.is_normalized
    norm = normalize(shifted)
    assert norm.is_normalized
    assert norm.verify().valid
    assert norm.pattern == shifted.pattern


def test_merge_adjacent(c6):
    cert = cert_from(c6, ("()", R), ("()", R2, R4))
    merged = merge_adjacent(cert, 0)
    assert merged.pattern == (6,)
    assert merged.verify().valid
    with pytest.raises(InvalidPosition):
        merge_adjacent(cert, 1)
    bad = cert_from(c6, ("()", R), ("()", R))
    with pytest.raises(ConditionFailed):
        merge_adjacent(bad, 0)


def test_replace_factor(c6):
    whole = cert_from(c6, ("()", R, R2, R3, R4, R5))
    split = replace_factor(whole, 0, [fs(c6, "()", R3), fs(c6, "()", R2, R4)])
    assert split.pattern == (2, 3)
    assert split.verify().valid
    with pytest.raises(InvalidPosition, match="^factor position 3 outside 0..0$"):
        replace_factor(whole, 3, [fs(c6, "()")])
    with pytest.raises(ConditionFailed):
        replace_factor(whole, 0, [])
    with pytest.raises(ConditionFailed):
        replace_factor(whole, 0, [fs(c6, "()", R), fs(c6, "()", R, R2)])
    with pytest.raises(ConditionFailed):
        replace_factor(whole, 0, [fs(c6, "()", R), fs(c6, "()", R2)])


def test_strip_singletons(c6):
    cert = cert_from(c6, ("()", R), (R2,), ("()", R2, R4))
    assert cert.verify().valid
    lean = strip_singletons(cert)
    assert lean.pattern == (2, 3)
    assert lean.verify().valid
    one = strip_singletons(cert_from(c6, ("()",), ("()", R, R2, R3, R4, R5)))
    assert one.pattern == (6,)


def test_lift_by_transversal(s3):
    a3 = sub(s3, "(1,2,3)")
    inner = cert_from(standalone_table(a3), ("()", "(1,2,3)", "(1,3,2)"))
    lifted = lift_by_transversal(inner, a3, side="right")
    assert lifted.pattern == (3, 2)
    assert lifted.verify().valid
    lifted_left = lift_by_transversal(inner, a3, side="left")
    assert lifted_left.pattern == (2, 3)
    assert lifted_left.verify().valid
    with pytest.raises(ValueError):
        lift_by_transversal(inner, a3, side="middle")


def test_lift_embeds_lower_degree(s4):
    c3 = sub(s4, "(1,2,3)")
    small = group_from(3, "(1,2,3)")
    inner = cert_from(small, ("()", "(1,2,3)", "(1,3,2)"))
    lifted = lift_by_transversal(inner, c3, side="right")
    assert lifted.pattern == (3, 8)
    assert lifted.verify().valid


def test_compose_sandwich(s4):
    v4 = sub(s4, "(1,2)(3,4)", "(1,3)(2,4)")
    c3 = sub(s4, "(1,2,3)")
    cert = compose_sandwich(v4, c3)
    assert cert.pattern == (4, 2, 3)
    assert cert.verify().valid
    inner = cert_from(standalone_table(v4), ("()", "(1,2)(3,4)"), ("()", "(1,3)(2,4)"))
    finer = compose_sandwich(v4, c3, a_cert=inner)
    assert finer.pattern == (2, 2, 2, 3)
    assert finer.verify().valid


def test_compose_sandwich_strips_single_coset(s3):
    a3 = sub(s3, "(1,2,3)")
    c2 = sub(s3, "(1,2)")
    cert = compose_sandwich(a3, c2)
    assert cert.pattern == (3, 2)
    assert cert.verify().valid


def test_compose_sandwich_rejects_meeting_conjugates(s3):
    c2 = sub(s3, "(1,2)")
    other = sub(s3, "(1,3)")
    with pytest.raises(ConditionFailed):
        compose_sandwich(c2, other)


def test_compose_sandwich_fails_exactly_when_conjugates_meet(s4):
    subgroups = all_subgroups(s4)
    for a in subgroups:
        for b in subgroups:
            if conjugate_intersection_trivial(a, b):
                assert compose_sandwich(a, b).verify().valid
            else:
                with pytest.raises(ConditionFailed):
                    compose_sandwich(a, b)


def test_divisibility_prune(s3):
    assert divisibility_prune(fs(s3, "()", "(1,2)"))
    assert divisibility_prune(fs(s3, "()", "(1,2)", "(1,3)"))
    assert not divisibility_prune(fs(s3, "()", "(1,2)", "(1,3)", "(2,3)"))


def test_dict_round_trip(c6):
    cert = cert_from(c6, ("()", R), ("()", R2, R4))
    data = to_dict(cert)
    assert data["pattern"] == [2, 3]
    again = from_dict(data)
    assert to_dict(again) == data
    assert again.verify().valid


def test_json_round_trip(s4):
    cert = cert_from(s4, ("()", "(1,2)"), ("()", "(1,2,3)", "(1,3,2)"), ("()", "(1,2,3,4)", "(1,3)(2,4)", "(1,4,3,2)"))
    assert cert.verify().valid
    text = cert_json(cert)
    again = load_json(text)
    assert to_dict(again) == to_dict(cert)


def test_from_dict_malformed(c6):
    good = to_dict(cert_from(c6, ("()", R), ("()", R2, R4)))

    with pytest.raises(MalformedCertificate):
        from_dict({})
    missing = json.loads(json.dumps(good))
    del missing["pattern"]
    with pytest.raises(MalformedCertificate):
        from_dict(missing)
    short = json.loads(json.dumps(good))
    short["factors"][0] = short["factors"][0][:1]
    with pytest.raises(MalformedCertificate):
        from_dict(short)
    repeated = json.loads(json.dumps(good))
    repeated["factors"][1][2] = repeated["factors"][1][1]
    with pytest.raises(MalformedCertificate):
        from_dict(repeated)
    lengths = json.loads(json.dumps(good))
    lengths["pattern"] = [2]
    with pytest.raises(MalformedCertificate):
        from_dict(lengths)
    with pytest.raises(MalformedCertificate):
        load_json("not json at all {")


def _set(path, value):
    def edit(data):
        *keys, last = path
        for k in keys:
            data = data[k]
        data[last] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set(("group", "degree"), "6"),
    _set(("group", "degree"), 17),
    _set(("pattern",), [2.0, 3]),
    _set(("factors", 1, 1), "(1,3,5"),
    _set(("factors", 1, 2), "(3,5,1)(6,2,4)"),
    _set(("factors",), [["()", R], ["()", R2, R4], ["()"]]),
], ids=["string-degree", "degree-17", "float-size", "cycle-syntax", "repeat-by-images", "lengths"])
def test_from_dict_rejects_malformed_before_table(c6, monkeypatch, edit):
    data = to_dict(cert_from(c6, ("()", R), ("()", R2, R4)))
    edit(data)

    def no_table(*args, **kwargs):
        raise AssertionError("a group table was built")

    monkeypatch.setattr("factorix.certify.generate_group", no_table)
    with pytest.raises(MalformedCertificate):
        from_dict(data)
