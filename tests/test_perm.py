from __future__ import annotations

import pytest

from factorix.perm import (
    CycleFormatError, DegreeError, Perm, compose, format_cycles, identity,
    inverse, parse_cycles,
)


def test_parse_images():
    p = parse_cycles("(1,2,3)(4,5)", 5)
    assert p.images == (2, 3, 1, 5, 4)
    assert p.degree == 5


def test_parse_format_round_trip():
    for text in ["()", "(1,2)", "(1,2,3)(4,5)", "(2,4,7,6)(3,5)", "(1,6,3,5,2,4,7)"]:
        assert str(parse_cycles(text, 7)) == text


def test_identity():
    e = identity(4)
    assert e.is_identity()
    assert str(e) == "()"
    assert parse_cycles("()", 4) == e


def test_compose_left_to_right():
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(1,3)", 3)
    assert str(compose(p, q)) == "(1,2,3)"
    assert str(compose(q, p)) == "(1,3,2)"


def test_parse_composes_nondisjoint_cycles():
    assert str(parse_cycles("(1,2)(1,3)", 3)) == "(1,2,3)"


def test_call_applies_permutation():
    p = parse_cycles("(2,5)", 5)
    assert p(2) == 5
    assert p(5) == 2
    assert p(1) == 1


def test_inverse():
    p = parse_cycles("(1,2,3,4)", 4)
    assert str(inverse(p)) == "(1,4,3,2)"
    assert compose(p, inverse(p)).is_identity()


def test_format_starts_cycles_at_smallest_point():
    p = parse_cycles("(3,1,2)", 3)
    assert format_cycles(p) == "(1,2,3)"


def test_degree_bounds():
    with pytest.raises(DegreeError):
        Perm(())
    with pytest.raises(DegreeError):
        identity(17)
    with pytest.raises(DegreeError):
        compose(identity(3), identity(4))


def test_not_a_permutation():
    with pytest.raises(ValueError):
        Perm((1, 1, 3))


@pytest.mark.parametrize("bad", ["", "(1,2", "(1)", "(1,1)", "(1,9)", "xy", "(1,2)z"])
def test_cycle_format_errors(bad):
    with pytest.raises(CycleFormatError):
        parse_cycles(bad, 5)
