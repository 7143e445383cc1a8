from __future__ import annotations

import pytest

from factorix.group import (
    ElementNotInGroup, FactorSet, OrderCapExceeded, bits_of, generate_group,
    iter_bits,
)
from factorix.perm import compose, identity, parse_cycles
from helpers import group_from


def test_bits_round_trip():
    assert bits_of([0, 3, 5]) == 0b101001
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_generate_s3(s3):
    assert s3.order == 6
    assert s3.degree == 3
    assert s3.elements[0].is_identity()
    orders = sorted(s3.element_orders)
    assert orders == [1, 2, 2, 2, 3, 3]


def test_elements_sorted_by_images(s3):
    images = [p.images for p in s3.elements]
    assert images == sorted(images)


def test_index_of_round_trip(s4):
    for i, p in enumerate(s4.elements):
        assert s4.index_of(p) == i
    assert parse_cycles("(1,2,3,4)", 4) in s4


def test_index_of_rejects_outsiders(a4):
    with pytest.raises(ElementNotInGroup):
        a4.index_of(parse_cycles("(1,2)", 4))
    assert parse_cycles("(1,2)", 4) not in a4


def test_multiplication_matches_compose(s4):
    for a in (0, 5, 11, 23):
        pa = s4.elements[a]
        for b in (0, 7, 13, 22):
            pb = s4.elements[b]
            assert s4.elements[s4.mul_idx(a, b)] == compose(pa, pb)


def test_inverse_table(s4):
    for i in range(s4.order):
        assert s4.mul_idx(i, s4.inv[i]) == 0
        assert s4.mul_idx(s4.inv[i], i) == 0


def test_element_order_table(c6):
    assert sorted(c6.element_orders) == [1, 2, 3, 3, 6, 6]
    r = c6.index_of(parse_cycles("(1,2,3,4,5,6)", 6))
    assert c6.element_orders[r] == 6


def test_conjugate_idx(s3):
    x = s3.index_of(parse_cycles("(1,2)", 3))
    g = s3.index_of(parse_cycles("(1,2,3)", 3))
    expect = s3.index_of(parse_cycles("(2,3)", 3))
    assert s3.conjugate_idx(x, g) == expect


def test_closure_indices(a4):
    three = a4.index_of(parse_cycles("(1,2,3)", 4))
    assert a4.closure_indices([three]) == sorted(a4.closure_indices([three]))
    assert len(a4.closure_indices([three])) == 3
    assert a4.closure_indices([]) == [0]


def test_generate_empty_generators():
    g = generate_group([], degree=5)
    assert g.order == 1
    assert g.degree == 5


def test_generate_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        generate_group([identity(3), identity(4)])
    with pytest.raises(ValueError):
        generate_group([identity(3)], degree=4)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        group_from(16, "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16)", "(1,2)")


def test_factor_set_normalizes_input(c6):
    f = FactorSet(c6, (3, 1, 3, 0))
    assert f.indices == (0, 1, 3)
    assert len(f) == 3
    assert 1 in f and 2 not in f
    assert bits_of(f.indices) == 0b1011
    assert f.contains_identity()


def test_factor_set_inverse(s3):
    f = FactorSet(s3, tuple(range(6)))
    assert f.inverse().indices == f.indices
    g = FactorSet(s3, (s3.index_of(parse_cycles("(1,2,3)", 3)),))
    assert g.inverse().indices == (s3.index_of(parse_cycles("(1,3,2)", 3)),)
