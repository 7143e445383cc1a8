from __future__ import annotations

import pytest

from factorix.patterns import (
    class_representative, enumerate_reversal_classes, enumerate_words,
    palindrome_count, prime_factors, reversal_class_count, word_count,
)
from helpers import enumerate_ordered_factorizations, omega_reduction


def test_prime_factors():
    assert prime_factors(360) == [2, 2, 2, 3, 3, 5]
    assert prime_factors(168) == [2, 2, 2, 3, 7]
    assert prime_factors(97) == [97]
    assert prime_factors(1) == []


def test_omega():
    assert omega_reduction(168) == 5
    assert omega_reduction(360) == 6
    assert omega_reduction(1) == 0


def test_word_counts():
    assert word_count(168) == 20
    assert word_count(360) == 60
    assert word_count(24) == 4
    assert word_count(36) == 6


def test_palindrome_counts():
    assert palindrome_count(168) == 0
    assert palindrome_count(360) == 0
    assert palindrome_count(36) == 2   # 2332 and 3223
    assert palindrome_count(16) == 1
    assert palindrome_count(12) == 1   # 232


def test_class_counts():
    assert reversal_class_count(168) == 10
    assert reversal_class_count(360) == 30
    assert reversal_class_count(24) == 2
    assert reversal_class_count(36) == 4


def test_enumerate_words():
    assert enumerate_words(12) == [(2, 2, 3), (2, 3, 2), (3, 2, 2)]
    assert enumerate_words(7) == [(7,)]
    assert enumerate_words(1) == [()]


def test_class_representative():
    assert class_representative((7, 3, 2)) == (2, 3, 7)
    assert class_representative((2, 3, 7)) == (2, 3, 7)
    assert class_representative((2, 3, 2)) == (2, 3, 2)


def test_enumerate_reversal_classes():
    assert enumerate_reversal_classes(12) == [(2, 2, 3), (2, 3, 2)]
    classes = enumerate_reversal_classes(168)
    assert len(classes) == 10
    assert all(w == class_representative(w) for w in classes)
    assert classes == sorted(classes)


@pytest.mark.parametrize("n", list(range(2, 120)))
def test_counting_formulas_against_enumeration(n):
    words = enumerate_words(n)
    assert len(words) == word_count(n)
    pals = [w for w in words if w == tuple(reversed(w))]
    assert len(pals) == palindrome_count(n)
    assert len({class_representative(w) for w in words}) == reversal_class_count(n)


def test_ordered_factorizations():
    assert enumerate_ordered_factorizations(12, 2) == [(2, 6), (3, 4), (4, 3), (6, 2)]
    assert enumerate_ordered_factorizations(12, 1) == [(12,)]
    assert enumerate_ordered_factorizations(1, 0) == [()]
    assert enumerate_ordered_factorizations(12, 0) == []
    assert all(len(t) == 3 for t in enumerate_ordered_factorizations(30, 3))
