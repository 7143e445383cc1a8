"""Pattern bookkeeping: prime words of n, palindromes and reversal classes.

A prime word of n is an ordering of its prime factors with multiplicity;
words w and reverse(w) certify each other, so a multifold run certifies
one word per reversal class, represented by min(w, reversed(w)).
"""

from __future__ import annotations

from math import factorial


def prime_factors(n: int) -> list[int]:
    """Prime factors of n in nondecreasing order, with multiplicity."""
    if n < 2:
        return []
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _multiplicities(n: int) -> list[int]:
    primes = prime_factors(n)
    return [primes.count(p) for p in sorted(set(primes))]


def word_count(n: int) -> int:
    """Distinct prime words of n: omega! over the multiplicity factorials."""
    ks = _multiplicities(n)
    total = factorial(sum(ks))
    for k in ks:
        total //= factorial(k)
    return total


def palindrome_count(n: int) -> int:
    """Prime words of n equal to their own reversal.

    Zero when two or more prime multiplicities are odd; otherwise the half
    length multinomial, with the single odd prime forced onto the centre.
    """
    ks = _multiplicities(n)
    odd = [k for k in ks if k % 2]
    if len(odd) > 1:
        return 0
    halves = [(k - 1) // 2 if k % 2 else k // 2 for k in ks]
    total = factorial(sum(halves))
    for h in halves:
        total //= factorial(h)
    return total


def reversal_class_count(n: int) -> int:
    """Words counted up to reversal: (words + palindromes) / 2."""
    return (word_count(n) + palindrome_count(n)) // 2


def _distinct_permutations(items: list[int]):
    if not items:
        yield ()
        return
    prev = None
    for i, x in enumerate(items):
        if x == prev:
            continue
        prev = x
        rest = items[:i] + items[i + 1:]
        for tail in _distinct_permutations(rest):
            yield (x,) + tail


def enumerate_words(n: int) -> list[tuple[int, ...]]:
    """All prime words of n in lexicographic order."""
    return sorted(_distinct_permutations(prime_factors(n)))


def class_representative(word: tuple[int, ...]) -> tuple[int, ...]:
    return min(word, tuple(reversed(word)))


def enumerate_reversal_classes(n: int) -> list[tuple[int, ...]]:
    """One representative per reversal class: the lexicographic minimum of
    the word and its reversal, listed in lexicographic order."""
    return sorted({class_representative(w) for w in enumerate_words(n)})
