"""Multiset factorizations of finite permutation groups.

A k-factorization of a finite group G is a tuple of subsets (A1, ..., Ak)
such that every element of G is the product a1*a2*...*ak of exactly one
choice of a1 in A1, ..., ak in Ak.  This package verifies such
factorizations, transforms them, counts the feasible size patterns, searches
for new ones, and replays a catalog of known results.
"""

__version__ = "0.1.0"
