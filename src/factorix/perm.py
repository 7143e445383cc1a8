"""Permutations on the points 1..degree, with disjoint-cycle text notation.

Products compose left to right: ``compose(p, q)`` maps ``i`` to ``q(p(i))``,
so a factor word A1*A2*...*Ak is evaluated in reading order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

MAX_DEGREE = 16


class DegreeError(ValueError):
    pass


class CycleFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Perm:
    """A permutation stored as its image tuple: images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1 or n > MAX_DEGREE:
            raise DegreeError(f"degree {n} outside 1..{MAX_DEGREE}")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __str__(self) -> str:
        return format_cycles(self)

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))


def identity(degree: int) -> Perm:
    return Perm(tuple(range(1, degree + 1)))


def compose(p: Perm, q: Perm) -> Perm:
    """Product "p then q": the result maps i to q(p(i))."""
    if p.degree != q.degree:
        raise DegreeError(f"degree mismatch: {p.degree} vs {q.degree}")
    qi = q.images
    return Perm(tuple(qi[j - 1] for j in p.images))


def inverse(p: Perm) -> Perm:
    inv = [0] * p.degree
    for i, j in enumerate(p.images, start=1):
        inv[j - 1] = i
    return Perm(tuple(inv))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(1,2,3)(4,5)"; "()" is the identity.

    Cycles are composed left to right, so non-disjoint input is accepted.
    """
    if not isinstance(text, str):
        raise CycleFormatError(f"permutation text is not a string: {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise CycleFormatError("empty permutation text")
    if _CYCLE_RE.sub("", s):
        raise CycleFormatError(f"stray characters in {text!r}")
    result = identity(degree)
    for body in _CYCLE_RE.findall(s):
        if not body:
            continue
        try:
            points = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise CycleFormatError(f"bad cycle {body!r} in {text!r}") from exc
        if len(points) < 2 or len(set(points)) != len(points):
            raise CycleFormatError(f"bad cycle {body!r} in {text!r}")
        if any(pt < 1 or pt > degree for pt in points):
            raise CycleFormatError(f"point outside 1..{degree} in {text!r}")
        images = list(range(1, degree + 1))
        for a, b in zip(points, points[1:]):
            images[a - 1] = b
        images[points[-1] - 1] = points[0]
        result = compose(result, Perm(tuple(images)))
    return result


def format_cycles(p: Perm) -> str:
    """Disjoint cycles, each starting at its smallest moved point, sorted
    by that point; the identity prints as "()"."""
    seen = [False] * p.degree
    cycles: list[list[int]] = []
    for start in range(1, p.degree + 1):
        if seen[start - 1] or p(start) == start:
            continue
        cycle = [start]
        seen[start - 1] = True
        nxt = p(start)
        while nxt != start:
            cycle.append(nxt)
            seen[nxt - 1] = True
            nxt = p(nxt)
        cycles.append(cycle)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(pt) for pt in c) + ")" for c in cycles)
