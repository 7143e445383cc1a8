"""Search engines for group factorizations.

Three anchored engines cover the productive configurations.  Every coset
position comes from ``structure.cosets``, one pass over G;
``_right_cosets`` adds the punctured transversal, the representatives
whose cosets hold no anchor element.  All three engines test candidates
on masks of right A-cosets: ``_coset_masks`` gives, once per search, the
cosets met by y*D for every element y.  Case1 decides x with
``_block_masks``, which ORs them over the rows of B into the mask of the
block A*B*x*D, rejecting x at the first overlap.  Case2 and case3 read all
their x at once off packed meet sets: the meet set of w (``_meet_set``)
holds, in part p of stride |G|+1, the x with w*x*D meeting coset p, and the
top bit of each part is a guard bit.

* case1: both end factors are subgroups, middle factors are enumerated
  over punctured transversals; A*B*C*D = G iff the block masks of the
  elements of C meet every coset.
* case2: one end is a subgroup, the other a fixed small set; B is
  enumerated with coset-mask prefix pruning, and C = {e, x} is accepted
  iff the blocks b*x*D, b in B, meet every coset A*B*D misses: x is a bit
  of the AND, over those cosets, of their parts of the OR of B's meet
  sets.  The setup is built once per search and one closure runs each
  chunk of B, in this process or in forked workers.
* case3: subgroup end, fixed set end, one enumerated middle factor; the
  remaining factor is an exact cover of the right A-cosets by blocks
  A*B*x*D of |B||D| cosets, found by the kernel in ``factorix.indset``.
  A few big-int operations on the meet sets of B (``_block_fit``) give the
  fitting x, those whose block has |B||D| cosets, and whether their blocks
  meet every coset.  B is kept iff e is a fitting x (A*B*D is then
  distinct); a kept B that fails the coverage test has no cover, and gets
  no block masks and no kernel call.  The fitting x are exactly those a
  full ``_block_masks`` scan of G accepts, so the kernel sees the blocks it
  always saw.

A generic normalized backtracker handles any pattern on small groups, and
``refute`` adds algebraic reductions for 2-...-2 patterns; the 2-b-c-2
block-cover scan and case3 share one per-B loop (``_first_block_cover``),
and the scan's completed results are reused across a reversal class.
Engines never trust their own constructions: each hands raw index tuples
to one verify step (``_sorted_certs``), so every reported certificate is
verified once.

Case1 and case2 count, so they always enumerate every solution; case3
and the block-cover scan want one exact cover, and the generic engine
stops at its first solution unless ``find_all`` is set.  A report is
``exhaustive`` exactly when the whole space was searched: the budget
held, and a search that stops at its first solution found nothing.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod
import weakref

from .certify import Certificate, certificate, divisibility_prune
from .group import FactorSet, GroupTable, bits_of, iter_bits
from .indset import exact_cover
from .structure import NotASubgroup, Subgroup, cosets, subgroup_from_indices


class AnchorInvalid(ValueError):
    pass


@dataclass
class SearchReport:
    engine: str
    pattern: tuple[int, ...]
    candidate_space: int
    candidates_examined: int
    solutions: tuple[Certificate, ...]
    exhaustive: bool
    graph_builds: int = 0
    notes: str = ""
    budget_hit: bool = False

    @property
    def solution_count(self) -> int:
        return len(self.solutions)


@dataclass
class RefutationRecord:
    pattern: tuple[int, ...]
    verdict: str  # FOUND | NONE | UNKNOWN
    strategy: str
    instances_examined: int
    certificate: Certificate | None = None
    wall_s: float = 0.0
    notes: str = ""

    def as_dict(self) -> dict:
        """The fields of a refutation report, for the catalog and ad hoc rows."""
        out = {"pattern": list(self.pattern), "verdict": self.verdict, "strategy": self.strategy,
               "instances": self.instances_examined, "wall_s": round(self.wall_s, 3)}
        if self.notes:
            out["notes"] = self.notes
        return out


def check_budget(budget_s: float | None) -> None:
    """The library's one budget check: a NaN (no clock passes it) or negative one raises."""
    if budget_s is not None and not budget_s >= 0:
        raise ValueError(f"budget_s must be a non-negative number, not {budget_s!r}")


class _Deadline:
    """The wall-clock budget of one engine call (None: no budget)."""

    def __init__(self, budget_s: float | None):
        check_budget(budget_s)
        self.t0 = time.monotonic()
        self.limit = None if budget_s is None else self.t0 + budget_s
        self.hit = False

    def expired(self) -> bool:
        if self.limit is not None and time.monotonic() > self.limit:
            self.hit = True
        return self.hit

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


def _sorted_certs(group: GroupTable, raw: list[tuple[tuple[int, ...], ...]]) -> tuple[Certificate, ...]:
    certs = []
    for factors in sorted(set(raw)):
        cert = certificate(group, factors)
        verdict = cert.verify()
        if not verdict.valid:
            raise AssertionError(f"engine produced an invalid certificate: {verdict}")
        certs.append(cert)
    return tuple(certs)


def _report(engine: str, group: GroupTable, pattern: tuple[int, ...], deadline: _Deadline,
            raw: list[tuple[tuple[int, ...], ...]], enumerates: bool, **counts) -> SearchReport:
    """The report every engine ends with: its raw answers verified and
    sorted, its counters, and the budget flag of its deadline.  It is
    exhaustive when the whole space was searched: the budget held, and
    unless the engine ``enumerates`` every solution, it found nothing."""
    return SearchReport(engine=engine, pattern=tuple(pattern), solutions=_sorted_certs(group, raw),
                        exhaustive=not deadline.hit and (enumerates or not raw),
                        budget_hit=deadline.hit, **counts)


def _check_sizes(pattern: tuple[int, ...], order: int) -> None:
    """Factor sizes are positive and multiply to the group order."""
    if any(m < 1 for m in pattern):
        raise AnchorInvalid("factor sizes must be positive")
    if prod(pattern) != order:
        raise AnchorInvalid("pattern does not multiply to the group order")


def _reversed_indices(group: GroupTable, factors: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The raw answer of the reversed task: G = A1...Ak gives
    G = Ak^-1 ... A1^-1, each factor's inverses sorted."""
    inv = group.inv
    return tuple(tuple(sorted(inv[x] for x in f)) for f in reversed(factors))


def _right_cosets(h: Subgroup, anchor: FactorSet, side: str = "right") -> tuple[list[int], list[int], list[int]]:
    """The coset setup every anchored engine shares: ``cosets(h, side)``
    (the least element of each right H-coset, or left H-coset with
    ``side="left"``, and each element's coset position) plus the punctured
    transversal, i.e. the representatives whose cosets hold no element of
    ``anchor``.  It is where the engines check their anchors: both lie in
    one group, ``h`` is a subgroup (an inline list is a bare factor set),
    ``anchor`` contains the identity, and its elements lie in distinct
    cosets."""
    if anchor.group is not h.group:
        raise AnchorInvalid("anchors live in different groups")
    try:
        subgroup_from_indices(h.group, h.indices)
    except NotASubgroup as exc:
        raise AnchorInvalid(f"the subgroup anchor is not a subgroup: {exc}") from None
    if not anchor.contains_identity():
        raise AnchorInvalid("the set anchor must contain the identity")
    reps, coset_of = cosets(h, side)
    blocked = {coset_of[x] for x in anchor.indices}
    if len(blocked) != len(anchor):
        raise AnchorInvalid(f"{side} cosets of the anchor elements are not distinct")
    return reps, coset_of, [w for w in reps if coset_of[w] not in blocked]


def _coset_masks(g: GroupTable, d: FactorSet, coset_of: list[int]) -> list[int]:
    """For every element y, the mask of the right A-cosets met by y*D;
    ``coset_of`` maps each element to its coset position."""
    return [bits_of(coset_of[row[dd]] for dd in d.indices) for row in map(g.row, range(g.order))]


def _block_masks(rows: list[list[int]], yd_masks: list[int], xs: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The block mask of case1 and of the blocks case3 hands the kernel:
    for each x in ``xs`` whose masks ``yd_masks[row[x]]``, row in ``rows``
    (the rows of B's elements b, so the cosets met by b*x*D), are pairwise
    disjoint, yield x and the union of those masks."""
    for x in xs:
        m = 0
        for row in rows:
            y = yd_masks[row[x]]
            if m & y:
                break
            m |= y
        else:
            yield x, m


# ---------------------------------------------------------------- case 1


def case1_search(
    a: Subgroup,
    d: Subgroup,
    middle_sizes: tuple[int, ...],
    budget_s: float | None = None,
) -> SearchReport:
    """Enumerate G = A*B*C*D with subgroups A, D anchored and the middle
    factors drawn from punctured transversals of A (right) and D (left).
    Since |A||B||C||D| = |G|, A*B*C*D = G exactly when the cosets met by
    b*c*D, b in B and c in C, are every right A-coset; they are then
    pairwise disjoint.  Per B this takes the block mask of each c
    (``_block_masks``; a c whose masks overlap has none and fails), then
    per C the union of its blocks."""
    g = a.group
    w_reps, coset_of, w_free = _right_cosets(a, d)
    if len(middle_sizes) != 2:
        raise AnchorInvalid("case1 expects exactly two middle factors")
    b_size, c_size = middle_sizes
    _check_sizes((len(a), b_size, c_size, len(d)), g.order)
    deadline = _Deadline(budget_s)
    v_free = _right_cosets(d, a, side="left")[2]

    space = comb(len(w_free), b_size - 1) * comb(len(v_free), c_size - 1)
    yd_masks = _coset_masks(g, d, coset_of)
    full = (1 << len(w_reps)) - 1

    examined = 0
    raw: list[tuple[tuple[int, ...], ...]] = []
    for b_extra in combinations(w_free, b_size - 1):
        if deadline.expired():
            break
        b_rows = [g.row(w) for w in (0,) + b_extra]
        blocks = dict(_block_masks(b_rows, yd_masks, [0] + v_free))
        for c_extra in combinations(v_free, c_size - 1):
            if deadline.expired():
                break
            examined += 1
            m = 0
            for c in (0,) + c_extra:
                m |= blocks.get(c, 0)
            if m == full:
                raw.append(
                    (
                        a.indices,
                        tuple(sorted((0,) + b_extra)),
                        tuple(sorted((0,) + c_extra)),
                        d.indices,
                    )
                )
    return _report("case1", g, (len(a), b_size, c_size, len(d)), deadline, raw, True,
                   candidate_space=space, candidates_examined=examined)


# ---------------------------------------------------------------- case 2


def _coset_lists(yd_masks: list[int], n_cosets: int) -> list[list[int]]:
    """Per right A-coset p, the y whose mask ``yd_masks[y]`` holds p (|G||D|
    entries in all): the lists every meet set is built from."""
    met: list[list[int]] = [[] for _ in range(n_cosets)]
    for y, mask in enumerate(yd_masks):
        for p in iter_bits(mask):
            met[p].append(y)
    return met


def _meet_set(g: GroupTable, met: list[list[int]], w: int) -> int:
    """The meet set of w: one int with bit p*(|G|+1) + x set when w*x*D
    meets right A-coset p.  Part p, the x of coset p, is the set of w^-1*y
    over the y of ``met[p]`` (``_coset_lists``), built as an element bitset
    and shifted into place; the top bit of each part, p*(|G|+1) + |G|, is a
    guard bit and stays clear."""
    row = g.row(g.inv[w])
    stride = g.order + 1
    packed = 0
    for p, ys in enumerate(met):
        packed |= bits_of(map(row.__getitem__, ys)) << p * stride
    return packed


# The chunk runner of a forked case2 search, appended by the pool
# initializer in the worker itself; it stays empty in the parent.
_WORKER_CTX: list[Callable[[int], tuple[int, list[tuple[tuple[int, ...], ...]], bool]]] = []


def _case2_worker(first_index: int) -> tuple[int, list[tuple[tuple[int, ...], ...]], bool]:
    return _WORKER_CTX[0](first_index)


def _case2_enumerate(a: Subgroup, last: FactorSet, sizes: tuple[int, ...], deadline: _Deadline,
                     threads: int) -> tuple[list[tuple[tuple[int, ...], ...]], int, int]:
    """The case2 core: enumerate G = A*B*D or A*B*C*D with subgroup A first
    and the set D anchored last, returning the raw answers, the candidate
    space and the candidates examined.  B runs over punctured-transversal
    subsets with coset prefix pruning: w joins B only when w*D meets |D|
    cosets that A*B*D does not yet meet.  Every x outside A*B*D counts as
    examined.

    C = {e, x} is read off packed meet sets, built for every w up front.
    The meet set of w (``_meet_set``) holds, in its part p (bits p*(|G|+1)
    to p*(|G|+1) + |G| - 1), the x with w*x*D meeting right A-coset p; the
    recursion carries the OR of the meet sets of the b chosen so far (zero
    for a (b,) search), so adding w to B costs one OR.  At a completed B the accepted x are the
    bits of the AND of the union's parts p over the cosets p in M, the set
    of cosets A*B*D misses.  This is sound: |C| = 2 gives
    |G/A| = 2|B||D|, and A*B*D meets |B||D| cosets, so |M| = |B||D|.  The
    blocks b*x*D, b in B, meet at most |B||D| cosets counted with
    multiplicity; if they meet every coset in M, each meets |D| cosets,
    they are pairwise disjoint and they miss A*B*D, so A*B*C*D = G.  The
    converse is plain, so the AND holds exactly the x whose ``_block_masks``
    union over B's rows misses A*B*D and fills the rest of the cosets.

    The setup is built once, and the closure ``chunk`` runs once per least
    non-identity B element (once in all when |B| = 1): in this process, or,
    when there is more than one chunk, in at most ``threads`` forked workers
    (never more than the chunks), which inherit it.  Results merge in chunk
    order and stop at the first chunk that ran out of budget, so counts and
    answers do not depend on ``threads``."""
    g = a.group
    _, coset_of, w_free = _right_cosets(a, last)
    if not sizes or sizes[1:] not in ((), (2,)):
        raise AnchorInvalid("case2 supports the middle sizes (b,) and (b,2) only")
    _check_sizes((len(a),) + sizes + (len(last),), g.order)
    yd = _coset_masks(g, last, coset_of)
    n, n_cosets = g.order, g.order // len(a)
    stride = n + 1
    b_size, d_size = sizes[0], len(last)
    pair = len(sizes) == 2
    if pair:
        met = _coset_lists(yd, n_cosets)
        meet = {w: _meet_set(g, met, w) for w in [0] + w_free}
    else:
        meet = dict.fromkeys([0] + w_free, 0)
    full = (1 << n_cosets) - 1
    elements = (1 << n) - 1
    # the C candidates outside A*B*D, counted per completed B
    outside = n - len(a) * b_size * d_size
    limit = deadline.limit

    def chunk(first_index: int) -> tuple[int, list[tuple[tuple[int, ...], ...]], bool]:
        """Enumerate every middle-factor choice whose least non-identity B
        element is w_free[first_index] (the one choice B = {e} when
        |B| = 1); returns (examined, raw answers, budget_hit).  The deadline
        is read once per completed B, before any of its candidates is
        examined."""
        examined = 0
        raw: list[tuple[tuple[int, ...], ...]] = []

        def leaf(b_extra: tuple[int, ...], mask: int, union: int) -> bool:
            nonlocal examined
            if limit is not None and time.monotonic() > limit:
                return True
            if not pair:
                examined += 1
                if mask == full:
                    raw.append((a.indices, (0,) + b_extra, last.indices))
                return False
            # C = {e, x}: the blocks b*x*D must meet every coset A*B*D misses
            examined += outside
            accepted = elements
            for p in iter_bits(full & ~mask):
                accepted &= union >> p * stride
                if not accepted:
                    return False
            b = (0,) + b_extra
            raw.extend((a.indices, b, (0, x), last.indices) for x in iter_bits(accepted))
            return False

        def extend(b_extra: tuple[int, ...], mask: int, union: int, start: int) -> bool:
            if len(b_extra) == b_size - 1:
                return leaf(b_extra, mask, union)
            for i in range(start, len(w_free)) if b_extra else (first_index,):
                w = w_free[i]
                step = yd[w]
                if step & mask or step.bit_count() != d_size:
                    continue
                if extend(b_extra + (w,), mask | step, union | meet[w], i + 1):
                    return True
            return False

        budget_hit = extend((), yd[0], meet[0], first_index)
        return examined, raw, budget_hit

    space = comb(len(w_free), b_size - 1) * (outside if pair else 1)
    chunks = range(len(w_free) if b_size > 1 else 1)
    pool = None
    if threads > 1 and len(chunks) > 1:
        # only a forked run pays for importing the pool
        from concurrent.futures import ProcessPoolExecutor
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        # under fork the initializer and its argument are inherited, not pickled
        pool = ProcessPoolExecutor(max_workers=min(threads, len(chunks)), mp_context=fork,
                                   initializer=_WORKER_CTX.append, initargs=(chunk,))
    examined = 0
    raw: list[tuple[tuple[int, ...], ...]] = []
    try:
        for exa, part, budget_hit in pool.map(_case2_worker, chunks) if pool else map(chunk, chunks):
            examined += exa
            raw.extend(part)
            if budget_hit:
                deadline.hit = True
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return raw, space, examined


def case2_search(
    a: Subgroup,
    last: FactorSet,
    middle_sizes: tuple[int, ...],
    budget_s: float | None = None,
    threads: int = 1,
) -> SearchReport:
    """Every G = A*B*D or A*B*C*D with subgroup A first and the set D
    anchored last (``_case2_enumerate``), verified."""
    deadline = _Deadline(budget_s)
    sizes = tuple(middle_sizes)
    raw, space, examined = _case2_enumerate(a, last, sizes, deadline, threads)
    return _report("case2", a.group, (len(a),) + sizes + (len(last),), deadline, raw, True,
                   candidate_space=space, candidates_examined=examined)


def case2_search_reversed(
    first: FactorSet,
    d: Subgroup,
    middle_sizes: tuple[int, ...],
    budget_s: float | None = None,
    threads: int = 1,
) -> SearchReport:
    """Set anchored first, subgroup last: enumerate the reversed task
    (subgroup first) and reverse every raw answer back before it is
    verified."""
    deadline = _Deadline(budget_s)
    sizes = tuple(reversed(middle_sizes))
    raw, space, examined = _case2_enumerate(d, first.inverse(), sizes, deadline, threads)
    return _report("case2", d.group, (len(first),) + tuple(middle_sizes) + (len(d),), deadline,
                   [_reversed_indices(d.group, factors) for factors in raw], True,
                   candidate_space=space, candidates_examined=examined,
                   notes="ran as the reversed task " + str((len(d),) + sizes + (len(first),)))


# ---------------------------------------------------------------- case 3


def _block_fit(
    g: GroupTable, yd_masks: list[int], n_cosets: int, d_size: int,
) -> Callable[[tuple[int, ...]], tuple[int, bool]]:
    """The packed per-B test of ``_first_block_cover``: a function of B
    giving (fit, covered), where fit is the element bitset of the x whose
    block A*B*x*D meets |B||D| of the ``n_cosets`` right A-cosets, and
    covered says whether those blocks together meet every coset.

    Each w gets, on its first use, its meet set (``_meet_set``; part p of
    stride |G|+1 holds the x with w*x*D meeting coset p) and F_w, the x
    with w*x*D meeting |D| cosets.  Then fit is the AND over b in B of F_b,
    minus the x where two b share a part: the OR of the pairwise ANDs of
    the meet sets, folded onto part 0 by shift-ORs.  The shifts ceil(P/2),
    ceil(P/4), ..., 1 of P parts sum, in subsets, to every offset below P.
    With R the bits at the foot of every part, ``fit * R`` repeats fit in
    each part; coset p lies in a fitting block iff part p of
    (OR_b meet[b]) & fit*R is non-zero, and adding |G| ones to each part
    carries into its guard bit exactly then.

    This is the test ``_block_masks`` makes with a full scan of G.  x
    passes there with |B||D| cosets iff the masks of b*x*D, b in B, are
    pairwise disjoint and each has |D| cosets (none has more), i.e. iff x
    is in every F_b and no two b share a part at x: x is in fit.  The
    block mask of such an x is the set of p whose part holds x in some
    meet[b], so the blocks of fit meet coset p iff part p of the masked
    union is non-zero.  A coset outside every fitting block lies in no
    exact cover, so a B that fails has none."""
    n, stride = g.order, g.order + 1
    met = _coset_lists(yd_masks, n_cosets)
    good = [y for y, mask in enumerate(yd_masks) if mask.bit_count() == d_size]
    feet = sum(1 << p * stride for p in range(n_cosets))
    low, guards = feet * ((1 << n) - 1), feet << n
    cache: dict[int, tuple[int, int]] = {}

    def test(b: tuple[int, ...]) -> tuple[int, bool]:
        union = dup = 0
        fit = (1 << n) - 1
        for w in b:
            if w not in cache:
                row = g.row(g.inv[w])
                cache[w] = (_meet_set(g, met, w), bits_of(map(row.__getitem__, good)))
            meet, full_x = cache[w]
            dup |= union & meet
            union |= meet
            fit &= full_x
        shift = n_cosets
        while shift > 1:
            shift = (shift + 1) // 2
            dup |= dup >> shift * stride
        fit &= ~dup
        return fit, ((union & fit * feet) + low) & guards == guards

    return test


def _first_block_cover(
    a: Subgroup, d: FactorSet, b_size: int, c_size: int, b_pool: list[int],
    yd_masks: list[int], n_cosets: int, deadline: _Deadline,
) -> tuple[int, int, tuple[tuple[int, ...], ...] | None]:
    """The per-B loop of case3 and the block-cover scan.  B runs over e plus
    ``b_size - 1`` elements of ``b_pool`` (ascending, so B is sorted),
    until the deadline expires, and each B counts as examined.  Each B
    takes the packed test (``_block_fit``): fit, the x of G whose block
    A*B*x*D has |B||D| of the ``n_cosets`` right A-cosets, and whether
    those blocks meet every coset.  B is built when e is in fit, i.e.
    A*B*D is distinct.  A coset that no fitting block meets admits no
    cover, so only a built B that passes gets its blocks, x of fit
    ascending, and C is the first exact cover of the cosets by ``c_size``
    of them (``exact_cover``).  Since fit and the coverage verdict are
    those of a full ``_block_masks`` scan of G, the kernel gets the list it
    always got, and is skipped only where no cover exists.  Returns
    (examined, builds, the raw factors of the first factorization found or
    None)."""
    g = a.group
    fitting = _block_fit(g, yd_masks, n_cosets, len(d))
    examined = builds = 0
    for b_extra in combinations(b_pool, b_size - 1):
        if deadline.expired():
            break
        examined += 1
        b = (0,) + b_extra
        fit, covered = fitting(b)
        if not fit & 1:
            continue
        builds += 1
        if not covered:
            continue
        blocks = list(_block_masks([g.row(w) for w in b], yd_masks, iter_bits(fit)))
        cover = exact_cover([mask for _, mask in blocks], n_cosets, c_size)
        if cover is not None:
            return examined, builds, (a.indices, b, tuple(sorted(blocks[i][0] for i in cover)), d.indices)
    return examined, builds, None


def case3_search(
    a: Subgroup,
    d: FactorSet,
    b_size: int,
    c_size: int,
    budget_s: float | None = None,
) -> SearchReport:
    """Enumerate B over a punctured transversal; for each B with A*B*D
    distinct, until one succeeds, hunt a C whose blocks A*B*x*D exactly
    cover the right A-cosets, so |A||B||C||D| = |G| (``_first_block_cover``,
    the loop the block-cover scan runs too)."""
    g = a.group
    reps, coset_of, w_free = _right_cosets(a, d)
    _check_sizes((len(a), b_size, c_size, len(d)), g.order)
    deadline = _Deadline(budget_s)
    yd_masks = _coset_masks(g, d, coset_of)
    examined, builds, raw = _first_block_cover(a, d, b_size, c_size, w_free, yd_masks, len(reps), deadline)
    return _report("case3", g, (len(a), b_size, c_size, len(d)), deadline, [raw] if raw else [], False,
                   candidate_space=comb(len(w_free), b_size - 1), candidates_examined=examined,
                   graph_builds=builds)


# ---------------------------------------------------------------- generic


def generic_search(
    group: GroupTable,
    pattern: tuple[int, ...],
    find_all: bool = False,
    budget_s: float | None = None,
) -> SearchReport:
    """Normalized backtracking over all factor tuples: every factor contains
    the identity, remaining elements ascend, prefix products stay distinct,
    and end factors must generate a subgroup of compatible order.  Only
    ``budget_s`` bounds it; ``refute`` gates it on the group order."""
    n = group.order
    _check_sizes(pattern, n)
    deadline = _Deadline(budget_s)
    k = len(pattern)
    raw: list[tuple[tuple[int, ...], ...]] = []
    nodes = 0
    stack: list[tuple[int, ...]] = []

    def factor_ok_at_ends(fi: int, factor: tuple[int, ...]) -> bool:
        if fi not in (0, k - 1) or len(factor) == 1:
            return True
        return divisibility_prune(FactorSet(group, factor))

    def place(fi: int, prefix: tuple[int, ...], prefix_mask: int) -> bool:
        if fi == k:
            raw.append(tuple(stack))
            return not find_all
        target = pattern[fi]

        def grow(factor: tuple[int, ...], acc_mask: int, start: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes % 4096 == 0 and deadline.expired():
                return True
            if len(factor) == target:
                if not factor_ok_at_ends(fi, factor):
                    return False
                stack.append(factor)
                done = place(fi + 1, tuple(iter_bits(acc_mask)), acc_mask)
                stack.pop()
                return done
            for x in range(start, n):
                step = 0
                ok = True
                for p in prefix:
                    y = group.row(p)[x]
                    bit = 1 << y
                    if (acc_mask | step) & bit:
                        ok = False
                        break
                    step |= bit
                if not ok:
                    continue
                if grow(factor + (x,), acc_mask | step, x + 1):
                    return True
            return False

        return grow((0,), prefix_mask, 1)

    place(0, (0,), 1)
    return _report("generic", group, pattern, deadline, raw, find_all,
                   candidate_space=0, candidates_examined=nodes, notes="normalized backtracking")


# ------------------------------------------------------------- refutation


def conjugacy_class(group: GroupTable, x: int) -> tuple[int, ...]:
    """The class of x, sorted: {g^-1 x g : g in G} is already all of it."""
    return tuple(sorted({group.conjugate_idx(x, g) for g in range(group.order)}))


def involution_class_reps(group: GroupTable) -> list[int]:
    reps = []
    covered = 0
    for x in range(1, group.order):
        if group.element_orders[x] != 2 or covered >> x & 1:
            continue
        cls = conjugacy_class(group, x)
        covered |= bits_of(cls)
        reps.append(x)
    return reps


def _two_ended(group: GroupTable) -> bool:
    """True when every even-order element is an involution: then any
    normalized factorization with size-2 end factors has ends {e, t} with
    t an involution.  (A size-2 end {e, x} forces x of even order: the
    complementary block is invariant under x**2, and odd order would make
    it invariant under x itself.)"""
    return all(o == 2 for o in group.element_orders if o % 2 == 0 and o > 1)


def _involutions(group: GroupTable) -> list[int]:
    return [x for x in range(group.order) if group.element_orders[x] == 2]


def _scan_parity(group: GroupTable, a_rep: int,
                 deadline: _Deadline) -> tuple[str, int, tuple[tuple[int, ...], ...] | None]:
    """Pattern (2, m, 2), 4m = |G|: a factorization exists for last factor
    {e, d} iff every cycle of pi_d on the right-A cosets is even; build one
    by alternating along the cycles (its raw factors, verified by ``refute``)."""
    a = subgroup_from_indices(group, (0, a_rep))
    n_pos = group.order // 2
    reps, coset_of = cosets(a)
    examined = 0
    for d in _involutions(group):
        if deadline.expired():
            return "UNKNOWN", examined, None
        examined += 1
        # pi_d on coset positions: position of A*r -> position of A*r*d
        pi = [coset_of[group.row(r)[d]] for r in reps]
        seen = [False] * n_pos
        chosen: list[int] = []
        feasible = True
        for start in range(n_pos):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = pi[j]
            if len(cyc) % 2:
                feasible = False
                break
            # keep the identity's coset on the chosen side when present
            offset = 1 if 0 in cyc and cyc.index(0) % 2 else 0
            chosen.extend(cyc[i] for i in range(offset, len(cyc), 2))
        if not feasible:
            continue
        return "FOUND", examined, (a.indices, tuple(sorted(reps[j] for j in chosen)), (0, d))
    return "NONE", examined, None


def _scan_block_cover(
    group: GroupTable,
    a_rep: int,
    b_size: int,
    c_size: int,
    deadline: _Deadline,
) -> tuple[str, int, tuple[tuple[int, ...], ...] | None]:
    """Pattern (2, b, c, 2): for each involution d, case3's loop
    (``_first_block_cover``) with A = {e, a_rep}, D = {e, d} and B drawn from
    the right A-coset representatives; the first factorization found is
    returned as raw factors, verified by ``refute``.

    The scan is complete.  If G = A*B*C*D, then (A, B*b^-1, b*C, D) for b in
    B is a factorization too, and replacing each element of B by the least
    element of its right A-coset keeps A*B; so B holds e and representatives
    of distinct cosets.  Then (A, B, C*c^-1, c*D*c^-1) for c in C is one with
    e in C and last factor {e, c*d*c^-1}, another involution.  With e in C,
    A*B*D is one of the disjoint blocks, so a B whose A*B*D is not distinct
    has no factorization and is skipped unbuilt."""
    a = subgroup_from_indices(group, (0, a_rep))
    reps, coset_of = cosets(a)
    examined = 0
    for d in _involutions(group):
        d_set = FactorSet(group, (0, d))
        yd_masks = _coset_masks(group, d_set, coset_of)
        count, _, raw = _first_block_cover(a, d_set, b_size, c_size, reps[1:], yd_masks, len(reps), deadline)
        examined += count
        if raw is not None:
            return "FOUND", examined, raw
        if deadline.hit:
            return "UNKNOWN", examined, None
    return "NONE", examined, None


# Completed block-cover scans (NONE or FOUND, with the raw factors found) per
# group, keyed by (a_rep, smaller middle, larger middle): (2, b, c, 2) with
# b > c is scanned as its reversal (2, c, b, 2), the same scan.  A scan cut
# short is never kept.
_BLOCK_COVER_SCANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

CAP_GENERIC = 60  # refute's default gate: the largest order it gives the generic engine


def refute(
    group: GroupTable,
    pattern: tuple[int, ...],
    budget_s: float | None = None,
    cap_generic: int = CAP_GENERIC,
    strategy: str = "auto",
) -> RefutationRecord:
    """Decide whether G admits a factorization with the given pattern.

    Verdicts: FOUND carries a verified certificate, NONE means the full
    normalized space was covered, UNKNOWN means the budget ran out.  The
    2-...-2 reductions conjugate the first end factor to a fixed involution
    class representative, which is harmless because conjugating an entire
    factorization by any element yields another factorization.

    strategy selects the engine: "auto" picks the cheapest sound route,
    "generic" forces the exhaustive normalized search, "reduction" forces
    the 2-...-2 coset scans and fails if they do not apply.  Without a
    reduction, "auto" runs the generic engine only if |G| <= cap_generic.
    """
    if strategy not in ("auto", "generic", "reduction"):
        raise ValueError(f"unknown refutation strategy: {strategy!r}")
    deadline = _Deadline(budget_s)
    pattern = tuple(pattern)
    _check_sizes(pattern, group.order)
    two_ended = (
        strategy != "generic"
        and len(pattern) in (3, 4)
        and pattern[0] == 2
        and pattern[-1] == 2
        and _two_ended(group)
    )
    if strategy == "reduction" and not two_ended:
        raise AnchorInvalid("pattern does not admit the 2-...-2 reduction")
    if two_ended:
        strategy = "coset-parity" if len(pattern) == 3 else "block-cover"
        total = 0
        notes = ""
        best = "NONE"
        for a_rep in involution_class_reps(group):
            if len(pattern) == 3:
                verdict, examined, raw = _scan_parity(group, a_rep, deadline)
            else:
                key = (a_rep,) + tuple(sorted(pattern[1:3]))
                done = _BLOCK_COVER_SCANS.setdefault(group, {})
                if key in done:
                    notes = f"reused the completed block-cover scan of (2, {key[1]}, {key[2]}, 2)"
                verdict, examined, raw = done.get(key) or _scan_block_cover(group, *key, deadline)
                if verdict != "UNKNOWN":
                    done[key] = (verdict, examined, raw)
                if pattern[1] > pattern[2]:
                    # the reversed pattern was scanned: smaller middle first
                    if raw is not None:
                        raw = _reversed_indices(group, raw)
                    strategy = "block-cover (reversed)"
            total += examined
            if verdict == "FOUND":
                cert = _sorted_certs(group, [raw])[0]
                return RefutationRecord(pattern, "FOUND", strategy, total, cert, deadline.elapsed(), notes=notes)
            if verdict == "UNKNOWN":
                best = "UNKNOWN"
        return RefutationRecord(pattern, best, strategy, total, None, deadline.elapsed(), notes=notes)
    if strategy == "generic" or group.order <= cap_generic:
        report = generic_search(group, pattern, budget_s=budget_s)
        verdict = "FOUND" if report.solutions else "NONE" if report.exhaustive else "UNKNOWN"
        return RefutationRecord(pattern, verdict, "generic", report.candidates_examined,
                                next(iter(report.solutions), None), deadline.elapsed())
    return RefutationRecord(pattern, "UNKNOWN", "none-applicable", 0, None, deadline.elapsed(), notes="group too large for the generic engine")
