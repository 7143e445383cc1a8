"""Exact covers by bitmask blocks: Knuth's Algorithm X (Dancing Links,
arXiv:cs/0011047) on bitsets, the solver in the one per-B loop that case3
and the block-cover scan share (``search._first_block_cover``).

There each block is A*B*x*D for an x whose block meets |B||D| right
A-cosets, given as a mask over the |G|/|A| coset positions, and the loop
wants s pairwise disjoint blocks, where s*|B||D| = |G|/|A|.  s disjoint
blocks of |B||D| cosets cover all |G|/|A| cosets exactly once, and an exact
cover by s blocks is s disjoint blocks, so these are exactly the exact
covers by s blocks.  The loop wants one cover per B, so the kernel stops at
the first.  The loop calls it only for a B whose fitting blocks, between
them, meet every coset (``search._block_fit``), so the kernel makes no such
check of its own: a position that no block holds is never covered, so
every branch fails there."""

from __future__ import annotations

from .group import iter_bits


def exact_cover(
    masks: list[int] | tuple[int, ...],
    n_positions: int,
    size: int,
) -> tuple[int, ...] | None:
    """The first set of ``size`` blocks (masks: non-empty sets of positions)
    found that partitions the positions 0..n_positions-1, as a sorted index
    tuple, or None when there is none.  Branches on the uncovered position
    with the fewest fitting blocks (ties: the lowest position), trying them
    in index order."""
    full = (1 << n_positions) - 1
    holders = [0] * n_positions  # per position: the blocks containing it
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            holders[low.bit_length() - 1] |= 1 << i
            m ^= low

    def search(covered: int, live: int, chosen: tuple[int, ...]) -> tuple[int, ...] | None:
        if len(chosen) == size:
            return tuple(sorted(chosen)) if covered == full else None
        fewest, cands = None, 0
        for p in iter_bits(full ^ covered):
            fit = holders[p] & live
            if fewest is None or fit.bit_count() < fewest:
                fewest, cands = fit.bit_count(), fit
                if fewest <= 1:  # a later dead position would fail this branch too
                    break
        for i in iter_bits(cands):
            clash = 0  # the blocks sharing a position with block i
            for p in iter_bits(masks[i]):
                clash |= holders[p]
            found = search(covered | masks[i], live & ~clash, chosen + (i,))
            if found is not None:
                return found
        return None

    return search(0, (1 << len(masks)) - 1, ())
