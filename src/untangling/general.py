"""Untangling arbitrary drawings with the n - floor(sqrt(n-2)) - 2 guarantee.

Fix any planar circular order.  The longest common cyclic subsequence of
the drawing with that order or with its mirror, whichever is longer, can
stay fixed while everything else moves into that order; it is the longest
increasing or decreasing cyclic subsequence of the drawing's ranks in the
planar order.  The cyclic Erdos-Szekeres bound makes that fixed set at
least floor(sqrt(n-2)) + 2 vertices large.
"""

from __future__ import annotations

from math import isqrt

from .blocks import block_decomposition, planar_circular_order
from .errors import ConstructionFailed, InvalidN, TooLarge
from .generators import cycle_graph
from .model import CircularDrawing, Untangling, is_planar_drawing, moves_to_reach
from .seqs import ES_TIGHT_MAX_LEN, best_target, es_tight_cyclic, lics


def general_bound(n: int) -> int:
    """Worst-case moves needed for any drawing of an n-vertex outerplanar graph."""
    if n < 2:
        return 0
    return max(0, n - isqrt(n - 2) - 2)


def untangle_general(d: CircularDrawing) -> Untangling:
    """Planar result moving at most n - floor(sqrt(n-2)) - 2 vertices (n >= 3).

    Raises NotOuterplanar when the graph admits no planar circular order.
    """
    if is_planar_drawing(d):
        return Untangling(())
    base = planar_circular_order(block_decomposition(d.graph))
    mirror = base[::-1]
    target, kept = best_target(d.order, (base, mirror))  # a tie keeps base
    if target is mirror:
        target = base[:1] + mirror[:-1]  # the mirror rotated to start at base[0], where moves anchor
    moves = moves_to_reach(d.order, target, set(d.order).difference(kept))
    n = len(d.order)
    if len(moves) > general_bound(n):
        raise ConstructionFailed(
            f"monotone witness shorter than the guaranteed floor(sqrt({n}-2))+2"
        )
    return Untangling(tuple(moves))


def _sub_permutation(items: tuple[int, ...], n: int) -> tuple[int, ...]:
    head = items[:n]
    by_rank = {x: r for r, x in enumerate(sorted(head))}
    return tuple(by_rank[x] for x in head)


def tight_rank_permutation(n: int) -> tuple[int, ...]:
    """A cyclic permutation of 0..n-1 whose longest monotone cyclic
    subsequence has exactly floor(sqrt(n-2)) + 2 terms."""
    if n < 4:
        raise InvalidN("tight instances start at n = 4")
    if n > ES_TIGHT_MAX_LEN:
        raise TooLarge(f"tight general instances are verified up to n = {ES_TIGHT_MAX_LEN}, got n = {n}")
    s = isqrt(n - 2)
    # every monotone cyclic subsequence of a prefix is one of the whole
    # sequence, so the prefix keeps its bound of s + 2 terms
    perm = _sub_permutation(es_tight_cyclic(s + 1, s + 1), n)
    best = max(len(lics(perm)), len(lics(perm[::-1])))
    if best != s + 2:
        raise ConstructionFailed(f"tight permutation for n={n} has monotone length {best}")
    return perm


def gen_tight_general(n: int) -> CircularDrawing:
    """A drawing of the n-cycle needing exactly n - floor(sqrt(n-2)) - 2 moves.

    The cycle's planar order is unique up to reflection, so its minimum move
    count is n minus the longest monotone cyclic subsequence of the rank
    permutation realized by the drawing; a tight permutation pins that to the
    general bound.  Raises TooLarge above n = ES_TIGHT_MAX_LEN, where the
    underlying sequence would exceed its verification budget.
    """
    perm = tight_rank_permutation(n)
    g = cycle_graph(n)
    order = tuple(g.vertices[r] for r in perm)
    return CircularDrawing(g, order)
