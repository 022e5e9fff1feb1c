"""Untangling arbitrary drawings with the n - floor(sqrt(n-2)) - 2 guarantee.

Fix any planar circular order.  The longest common cyclic subsequence of
the drawing with that order or with its mirror, whichever is longer, can
stay fixed while everything else moves into that order; it is the longest
increasing or decreasing cyclic subsequence of the drawing's ranks in the
planar order.  The cyclic Erdos-Szekeres bound makes that fixed set at
least floor(sqrt(n-2)) + 2 vertices large.  The cycle drawings that meet
the bound come from `generators.gen_tight_general`.
"""

from __future__ import annotations

from math import isqrt

from .blocks import block_decomposition, planar_circular_order
from .errors import ConstructionFailed
from .model import CircularDrawing, Untangling, is_planar_drawing, moves_to_reach
from .seqs import best_target


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
    return Untangling(moves)
