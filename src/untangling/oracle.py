"""Ground truth at desk scale.

Both exact untanglers are one branch and bound over fixed sets: a set can
stay put exactly when `blocks.planar_order_keeping` keeps it, a linear test
that holds for every subset of a kept set too, so the search takes vertices
in drawing order while it passes and cuts branches that cannot beat the best.
Its probes ask keepability only, through `blocks._keep`, which builds a
plan but lays no order out, on one listing per root per search; only the
largest set found is laid out, by `planar_order_keeping`.

The planar-order enumerators are exhaustive and independent of `blocks`, the
reference that tests check the search against.  The enumerator backtracks
over circle positions and keeps the stack of open positions, which no placed
chord passes over.  A vertex may take the next position exactly when its
placed neighbours are all open, and a branch ends as soon as a placed vertex
that still needs a chord is covered, so no chord is tested against placed
ones.  The naive variant filters all rotation-normalized permutations.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import permutations, product
from typing import Collection, Optional, Sequence

from .blocks import BlockDecomposition, _keep, block_decomposition, planar_order_keeping
from .errors import ConstructionFailed, TooLarge
from .model import CircularDrawing, Edge, Graph, Vertex, _Record, is_crossing_free, restriction
from .seqs import lis

ORACLE_MAX_N = 9
NAIVE_MAX_N = 7
FIXED_SET_BUDGET = 1 << 20  # vertex-tests per exact fixed-set search, about 1-2 s
DISTICOR_MAX_CHUNKS = 8
DISTICOR_MAX_TOTAL = 10_000
THREE_PARTITION_MAX_M = 4


def enumerate_planar_orders(g: Graph) -> list[tuple[Vertex, ...]]:
    """All crossing-free cyclic orders of g, one per rotation class.

    The first vertex is pinned to normalize rotation; reflections are kept
    because clockwise orientation is significant downstream.  Orders come
    in the lexicographic order of their vertex ranks.
    """
    n = len(g.vertices)
    if n > ORACLE_MAX_N:
        raise TooLarge(f"enumerate_planar_orders capped at n={ORACLE_MAX_N}, got {n}")
    if n == 0:
        return [()]
    vs = g.vertices
    adj: list[list[int]] = [[] for _ in vs]
    for a, b in g.edges:
        adj[g.index(a)].append(g.index(b))
        adj[g.index(b)].append(g.index(a))
    pos = [-1] * n             # position of each placed vertex
    at = [0] * n               # vertex at each position
    unplaced = [len(nb) for nb in adj]  # unplaced neighbours of each vertex
    opened = [0]               # open positions, ascending: no placed chord passes over them
    pos[0] = 0
    for y in adj[0]:
        unplaced[y] -= 1
    out: list[tuple[Vertex, ...]] = []

    def extend(p: int) -> None:
        if p == n:
            out.append(tuple(vs[x] for x in at))
            return
        for x in range(1, n):
            if pos[x] >= 0:
                continue
            # A chord from p crosses a placed chord exactly when its other end
            # lies under it.  No placed neighbour of x does: a covered vertex
            # has no unplaced neighbour left (below).
            low = p
            for y in adj[x]:
                if 0 <= pos[y] < low:
                    low = pos[y]
            for y in adj[x]:
                unplaced[y] -= 1
            # the chord to the lowest neighbour covers the open positions above
            # it; a covered vertex can take no later chord without a crossing
            k = bisect_right(opened, low)
            covered = opened[k:]
            if all(unplaced[at[q]] == 0 for q in covered):
                opened[k:] = [p]
                pos[x], at[p] = p, x
                extend(p + 1)
                pos[x] = -1
                opened[k:] = covered
            for y in adj[x]:
                unplaced[y] += 1

    extend(1)
    return out


def naive_planar_orders(g: Graph) -> list[tuple[Vertex, ...]]:
    """Independent cross-check: filter every rotation-normalized permutation."""
    n = len(g.vertices)
    if n > NAIVE_MAX_N:
        raise TooLarge(f"naive_planar_orders capped at n={NAIVE_MAX_N}, got {n}")
    if n == 0:
        return [()]
    first, rest = g.vertices[0], g.vertices[1:]
    return [
        (first,) + tail
        for tail in permutations(rest)
        if is_crossing_free((first,) + tail, g.edges)
    ]


class ExactUntangleResult(_Record):
    __slots__ = _fields = ("moved_count", "target_order", "fixed")


def _max_fixed_set(decomp: BlockDecomposition, order: Sequence[Vertex], forced: Collection[Vertex] = ()) -> tuple[Vertex, ...]:
    """A largest set containing `forced` (which must be keepable, as any two
    vertices are) that a crossing-free order of `decomp.graph` keeps in its
    cyclic order in `order`, listed in drawing order.  Branch and bound: each
    vertex is taken, while `_keep` finds a plan (the test of
    `planar_order_keeping`, with no order laid out), before it is left out,
    and ties keep the first set found.  A set of at most three vertices is
    kept without asking: three vertices have only two cyclic orders, each
    the mirror of the other, and the mirror of a crossing-free order is
    crossing-free, so some crossing-free order keeps either.  Each probe,
    asked or not, charges n against FIXED_SET_BUDGET, past which it raises
    TooLarge."""
    n = len(order)
    free = [x for x in order if x not in forced]
    fixed, best, spent = set(forced), None, 0
    listings: dict = {}  # for `_keep`: each root's listing, built once per search
    taken: list[int] = []  # the indices into `free` taken on this branch, ascending
    i = 0
    while True:
        if best is None or len(fixed) + len(free) - i > len(best):  # else no better set below
            if i == len(free):
                best = restriction(order, fixed)
            else:
                spent += n
                if spent > FIXED_SET_BUDGET:
                    raise TooLarge(f"exact fixed-set search exceeded {FIXED_SET_BUDGET} vertex-tests at n={n}")
                fixed.add(free[i])
                if len(fixed) > 3 and _keep(decomp, restriction(order, fixed), listings) is None:
                    fixed.discard(free[i])
                else:
                    taken.append(i)
                i += 1
                continue
        if not taken:
            return best
        i = taken.pop()
        fixed.discard(free[i])
        i += 1


def exact_min_untangle(d: CircularDrawing) -> ExactUntangleResult:
    """n minus a largest fixed set, an order keeping it, and the set in
    drawing order.  Raises NotOuterplanar if the graph is not outerplanar.
    Only the order is checked for crossings, not the search's probes."""
    decomp = block_decomposition(d.graph)
    fixed = _max_fixed_set(decomp, d.order)
    target = planar_order_keeping(decomp, fixed)
    if target is None or not is_crossing_free(target, d.graph.edges):
        raise ConstructionFailed("no crossing-free order was built for the largest fixed set")
    return ExactUntangleResult(len(d.order) - len(fixed), target, fixed)


def exact_min_untangle_edge_fixed(d: CircularDrawing, e: Edge) -> int:
    """Minimum moves over planar orders in which both endpoints of `e` stay
    fixed (and keep their cyclic position relative to all fixed vertices)."""
    fixed = _max_fixed_set(block_decomposition(d.graph), d.order, d.graph.edge(*e))
    return len(d.order) - len(fixed)


class DistIcorAnswer(_Record):
    """`arrangement` holds (chunk index, +1/-1) per slot; it and `witness` are None for a no."""

    __slots__ = _fields = ("solvable", "witness", "arrangement")


def exact_disticor(chunks: Sequence[Sequence[int]], M: int) -> DistIcorAnswer:
    """Exhaustive yes/no with witness for the chunk-ordering problem: the
    first arrangement, over all chunk permutations and reversals, whose
    concatenation has a strictly increasing subsequence of M items.  Raises
    TooLarge above DISTICOR_MAX_CHUNKS chunks or DISTICOR_MAX_TOTAL items."""
    total = sum(len(c) for c in chunks)
    if len(chunks) > DISTICOR_MAX_CHUNKS or total > DISTICOR_MAX_TOTAL:
        raise TooLarge(
            f"exact Dist-ICOR capped at {DISTICOR_MAX_CHUNKS} chunks / {DISTICOR_MAX_TOTAL} items, "
            f"got {len(chunks)} / {total}"
        )
    for perm in permutations(range(len(chunks))):
        for signs in product((1, -1), repeat=len(chunks)):
            concat: list[int] = []
            for ci, s in zip(perm, signs):
                concat.extend(chunks[ci] if s == 1 else reversed(chunks[ci]))
            w = lis(concat)
            if len(w) >= M:
                return DistIcorAnswer(True, tuple(w[:M]), tuple(zip(perm, signs)))
    return DistIcorAnswer(False, None, None)


def exact_3partition(a: Sequence[int], k: int) -> tuple[bool, Optional[tuple[tuple[int, int, int], ...]]]:
    """Exhaustive 3-partition over index triplets; witness is index triplets."""
    n = len(a)
    if n % 3 != 0:
        return False, None
    m = n // 3
    if m > THREE_PARTITION_MAX_M:
        raise TooLarge(f"exact_3partition capped at m={THREE_PARTITION_MAX_M}, got {m}")
    if sum(a) != m * k:
        return False, None

    def rec(left: tuple[int, ...]) -> Optional[tuple[tuple[int, int, int], ...]]:
        """Triplets covering `left`, the lowest index first, or None."""
        if not left:
            return ()
        i, rest = left[0], left[1:]
        for p, j in enumerate(rest):
            for l in rest[p + 1 :]:
                if a[i] + a[j] + a[l] == k:
                    found = rec(tuple(x for x in rest if x != j and x != l))
                    if found is not None:
                        return ((i, j, l),) + found
        return None

    chosen = rec(tuple(range(n)))
    return chosen is not None, chosen
