"""Brute-force ground truth at desk scale.

Everything here is exhaustive.  The planar-order enumerator backtracks over
circle positions and keeps the stack of open positions, the placed positions
that no placed chord passes over.  A vertex may take the next position
exactly when its placed neighbours all sit at open positions.  A branch ends
as soon as a placed vertex that still needs a chord is covered, so every
placed neighbour of an unplaced vertex is open and no chord is ever tested
against the placed ones.  The naive variant filters all rotation-normalized
permutations outright, so the two cross-validate each other.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import permutations, product
from typing import Optional, Sequence

from .errors import NotOuterplanar, TooLarge
from .model import CircularDrawing, Edge, Graph, Vertex, is_crossing_free, rotate_to
from .seqs import best_target, lccs, lis, lis_length

ORACLE_MAX_N = 9
DISTICOR_MAX_CHUNKS = 8
DISTICOR_MAX_TOTAL = 10_000
THREE_PARTITION_MAX_M = 4


def enumerate_planar_orders(g: Graph, nmax: int = ORACLE_MAX_N) -> list[tuple[Vertex, ...]]:
    """All crossing-free cyclic orders of g, one per rotation class.

    The first vertex is pinned to normalize rotation; reflections are kept
    because clockwise orientation is significant downstream.  Orders come
    in the lexicographic order of their vertex ranks.
    """
    n = len(g.vertices)
    if n > nmax:
        raise TooLarge(f"enumerate_planar_orders capped at n={nmax}, got {n}")
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


def naive_planar_orders(g: Graph, nmax: int = 7) -> list[tuple[Vertex, ...]]:
    """Independent cross-check: filter every rotation-normalized permutation."""
    n = len(g.vertices)
    if n > nmax:
        raise TooLarge(f"naive_planar_orders capped at n={nmax}, got {n}")
    if n == 0:
        return [()]
    first, rest = g.vertices[0], g.vertices[1:]
    return [
        (first,) + tail
        for tail in permutations(rest)
        if is_crossing_free((first,) + tail, g.edges)
    ]


@dataclass(frozen=True)
class ExactUntangleResult:
    moved_count: int
    target_order: tuple[Vertex, ...]
    fixed: tuple[Vertex, ...]


def exact_min_untangle(d: CircularDrawing, nmax: int = ORACLE_MAX_N) -> ExactUntangleResult:
    """Ground-truth minimum untangling cost: n minus the best common cyclic
    subsequence between the drawing and any planar order of its graph."""
    orders = enumerate_planar_orders(d.graph, nmax)
    if not orders:
        raise NotOuterplanar("graph admits no planar circular order")
    t = best_target(d.order, orders)
    w = lccs(d.order, t)
    return ExactUntangleResult(len(d.order) - len(w), t, tuple(w))


def _lcs_distinct(a: Sequence, b: Sequence) -> int:
    pos = {x: i for i, x in enumerate(b)}
    mapped = [pos[x] for x in a if x in pos]
    return lis_length(mapped)


def _common_through_edge(order: tuple, t: tuple, u: Vertex, v: Vertex) -> int:
    """Largest common cyclic subsequence of `order` and `t` containing u and v."""
    a = rotate_to(order, u)[1:]
    b = rotate_to(t, u)[1:]
    ia, ib = a.index(v), b.index(v)
    return 2 + _lcs_distinct(a[:ia], b[:ib]) + _lcs_distinct(a[ia + 1 :], b[ib + 1 :])


def exact_min_untangle_edge_fixed(d: CircularDrawing, e: Edge, nmax: int = ORACLE_MAX_N) -> int:
    """Minimum moves over planar orders in which both endpoints of `e` stay
    fixed (and keep their cyclic position relative to all fixed vertices)."""
    u, v = d.graph.edge(*e)
    orders = enumerate_planar_orders(d.graph, nmax)
    if not orders:
        raise NotOuterplanar("graph admits no planar circular order")
    n = len(d.order)
    best = 0
    for t in orders:
        best = max(best, _common_through_edge(d.order, t, u, v))
        if best == n:
            break
    return n - best


@dataclass(frozen=True)
class DistIcorAnswer:
    solvable: bool
    witness: Optional[tuple[int, ...]]
    arrangement: Optional[tuple[tuple[int, int], ...]]  # (chunk index, +1/-1) per slot


def _arrangements(chunks: Sequence[Sequence[int]]):
    """Every arrangement of the chunks, one (chunk index, +1/-1) pair per
    slot, over all permutations and reversals, each with one longest
    strictly increasing subsequence of its concatenation.  Raises TooLarge
    above DISTICOR_MAX_CHUNKS chunks or DISTICOR_MAX_TOTAL items."""
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
            yield tuple(zip(perm, signs)), lis(concat)


def best_chunk_arrangement(chunks: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Exhaustive best: (longest strictly increasing subsequence over all chunk
    permutations and reversals, one witness, the arrangement achieving it)."""
    best_len, best_wit, best_arr = 0, (), ()
    for arr, w in _arrangements(chunks):
        if len(w) > best_len:
            best_len, best_wit, best_arr = len(w), tuple(w), arr
    return best_len, best_wit, best_arr


def exact_disticor(chunks: Sequence[Sequence[int]], M: int) -> DistIcorAnswer:
    """Exhaustive yes/no with witness for the chunk-ordering problem."""
    for arr, w in _arrangements(chunks):
        if len(w) >= M:
            return DistIcorAnswer(True, tuple(w[:M]), arr)
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

    used = [False] * n
    chosen: list[tuple[int, int, int]] = []

    def rec() -> bool:
        try:
            i = used.index(False)
        except ValueError:
            return True
        used[i] = True
        for j in range(i + 1, n):
            if used[j]:
                continue
            used[j] = True
            for l in range(j + 1, n):
                if used[l] or a[i] + a[j] + a[l] != k:
                    continue
                used[l] = True
                chosen.append((i, j, l))
                if rec():
                    return True
                chosen.pop()
                used[l] = False
            used[j] = False
        used[i] = False
        return False

    if rec():
        return True, tuple(chosen)
    return False, None
