"""Graph factories, the paper's two tight families (`gen_fig5` for the
almost-planar bound, `gen_tight_general` for the general one), seeded random
drawing generators, and exhaustive instance enumeration for small sizes.
A generator that needs a graph's block-cut tree builds it once and lays out
or tests that one tree."""

from __future__ import annotations

import random
from itertools import combinations
from math import isqrt
from typing import Iterable, Iterator, Optional

from .blocks import block_decomposition, planar_circular_order
from .errors import ConstructionFailed, GenerationFailed, InvalidN, NotOuterplanar, TooLarge
from .model import PROFILES, CircularDrawing, Edge, Graph, Vertex, is_crossing_free
from .seqs import ES_TIGHT_MAX_LEN, es_tight_cyclic, lics

GENERATION_RETRIES = 64  # graphs drawn per almost-planar or case-2-2 request


def vertex_names(n: int) -> tuple[Vertex, ...]:
    return tuple(f"v{i + 1}" for i in range(n))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidN("cycles need at least 3 vertices")
    vs = vertex_names(n)
    return Graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def path_graph(n: int) -> Graph:
    vs = vertex_names(n)
    return Graph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def gen_fig5(n: int) -> CircularDrawing:
    """The tight almost-planar family: the n-cycle drawn with even-index
    vertices clockwise ascending, then odd-index vertices descending.
    Its minimum untangling moves exactly n/2 - 1 vertices."""
    if n < 4 or n % 2 != 0:
        raise InvalidN("the tight family needs an even n >= 4")
    g = cycle_graph(n)
    vs = g.vertices
    order = tuple(vs[i] for i in range(1, n, 2)) + tuple(vs[i] for i in range(n - 2, -1, -2))
    return CircularDrawing(g, order)


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


def _rng(seed: int, profile: str, n: int) -> random.Random:
    return random.Random(f"{profile}:{n}:{seed}")


def _random_noncrossing_edges(rng: random.Random, n: int, hull_p: float, diag_p: float, connect: bool) -> list[tuple[int, int]]:
    """Positions 0..n-1 on a circle: a random subset of hull edges plus a
    random subset of one random triangulation's diagonals (never crossing)."""
    edges: list[tuple[int, int]] = []
    for i in range(n):
        if rng.random() < hull_p:
            edges.append((i, (i + 1) % n))

    # the arcs still to split, each of 3 or more positions, split in
    # pre-order: an arc, then all of its left part, then its right part
    arcs = [(0, n - 1)] if n >= 3 else []
    while arcs:
        lo, hi = arcs.pop()
        mid = rng.randrange(lo + 1, hi)
        left, right = mid - lo > 1, hi - mid > 1
        if left and rng.random() < diag_p:
            edges.append((lo, mid))
        if right and rng.random() < diag_p:
            edges.append((mid, hi))
        if right:
            arcs.append((mid, hi))
        if left:
            arcs.append((lo, mid))

    if connect:  # join each component to the previous position through its least one
        edges.extend((r - 1, r) for r in _least_positions(n, edges)[1:])
    return sorted(set(edges))


def _least_positions(n: int, chords: list[tuple[int, int]]) -> list[int]:
    """The least position of each component of the chords over 0..n-1, in
    order: the roots of a union-find that links the higher root to the lower."""
    parent = list(range(n))
    for a, b in chords:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[max(a, b)] = min(a, b)
    return [x for x in range(n) if parent[x] == x]


def _perturbed(rng: random.Random, n: int, k: Optional[int], connect: bool) -> CircularDrawing:
    vs = vertex_names(n)
    layout = list(vs)
    rng.shuffle(layout)
    pos_edges = _random_noncrossing_edges(rng, n, hull_p=0.85, diag_p=0.45, connect=connect)
    g = Graph(vs, [(layout[i], layout[j]) for i, j in pos_edges])
    order = list(layout)
    _relocate(rng, order, k)
    return CircularDrawing(g, order)


def _relocate(rng: random.Random, order: list[Vertex], k: Optional[int]) -> None:
    """Moves k random vertices of `order` to random places, in place; with
    k None, a random number of them below half the order's length."""
    moves = rng.randrange(0, max(1, len(order) // 2)) if k is None else k
    for _ in range(moves):
        v = order.pop(rng.randrange(len(order)))
        order.insert(rng.randrange(len(order) + 1), v)


def _chain_graph(rng: random.Random, n: int) -> tuple[Graph, Vertex, Vertex]:
    """A connected graph where u and v are joined only through cut vertices,
    with small decorations hanging off the chain (case-2.2 shape)."""
    if n < 4:
        raise InvalidN("chain instances need n >= 4")
    vs = list(vertex_names(n))
    u, v = vs[0], vs[1]
    ncuts = rng.randint(1, min(3, n - 3))
    cuts = vs[2 : 2 + ncuts]
    chain = [u] + cuts + [v]
    edges = list(zip(chain, chain[1:]))
    spare = vs[2 + ncuts :]
    hosts = chain[:]
    for w in spare:
        host = rng.choice(hosts)
        edges.append((host, w))
        if rng.random() < 0.35:
            hosts.append(w)  # allow small trees, not just pendants
    return Graph(vs, edges), u, v


def _almost_planar_from(g: Graph, u: Vertex, v: Vertex, rng: random.Random, tries: int) -> Optional[CircularDrawing]:
    """A drawing of g plus e = (u, v) in which e carries every crossing, or
    None after `tries` random layouts of G - e, whose tree is built once.

    A layout is kept when the chord u-v crosses an edge of G - e on it
    (`_chord_crosses`), and dropped with no drawing built.  The kept layout
    must be crossing-free for G - e, so that e is in every crossing: one
    `is_crossing_free` check, which raises ConstructionFailed if it fails,
    since the tree's layouts never cross themselves."""
    if (u, v) in g.edges or (v, u) in g.edges:
        base, rest = g, g.without_edge((u, v))
    else:
        base, rest = Graph(g.vertices, set(g.edges) | {(u, v)}), g
    decomp = block_decomposition(rest)
    for _ in range(tries):
        order = planar_circular_order(decomp, rng)
        if _chord_crosses(order, u, v, rest.edges):
            if not is_crossing_free(order, rest.edges):
                raise ConstructionFailed(f"a random layout of G - {u}-{v} crosses itself")
            return CircularDrawing(base, order)
    return None


def _chord_crosses(order: tuple[Vertex, ...], u: Vertex, v: Vertex, edges: Iterable[Edge]) -> bool:
    """True iff the chord u-v crosses one of `edges` on the circle `order`:
    some edge has exactly one end strictly between u and v, and neither end
    at u or v.  The vertices between are marked 1 and u and v 2, so such an
    edge is the one whose marks sum to 1."""
    i, j = order.index(u), order.index(v)
    if i > j:
        i, j = j, i
    mark = dict.fromkeys(order[i + 1 : j], 1)
    mark[u] = mark[v] = 2
    get = mark.get
    return any(get(a, 0) + get(b, 0) == 1 for a, b in edges)


def gen_random(n: int, seed: int, profile: str, k: Optional[int] = None) -> CircularDrawing:
    """Seed-deterministic random drawings.

    outerplanar-order-perturbed: random planar order plus non-crossing chords,
    then k random vertex relocations (k=0 gives a planar drawing).
    almost-planar: connected graph and an edge e carrying all crossings:
    random layouts of G - e are tried until e crosses an edge on one (a
    chord test, no classification), and the layout kept is checked to be
    crossing-free for G - e before it is returned.
    case-2-2: almost-planar with the crossing edge's endpoints joined only
    through cut vertices.
    disconnected: a few perturbed components interleaved by relocations.
    Only outerplanar-order-perturbed and disconnected take k; almost-planar
    and case-2-2 raise InvalidN when given one.
    """
    if profile not in PROFILES:
        raise InvalidN(f"unknown profile {profile!r}")
    if n < 0:
        raise InvalidN(f"a drawing needs n >= 0, got {n}")
    if n < 4 and profile == "almost-planar":
        raise InvalidN("almost-planar instances need n >= 4: no drawing on fewer vertices has a crossing")
    if k is not None and k < 0:
        raise InvalidN(f"k counts relocations and must be >= 0, got {k}")
    if n == 0 and k:
        raise InvalidN(f"{k} relocations need a vertex to move, but n = 0")
    if k is not None and profile in ("almost-planar", "case-2-2"):
        raise InvalidN(f"the {profile} profile draws its own crossings and takes no k")
    rng = _rng(seed, profile, n)
    if profile == "outerplanar-order-perturbed":
        return _perturbed(rng, n, k, connect=False)

    if profile == "disconnected":
        if n < 4:
            raise InvalidN("disconnected instances need n >= 4")
        parts = rng.randint(2, min(3, n // 2))
        sizes = []
        left = n
        for i in range(parts - 1):
            take = rng.randint(1, left - (parts - 1 - i))
            sizes.append(take)
            left -= take
        sizes.append(left)
        vs = vertex_names(n)
        offset = 0
        edges = []
        order: list[Vertex] = []
        for sz in sizes:
            sub = _perturbed(rng, sz, k=0, connect=True)
            mapping = {w: vs[offset + i] for i, w in enumerate(sub.graph.vertices)}
            edges.extend((mapping[a], mapping[b]) for a, b in sub.graph.edges)
            order.extend(mapping[w] for w in sub.order)
            offset += sz
        _relocate(rng, order, k)
        return CircularDrawing(Graph(vs, edges), order)

    for _ in range(GENERATION_RETRIES):
        if profile == "almost-planar":
            base = _perturbed(rng, n, k=0, connect=True)
            g = base.graph
            edges = g.sorted_edges()
            if not edges:
                continue
            e = edges[rng.randrange(len(edges))]
            d = _almost_planar_from(g, e[0], e[1], rng, tries=8)
        else:  # case-2-2
            g, u, v = _chain_graph(rng, n)
            d = _almost_planar_from(g, u, v, rng, tries=8)
        if d is not None:
            return d
    raise GenerationFailed(f"no {profile} instance with n={n} after {GENERATION_RETRIES} retries")


def _chords_cross(e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """True iff two chords (a, b) and (c, d) between circle positions, with
    a < b and c < d, cross."""
    (a, b), (c, d) = e1, e2
    return a < c < b < d or c < a < d < b


def enumerate_almost_planar_instances(n: int) -> Iterator[CircularDrawing]:
    """Every almost-planar drawing of every connected outerplanar graph on n
    vertices, one per rotation class of the drawn edge pattern (reflections
    are distinct drawings and are kept).

    A drawing is almost-planar iff its edge set is one non-crossing chord set
    plus one extra chord crossing at least one of them, so enumeration walks
    exactly those shapes over the fixed clockwise order v1..vn.  A chord set
    is a bit mask over `combinations(range(n), 2)`; each class is represented
    by the first of its sets met, and all n of its rotations are marked seen
    at once, so a later candidate costs one set lookup.
    """
    vs = vertex_names(n)
    chords = list(combinations(range(n), 2))
    index = {c: i for i, c in enumerate(chords)}
    crosses = [sum(1 << j for j, f in enumerate(chords) if _chords_cross(e, f)) for e in chords]
    # rotated[r][i]: the bit of chord i turned r places clockwise
    rotated = [[1 << index[tuple(sorted(((a + r) % n, (b + r) % n)))] for a, b in chords] for r in range(n)]
    seen: set[int] = set()

    def bases(i: int, chosen: int, crossed: int) -> Iterator[tuple[int, int]]:
        """Non-crossing chord sets over chords i.., with `crossed` the chords
        crossing one in `chosen`; each set excludes chord i before it includes it."""
        if i == len(chords):
            yield chosen, crossed
            return
        yield from bases(i + 1, chosen, crossed)
        if not crossed >> i & 1:
            yield from bases(i + 1, chosen | 1 << i, crossed | crosses[i])

    for base, extras in bases(0, 0, 0):
        while extras:
            extra = extras & -extras
            extras ^= extra
            mask = base | extra
            if mask in seen:
                continue
            members = [i for i in range(len(chords)) if mask >> i & 1]
            seen.update(sum(rot[i] for i in members) for rot in rotated)
            edges = [chords[i] for i in members]
            if len(_least_positions(n, edges)) != 1:
                continue
            g = Graph(vs, [(vs[a], vs[b]) for a, b in edges])
            try:
                block_decomposition(g)
            except NotOuterplanar:
                continue
            if is_crossing_free(vs, g.edges):
                raise ConstructionFailed(f"the corpus chords {edges} over {n} positions cross nothing")
            yield CircularDrawing(g, vs)
