"""Block-cut tree, the cycles of blocks, and planar circular orders.

One iterative Hopcroft-Tarjan DFS (CACM 16(6), 1973) over vertex ranks
yields a graph's blocks, cut vertices and components in O(n + m), and peels
each block's Hamiltonian cycle as it pops the block.  A block is that cycle
(a bridge's is its two ends); attachments are read off the block-cut tree
the blocks form, as are the pieces of G - u - v for an edge u-v
(`almost_planar._edge_fixed_pieces`); only the oracle's independent
enumerator builds an adjacency of its own.
`planar_order_keeping` lays the tree out keeping a given sequence of
vertices in its cyclic order, each block with none of them from its entry
vertex towards that vertex's lower-ranked cycle neighbour; with nothing
kept, that is one flat pre-order walk, `planar_circular_order` without
`rng`.  Its keep test `_keep` returns a plan or None; the plan holds each
vertex's sequence, the roots, and what goes just before a vertex.  With
`rng`, `planar_circular_order` draws such a plan at random.  `_emit` lays
out every plan.  Each walk runs on an explicit stack and nests no Python
calls, so a deep tree never meets the recursion limit.  All take the tree,
to be built once and laid out often.

A block with as many edges as vertices is a plain cycle, walked along its
edges.  Any other block is peeled: a 2-connected outerplanar block always
has a vertex of degree 2, and removing it (recording its two neighbors as
cycle-adjacent) leaves a smaller outerplanar block.  Unwinding the peel
reconstructs the unique Hamiltonian cycle; any stall or inconsistent
reinsertion certifies a forbidden substructure.  A peel that unwinds
certifies the block: its chords cannot cross the cycle it rebuilds (see
`_peel_hamiltonian`), so no crossing test is run on it.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Collection, Iterable, Optional, Sequence

from .errors import InvalidInstance, NotOuterplanar, UnknownVertex
from .model import Edge, Graph, Vertex, _Record, rotate_to


class BlockDecomposition(_Record):
    """The block-cut tree of `graph`.  A block is its cycle (see
    `_peel_hamiltonian`); a bridge's is its two ends by rank.

    Block i is joined in the tree to every cut vertex it contains.  Blocks
    are ordered by their sorted vertex ranks, components by their first
    vertex; `incidence` maps each vertex to the indices of the blocks
    containing it, in block order (none for an isolated vertex), so the cut
    vertices are those in more than one block.  `component_of` maps each
    vertex to the index of its component.
    """

    __slots__ = _fields = ("graph", "blocks", "components", "incidence", "component_of")
    _unshown = ("incidence", "component_of")

    def attachment(self, block_index: int, v: Vertex) -> frozenset[Vertex]:
        """The component of G - E(B) containing v, for B the block at
        `block_index`: v plus the tree subtrees hanging off v away from B.
        Raises InvalidInstance for an index outside 0..len(blocks) - 1 and
        UnknownVertex for a vertex not in the graph."""
        if not 0 <= block_index < len(self.blocks):
            raise InvalidInstance(f"no block {block_index!r} among {len(self.blocks)}")
        if v not in self.incidence:
            raise UnknownVertex(repr(v))
        seen, out, stack = {block_index}, {v}, [v]
        while stack:
            for bi in self.incidence[stack.pop()]:
                if bi not in seen:
                    seen.add(bi)
                    fresh = [w for w in self.blocks[bi] if w not in out]
                    out.update(fresh)
                    stack.extend(fresh)
        return frozenset(out)

    def block_with_edge(self, e: Edge) -> int:
        """The index of the block holding the edge e (UnknownEdge if the
        graph has no such edge): the one block containing both ends, since
        two blocks share at most one vertex."""
        a, b = self.graph.edge(*e)
        return next(i for i in self.incidence[a] if i in self.incidence[b])


def block_decomposition(g: Graph) -> BlockDecomposition:
    """The block-cut tree of `g` with each block's cycle.

    The DFS runs on vertex ranks: its edge stack holds rank pairs, and each
    block of 3 or more vertices is peeled as the DFS pops it.  Names are put
    on the finished cycles and components.  Raises NotOuterplanar at the
    first popped block that is not outerplanar.
    """
    vs, index = g.vertices, g._index
    n = len(vs)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.edges:
        i, j = index[a], index[b]
        adj[i].append(j)
        adj[j].append(i)
    disc, low, tick = [-1] * n, [0] * n, count()
    edge_stack: list[tuple[int, int]] = []
    cycles: list[tuple[int, ...]] = []
    comps: list[list[int]] = []
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = next(tick)
        comp = [root]
        # frames: vertex, its DFS parent, neighbour iterator, edge stack height before the tree edge
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            x, parent, it, height = stack[-1]
            for y in it:
                if disc[y] < 0:
                    disc[y] = low[y] = next(tick)
                    comp.append(y)
                    stack.append((y, x, iter(adj[y]), len(edge_stack)))
                    edge_stack.append((x, y))
                    break
                if disc[y] < disc[x] and y != parent:  # back edge to an ancestor
                    edge_stack.append((x, y))
                    if disc[y] < low[x]:
                        low[x] = disc[y]
            else:
                stack.pop()
                if parent >= 0:
                    if low[x] < low[parent]:
                        low[parent] = low[x]
                    if low[x] >= disc[parent]:  # the parent separates x's subtree: pop its block
                        es = edge_stack[height:]
                        del edge_stack[height:]
                        cycles.append(_peel_hamiltonian(es) if len(es) > 1 else (x, parent) if x < parent else (parent, x))
        comps.append(comp)

    cycles.sort(key=sorted)
    blocks = tuple([tuple([vs[i] for i in cyc]) for cyc in cycles])
    incidence: dict[Vertex, list[int]] = {x: [] for x in vs}
    for bi, cyc in enumerate(blocks):
        for x in cyc:
            incidence[x].append(bi)
    component_of = {vs[x]: ci for ci, comp in enumerate(comps) for x in comp}
    components = tuple([frozenset([vs[i] for i in comp]) for comp in comps])
    return BlockDecomposition(g, blocks, components, incidence, component_of)


def _peel_hamiltonian(block_edges: Collection[tuple[int, int]]) -> tuple[int, ...]:
    """Unique Hamiltonian cyclic order of a 2-connected outerplanar block of
    3 or more vertices, given by its edges as rank pairs, from its lowest
    rank towards the lower of that vertex's two cycle neighbours.

    A block with as many edges as vertices has no chord: it is walked along
    its edges.  Any other block is peeled down to two vertices and unwound,
    which inserts each peeled w between its neighbours a and b, cycle
    neighbours at that point.  The peel is the whole certificate.  Going back
    from the last two vertices, every edge of each intermediate graph is a
    side or a non-crossing chord of its cycle, by induction: w's two edges
    become sides, a-b becomes a chord over w alone, and inserting w changes
    no other pair's alternation.  The first intermediate graph is the block
    itself.  Raises NotOuterplanar when the walk does not close after all
    vertices, the peel stalls, or a peeled vertex has no slot.
    """
    adj: dict[int, set[int]] = {}
    for a, b in block_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    k, first = len(adj), min(adj)

    if len(block_edges) == k:  # a plain cycle: no chord, so nothing can cross
        cycle, x = [first], min(adj[first])
        while x != first and len(cycle) < k and len(adj[x]) == 2:
            cycle.append(x)
            a, b = adj[x]
            x = b if a == cycle[-2] else a
        if x != first or len(cycle) != k:
            raise NotOuterplanar("a block without chords is not one cycle")
        return tuple(cycle)

    # `ready` holds each vertex as it reaches degree 2, last first.  Degrees
    # never grow and a peeled vertex's set is emptied, so an entry at another
    # degree is stale: it is skipped where it is popped.
    ready = [x for x, nbrs in adj.items() if len(nbrs) == 2]
    pop, push = ready.pop, ready.append
    peel: list[tuple[int, int, int]] = []
    for _ in range(k - 2):  # one peel for each vertex but the last two
        try:
            w = pop()
            while len(adj[w]) != 2:
                w = pop()
        except IndexError:
            raise NotOuterplanar("degree-2 peel stalled (K4-like substructure)") from None
        nbrs = adj[w]
        a, b = nbrs
        nbrs.clear()
        peel.append((w, a, b))
        nbrs = adj[a]
        nbrs.discard(w)
        nbrs.add(b)
        if len(nbrs) == 2:
            push(a)
        nbrs = adj[b]
        nbrs.discard(w)
        nbrs.add(a)
        if len(nbrs) == 2:
            push(b)

    # unwind on successor links from the last two vertices, the ends of the
    # last vertex peeled: w goes between a and b, which must be cycle neighbours
    succ = {a: b, b: a}
    for w, a, b in reversed(peel):
        if succ[a] == b:
            succ[a], succ[w] = w, b
        elif succ[b] == a:
            succ[b], succ[w] = w, a
        else:
            raise NotOuterplanar("peeled vertex has no cycle-adjacent reinsertion slot (K2,3-like)")
    cycle = [first]
    for _ in range(k - 1):
        cycle.append(succ[cycle[-1]])

    if cycle[-1] < cycle[1]:
        cycle[1:] = cycle[:0:-1]
    return tuple(cycle)


def planar_circular_order(decomp: BlockDecomposition, rng: Optional[random.Random] = None) -> tuple[Vertex, ...]:
    """A crossing-free cyclic order of `decomp.graph`, given its
    `block_decomposition` as for `planar_order_keeping`.

    Without `rng`, one flat `_walk`, as `planar_order_keeping(decomp, ())`;
    with `rng`, a uniform-ish random member of the orders the block layout
    reaches: the components in random order, each walked from a random root.
    A visit shuffles its vertex's child blocks and, for each, draws the
    block's direction (a bridge draws nothing), visits its cut vertices in
    that direction, and then puts the block before or after the vertex at
    random.  The draws run on a stack of tasks: a visit (no walk yet) or a
    block whose walk is done.  A block drawn after v joins `seq[v]` and one
    drawn before it `before[v]`, for `_emit`.  No crossing test is run
    here: the tree certifies that the graph is outerplanar, and every walk
    of it is crossing-free.
    """
    if rng is None:
        return tuple(_walk(decomp, range(len(decomp.components))))
    incidence, blocks = decomp.incidence, decomp.blocks
    comps = [sorted(c, key=decomp.graph._index.__getitem__) for c in decomp.components]
    rng.shuffle(comps)
    roots, seq, before = [], {}, {}
    for comp in comps:
        roots.append(rng.choice(comp))
        todo: list[tuple] = [(roots[-1], None, None, None)]
        while todo:
            v, bi, walk, kids = todo.pop()
            if walk is None:  # visit v, entered by block bi
                kids = [b for b in incidence[v] if b != bi]
                if len(kids) > 1:  # a shuffle of fewer draws nothing
                    rng.shuffle(kids)
                kids, seq[v] = iter(kids), [v]
            elif rng.random() >= 0.5:  # block bi's subtrees are drawn: put it after v or before it
                seq[v] += walk
            elif v in before:
                before[v] += walk
            else:
                before[v] = [*walk]
            bi = next(kids, None)
            if bi is None:
                continue
            cycle = blocks[bi]
            k = cycle.index(v)
            walk = cycle[k + 1 :] + cycle[:k]
            if len(walk) > 1 and rng.random() >= 0.5:
                walk = walk[::-1]
            todo.append((v, bi, walk, kids))
            todo += [(w, bi, None, None) for w in reversed(walk) if len(incidence[w]) > 1]
    return tuple(_emit(seq, roots, before))


def _emit(seq: dict[Vertex, list[Vertex]], roots: list[Vertex], before: dict[Vertex, list[Vertex]]) -> list[Vertex]:
    """A layout of the block-cut tree in pre-order from each of `roots` in
    turn.  `seq` maps a vertex with child blocks to itself and their cycle
    walks in laid order, and `before` a vertex to what goes just before it.
    A vertex is expanded the first time it is met; the next time, its
    `before` entry is laid out in the same way and then it is put out.  A
    vertex in neither dict is put out at once.  Both dicts are emptied."""
    out, stack = [], [iter(roots)]
    while stack:
        for x in stack[-1]:
            s = seq.pop(x, None)
            if s is None:
                s = before.pop(x, None)
                if s is None:
                    out.append(x)
                    continue
                stack.append(iter((x,)))
            stack.append(iter(s))
            break
        else:
            stack.pop()
    return out


def _walk(decomp: BlockDecomposition, comps: Iterable[int]) -> list[Vertex]:
    """The components of indices `comps` one after another, each in pre-order
    from its first vertex: a vertex, then its child blocks in `incidence`
    order, each from the vertex towards its lower-ranked cycle neighbour and
    each block vertex followed by its subtree.  `todo` holds the vertices
    still to visit, last first, and `via` the block each was reached by."""
    incidence, blocks, rank = decomp.incidence, decomp.blocks, decomp.graph._index
    out: list[Vertex] = []
    for c in comps:
        todo, via = [min(decomp.components[c], key=rank.__getitem__)], [None]
        while todo:
            v, parent = todo.pop(), via.pop()
            out.append(v)
            kids = incidence[v]
            if len(kids) == 1 and parent is not None:  # a leaf of the tree
                continue
            for bi in reversed(kids):
                if bi != parent:
                    cycle = rotate_to(blocks[bi], v)
                    todo += cycle[:0:-1] if rank[cycle[1]] < rank[cycle[-1]] else cycle[1:]
                    via += [bi] * (len(cycle) - 1)
    return out


def planar_order_keeping(decomp: BlockDecomposition, walk: Iterable[Vertex]) -> Optional[tuple[Vertex, ...]]:
    """A crossing-free cyclic order of `decomp.graph` whose restriction to
    the vertices of `walk` is `walk` up to rotation, or None when there is
    none.  `walk` lists distinct vertices in the cyclic order to keep, e.g.
    `restriction(order, fixed)`; a repeat raises InvalidInstance.  `decomp`
    is the graph's `block_decomposition`, which also certifies that the
    graph is outerplanar.

    The crossing-free orders of a connected outerplanar graph are the
    frontiers of its block-cut tree read as a PQ-tree: each block is a
    Q-node whose children follow its Hamiltonian cycle in either direction,
    and each vertex a P-node over itself and its child blocks (Booth and
    Lueker, JCSS 13(3), 1976; cyclic form: Hsu and McConnell, TCS 292(1),
    2003).  `_kept` runs the bottom-up reorder test on that tree.
    Two components never interleave, since each must lie in one gap of the
    other, so `_keep`, a stack walk along the fixed sequence, nests them,
    and each nested component's order goes in whole just before the next
    fixed vertex of the walk; `_emit` lays out its plan.  Components with
    no fixed vertex go last, laid out by `_walk`.  No crossing test is run
    here: the callers that hand an order out check it once.

    A walk of at most three vertices is always kept: three vertices have
    only two cyclic orders, each the mirror of the other, and the mirror of
    a crossing-free order is crossing-free.  So `oracle._max_fixed_set`
    does not ask about such sets (it still charges each probe).
    """
    plan = _keep(decomp, tuple(walk), {})
    if plan is None:
        return None
    seq, roots, before, ranks = plan
    return tuple(_emit(seq, roots, before) + _walk(decomp, [c for c, rank in enumerate(ranks) if not rank]))


def _keep(decomp: BlockDecomposition, walk: Sequence[Vertex], listings: dict[Vertex, list]) -> Optional[tuple]:
    """The plan of `planar_order_keeping(decomp, walk)`, or None when there
    is no such order: `(seq, roots, before, ranks)`, the first three for
    `_emit`, and `ranks[c]` each fixed vertex of component c by its place
    (empty when c has none).  A component opens at its first fixed vertex,
    its root, and closes at its last.  One that closes at walk index i
    inside another opened and closed between two of that one's fixed
    vertices, so its root goes into `before[walk[i + 1]]`: that next fixed
    vertex, or the root of a later component in the same gap, itself laid
    just before it.  One that closes at top level joins `roots`.  `walk` is
    read twice.  `listings` maps each root met so far to its `_listing`, which
    depends only on `decomp` and the root; a caller that asks about many
    walks of one `decomp` passes the same dict each time, so each root is
    listed once."""
    comp_of = decomp.component_of
    ranks: list[dict[Vertex, int]] = [{} for _ in decomp.components]
    last = {}
    for i, x in enumerate(walk):
        try:
            c = comp_of[x]
        except KeyError:
            raise UnknownVertex(repr(x)) from None
        if x in ranks[c]:
            raise InvalidInstance(f"walk repeats vertex {x!r}")
        ranks[c][x] = len(ranks[c])
        last[c] = i
    seq, roots, before = {}, [], {}
    nest: list[tuple[int, Vertex]] = []  # the components open at this point of the walk, with their roots
    for i, x in enumerate(walk):
        c = comp_of[x]
        if not nest or nest[-1][0] != c:
            if ranks[c][x]:  # c was opened before, and another component is open inside it
                return None
            inner = listings.get(x)
            if inner is None:
                inner = listings[x] = _listing(decomp, x)
            if not _kept(decomp, inner, ranks[c], seq):
                return None
            nest.append((c, x))
        if i == last[c]:
            root = nest.pop()[1]
            if nest:
                before[walk[i + 1]] = [root]
            else:
                roots.append(root)
    return seq, roots, before, ranks


def _listing(decomp: BlockDecomposition, root: Vertex) -> list[tuple[Vertex, list[tuple[Vertex, ...]]]]:
    """The inner vertices of the block-cut tree of `root`'s component in
    pre-order from `root`, each with the cycle walks of its child blocks:
    each block's cycle from the vertex, less the vertex.  A tree leaf other
    than `root` has no entry.  Nothing in it depends on what is kept."""
    incidence, blocks = decomp.incidence, decomp.blocks
    inner, todo, via = [], [root], [None]
    while todo:
        v, parent = todo.pop(), via.pop()
        walks = []
        for bi in incidence[v]:
            if bi != parent:
                walk = rotate_to(blocks[bi], v)[1:]
                walks.append(walk)
                for w in walk:
                    if len(incidence[w]) > 1:
                        todo.append(w)
                        via.append(bi)
        inner.append((v, walks))
    return inner


def _kept(
    decomp: BlockDecomposition,
    inner: list[tuple[Vertex, list[tuple[Vertex, ...]]]],
    rank: dict[Vertex, int],
    seq: dict[Vertex, list[Vertex]],
) -> bool:
    """Whether some crossing-free order of the component listed in `inner`
    (its `_listing`), starting at its root, lists the ranked vertices by
    increasing rank.  The root must have rank 0.  Each inner vertex's
    sequence goes into `seq`, for `_emit` to lay out from the root.

    In a crossing-free order every subtree without the root is one arc, so
    its ranks must run consecutively; a block's children must come in rank
    order along its Hamiltonian cycle, one way or the other, which sets the
    block's direction (with no ranked child, the entry vertex's lower-ranked
    cycle neighbour goes first); a vertex and its child blocks go by rank,
    the unranked ones right after the vertex.  On the listing reversed, so
    children before parents, each vertex fixes its blocks' directions and
    its own sequence, and `span` its subtree's lowest and highest rank; the
    first subtree whose ranks do not run on fails the test.  With at most
    three ranks the test always passes (see `planar_order_keeping`).
    """
    index = decomp.graph._index
    span = {x: (r, r) for x, r in rank.items()}
    for v, walks in reversed(inner):
        own = rank.get(v)
        ranked = [] if own is None else [(own, own, None)]  # None stands for v itself
        free: list[Vertex] = []  # the blocks without a ranked vertex, one after another
        for walk in walks:
            runs = [span[w] for w in walk if w in span]
            if not runs:
                free += walk if index[walk[0]] <= index[walk[-1]] else walk[::-1]
                continue
            if runs[0][0] > runs[-1][0]:
                walk, runs = walk[::-1], runs[::-1]
            for (_, hi), (lo, _) in zip(runs, runs[1:]):
                if lo != hi + 1:
                    return False
            ranked.append((runs[0][0], runs[-1][1], walk))
        ranked.sort()  # by lowest rank, which no two share
        for (_, hi, _), (lo, _, _) in zip(ranked, ranked[1:]):
            if lo != hi + 1:
                return False
        if ranked:
            span[v] = ranked[0][0], ranked[-1][1]
        order = [] if own is not None else [v, *free]
        for _, _, walk in ranked:
            if walk is None:
                order.append(v)
                order += free
            else:
                order += walk
        seq[v] = order
    return True
