"""Block-cut tree, Hamiltonian cycles of blocks, and planar circular orders.

One iterative Hopcroft-Tarjan DFS (CACM 16(6), 1973) yields a graph's blocks,
cut vertices and components in O(n + m); attachments and separating vertices
are read off the block-cut tree they form.  `components` gives the same
components from a plain DFS, for callers that need no blocks.

The outerplanarity recognizer works by peeling: a 2-connected outerplanar
block always has a vertex of degree 2, and removing it (recording its two
neighbors as cycle-adjacent) leaves a smaller outerplanar block.  Unwinding
the peel reconstructs the unique Hamiltonian cycle; any stall or inconsistent
reinsertion certifies a forbidden substructure.  The reconstructed orders are
re-checked with the crossing test, so the recognizer is self-verifying.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Collection, Iterable, Optional

from .errors import NotOuterplanar
from .model import CircularDrawing, Edge, Graph, Vertex, is_crossing_free, rotate_to


@dataclass(frozen=True)
class Block:
    """A 2-connected component: vertex set, edge set, and (for 3 or more
    vertices, once decomposed) its unique Hamiltonian cyclic order."""

    vertices: frozenset[Vertex]
    edges: frozenset[Edge]
    hamiltonian: Optional[tuple[Vertex, ...]]


@dataclass(frozen=True)
class BlockCutTree:
    """Blocks, cut vertices and connected components of a graph.

    Block i is joined in the tree to every cut vertex it contains.  Blocks
    are ordered by their sorted vertex ranks, components by their first
    vertex; `incidence` maps each vertex to the indices of the blocks
    containing it, in block order (none for an isolated vertex).
    """

    blocks: tuple[Block, ...]
    cut_vertices: frozenset[Vertex]
    components: tuple[frozenset[Vertex], ...]
    incidence: dict = field(repr=False)

    def attachment(self, block_index: int, v: Vertex) -> frozenset[Vertex]:
        """The component of G - E(B) containing v, for B the block at
        `block_index`: v plus the tree subtrees hanging off v away from B."""
        seen, out, stack = {block_index}, {v}, [v]
        while stack:
            for bi in self.incidence[stack.pop()]:
                if bi not in seen:
                    seen.add(bi)
                    fresh = self.blocks[bi].vertices - out
                    out |= fresh
                    stack.extend(fresh)
        return frozenset(out)

    def separating_cuts(self, u: Vertex, v: Vertex) -> list[Vertex]:
        """Vertices whose deletion disconnects u from v: the cut vertices on
        the tree path from u to v, in path order, which is the order in which
        every u,v-path visits them."""
        cuts = dict.fromkeys(self.incidence[u], ())  # block -> cut vertices passed on the way from u
        todo = list(cuts)
        while todo:
            bi = todo.pop()
            if v in self.blocks[bi].vertices:
                return list(cuts[bi])
            for c in self.blocks[bi].vertices:
                for bj in self.incidence[c]:
                    if bj not in cuts:
                        cuts[bj] = cuts[bi] + (c,)
                        todo.append(bj)
        return []


@dataclass(frozen=True)
class BlockDecomposition(BlockCutTree):
    """A block-cut tree whose blocks carry their Hamiltonian cycles."""

    graph: Graph

    def block_with_edge(self, e: Edge) -> int:
        for i in self.incidence[e[0]]:
            if e in self.blocks[i].edges:
                return i
        raise KeyError(e)


def components(vertices: Iterable[Vertex], edges: Iterable[Edge]) -> list[frozenset[Vertex]]:
    """The connected components of the graph (vertices, edges), ordered by
    their first vertex in `vertices`, as in `block_cut_tree`, without the
    blocks."""
    adj: dict[Vertex, list[Vertex]] = {x: [] for x in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[Vertex] = set()
    out = []
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        comp, stack = [root], [root]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        out.append(frozenset(comp))
    return out


def block_cut_tree(vertices: Iterable[Vertex], edges: Iterable[Edge]) -> BlockCutTree:
    """The block-cut tree of the graph (vertices, edges); block edges are the
    given edge tuples, collected from the DFS edge stack."""
    rank = {x: i for i, x in enumerate(vertices)}
    adj: dict[Vertex, list[tuple[Vertex, Edge]]] = {x: [] for x in rank}
    for e in edges:
        adj[e[0]].append((e[1], e))
        adj[e[1]].append((e[0], e))
    disc: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    edge_stack: list[Edge] = []
    blocks: list[Block] = []
    components = []
    for root in rank:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        comp = [root]
        # frames: vertex, tree edge into it, neighbor iterator, edge stack height before that edge
        stack = [(root, None, iter(adj[root]), 0)]
        while stack:
            x, via, it, height = stack[-1]
            for y, e in it:
                if y not in disc:
                    disc[y] = low[y] = len(disc)
                    comp.append(y)
                    stack.append((y, e, iter(adj[y]), len(edge_stack)))
                    edge_stack.append(e)
                    break
                if disc[y] < disc[x] and e != via:  # back edge to an ancestor
                    edge_stack.append(e)
                    low[x] = min(low[x], disc[y])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[x])
                    if low[x] >= disc[p]:  # p separates x's subtree: pop its block
                        es = edge_stack[height:]
                        del edge_stack[height:]
                        blocks.append(Block(frozenset(w for f in es for w in f), frozenset(es), None))
        components.append(frozenset(comp))

    blocks.sort(key=lambda b: sorted(rank[x] for x in b.vertices))
    incidence: dict[Vertex, list[int]] = {x: [] for x in rank}
    for i, b in enumerate(blocks):
        for x in b.vertices:
            incidence[x].append(i)
    cut = frozenset(x for x, bs in incidence.items() if len(bs) > 1)
    return BlockCutTree(tuple(blocks), cut, tuple(components), incidence)


def hamiltonian_cycle_of_block(g: Graph, block_vertices: Iterable[Vertex]) -> tuple[Vertex, ...]:
    """Unique Hamiltonian cyclic order of a 2-connected outerplanar block.

    Raises NotOuterplanar when the peel stalls, a reinsertion target is not
    cycle-adjacent, or the reconstructed order leaves crossing chords.
    """
    vset = set(block_vertices)
    return _peel_hamiltonian(g, vset, [e for e in g.edges if e[0] in vset and e[1] in vset])


def _peel_hamiltonian(g: Graph, block_vertices: Iterable[Vertex], block_edges: Collection[Edge]) -> tuple[Vertex, ...]:
    verts = sorted(block_vertices, key=g.index)
    adj: dict[Vertex, set[Vertex]] = {v: set() for v in verts}
    for a, b in block_edges:
        adj[a].add(b)
        adj[b].add(a)
    if len(verts) < 3:
        raise NotOuterplanar("blocks with fewer than 3 vertices have no Hamiltonian cycle")

    peel: list[tuple[Vertex, Vertex, Vertex]] = []
    alive = list(verts)
    while len(alive) > 2:
        w = next((x for x in alive if len(adj[x]) == 2), None)
        if w is None:
            raise NotOuterplanar("degree-2 peel stalled (K4-like substructure)")
        a, b = sorted(adj[w], key=g.index)
        peel.append((w, a, b))
        alive.remove(w)
        adj[a].discard(w)
        adj[b].discard(w)
        adj[a].add(b)
        adj[b].add(a)
        del adj[w]

    cycle: list[Vertex] = list(alive)
    for w, a, b in reversed(peel):
        ia, ib, n = cycle.index(a), cycle.index(b), len(cycle)
        if (ia + 1) % n == ib:
            cycle.insert(ib, w)
        elif (ib + 1) % n == ia:
            cycle.insert(ia, w)
        else:
            raise NotOuterplanar("peeled vertex has no cycle-adjacent reinsertion slot (K2,3-like)")

    if not is_crossing_free(cycle, block_edges):
        raise NotOuterplanar("block chords cross in the reconstructed Hamiltonian order")

    ham = rotate_to(tuple(cycle), min(cycle, key=g.index))
    if len(ham) > 2 and g.index(ham[-1]) < g.index(ham[1]):
        ham = (ham[0],) + tuple(reversed(ham[1:]))
    return ham


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Blocks, cut vertices, components and per-block Hamiltonian cycles."""
    tree = block_cut_tree(g.vertices, g.edges)
    blocks = tuple(
        replace(b, hamiltonian=_peel_hamiltonian(g, b.vertices, b.edges)) if len(b.vertices) >= 3 else b
        for b in tree.blocks
    )
    return BlockDecomposition(blocks, tree.cut_vertices, tree.components, tree.incidence, g)


def _layout_component(g: Graph, decomp: BlockDecomposition, root: Vertex, rng: Optional[random.Random]) -> list[Vertex]:
    """The order of one component: a walk of the block-cut tree from `root`.

    `visit` and `expand_block` call each other once per tree level.  They are
    generators that yield the call they need and receive its result, and the
    loop at the end runs them on an explicit stack, so a long path does not
    exhaust Python's recursion limit.  Calls still run, and draw from `rng`,
    in the order of plain recursion.
    """
    def expand_block(bi: int, entry: Vertex):
        b = decomp.blocks[bi]
        if b.hamiltonian is None:
            walk = [entry, *(b.vertices - {entry})]
        else:
            walk = list(rotate_to(b.hamiltonian, entry))
            forward = g.index(walk[1]) <= g.index(walk[-1]) if rng is None else rng.random() < 0.5
            if not forward:
                walk = [walk[0]] + list(reversed(walk[1:]))
        out: list[Vertex] = []
        for w in walk[1:]:
            if len(decomp.incidence[w]) == 1:  # no other block: nothing to visit or draw
                out.append(w)
            else:
                out.extend((yield visit(w, bi)))
        return out

    def visit(v: Vertex, from_block: Optional[int]):
        children = [bi for bi in decomp.incidence[v] if bi != from_block]
        if rng is not None:
            rng.shuffle(children)
        pre: list[Vertex] = []
        post: list[Vertex] = []
        for bi in children:
            span = yield expand_block(bi, v)
            if rng is not None and rng.random() < 0.5:
                pre.extend(span)
            else:
                post.extend(span)
        return pre + [v] + post

    stack = [visit(root, None)]
    result = None
    while stack:
        try:
            stack.append(stack[-1].send(result))
            result = None
        except StopIteration as done:
            stack.pop()
            result = done.value
    return result


def planar_circular_order(g: Graph, rng: Optional[random.Random] = None) -> CircularDrawing:
    """A crossing-free circular drawing of an outerplanar graph.

    Deterministic without `rng`; with `rng`, a uniform-ish random member of
    the family of orders reachable by the block layout (random root, block
    directions, child order, and child side).  Disconnected graphs get their
    components laid out consecutively.  Raises NotOuterplanar otherwise.
    """
    decomp = block_decomposition(g)
    comps = [sorted(c, key=g.index) for c in decomp.components]
    if rng is not None:
        rng.shuffle(comps)
    order: list[Vertex] = []
    for comp in comps:
        root = comp[0] if rng is None else rng.choice(comp)
        order.extend(_layout_component(g, decomp, root, rng))
    if not is_crossing_free(order, g.edges):
        raise NotOuterplanar("no crossing-free circular order exists")
    return CircularDrawing(g, order)
