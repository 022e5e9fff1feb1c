"""Untangling almost-planar drawings: one-side, edge-fixed, and minimum.

An almost-planar drawing has a single edge e = (u, v) involved in all
crossings, so the drawing minus e is crossing-free.  Each untangler settles
which vertices move by counting: the smaller side of e, the smaller side of
every piece of G - u - v, or the satellites' smaller sides plus what the
best canonical target (block Hamiltonian cycle plus attachment blocks,
scored by the longest common cyclic subsequence) drops.  One construction
then places them: `blocks.planar_order_keeping` gives a crossing-free order
that keeps every other vertex in input order, and `moves_to_reach` turns it
into moves.

Structural facts the constructions rely on are asserted at runtime and raise
StructuralAssertionFailed when violated; `assertion_failures` counts them so
test suites can require a clean run.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from math import prod
from typing import Iterable, Optional, Sequence

from .blocks import BlockDecomposition, block_decomposition, components, planar_order_keeping
from .errors import NotAlmostPlanar, StructuralAssertionFailed, TooLarge
from .model import (
    ALMOST_PLANAR,
    PLANAR,
    CircularDrawing,
    Edge,
    EdgeCandidate,
    Graph,
    Untangling,
    Vertex,
    VertexMove,
    apply_untangling,
    classify,
    empty_untangling,
    is_planar_drawing,
    moves_to_reach,
    restriction,
    rotate_to,
)
from .seqs import best_target, lccs

assertion_failures = 0

# Canonical targets one block may produce, over both walk directions, before
# `_block_attachment_targets` raises TooLarge.
TARGET_BUDGET = 1 << 14


def _sassert(cond: bool, msg: str) -> None:
    global assertion_failures
    if not cond:
        assertion_failures += 1
        raise StructuralAssertionFailed(msg)


def _candidate_edges(d: CircularDrawing, e: Optional[Edge]) -> tuple:
    cls = classify(d)
    if cls.kind == PLANAR:
        return cls, ()
    if cls.kind != ALMOST_PLANAR:
        raise NotAlmostPlanar("no single edge is involved in all crossings")
    cands = cls.candidates
    if e is not None:
        e = d.graph.edge(*e)
        match = [c for c in cands if c.edge == e]
        if not match:
            raise NotAlmostPlanar(f"edge {e} does not cover all crossings")
        cands = tuple(match)
    return cls, cands


def _lex_key(g: Graph, vs: Iterable[Vertex]) -> tuple:
    return tuple(sorted(g.index(x) for x in vs))


def _cheaper(g: Graph, a: Iterable[Vertex], b: Iterable[Vertex]) -> set[Vertex]:
    """The smaller of two vertex sets, the lexicographically first by rank
    on a tie."""
    return set(min(a, b, key=lambda side: (len(side), _lex_key(g, side))))


def _moves_keeping(d: CircularDrawing, decomp: BlockDecomposition, moved: set[Vertex]) -> list[VertexMove]:
    """Moves of exactly `moved` to a crossing-free order in which every other
    vertex keeps its input cyclic order; `decomp` is the graph's tree."""
    target = planar_order_keeping(decomp, d.order, [x for x in d.order if x not in moved])
    _sassert(target is not None, "no crossing-free order keeps the unmoved vertices in input order")
    return moves_to_reach(d.order, target, moved)


def one_side_untangle(d: CircularDrawing, e: Optional[Edge] = None) -> Untangling:
    """Planar result by moving only one side of the crossing edge; the moved
    set is exactly the smaller side of the chosen candidate edge."""
    cls, cands = _candidate_edges(d, e)
    if cls.kind == PLANAR:
        return empty_untangling()
    g = d.graph

    def cand_key(c):
        return (min(len(c.left), len(c.right)), g.index(c.edge[0]), g.index(c.edge[1]))

    cand = min(cands, key=cand_key)
    return Untangling(tuple(_moves_keeping(d, block_decomposition(g), _cheaper(g, cand.left, cand.right))))


def edge_fixed_untangle(d: CircularDrawing, e: Optional[Edge] = None) -> Untangling:
    """Minimum untangling that never moves the endpoints of the crossing edge:
    each piece of G - u - v independently sends its smaller side across."""
    cls, cands = _candidate_edges(d, e)
    if cls.kind == PLANAR:
        return empty_untangling()
    g = d.graph
    by_edge = sorted(cands, key=lambda c: (g.index(c.edge[0]), g.index(c.edge[1])))
    moved = min((_edge_fixed_moved(g, c) for c in by_edge), key=lambda s: (len(s), _lex_key(g, s)))
    return Untangling(tuple(_moves_keeping(d, block_decomposition(g), moved)))


def _edge_fixed_moved(g: Graph, cand: EdgeCandidate) -> set[Vertex]:
    """The smaller side of every piece of G - u - v.

    With both endpoints pinned, a piece straddling e would need a path between
    its two sides that avoids u and v, and some edge of that path would cross
    e; so pieces are exactly the units that must pick one side, and the
    per-piece minimum is forced.  (Components of G - e alone are too coarse: a
    component containing u or v can keep vertices on both sides, connected
    through the fixed endpoint.)
    """
    u, v = cand.edge
    lset, rset = set(cand.left), set(cand.right)
    inner = [x for x in g.vertices if x not in (u, v)]
    inner_edges = [ed for ed in g.edges if u not in ed and v not in ed]
    moved: set[Vertex] = set()
    for c in components(inner, inner_edges):
        moved |= _cheaper(g, c & lset, c & rset)
    return moved


# -- minimum untangling --------------------------------------------------


def _apex_cuts(cyc: Sequence[Vertex], apex: Vertex, edges: Iterable[Edge]) -> list[int]:
    """The rotations k, ascending, for which no edge spans `apex` in the
    linear order cyc[k:] + cyc[:k].

    Cutting the circle before cyc[k] makes an edge span the apex exactly
    when the cut lies on the edge's arc that avoids the apex; a difference
    array over cut positions, counted from the apex, marks those cuts.
    Edges at the apex span nothing.  O(len(cyc) + edges).
    """
    n = len(cyc)
    pa = cyc.index(apex)
    rel = {x: (i - pa) % n for i, x in enumerate(cyc)}
    diff = [0] * (n + 1)
    for a, c in edges:
        s, t = rel[a], rel[c]
        if s and t:
            if s > t:
                s, t = t, s
            diff[s + 1] += 1
            diff[t + 1] -= 1
    out, covered = [], 0
    for r in range(n):
        covered += diff[r]
        if not covered:
            out.append((pa + r) % n)
    out.sort()
    return out


def _attachment_linearizations(
    sigma: tuple[Vertex, ...], b: Vertex, edges: list[Edge]
) -> list[tuple[Vertex, ...]]:
    """All rotations of the attachment's cyclic input order in which no
    attachment edge spans the block vertex `b` (those are the planar ways to
    lay the attachment out as one contiguous block around its block vertex)."""
    return [sigma[k:] + sigma[:k] for k in _apex_cuts(sigma, b, edges)]


def _block_attachment_targets(
    d: CircularDrawing, decomp: BlockDecomposition, bi: int, side: frozenset[Vertex]
) -> list[tuple[Vertex, ...]]:
    """Cyclic target orders for the vertex set `side` (block `bi`'s
    component, less the far side of a bridge the caller leaves out) that
    lay the block along its Hamiltonian cycle (both directions) with each
    attachment as a contiguous block keeping its input cyclic order.

    Every combination of attachment linearizations is listed, one walk
    after the other; raises TooLarge when there are more than TARGET_BUDGET.
    """
    g = decomp.graph
    block = decomp.blocks[bi]
    ham = block.hamiltonian if block.hamiltonian is not None else tuple(sorted(block.vertices, key=g.index))
    walks = [ham]
    rev = (ham[0],) + tuple(reversed(ham[1:]))
    if rev != ham:
        walks.append(rev)
    # attachments partition `side`, and every edge off the block inside
    # `side` joins two vertices of one attachment
    atts = {b: decomp.attachment(bi, b) & side for b in ham}
    owner = {x: b for b, att in atts.items() for x in att}
    att_edges: dict[Vertex, list[Edge]] = {b: [] for b in ham}
    for ed in g.edges:
        b = owner.get(ed[0])
        if b is not None and owner.get(ed[1]) == b:
            att_edges[b].append(ed)
    lins = {}
    for b in ham:
        lins[b] = _attachment_linearizations(restriction(d.order, atts[b]), b, att_edges[b])
        _sassert(bool(lins[b]), "attachment admits no valid linearization around its block vertex")
    count = len(walks) * prod(len(lins[b]) for b in ham)
    if count > TARGET_BUDGET:
        raise TooLarge(f"a block with {len(ham)} attachments has {count} canonical targets, over {TARGET_BUDGET}")
    return [tuple(x for part in combo for x in part) for walk in walks for combo in product(*(lins[b] for b in walk))]


def unwrap_linearizations(
    d: CircularDrawing, decomp: BlockDecomposition, comp: frozenset[Vertex], apex: Vertex, other: Vertex
) -> list[tuple[Vertex, ...]]:
    """Linear orders of `comp`, the side of `apex` once the bridge (apex,
    other) is cut, realizing a canonical unwrapping of `apex`: some
    qualifying block is laid along its Hamiltonian cycle, attachments keep
    their input cyclic order, and no component edge spans the apex.
    `decomp` is the whole graph's tree; the bridge's block is skipped."""
    if len(comp) == 1:
        return [(apex,)]
    edges = [ed for ed in decomp.graph.edges if ed[0] in comp and ed[1] in comp]
    pa, po = d.position(apex), d.position(other)

    def covers_apex(ed: Edge) -> bool:
        if apex in ed or other in ed:
            return False
        x, y = d.position(ed[0]), d.position(ed[1])
        lo, hi = min(pa, po), max(pa, po)
        return (lo < x < hi) != (lo < y < hi)

    qualifying = []
    for bi in decomp.incidence[apex]:
        if other in decomp.blocks[bi].vertices:  # the bridge
            continue
        att = decomp.attachment(bi, apex) & comp
        if not any(covers_apex(ed) for ed in edges if ed[0] in att and ed[1] in att):
            qualifying.append(bi)
    _sassert(bool(qualifying), "no qualifying block for unwrapping the apex")

    outs: set[tuple[Vertex, ...]] = set()
    for bi in qualifying:
        for cyc in _block_attachment_targets(d, decomp, bi, comp):
            outs.update(cyc[k:] + cyc[:k] for k in _apex_cuts(cyc, apex, edges))
    return sorted(outs)


def min_untangle(d: CircularDrawing) -> Untangling:
    """A minimum untangling of an almost-planar drawing.

    For each candidate crossing edge, weighs (a) relocating a whole endpoint
    component next to the other endpoint and (b) the optimal component-fixed
    untangling, whose moved set comes from canonical target orders scored by
    longest common cyclic subsequence.  The global best moved set wins, with
    deterministic tie-breaking, and only its moves are built.  Every step
    reads the graph's one block-cut tree.
    """
    cls, cands = _candidate_edges(d, None)
    if cls.kind == PLANAR:
        return empty_untangling()
    g = d.graph
    decomp = block_decomposition(g)

    best: Optional[tuple] = None
    for cand in sorted(cands, key=lambda c: (g.index(c.edge[0]), g.index(c.edge[1]))):
        for moved, build in _min_untangle_candidates(d, decomp, cand):
            key = (len(moved), _lex_key(g, moved))
            if best is None or key < best[0]:
                best = (key, build)
    assert best is not None
    u = Untangling(tuple(best[1]()))
    _sassert(is_planar_drawing(apply_untangling(d, u)), "minimum untangling is not planar")
    return u


def _min_untangle_candidates(d: CircularDrawing, decomp: BlockDecomposition, cand: EdgeCandidate):
    """(moved set, function returning its moves) for each way to untangle
    around one candidate edge."""
    g = d.graph
    e = cand.edge
    u, v = e
    bi = decomp.block_with_edge(e)
    comp = next(c for c in decomp.components if u in c)
    if decomp.blocks[bi].hamiltonian is not None:  # e lies on a cycle: u, v stay connected in G - e
        yield _connected_case_best(d, decomp, bi, comp)
        return
    # e is a bridge, and G - e splits its component into u's and v's sides
    comp_u, comp_v = decomp.attachment(bi, u), decomp.attachment(bi, v)

    # whole-side relocations: u's side lands right after v, and
    # symmetrically, which makes the endpoints circle neighbors
    for side, start, anchor in ((comp_u, u, v), (comp_v, v, u)):
        block = rotate_to(restriction(d.order, side), start)
        rest = [x for x in d.order if x not in side]
        ins = rest.index(anchor) + 1
        target = tuple(rest[:ins]) + block + tuple(rest[ins:])
        yield set(side), partial(moves_to_reach, d.order, target, set(side))

    # component-fixed branch: every satellite component sends its cheaper
    # side across, and the endpoint sides keep the best canonical target's
    # common subsequence with the input
    lset, rset = set(cand.left), set(cand.right)
    moved: set[Vertex] = set()
    for c in decomp.components:
        if c is not comp:
            moved |= _cheaper(g, c & lset, c & rset)
    source = restriction(d.order, comp)
    lv_opts = unwrap_linearizations(d, decomp, comp_v, v, u)
    lu_opts = unwrap_linearizations(d, decomp, comp_u, u, v)
    target = best_target(source, (lv + lu for lv in lv_opts for lu in lu_opts))
    moved |= comp - set(lccs(source, target))
    yield moved, partial(_moves_keeping, d, decomp, moved)


def _connected_case_best(d: CircularDrawing, decomp: BlockDecomposition, bi: int, comp: frozenset[Vertex]) -> tuple:
    """e lies on block `bi`'s cycle: canonical targets arrange the block's
    attachments along its Hamiltonian cycle (both directions).  Returns the
    moved set and a function returning its moves."""
    source = restriction(d.order, comp)
    target = best_target(source, _block_attachment_targets(d, decomp, bi, comp))
    moved = set(comp) - set(lccs(source, target))
    return moved, partial(moves_to_reach, d.order, target, moved)
