"""Untangling almost-planar drawings: one-side, edge-fixed, and minimum.

An almost-planar drawing has a single edge e = (u, v) involved in all
crossings, so the drawing minus e is crossing-free.  Each untangler gives
only its rule for the moved sets: the smaller side of e, the smaller side
of every piece of G - u - v, or the least of a whole endpoint side (e a
bridge) and the satellites' smaller sides plus what the best canonical
target (block Hamiltonian cycle plus attachment blocks, scored by the
longest common cyclic subsequence) drops.  No target is listed: a block
gives one slot cycle (a slot per vertex: its attachment and cuts), which
`seqs.best_slots` scores both ways round with a polynomial arc DP, and so
does a bridge's side: its one qualifying block's from the apex's slot, or
its input order as one slot when no edge of it crosses the bridge.  Each
side is an arc of the input, so `seqs.best_opening` scores it alone
against its cycle's openings.  Two answers the block-cut tree fixes are
not searched or scored: a block vertex in no other block is the slot
((b,), [0]) as it stands, and a side that unwraps to one slot is that
slot's own source, so its best opening keeps all of it.  One path, `_untangle`, runs all three: it
classifies, builds the block-cut tree once, and places the cheapest set
with `blocks.planar_order_keeping` and `moves_to_reach`, keeping every
other vertex in input order.

Structural facts the constructions rely on are asserted at runtime and raise
StructuralAssertionFailed when violated; `assertion_failures` counts them so
test suites can require a clean run.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .blocks import BlockDecomposition, block_decomposition, planar_order_keeping
from .errors import NotAlmostPlanar, StructuralAssertionFailed
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
    classify,
    is_crossing_free,
    moves_to_reach,
    restriction,
    rotate_to,
)
from .seqs import best_opening, best_slots

assertion_failures = 0

# A slot (sigma, cuts) of a `seqs` slot cycle: an attachment and its planar cuts.
Slot = tuple[tuple[Vertex, ...], list[int]]


def _sassert(cond: bool, msg: str) -> None:
    global assertion_failures
    if not cond:
        assertion_failures += 1
        raise StructuralAssertionFailed(msg)


def _cheapest(g: Graph, sets: Iterable[Collection[Vertex]]) -> set[Vertex]:
    """The smallest of some vertex sets: on a tie the lexicographically first
    by sorted vertex ranks, then the first given."""
    return set(min(sets, key=lambda s: (len(s), sorted(map(g.index, s)))))


def _smaller_sides(g: Graph, cand: EdgeCandidate, pieces: Iterable[frozenset[Vertex]]) -> set[Vertex]:
    """The union of the candidate edge's smaller side within each of `pieces`."""
    lset, rset = set(cand.left), set(cand.right)
    return set().union(*[_cheapest(g, (c & lset, c & rset)) for c in pieces])


def _moves_keeping(d: CircularDrawing, decomp: BlockDecomposition, moved: set[Vertex]) -> list[VertexMove]:
    """Moves of exactly `moved` to a crossing-free order in which every other
    vertex keeps its input cyclic order; `decomp` is the graph's tree.  The
    crossing test of that order here is every untangler's one answer check."""
    target = planar_order_keeping(decomp, [x for x in d.order if x not in moved])
    ok = target is not None and is_crossing_free(target, d.graph.edges)
    _sassert(ok, "no crossing-free order was built keeping the unmoved vertices in input order")
    return moves_to_reach(d.order, target, moved)


def _untangle(
    d: CircularDrawing, e: Optional[Edge], moved_sets: Callable[[BlockDecomposition, tuple], Iterable[Collection[Vertex]]]
) -> Untangling:
    """The one path of every untangler: classify, keep the candidate edges
    (only e when given), build the block-cut tree, and place the cheapest of
    `moved_sets(decomp, cands)`, the untangler's own rule, once."""
    cls = classify(d)
    if cls.kind == PLANAR:
        return Untangling(())
    if cls.kind != ALMOST_PLANAR:
        raise NotAlmostPlanar("no single edge is involved in all crossings")
    cands = cls.candidates
    if e is not None:
        e = d.graph.edge(*e)
        cands = tuple(c for c in cands if c.edge == e)
        if not cands:
            raise NotAlmostPlanar(f"edge {e} does not cover all crossings")
    decomp = block_decomposition(d.graph)
    moved = _cheapest(d.graph, moved_sets(decomp, cands))
    return Untangling(_moves_keeping(d, decomp, moved))


def one_side_untangle(d: CircularDrawing, e: Optional[Edge] = None) -> Untangling:
    """Planar result by moving only one side of the crossing edge; the moved
    set is exactly the smaller side of the chosen candidate edge."""
    # the two sides of the candidate with the smallest side, the first by edge rank on a tie
    return _untangle(d, e, lambda decomp, cands: min(((c.left, c.right) for c in cands), key=lambda s: min(map(len, s))))


def edge_fixed_untangle(d: CircularDrawing, e: Optional[Edge] = None) -> Untangling:
    """Minimum untangling that never moves the endpoints of the crossing edge:
    each piece of G - u - v independently sends its smaller side across."""
    return _untangle(d, e, lambda decomp, cands: (_edge_fixed_moved(decomp, c) for c in cands))


def _edge_fixed_moved(decomp: BlockDecomposition, cand: EdgeCandidate) -> set[Vertex]:
    """The smaller side of every piece of G - u - v.

    With both endpoints pinned, a piece straddling e would need a path between
    its two sides that avoids u and v, and some edge of that path would cross
    e; so pieces are exactly the units that must pick one side, and the
    per-piece minimum is forced.  (Components of G - e alone are too coarse: a
    component containing u or v can keep vertices on both sides, connected
    through the fixed endpoint.)
    """
    return _smaller_sides(decomp.graph, cand, _edge_fixed_pieces(decomp, cand.edge))


def _edge_fixed_pieces(decomp: BlockDecomposition, e: Edge) -> Iterator[frozenset[Vertex]]:
    """The components of G - u - v for e = (u, v), read off the tree: every
    component but e's, and for each block at u or v the union of its other
    vertices' attachments, one piece each, as the tree joins such blocks only
    through u or v.  e's own block gives none when e is a bridge, and else one:
    e is an edge of its cycle, not a chord (see `_min_untangle_candidates`),
    so the block less u and v is a path."""
    u, v = e
    comp = decomp.components[decomp.component_of[u]]
    yield from (c for c in decomp.components if c is not comp)
    for bi in {*decomp.incidence[u], *decomp.incidence[v]}:
        piece = frozenset().union(*(decomp.attachment(bi, w) for w in decomp.blocks[bi] if w != u and w != v))
        if piece:
            yield piece


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


def _block_attachment_targets(
    d: CircularDrawing, decomp: BlockDecomposition, bi: int, side: frozenset[Vertex]
) -> list[Slot]:
    """Block `bi`'s slot cycle: its vertices' slots in cycle order, whose
    targets are the cyclic orders of `side` (block `bi`'s component, less the
    far side of a bridge the caller leaves out) that lay the block along its
    cycle, either way round, with each attachment as a contiguous block in
    its input cyclic order.  Block vertex b's slot is its attachment in
    input cyclic order and the rotations in which no attachment edge spans b.

    A block vertex in no other block is its own attachment, and no edge
    lies within it: its slot is ((b,), [0]) without a search.  Only the cut
    vertices' attachments are searched and read off the order and edges.
    """
    g = decomp.graph
    cycle = decomp.blocks[bi]
    cuts = [b for b in cycle if len(decomp.incidence[b]) > 1]
    # attachments partition `side`, and every edge off the block inside
    # `side` joins two vertices of one cut vertex's attachment
    owner = {x: b for b in cuts for x in decomp.attachment(bi, b) & side}
    att_orders: dict[Vertex, list[Vertex]] = {b: [] for b in cuts}
    att_edges: dict[Vertex, list[Edge]] = {b: [] for b in cuts}
    if cuts:
        for x in d.order:
            if x in owner:
                att_orders[owner[x]].append(x)
        for ed in g.edges:
            b = owner.get(ed[0])
            if b is not None and owner.get(ed[1]) == b:
                att_edges[b].append(ed)
    slots = []
    for b in cycle:
        if b not in att_orders:
            slots.append(((b,), [0]))
            continue
        sigma = tuple(att_orders[b])
        slots.append((sigma, _apex_cuts(sigma, b, att_edges[b])))
        _sassert(bool(slots[-1][1]), "attachment admits no valid linearization around its block vertex")
    return slots


def unwrap_linearizations(
    d: CircularDrawing, decomp: BlockDecomposition, comp: frozenset[Vertex], apex: Vertex, other: Vertex
) -> list[Slot]:
    """One slot cycle, from the apex's slot, whose linear orders of `comp`,
    the side of `apex` once the bridge e = (apex, other) is cut, unwrap
    `apex` canonically: a block lies along its cycle, attachments keep
    their input cyclic order, and no edge spans the apex.  `decomp` is the
    whole graph's tree.  A cycle's orders open it just before or just after
    the apex's slot, either way round (see `seqs.best_opening`).

    Both sides are arcs of the input, as the drawing less e is
    crossing-free.  Read the side V from `other`: an edge of V crosses e
    when it spans the apex, and its ends lie in one branch at the apex (a
    block and all beyond it), one arc of V's cyclic order.  If no edge
    does, V read from `other` is an unwrapped order of the block at either
    of its ends, and every kept set on V follows it: the side is that one
    order.  Otherwise only that branch's block qualifies, its apex
    attachment is the middle of V, and an order that splits the apex's
    slot around the other slots (apex piece, branch, apex piece, U) agrees
    with the source (branch tail, middle, branch head, U) only where one
    piece or the branch keeps nothing: an unsplit order keeps as much.
    """
    lo, hi = sorted((d.position(apex), d.position(other)))

    def covers_apex(ed: Edge) -> bool:
        x, y = d.position(ed[0]), d.position(ed[1])
        return apex not in ed and (lo < x < hi) != (lo < y < hi)

    # every edge with an end in `comp` but e lies in it
    spanning = [ed for ed in decomp.graph.edges if ed[0] in comp and covers_apex(ed)]
    if not spanning:
        return [(tuple(x for x in rotate_to(d.order, other) if x in comp), [0])]
    qualifying = []
    for bi in decomp.incidence[apex]:
        if other in decomp.blocks[bi]:  # the bridge
            continue
        att = decomp.attachment(bi, apex)
        if not any(ed[0] in att for ed in spanning):
            qualifying.append(bi)
    _sassert(len(qualifying) == 1, "the edges crossing a bridge lie beyond more than one block at its endpoint")
    slots = _block_attachment_targets(d, decomp, qualifying[0], comp)
    a = next(k for k, (sigma, _) in enumerate(slots) if apex in sigma)
    return slots[a:] + slots[:a]


def min_untangle(d: CircularDrawing) -> Untangling:
    """A minimum untangling of an almost-planar drawing.

    For each candidate crossing edge, weighs (a) relocating a whole endpoint
    component next to the other endpoint and (b) the optimal component-fixed
    untangling, whose moved set comes from canonical target orders scored by
    longest common cyclic subsequence.  The smallest moved set wins, the
    first by rank on a tie, and only its moves are built.  Every step reads
    the graph's one block-cut tree, and each cycle block is scored once.
    It matches the oracle up to n = 14, but moves more than the optimum on
    seven drawings of n = 13-26 whose crossing edge is a bridge.
    """

    def moved_sets(decomp: BlockDecomposition, cands: tuple) -> Iterator[set[Vertex]]:
        by_block: dict[int, set[Vertex]] = {}  # cycle block index -> its moved set
        for c in cands:
            yield from _min_untangle_candidates(d, decomp, c, by_block)

    return _untangle(d, None, moved_sets)


def _min_untangle_candidates(
    d: CircularDrawing, decomp: BlockDecomposition, cand: EdgeCandidate, by_block: dict[int, set[Vertex]]
) -> Iterator[set[Vertex]]:
    """The moved set of each way to untangle around one candidate edge; a
    cycle block's moved set depends only on the block, so it is scored once
    into `by_block`.  A bridge's sides partition its component, so v's side
    is what u's leaves.  Only a side whose unwrapped cycle has more than
    one slot, which takes an edge of it crossing the bridge, is scored: a
    one-slot side keeps itself whole."""
    u, v = cand.edge
    bi = decomp.block_with_edge(cand.edge)
    comp = decomp.components[decomp.component_of[u]]
    if len(decomp.blocks[bi]) > 2:
        # e lies in a cycle block B, so u, v stay connected in G - e, and e
        # is an edge of B's cycle, never a chord.  Were it a chord, both u-v
        # paths of the cycle would remain in the drawing less e, which is
        # crossing-free; an edge crossing e separates u from v on the
        # circle, so it touches both paths.  It would then be a chord of B
        # alternating with e on B's cycle, which an outerplanar block
        # cannot have.
        if bi not in by_block:
            kept = best_slots(restriction(d.order, comp), _block_attachment_targets(d, decomp, bi, comp))
            by_block[bi] = set(comp).difference(kept)
        yield by_block[bi]
        return
    # e is a bridge, and G - e splits its component into u's and v's sides
    comp_u = decomp.attachment(bi, u)
    comp_v = comp - comp_u

    # whole-side relocations: u's side lands right after v, or v's side
    # right after u, which makes the endpoints circle neighbors
    yield set(comp_u)
    yield set(comp_v)

    # component-fixed branch: every satellite component sends its cheaper
    # side across.  Both endpoint sides are arcs of the input (the drawing
    # less e is crossing-free), so a target lv + lu keeps on both of them a
    # linear common subsequence of each arc and its order; a set kept
    # within one side moves the other whole, as a relocation above does.
    moved = _smaller_sides(d.graph, cand, (c for c in decomp.components if c is not comp))
    # A side no edge of which crosses e unwraps to one slot: the side read
    # from `other`, cut only at 0, which is the very source its opening is
    # scored against, so it keeps the whole side and moves nothing.
    for side, apex, other in ((comp_v, v, u), (comp_u, u, v)):
        cycle = unwrap_linearizations(d, decomp, side, apex, other)
        if len(cycle) > 1:
            moved |= side.difference(best_opening(restriction(rotate_to(d.order, other), side), cycle))
    yield moved
