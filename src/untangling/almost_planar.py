"""Untangling almost-planar drawings: one-side, edge-fixed, and minimum.

An almost-planar drawing has a single edge e = (u, v) involved in all
crossings, so the drawing minus e is crossing-free.  The three untanglers
share one toolbox: component moves that push one side of e across, and
canonical target orders (block Hamiltonian cycle plus attachment blocks)
scored by the longest common cyclic subsequence against the input.

Structural facts the constructions rely on are asserted at runtime and raise
StructuralAssertionFailed when violated; `assertion_failures` counts them so
test suites can require a clean run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

from .blocks import BlockDecomposition, block_cut_tree, block_decomposition, components
from .errors import NotAlmostPlanar, StructuralAssertionFailed
from .model import (
    ALMOST_PLANAR,
    PLANAR,
    CircularDrawing,
    Edge,
    Graph,
    Untangling,
    Vertex,
    VertexMove,
    classify,
    cyclic_equal,
    empty_untangling,
    is_crossing_free,
    moves_to_reach,
    restriction,
    rotate_to,
    sides_of_edge,
)
from .seqs import best_target, lccs

LEFT = "left"
RIGHT = "right"

assertion_failures = 0

CUT_COMBO_CAP = 512


def _sassert(cond: bool, msg: str) -> None:
    global assertion_failures
    if not cond:
        assertion_failures += 1
        raise StructuralAssertionFailed(msg)


def _opposite(side: str) -> str:
    return LEFT if side == RIGHT else RIGHT


@dataclass(frozen=True)
class SidePartition:
    """Vertex sets beside the directed edge (u, v), in arc order.

    `left` is the clockwise arc strictly from v to u, `right` the clockwise
    arc strictly from u to v.
    """

    edge: Edge
    left: tuple[Vertex, ...]
    right: tuple[Vertex, ...]


def side_partition(d: CircularDrawing, e: Edge) -> SidePartition:
    e = d.graph.edge(*e)
    left, right = sides_of_edge(d, e)
    return SidePartition(e, left, right)


@dataclass(frozen=True)
class SplitComponent:
    vertices: frozenset[Vertex]
    side: str
    connecting: bool


@dataclass
class SplitDecomposition:
    """Case analysis for u, v connected but not 2-connected in G - e.

    `cross_edges` is the set X of edges between the augmented sides; the
    components are those of the u,v-component of G - e with X removed.
    """

    edge: Edge
    first_cut: Vertex
    last_cut: Vertex
    left_plus: frozenset[Vertex]
    right_plus: frozenset[Vertex]
    cross_edges: frozenset[Edge]
    components: tuple[SplitComponent, ...]
    adjacency: dict
    between_edges: dict  # (i, j) with i < j -> tuple of X-edges joining the two components

    def component_of(self, x: Vertex) -> int:
        for i, c in enumerate(self.components):
            if x in c.vertices:
                return i
        raise KeyError(x)


def classify_split_components(d: CircularDrawing, e: Edge) -> SplitDecomposition:
    """The left/right x connecting/non-connecting component structure around e."""
    g = d.graph
    u, v = g.edge(*e)
    gp_edges = g.edges - {e}
    tree = block_cut_tree(g.vertices, gp_edges)
    comp = next(c for c in tree.components if u in c)
    _sassert(v in comp, "split classification requires u, v connected in G - e")
    cuts = tree.separating_cuts(u, v)
    _sassert(bool(cuts), "u, v connected but no separating cut vertex (2-connected case)")
    f, l = cuts[0], cuts[-1]

    left, right = sides_of_edge(d, e)
    lset, rset = set(left) & comp, set(right) & comp
    (lset if f in lset else rset).add(u)
    (lset if l in lset else rset).add(v)
    left_plus, right_plus = frozenset(lset), frozenset(rset)

    sub_edges = [ed for ed in gp_edges if ed[0] in comp and ed[1] in comp]
    x_edges = frozenset(
        ed for ed in sub_edges if (ed[0] in left_plus) != (ed[1] in left_plus)
    )
    pieces = components(comp, [ed for ed in sub_edges if ed not in x_edges])
    pieces.sort(key=lambda c: min(d.position(x) for x in c))

    comps = []
    for c in pieces:
        on_left = c <= left_plus
        _sassert(on_left or c <= right_plus, "a split component straddles the two sides")
        # connecting: deleting the piece disconnects u from v (always so when it holds u or v)
        rest = comp - c
        rest_edges = [ed for ed in sub_edges if ed[0] in rest and ed[1] in rest]
        connecting = not any({u, v} <= k for k in components(rest, rest_edges))
        comps.append(SplitComponent(c, LEFT if on_left else RIGHT, connecting))

    adjacency: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    between: dict[tuple[int, int], list[Edge]] = {}
    index_of = {x: i for i, c in enumerate(comps) for x in c.vertices}
    for ed in x_edges:
        i, j = sorted((index_of[ed[0]], index_of[ed[1]]))
        adjacency[i].add(j)
        adjacency[j].add(i)
        between.setdefault((i, j), []).append(ed)
    return SplitDecomposition(
        (u, v), f, l, left_plus, right_plus, x_edges, tuple(comps), adjacency,
        {k: tuple(sorted(v_, key=lambda ed: (d.position(ed[0]), d.position(ed[1])))) for k, v_ in between.items()},
    )


class _Mover:
    """Mutable move accumulator over one drawing and one designated edge."""

    def __init__(self, d: CircularDrawing, e: Edge):
        self.graph = d.graph
        self.e = self.graph.edge(*e)
        self.u, self.v = self.e
        self.order: list[Vertex] = list(d.order)
        self.moves: list[VertexMove] = []
        self._edges_wo_e = self.graph.edges - {self.e}

    def drawing(self) -> CircularDrawing:
        return CircularDrawing(self.graph, self.order)

    def almost_planar_now(self) -> bool:
        return is_crossing_free(self.order, self._edges_wo_e)

    def check_almost_planar(self, ctx: str) -> None:
        _sassert(self.almost_planar_now(), f"{ctx}: crossings appeared off the designated edge")

    def arc_endpoints(self, target_side: str) -> tuple[Vertex, Vertex]:
        # target arc runs clockwise from P to Q
        return (self.u, self.v) if target_side == RIGHT else (self.v, self.u)

    def frame(self, start: Vertex) -> tuple[Vertex, ...]:
        return rotate_to(tuple(self.order), start)

    def relocate_block(self, block: Sequence[Vertex], anchor: Vertex, before: bool = False) -> None:
        """Make `block` (in the given order) contiguous immediately after
        `anchor` (or immediately before it), emitting one move per vertex."""
        bs = set(block)
        _sassert(anchor not in bs, "relocation anchor inside the moved block")
        rest = [x for x in self.order if x not in bs]
        pred = rest[rest.index(anchor) - 1] if before else anchor
        prev = pred
        for b in block:
            self.moves.append(VertexMove(b, prev))
            prev = b
        ins = rest.index(pred) + 1
        self.order = rest[:ins] + list(block) + rest[ins:]

    # -- component moves -------------------------------------------------

    def move_two_sided_component(self, comp: frozenset[Vertex], moving: set[Vertex], target_side: str) -> None:
        """Push `moving` (one side's part of component `comp`) across, landing
        just before the component's first vertex on the target arc.

        The insertion rule assumes the walk starts at the endpoint of e that
        opens the target arc; when that orientation leaves stray crossings the
        reflected variant is used instead (the casework behind the rule is
        stated up to reflection).
        """
        p, q = self.arc_endpoints(target_side)
        before = tuple(self.order)
        if self._try_two_sided(comp, moving, p):
            self.check_almost_planar("two-sided component move")
            return
        work = _Mover(self.drawing(), self.e)
        work.order = list(reversed(before))
        ok = work._try_two_sided(comp, moving, q)
        _sassert(ok, "two-sided component move failed in both orientations")
        final = tuple(reversed(work.order))
        self.moves.extend(moves_to_reach(before, final, set(moving)))
        self.order = list(final)
        self.check_almost_planar("two-sided component move")

    def _try_two_sided(self, comp: frozenset[Vertex], moving: set[Vertex], entry: Vertex) -> bool:
        fr = self.frame(entry)
        block = [x for x in fr if x in moving]
        vprime = next((x for x in fr[1:] if x in comp and x not in moving), None)
        if vprime is None:
            return False
        n_moves = len(self.moves)
        order_before = list(self.order)
        self.relocate_block(block, vprime, before=True)
        if self.almost_planar_now():
            return True
        self.order = order_before
        del self.moves[n_moves:]
        return False

    def move_floating_component(self, comp: frozenset[Vertex], target_side: str) -> None:
        """Relocate a whole component with no edges to the rest: it lands as a
        contiguous block at the end of the target arc, order preserved."""
        _p, q = self.arc_endpoints(target_side)
        fr = self.frame(q)
        block = [x for x in fr if x in comp]
        self.relocate_block(block, q, before=True)
        self.check_almost_planar("floating component move")

    def move_endpoint_pendant(self, comp: frozenset[Vertex], endpoint: Vertex, target_side: str) -> None:
        """Relocate a one-sided component containing u or v: its other vertices
        become contiguous with the endpoint on the target arc."""
        p, q = self.arc_endpoints(target_side)
        fr = self.frame(endpoint)
        block = [x for x in fr if x in comp and x != endpoint]
        if endpoint == p:
            self.relocate_block(block, endpoint, before=False)
        else:
            self.relocate_block(block, endpoint, before=True)
        self.check_almost_planar("endpoint pendant move")

    def _satellite_anchor(self, split: SplitDecomposition, ci: int) -> tuple[Vertex, bool]:
        """Landing slot for a non-connecting component: (anchor, insert-before).

        The component's far-side attachment is a single vertex y, or two
        vertices joined by a bridge, in which case y is the last vertex of the
        bridge's near half between them; the block goes right after y (right
        before the arc end when y is the arc end itself)."""
        comp = split.components[ci]
        target_side = _opposite(comp.side)
        p, q = self.arc_endpoints(target_side)
        adj = sorted(split.adjacency[ci])
        _sassert(len(adj) == 1, "non-connecting component adjacent to more than one component")
        other = split.components[adj[0]]
        _sassert(other.connecting, "non-connecting component adjacent to a non-connecting one")
        key = (min(ci, adj[0]), max(ci, adj[0]))
        fr = self.frame(p)
        pos = {x: i for i, x in enumerate(fr)}
        att = sorted(
            {ed[0] if ed[0] in other.vertices else ed[1] for ed in split.between_edges[key]},
            key=lambda x: pos[x],
        )
        _sassert(len(att) <= 2, "more than two attachment vertices on the far side")
        if len(att) == 1:
            y = att[0]
        else:
            w, x = att
            _sassert(
                (w, x) in self.graph.edges or (x, w) in self.graph.edges,
                "two attachment vertices without a joining edge",
            )
            bridge = (w, x) if (w, x) in self.graph.edges else (x, w)
            halves = components(other.vertices, [ed for ed in self._edges_wo_e
                                                  if ed != bridge and ed[0] in other.vertices and ed[1] in other.vertices])
            _sassert(len(halves) == 2, "attachment edge is not a bridge of its component")
            w_half = next(h for h in halves if w in h)
            members = [z for z in w_half if pos[w] <= pos[z] <= pos[x]]
            y = max(members, key=lambda z: pos[z])
        return (q, True) if y == q else (y, False)

    def push_satellite(self, split: SplitDecomposition, ci: int) -> None:
        """Move a non-connecting split component across, reversed, landing in
        the gap determined by its (at most two) attachment vertices.

        Blocks relocated earlier in the same clearing may already sit next to
        that gap; the landing slot may shift across such a run of moved
        vertices, and the first slot keeping all crossings on e wins."""
        comp = split.components[ci]
        target_side = _opposite(comp.side)
        p, _q = self.arc_endpoints(target_side)
        anchor, before = self._satellite_anchor(split, ci)
        fr = self.frame(p)
        block = [z for z in fr if z in comp.vertices and z not in (self.u, self.v)]
        block.reverse()
        moved_so_far = {m.vertex for m in self.moves}
        order = [x for x in self.order if x not in block]
        slots: list[Vertex]
        if before:
            # slots walk left from just-before-the-arc-end across moved vertices
            j = order.index(anchor) - 1
            slots = [order[j]]
            while order[j] in moved_so_far:
                j -= 1
                slots.append(order[j])
        else:
            slots = [anchor]
            j = order.index(anchor)
            while order[(j + 1) % len(order)] in moved_so_far:
                j = (j + 1) % len(order)
                slots.append(order[j])
        saved_order, saved_len = list(self.order), len(self.moves)
        for a in slots:
            self.relocate_block(block, a, before=False)
            if self.almost_planar_now():
                return
            self.order = list(saved_order)
            del self.moves[saved_len:]
        _sassert(False, "non-connecting component move: crossings appeared off the designated edge")

    def push_connector(self, split: SplitDecomposition, ci: int) -> None:
        """Move a connecting split component across via the two-phase merge:
        its adjacent far-side non-connecting components come over temporarily,
        then everything goes back reversed into the zone between the far-side
        connecting neighbors.  Only the component's own vertices are reported
        as moved."""
        comp = split.components[ci]
        target_side = _opposite(comp.side)
        p, q = self.arc_endpoints(target_side)
        adj = sorted(split.adjacency[ci])
        adj_conn = [j for j in adj if split.components[j].connecting]
        adj_non = [j for j in adj if not split.components[j].connecting]
        has_u, has_v = self.u in comp.vertices, self.v in comp.vertices
        if has_u or has_v:
            _sassert(len(adj_conn) <= 1, "endpoint component adjacent to several connecting components")
        else:
            _sassert(len(adj_conn) == 2, "interior connecting component without two connecting neighbors")
        for j in adj_conn:
            key = (min(ci, j), max(ci, j))
            shared = set(split.between_edges[key][0])
            for ed in split.between_edges[key][1:]:
                shared &= set(ed)
            _sassert(bool(shared), "edges between adjacent connecting components share no vertex")

        start_order = tuple(self.order)
        n_moves = len(self.moves)

        # phase 1 merges the far-side satellites into this component's side;
        # satellites sharing an insertion gap must stack so that the phase-2
        # reversal restores their original relative order: stacking direction
        # flips between after-anchor and before-anchor insertions
        fr0 = self.frame(p)
        sat_pos = {j: min(fr0.index(x) for x in split.components[j].vertices) for j in adj_non}
        anchors = {j: self._satellite_anchor(split, j) for j in adj_non}
        for j in sorted(adj_non, key=lambda j: -sat_pos[j] if anchors[j][1] else sat_pos[j]):
            self.push_satellite(split, j)

        fr = self.frame(p)
        pos = {x: i for i, x in enumerate(fr)}

        def interior(comp_index: int) -> list[Vertex]:
            return [x for x in split.components[comp_index].vertices if x not in (self.u, self.v)]

        if has_u and has_v:
            lo, hi = p, q
        elif p in comp.vertices:
            # the chain runs p, C, C', ..., so the zone starts right at p
            ci_int = interior(adj_conn[0]) if adj_conn else []
            lo, hi = p, (min(ci_int, key=lambda x: pos[x]) if ci_int else q)
        elif q in comp.vertices:
            ci_int = interior(adj_conn[0]) if adj_conn else []
            lo, hi = (max(ci_int, key=lambda x: pos[x]) if ci_int else p), q
        else:
            ints = sorted((interior(j) for j in adj_conn), key=lambda xs: min(pos[x] for x in xs) if xs else -1)
            c1_int, c2_int = ints
            lo = max(c1_int, key=lambda x: pos[x]) if c1_int else p
            hi = min(c2_int, key=lambda x: pos[x]) if c2_int else q
        _sassert(lo == p or hi == q or pos[lo] < pos[hi],
                 "connecting neighbors out of order along the arc")

        merged = set(comp.vertices) | {x for j in adj_non for x in split.components[j].vertices}
        fr = self.frame(p)
        block = [z for z in fr if z in merged and z not in (self.u, self.v)]
        block.reverse()
        # earlier satellite moves may already populate the zone; the block's
        # slot among them is whichever gap keeps all crossings on e
        zone = [lo] + [z for z in fr if z not in merged and pos[lo] < pos[z] < pos[hi]]
        moved = set(comp.vertices) - {self.u, self.v}
        fixed = [x for x in start_order if x not in moved]
        fixed_src = restriction(start_order, fixed)
        saved_order, saved_len = list(self.order), len(self.moves)
        placed = False
        for anchor in zone:
            self.relocate_block(block, anchor, before=False)
            if self.almost_planar_now() and cyclic_equal(fixed_src, restriction(self.order, fixed)):
                placed = True
                break
            self.order = list(saved_order)
            del self.moves[saved_len:]
        _sassert(placed, "connecting component move (two-phase): no valid zone gap")

        final = tuple(self.order)
        del self.moves[n_moves:]
        self.moves.extend(moves_to_reach(start_order, final, moved))

    # -- whole-side clearing ----------------------------------------------

    def clear_side(self, moving_side: str) -> None:
        """Move every vertex of one side of e across, leaving a planar drawing."""
        g = self.graph
        u, v = self.u, self.v
        d0 = self.drawing()
        left, right = sides_of_edge(d0, self.e)
        moving = set(left if moving_side == LEFT else right)
        target_side = _opposite(moving_side)

        comps = components(g.vertices, self._edges_wo_e)
        comps.sort(key=lambda c: min(d0.position(x) for x in c))
        comp_u = next(c for c in comps if u in c)
        comp_v = next(c for c in comps if v in c)

        lset, rset = set(left), set(right)
        src = lset if moving_side == LEFT else rset
        dst = rset if moving_side == LEFT else lset

        if comp_u != comp_v:
            pendants = []
            for c in comps:
                part = c & src
                if not part:
                    continue
                if c & dst:
                    self.move_two_sided_component(c, part, target_side)
                elif u in c or v in c:
                    pendants.append((c, u if u in c else v))
                else:
                    self.move_floating_component(c, target_side)
            for c, endpoint in pendants:
                self.move_endpoint_pendant(c, endpoint, target_side)
        else:
            for c in comps:
                if c == comp_u:
                    continue
                part = c & src
                _sassert(not (c & src and c & dst), "satellite component on both sides while u,v connected")
                if part:
                    self.move_floating_component(c, target_side)
            split = classify_split_components(d0, self.e)
            moving_plus = split.left_plus if moving_side == LEFT else split.right_plus
            todo = [i for i, c in enumerate(split.components) if c.vertices <= moving_plus]
            non_conn = [i for i in todo if not split.components[i].connecting]
            conn = [i for i in todo if split.components[i].connecting]
            # connecting components go first: their target zones (between the
            # far-side connecting neighbors) are untouched then, and satellite
            # relocations afterwards only nest next to unmoved anchors
            for i in sorted(conn, key=lambda i: min(d0.position(x) for x in split.components[i].vertices)):
                self.push_connector(split, i)
            for i in sorted(non_conn, key=lambda i: min(d0.position(x) for x in split.components[i].vertices)):
                self.push_satellite(split, i)

        moved = {m.vertex for m in self.moves}
        _sassert(moved == moving, "one-side clearing moved a different set than the chosen side")
        _sassert(is_crossing_free(self.order, g.edges), "one-side clearing left crossings")


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


def move_non_connecting(d: CircularDrawing, e: Edge, component: Iterable[Vertex]) -> tuple[Untangling, CircularDrawing]:
    """Move one non-connecting component across; returns the move fragment
    and the resulting drawing (still almost-planar on e)."""
    split = classify_split_components(d, e)
    ci = split.component_of(next(iter(component)))
    _sassert(split.components[ci].vertices == frozenset(component), "component does not match the split structure")
    mv = _Mover(d, e)
    mv.push_satellite(split, ci)
    return Untangling(tuple(mv.moves)), mv.drawing()


def move_connecting(d: CircularDrawing, e: Edge, component: Iterable[Vertex]) -> tuple[Untangling, CircularDrawing]:
    """Two-phase move of one connecting component across the edge."""
    split = classify_split_components(d, e)
    ci = split.component_of(next(iter(component)))
    _sassert(split.components[ci].vertices == frozenset(component), "component does not match the split structure")
    mv = _Mover(d, e)
    mv.push_connector(split, ci)
    return Untangling(tuple(mv.moves)), mv.drawing()


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
    if len(cand.left) < len(cand.right):
        side = LEFT
    elif len(cand.right) < len(cand.left):
        side = RIGHT
    else:
        side = LEFT if _lex_key(g, cand.left) <= _lex_key(g, cand.right) else RIGHT
    mv = _Mover(d, cand.edge)
    mv.clear_side(side)
    return Untangling(tuple(mv.moves))


def edge_fixed_untangle(d: CircularDrawing, e: Optional[Edge] = None) -> Untangling:
    """Minimum untangling that never moves the endpoints of the crossing edge:
    each component of G - e independently sends its smaller side across."""
    cls, cands = _candidate_edges(d, e)
    if cls.kind == PLANAR:
        return empty_untangling()
    g = d.graph

    best: Optional[tuple] = None
    for cand in sorted(cands, key=lambda c: (g.index(c.edge[0]), g.index(c.edge[1]))):
        mv = _edge_fixed_for(d, cand.edge)
        key = (len({m.vertex for m in mv}), _lex_key(g, {m.vertex for m in mv}))
        if best is None or key < best[0]:
            best = (key, mv)
    assert best is not None
    return Untangling(tuple(best[1]))


def _edge_fixed_for(d: CircularDrawing, e: Edge) -> list[VertexMove]:
    """Send the smaller side of every piece of G - e - {u, v} across.

    With both endpoints pinned, a piece straddling e would need a path between
    its two sides that avoids u and v, and some edge of that path would cross
    e; so pieces are exactly the units that must pick one side, and the
    per-piece minimum is forced.  (Components of G - e alone are too coarse: a
    component containing u or v can keep vertices on both sides, connected
    through the fixed endpoint.)
    """
    g = d.graph
    u, v = e
    left, right = sides_of_edge(d, e)
    lset, rset = set(left), set(right)
    inner = [x for x in g.vertices if x not in (u, v)]
    inner_edges = [ed for ed in g.edges if u not in ed and v not in ed]
    comps = components(inner, inner_edges)
    comps.sort(key=lambda c: min(d.position(x) for x in c))
    order = list(d.order)
    moves: list[VertexMove] = []
    for c in comps:
        lc, rc = c & lset, c & rset
        if not lc or not rc:
            continue
        if len(lc) < len(rc):
            side = LEFT
        elif len(rc) < len(lc):
            side = RIGHT
        else:
            side = LEFT if _lex_key(g, lc) <= _lex_key(g, rc) else RIGHT
        # the piece together with the pinned endpoints is itself an
        # almost-planar drawing; clear its minority side there, then port the
        # solution by anchoring each moved run to a piece-own fixed vertex so
        # the run nests cleanly among the other pieces
        keep = c | {u, v}
        subg = g.subgraph(keep)
        subd = CircularDrawing(subg, restriction(order, keep))
        sub = _Mover(subd, subg.edge(u, v))
        sub.clear_side(side)
        sub_moved = {m.vertex for m in sub.moves}
        rho = [x for x in rotate_to(tuple(sub.order), u) if x in c]
        i = 0
        while i < len(rho):
            if rho[i] not in sub_moved:
                i += 1
                continue
            j = i
            while j < len(rho) and rho[j] in sub_moved:
                j += 1
            run = rho[i:j]
            rest = [x for x in order if x not in run]
            if i > 0:
                pred = rho[i - 1]
            else:
                pred = rest[rest.index(rho[j]) - 1]
            prev = pred
            for x in run:
                moves.append(VertexMove(x, prev))
                prev = x
            ins = rest.index(pred) + 1
            order = rest[:ins] + run + rest[ins:]
            i = j
        _sassert(is_crossing_free(order, g.edges - {e}),
                 "edge-fixed piece move crossed another piece")
    _sassert(is_crossing_free(order, g.edges), "edge-fixed untangling left crossings")
    _sassert(u not in {m.vertex for m in moves} and v not in {m.vertex for m in moves},
             "edge-fixed untangling moved an endpoint of e")
    return moves


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


def _capped_products(parts: list[list[tuple[Vertex, ...]]], cap: int) -> list[list[tuple[Vertex, ...]]]:
    total = 1
    for p in parts:
        total *= len(p)
    if total <= cap:
        return [list(combo) for combo in product(*parts)]
    # fall back to uniform cut choices per attachment: block vertex first/last
    first = [p[0] for p in parts]
    last = [p[-1] for p in parts]
    return [first, last]


def _block_attachment_targets(
    d: CircularDrawing, sub: Graph, decomp: BlockDecomposition, bi: int, cap: int = CUT_COMBO_CAP
) -> list[tuple[Vertex, ...]]:
    """Cyclic target orders for the vertex set of `sub` that lay block `bi`
    along its Hamiltonian cycle (both directions) with each attachment as a
    contiguous block keeping its input cyclic order."""
    block = decomp.blocks[bi]
    ham = block.hamiltonian if block.hamiltonian is not None else tuple(sorted(block.vertices, key=sub.index))
    walks = [ham]
    rev = (ham[0],) + tuple(reversed(ham[1:]))
    if rev != ham:
        walks.append(rev)
    # attachments partition the vertices, and every edge off the block joins
    # two vertices of one attachment
    atts = {b: decomp.attachment(bi, b) for b in ham}
    owner = {x: b for b, att in atts.items() for x in att}
    att_edges: dict[Vertex, list[Edge]] = {b: [] for b in ham}
    for ed in sub.edges:
        b = owner[ed[0]]
        if owner[ed[1]] == b:
            att_edges[b].append(ed)
    lins = {}
    for b in ham:
        lins[b] = _attachment_linearizations(restriction(d.order, atts[b]), b, att_edges[b])
        _sassert(bool(lins[b]), "attachment admits no valid linearization around its block vertex")
    first = sub.vertices[0]
    seen = set()
    out = []
    for walk in walks:
        for combo in _capped_products([lins[b] for b in walk], cap):
            t = tuple(x for part in combo for x in part)
            key = rotate_to(t, first)
            if key not in seen:
                seen.add(key)
                out.append(t)
    return out


def unwrap_linearizations(d: CircularDrawing, comp: frozenset[Vertex], apex: Vertex, other: Vertex) -> list[tuple[Vertex, ...]]:
    """Linear orders of `comp` realizing a canonical unwrapping of `apex`:
    some qualifying block is laid along its Hamiltonian cycle, attachments
    keep their input cyclic order, and no component edge spans the apex."""
    if len(comp) == 1:
        return [(apex,)]
    sub = d.graph.subgraph(comp)
    decomp = block_decomposition(sub)
    pa, po = d.position(apex), d.position(other)
    n = len(d.order)

    def covers_apex(ed: Edge) -> bool:
        if apex in ed or other in ed:
            return False
        x, y = d.position(ed[0]), d.position(ed[1])
        lo, hi = min(pa, po), max(pa, po)
        return (lo < x < hi) != (lo < y < hi)

    qualifying = []
    for bi in decomp.incidence[apex]:
        att = decomp.attachment(bi, apex)
        att_edges = [ed for ed in sub.edges if ed[0] in att and ed[1] in att]
        if not any(covers_apex(ed) for ed in att_edges):
            qualifying.append(bi)
    _sassert(bool(qualifying), "no qualifying block for unwrapping the apex")

    outs: set[tuple[Vertex, ...]] = set()
    for bi in qualifying:
        for cyc in _block_attachment_targets(d, sub, decomp, bi):
            outs.update(cyc[k:] + cyc[:k] for k in _apex_cuts(cyc, apex, sub.edges))
    return sorted(outs)


def min_untangle(d: CircularDrawing) -> Untangling:
    """A minimum untangling of an almost-planar drawing.

    For each candidate crossing edge, takes the better of (a) relocating a
    whole endpoint component next to the other endpoint and (b) the optimal
    component-fixed untangling built from canonical target orders scored by
    longest common cyclic subsequence; returns the global best with
    deterministic tie-breaking on the moved set.
    """
    cls, cands = _candidate_edges(d, None)
    if cls.kind == PLANAR:
        return empty_untangling()
    g = d.graph

    best: Optional[tuple] = None

    def consider(moves: list[VertexMove]) -> None:
        nonlocal best
        moved = {m.vertex for m in moves}
        res = CircularDrawing(g, _apply_moves(d.order, moves))
        _sassert(is_crossing_free(res.order, g.edges), "candidate minimum untangling is not planar")
        key = (len(moved), _lex_key(g, moved))
        if best is None or key < best[0]:
            best = (key, moves)

    for cand in sorted(cands, key=lambda c: (g.index(c.edge[0]), g.index(c.edge[1]))):
        for moves in _min_untangle_candidates(d, cand.edge):
            consider(moves)
    assert best is not None
    return Untangling(tuple(best[1]))


def _apply_moves(order: Sequence[Vertex], moves: Iterable[VertexMove]) -> list[Vertex]:
    out = list(order)
    for m in moves:
        out.remove(m.vertex)
        out.insert(out.index(m.anchor) + 1, m.vertex)
    return out


def _min_untangle_candidates(d: CircularDrawing, e: Edge):
    g = d.graph
    u, v = e
    comps = components(g.vertices, g.edges - {e})
    comp_u = next(c for c in comps if u in c)
    comp_v = next(c for c in comps if v in c)

    if comp_u == comp_v:
        yield _connected_case_best(d, e, comp_u)
        return

    # whole-component relocations: u's component lands right after v, and
    # symmetrically, which makes the endpoints circle neighbors
    for comp, start, anchor in ((comp_u, u, v), (comp_v, v, u)):
        block = rotate_to(restriction(d.order, comp), start)
        rest = [x for x in d.order if x not in comp]
        ins = rest.index(anchor) + 1
        target = tuple(rest[:ins]) + block + tuple(rest[ins:])
        yield moves_to_reach(d.order, target, set(comp))

    # component-fixed branch: resolve satellite components to their cheaper
    # side, then unwrap both endpoints via canonical block layouts
    mv = _Mover(d, e)
    left, right = sides_of_edge(d, e)
    lset, rset = set(left), set(right)
    for c in sorted(comps, key=lambda c: min(d.position(x) for x in c)):
        if c in (comp_u, comp_v):
            continue
        lc, rc = c & lset, c & rset
        if not lc or not rc:
            continue
        if len(lc) < len(rc) or (len(lc) == len(rc) and _lex_key(g, lc) <= _lex_key(g, rc)):
            part, side = lc, LEFT
        else:
            part, side = rc, RIGHT
        mv.move_two_sided_component(c, set(part), _opposite(side))
    step1 = list(mv.moves)
    mid_order = tuple(mv.order)

    w_set = comp_u | comp_v
    _sassert(
        _contiguous_in(restriction(mid_order, w_set), comp_u),
        "endpoint components are not consecutive after side resolution",
    )

    source = restriction(d.order, w_set)
    lv_opts = unwrap_linearizations(d, comp_v, v, u)
    lu_opts = unwrap_linearizations(d, comp_u, u, v)
    target = best_target(source, (lv + lu for lv in lv_opts for lu in lu_opts))
    witness = lccs(source, target)
    step2 = moves_to_reach(mid_order, target, w_set - set(witness))
    yield step1 + step2


def _contiguous_in(seq: tuple[Vertex, ...], subset: frozenset[Vertex]) -> bool:
    """Whether the members of `subset` form at most one cyclic run in `seq`."""
    return sum(x in subset and seq[i - 1] not in subset for i, x in enumerate(seq)) <= 1


def _connected_case_best(d: CircularDrawing, e: Edge, w_comp: frozenset[Vertex]) -> list[VertexMove]:
    """u, v connected in G - e: canonical targets arrange the attachments of
    the block containing e along its Hamiltonian cycle (both directions)."""
    g = d.graph
    sub = g.subgraph(w_comp)
    decomp = block_decomposition(sub)
    bi = decomp.block_with_edge(e)
    _sassert(decomp.blocks[bi].hamiltonian is not None,
             "crossing edge in a bridge block while endpoints are connected")
    source = restriction(d.order, w_comp)
    target = best_target(source, _block_attachment_targets(d, sub, decomp, bi))
    witness = lccs(source, target)
    return moves_to_reach(d.order, target, set(w_comp) - set(witness))
