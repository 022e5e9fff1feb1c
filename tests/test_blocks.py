"""Block decomposition, Hamiltonian recovery, and planar circular orders,
free or keeping a fixed set in input order."""

import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from untangling import (
    CircularDrawing,
    Graph,
    block_decomposition,
    classify,
    crossings,
    cycle_graph,
    edge_fixed_untangle,
    enumerate_almost_planar_instances,
    enumerate_planar_orders,
    gen_random,
    is_crossing_free,
    min_untangle,
    one_side_untangle,
    path_graph,
    planar_circular_order,
    planar_order_keeping,
    verify_untangling,
)
from untangling import almost_planar, blocks, model
from untangling.errors import InvalidInstance, NotOuterplanar, UnknownEdge, UnknownVertex
from untangling.generators import PROFILES
from untangling.model import cyclic_equal, restriction, rotate_to


def k4():
    vs = ("a", "b", "c", "d")
    return Graph(vs, [(x, y) for i, x in enumerate(vs) for y in vs[i + 1 :]])


def k23():
    return Graph(
        ("a", "b", "x", "y", "z"),
        [("a", "x"), ("a", "y"), ("a", "z"), ("b", "x"), ("b", "y"), ("b", "z")],
    )


def _block_edges(g, cycle):
    """The edges of the block whose cycle is `cycle`: those with both ends
    on it, since two blocks share at most one vertex."""
    vs = set(cycle)
    return {e for e in g.edges if e[0] in vs and e[1] in vs}


def test_cycle_is_one_block():
    g = cycle_graph(6)
    bd = block_decomposition(g)
    assert len(bd.blocks) == 1
    assert not any(len(bd.incidence[v]) > 1 for v in g.vertices)
    (ham,) = bd.blocks
    assert cyclic_equal(ham, g.vertices) or cyclic_equal(ham, tuple(reversed(g.vertices)))
    assert all(len(bd.attachment(0, v)) == 1 for v in g.vertices)


def test_every_block_has_its_cycle_and_every_vertex_its_component():
    # a triangle with a pendant path, a bridge, and an isolated vertex
    g = Graph(
        ("z", "c", "a", "b", "p", "q", "s", "t"),
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "p"), ("p", "q"), ("t", "s")],
    )
    bd = block_decomposition(g)
    assert bd.blocks == (
        ("c", "a", "b"),  # from its first vertex by rank, towards the lower-ranked neighbour
        ("a", "p"),
        ("p", "q"),
        ("s", "t"),  # a bridge's two ends, by rank
    )
    for i, comp in enumerate(bd.components):
        assert all(bd.component_of[x] == i for x in comp)
    assert sorted(bd.component_of) == sorted(g.vertices)


def test_planar_order_keeping_rejects_unknown_vertex():
    with pytest.raises(UnknownVertex):
        planar_order_keeping(block_decomposition(cycle_graph(4)), ("v1", "x"))


@pytest.mark.parametrize("walk", [("v1", "v3", "v1"), ("v1", "v1")])
def test_planar_order_keeping_rejects_repeated_vertex(walk):
    with pytest.raises(InvalidInstance, match="'v1'"):
        planar_order_keeping(block_decomposition(cycle_graph(5)), walk)


def test_block_with_edge_holds_both_ends():
    for seed in range(20):
        for profile in ("almost-planar", "outerplanar-order-perturbed"):
            bd = block_decomposition(gen_random(12, seed, profile).graph)
            for e in bd.graph.edges:
                assert set(e) <= set(bd.blocks[bd.block_with_edge(e)])
    with pytest.raises(UnknownEdge):  # the ends share no block
        block_decomposition(path_graph(3)).block_with_edge(("v1", "v3"))
    with pytest.raises(UnknownEdge):  # the ends share a block, but not an edge
        block_decomposition(cycle_graph(5)).block_with_edge(("v1", "v3"))


def test_two_triangles_sharing_a_vertex():
    g = Graph(
        ("c", "a1", "a2", "b1", "b2"),
        [("c", "a1"), ("a1", "a2"), ("a2", "c"), ("c", "b1"), ("b1", "b2"), ("b2", "c")],
    )
    bd = block_decomposition(g)
    assert len(bd.blocks) == 2
    assert {v for v in g.vertices if len(bd.incidence[v]) > 1} == {"c"}
    for i, blk in enumerate(bd.blocks):
        other = {"a1", "a2", "b1", "b2"} - set(blk)
        assert bd.attachment(i, "c") == frozenset(other | {"c"})


def test_attachments_partition_vertices():
    g = Graph(
        ("a", "b", "c", "d", "e", "f"),
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("b", "f")],
    )
    bd = block_decomposition(g)
    for i, blk in enumerate(bd.blocks):
        parts = [bd.attachment(i, v) for v in sorted(blk, key=g.index)]
        union = set().union(*parts)
        assert union == set(g.vertices)
        assert sum(len(p) for p in parts) == len(g.vertices)
        for v, p in zip(sorted(blk, key=g.index), parts):
            assert set(p) & set(blk) == {v}


def test_attachment_checks_its_arguments():
    bd = block_decomposition(Graph(("a", "b", "c"), [("a", "b"), ("b", "c")]))
    assert bd.blocks == (("a", "b"), ("b", "c"))
    assert bd.attachment(1, "a") == frozenset("ab")  # block (b, c) by a valid index
    for bi in (-1, 2):  # unchecked, -1 would leave out no block and give the whole component
        with pytest.raises(InvalidInstance):
            bd.attachment(bi, "a")
    with pytest.raises(UnknownVertex):
        bd.attachment(0, "z")


def test_block_edges_are_hull_or_noncrossing_chords():
    g = Graph(
        ("a", "b", "c", "d", "e"),
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("a", "c"), ("a", "d")],
    )
    bd = block_decomposition(g)
    (blk,) = bd.blocks
    assert is_crossing_free(blk, g.edges)


def test_not_outerplanar_inputs():
    for g in (k4(), k23()):  # the tree refuses them, so no layout is reached
        with pytest.raises(NotOuterplanar):
            block_decomposition(g)


def test_hamiltonian_peel_matches_enumeration_uniqueness():
    # every 2-connected outerplanar graph has exactly one crossing-free cyclic
    # order up to rotation and reflection
    samples = [
        cycle_graph(5),
        Graph(
            ("a", "b", "c", "d", "e", "f"),
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a"), ("a", "c"), ("c", "f"), ("c", "e")],
        ),
        Graph(("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]),
    ]
    for g in samples:
        (ham,) = block_decomposition(g).blocks
        orders = enumerate_planar_orders(g)
        assert len(orders) == 2  # the cycle and its reflection
        for t in orders:
            assert cyclic_equal(t, ham) or cyclic_equal(t, (ham[0],) + tuple(reversed(ham[1:])))


@pytest.mark.parametrize("shape", ["cycle", "fan", "path-square"])
def test_hamiltonian_peel_of_large_blocks(shape):
    # one block of 20,000 vertices; the fan's peel frees one path vertex per
    # step, and its hub keeps a high degree to the end; the square of a path
    # (i-(i+1) and i-(i+2)) is maximal outerplanar and peels from both ends,
    # so many of the peel's stacked vertices are stale when popped
    g = cycle_graph(20_000)
    vs = g.vertices
    if shape == "fan":
        g = Graph(vs, [*zip(vs, vs[1:]), *((vs[0], x) for x in vs[2:])])
    if shape == "path-square":
        g = Graph(vs, [*zip(vs, vs[1:]), *zip(vs, vs[2:])])
    (ham,) = block_decomposition(g).blocks
    assert sorted(ham, key=g.index) == list(vs)
    for a, b in zip(ham, ham[1:] + ham[:1]):
        g.edge(a, b)  # raises unless the cycle runs along edges
    assert is_crossing_free(ham, g.edges)
    # normalized: starts at the lowest rank, then its lower-ranked neighbour
    assert ham[0] == vs[0] and g.index(ham[1]) < g.index(ham[-1])
    if shape == "path-square":  # the lowest rank, the odd ranks up, then the even ones down
        assert ham == vs[:1] + vs[1::2] + vs[-2:0:-2]
    else:
        assert ham == vs


def test_attachment_consecutive_in_every_planar_order():
    # a block with pendant trees: each attachment occupies a contiguous arc in
    # every crossing-free order
    g = Graph(
        ("a", "b", "c", "d", "p", "q"),
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "p"), ("p", "q")],
    )
    bd = block_decomposition(g)
    bi = next(i for i, blk in enumerate(bd.blocks) if len(blk) == 4)
    for t in enumerate_planar_orders(g):
        for v in bd.blocks[bi]:
            att = bd.attachment(bi, v)
            marks = [x in att for x in t]
            runs = sum(1 for i in range(len(t)) if marks[i] and not marks[i - 1])
            assert runs == 1


def layout(g, rng=None):
    """The drawing of g in `planar_circular_order` of its tree."""
    return CircularDrawing(g, planar_circular_order(block_decomposition(g), rng))


def test_planar_order_examples():
    c5 = cycle_graph(5)
    d = layout(c5)
    assert cyclic_equal(d.order, c5.vertices) or cyclic_equal(d.order, tuple(reversed(c5.vertices)))
    p4 = path_graph(4)
    assert len(crossings(layout(p4))) == 0


def test_planar_order_fixed_point_random():
    for seed in range(30):
        d = gen_random(10, seed, "outerplanar-order-perturbed")
        assert len(crossings(layout(d.graph))) == 0


def test_randomized_layouts_are_planar_and_varied():
    g = Graph(
        ("a", "b", "c", "d", "e", "f", "g2"),
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c"), ("a", "f"), ("b", "g2")],
    )
    seen = set()
    for seed in range(40):
        d = layout(g, random.Random(seed))
        assert len(crossings(d)) == 0
        seen.add(d.canonical_order())
    assert len(seen) > 5


def recursive_planar_order(g, rng=None):
    """Reference: `planar_circular_order` with the block-cut tree walked by
    plain recursion, which fails on deep trees but defines the order of the
    walk and of every `rng` draw."""
    decomp = block_decomposition(g)

    def expand_block(bi, entry):
        b = decomp.blocks[bi]
        if len(b) == 2:
            (other,) = set(b) - {entry}
            return visit(other, bi)
        walk = list(rotate_to(b, entry))
        forward = g.index(walk[1]) <= g.index(walk[-1]) if rng is None else rng.random() < 0.5
        if not forward:
            walk = [walk[0]] + list(reversed(walk[1:]))
        return [x for w in walk[1:] for x in visit(w, bi)]

    def visit(v, from_block):
        children = [bi for bi in decomp.incidence[v] if bi != from_block]
        if rng is not None:
            rng.shuffle(children)
        pre, post = [], []
        for bi in children:
            span = expand_block(bi, v)
            (pre if rng is not None and rng.random() < 0.5 else post).extend(span)
        return pre + [v] + post

    comps = [sorted(c, key=g.index) for c in decomp.components]
    if rng is not None:
        rng.shuffle(comps)
    order = []
    for comp in comps:
        order.extend(visit(comp[0] if rng is None else rng.choice(comp), None))
    return tuple(order)


def reference_peel(block_edges):
    """Reference: the degree-2 peel that recovered every block's cycle before
    blocks without chords were walked, kept as it was.  Takes a 2-connected
    outerplanar block of 3 or more vertices as rank pairs and returns its
    cycle from its lowest rank towards the lower of that rank's neighbours."""
    verts = sorted({x for e in block_edges for x in e})
    adj = {v: set() for v in verts}
    for a, b in block_edges:
        adj[a].add(b)
        adj[b].add(a)
    peel = []
    ready = [x for x in reversed(verts) if len(adj[x]) == 2]
    while len(adj) > 2:
        while ready and len(adj.get(ready[-1], ())) != 2:
            ready.pop()
        if not ready:
            raise NotOuterplanar("degree-2 peel stalled (K4-like substructure)")
        w = ready.pop()
        a, b = sorted(adj.pop(w))
        peel.append((w, a, b))
        for x, y in ((a, b), (b, a)):
            adj[x].discard(w)
            adj[x].add(y)
            if len(adj[x]) == 2:
                ready.append(x)
    first, second = adj
    succ = {first: second, second: first}
    for w, a, b in reversed(peel):
        if succ[a] == b:
            succ[a], succ[w] = w, b
        elif succ[b] == a:
            succ[b], succ[w] = w, a
        else:
            raise NotOuterplanar("peeled vertex has no cycle-adjacent reinsertion slot (K2,3-like)")
    cycle = [first]
    while len(cycle) < len(verts):
        cycle.append(succ[cycle[-1]])
    if not is_crossing_free(cycle, block_edges):
        raise NotOuterplanar("block chords cross in the reconstructed Hamiltonian order")
    ham = rotate_to(tuple(cycle), min(cycle))
    if ham[-1] < ham[1]:
        ham = (ham[0],) + ham[:0:-1]
    return ham


def hub_of_triangles(k=12):
    """k triangles on one hub: a k-way shuffle and k side draws at it."""
    edges = [e for i in range(k) for e in (("h", f"a{i}"), (f"a{i}", f"b{i}"), (f"b{i}", "h"))]
    return Graph(("h",) + tuple(f"{x}{i}" for i in range(k) for x in "ab"), edges)


def isolated_vertices():
    """Four isolated vertices beside a triangle and a bridge."""
    return Graph(("p", "a", "q", "b", "c", "r", "x", "y", "s"), [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y")])


def bridge_chain(n=40):
    """A path of n vertices, a triangle hanging off every third one."""
    g = path_graph(n)
    pendants = [(v, f"{v}{s}") for v in g.vertices[::3] for s in "tu"]
    edges = list(g.edges) + pendants + [(f"{v}t", f"{v}u") for v in g.vertices[::3]]
    return Graph(g.vertices + tuple(w for _, w in pendants), edges)


def triangle_chain(k=500, closed=False):
    """k triangles in a row, each sharing one vertex with the next: k blocks
    without chords.  Closed into a necklace, the last shares one with the
    first, and the k triangles make one block of 2k vertices and k chords."""
    ends = [f"v{i}" for i in range(k if closed else k + 1)]
    edges = []
    for i in range(k):
        a, w, b = ends[i], f"w{i}", ends[(i + 1) % len(ends)]
        edges += [(a, w), (w, b), (a, b)]
    return Graph(tuple(ends) + tuple(f"w{i}" for i in range(k)), edges)


HAND_BUILT = {"hub-of-triangles": hub_of_triangles, "isolated-vertices": isolated_vertices, "bridge-chain": bridge_chain}


def reference_inputs(name):
    """(graph, seed) pairs: 50 seeds of a hand-built graph, or up to 100
    random graphs of a profile."""
    if name in HAND_BUILT:
        yield from ((HAND_BUILT[name](), seed) for seed in range(50))
        return
    for n in (10, 30, 100, 200):
        for seed in range(25):
            try:
                yield gen_random(n, seed, name).graph, seed
            except InvalidInstance:  # disconnected draws with a one-vertex part
                continue


@pytest.mark.parametrize("profile", PROFILES + tuple(HAND_BUILT))
def test_layout_matches_recursive_reference(profile):
    checked = 0
    for g, seed in reference_inputs(profile):
        decomp = block_decomposition(g)
        assert planar_circular_order(decomp) == recursive_planar_order(g)
        assert planar_circular_order(decomp) == planar_order_keeping(decomp, ())
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert planar_circular_order(decomp, rng) == recursive_planar_order(g, ref_rng)
        assert rng.getstate() == ref_rng.getstate()  # the same draws
        assert is_crossing_free(planar_circular_order(decomp, random.Random(seed)), g.edges)
        checked += 1
    assert checked >= 30


def small_layout_inputs():
    """(graph, seed) pairs at the sizes the generators lay out: G - e for
    the drawings of every profile at n = 4-60 (e the crossing edge, or any
    edge of a planar drawing), random trees of bridges, single cycles, and
    trees with isolated vertices among theirs."""
    for profile in PROFILES:
        for n in range(4, 61, 4):
            for seed in range(12):
                try:
                    d = gen_random(n, seed, profile)
                except InvalidInstance:  # disconnected draws with a one-vertex part
                    continue
                cands = classify(d).candidates
                edges = [c.edge for c in cands] or d.graph.sorted_edges()
                yield (d.graph.without_edge(edges[seed % len(edges)]) if edges else d.graph), seed
    rng = random.Random(4)
    for seed in range(150):
        vs = tuple(f"t{i}" for i in range(rng.randint(1, 60)))
        yield Graph(vs, [(vs[i], vs[rng.randrange(i)]) for i in range(1, len(vs))]), seed
    for n in range(3, 61):
        for seed in range(2):
            yield cycle_graph(n), seed
    for seed in range(100):
        vs = tuple(f"t{i}" for i in range(rng.randint(1, 40)))
        tree = [i for i in range(len(vs)) if rng.random() < 0.6]  # the rest are isolated
        yield Graph(vs, [(vs[i], vs[rng.choice(tree[:k])]) for k, i in enumerate(tree) if k]), seed


def test_random_layout_matches_recursive_reference_on_small_graphs():
    """`planar_circular_order` with `rng` makes the reference's draws, no
    more and no fewer, and returns its order on over 1,000 small graphs."""
    checked = 0
    for g, seed in small_layout_inputs():
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert planar_circular_order(block_decomposition(g), rng) == recursive_planar_order(g, ref_rng), (g, seed)
        assert rng.getstate() == ref_rng.getstate(), (g, seed)
        checked += 1
    assert checked >= 1000


def _peel_inputs():
    for profile in PROFILES:
        for n in (10, 30, 100, 300):
            for seed in range(10):
                try:
                    yield gen_random(n, seed, profile).graph
                except InvalidInstance:  # disconnected draws with a one-vertex part
                    continue
    yield from (hub_of_triangles(), bridge_chain(), triangle_chain(), triangle_chain(closed=True))


def test_block_cycles_match_reference_peel():
    chordless = chorded = 0
    for g in _peel_inputs():
        decomp = block_decomposition(g)
        edges = [[] for _ in decomp.blocks]
        for e in g.edges:
            edges[decomp.block_with_edge(e)].append(e)
        for blk, bedges in zip(decomp.blocks, edges):
            if len(blk) == 2:
                continue
            ranked = [(g.index(a), g.index(b)) for a, b in bedges]
            assert tuple(map(g.index, blk)) == reference_peel(ranked)
            # the cycle runs along edges, and the block's chords do not cross
            assert all(g.edge(a, b) in bedges for a, b in zip(blk, blk[1:] + blk[:1]))
            assert is_crossing_free(blk, bedges)
            chordless += len(bedges) == len(blk)
            chorded += len(bedges) > len(blk)
    assert chordless > 1000 and chorded > 500


def test_tree_build_runs_no_crossing_sweep(monkeypatch):
    """The peel certifies each chorded block on its own: no crossing sweep
    runs while the tree is built, on chorded blocks, chordless ones or
    graphs the peel refuses."""

    def no_sweep(order, edges):
        raise AssertionError("block_decomposition ran a crossing sweep")

    monkeypatch.setattr(model, "crossing_pairs", no_sweep)
    vs = cycle_graph(20_000).vertices
    fan = Graph(vs, [*zip(vs, vs[1:]), *((vs[0], x) for x in vs[2:])])  # as in test_hamiltonian_peel_of_large_blocks
    assert block_decomposition(fan).blocks == (vs,)
    assert len(block_decomposition(hub_of_triangles(12)).blocks) == 12
    for g in (k4(), k23()):
        with pytest.raises(NotOuterplanar):
            block_decomposition(g)


def _labelled_graphs(n):
    """Every graph on the n vertices "0".."n-1", one per set of edges."""
    vs = tuple(map(str, range(n)))
    pairs = list(combinations(vs, 2))
    for mask in range(1 << len(pairs)):
        yield Graph(vs, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_peel_refuses_exactly_the_graphs_without_a_planar_order():
    """Over every labelled graph on at most 6 vertices, the tree is refused
    exactly when the graph has no crossing-free order: for a refused graph
    the oracle's enumeration, which does not use `blocks`, finds none, and
    an accepted graph's layout passes the crossing sweep.  Every chorded
    block's cycle is the reference peel's, which re-checks its chords for
    crossings."""
    refused = chorded = 0
    for n in range(1, 7):
        for g in _labelled_graphs(n):
            try:
                decomp = block_decomposition(g)
            except NotOuterplanar:
                refused += 1
                assert not enumerate_planar_orders(g), g.edges
                continue
            assert is_crossing_free(planar_circular_order(decomp), g.edges), g.edges
            for blk in decomp.blocks:
                bedges = [(g.index(a), g.index(b)) for a, b in _block_edges(g, blk)]
                if len(bedges) > len(blk):
                    chorded += 1
                    assert tuple(map(g.index, blk)) == reference_peel(bedges), g.edges
    assert (refused, chorded) == (13_186, 10_656)


def _edge_lists(n):
    """Edge lists on ranks below n, repeats allowed: any pairs, or a cycle
    through all n in random order plus any pairs, which the peel more
    often gets through."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    around = st.permutations(range(n)).map(lambda p: list(zip(p, p[1:] + p[:1])))
    return st.one_of(st.lists(pair, min_size=1), st.tuples(around, st.lists(pair, max_size=n)).map(lambda t: t[0] + t[1]))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 12).flatmap(_edge_lists))
@example([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])  # K2,3, which only the slot test refuses
def test_peel_cycle_is_crossing_free_on_any_edges(edges):
    """Whenever the peel returns on an edge list, which need not be a
    2-connected block, the edges do not cross on the cycle it returns."""
    assume(len(edges) != len({x for e in edges for x in e}))  # the peel's branch, not the chordless walk
    try:
        cycle = blocks._peel_hamiltonian(edges)
    except NotOuterplanar:
        return
    assert is_crossing_free(cycle, edges)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],  # two triangles: closes after 3 of 6
        [(0, 1), (1, 2), (2, 0), (2, 3)],  # a triangle with a pendant edge: never closes
        [(0, 1), (0, 2), (0, 3), (1, 2)],  # lowest rank of degree 3
    ],
)
def test_walk_without_chords_must_close_on_every_vertex(edges):
    with pytest.raises(NotOuterplanar, match="without chords"):
        blocks._peel_hamiltonian(edges)


@pytest.mark.parametrize("rng", [None, random.Random(0)])
def test_planar_order_of_long_path(rng):
    for n in (2000, 20_000):  # block-cut trees of depth ~2n
        g = path_graph(n)
        order = planar_circular_order(block_decomposition(g), rng)
        assert sorted(order) == sorted(g.vertices)
        assert is_crossing_free(order, g.edges)


def test_planar_order_keeping_on_long_path():
    g = path_graph(20_000)  # a block-cut tree of depth ~40,000
    decomp = block_decomposition(g)
    assert planar_order_keeping(decomp, ("v1", "v3", "v2", "v4")) is None  # chords v1-v2 and v3-v4 alternate
    order = planar_order_keeping(decomp, ("v1", "v2", "v3", "v4"))
    assert sorted(order) == sorted(g.vertices)
    assert is_crossing_free(order, g.edges)
    assert cyclic_equal(restriction(order, {"v1", "v2", "v3", "v4"}), ("v1", "v2", "v3", "v4"))


def test_block_without_fixed_vertex_runs_towards_lower_ranked_neighbour():
    # c's child block holds no fixed vertex, so it runs from c towards c's
    # lower-ranked cycle neighbour b, not in its stored direction c, d, b
    g = Graph("abcd", [("a", "c"), ("b", "c"), ("c", "d"), ("d", "b")])
    decomp = block_decomposition(g)
    assert decomp.blocks[1] == ("b", "c", "d")
    assert planar_order_keeping(decomp, ("a", "c")) == ("a", "c", "b", "d")
    assert planar_order_keeping(decomp, ("a", "c")) == planar_circular_order(decomp)


def test_disconnected_graphs_concatenate():
    g = Graph(("a", "b", "c", "x", "y"), [("a", "b"), ("b", "c"), ("x", "y")])
    d = layout(g)
    assert len(crossings(d)) == 0
    assert cyclic_equal(restriction(d.order, {"x", "y"}), ("x", "y"))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_block_chords_noncrossing_property(seed):
    d = gen_random(9, seed, "outerplanar-order-perturbed", k=0)
    bd = block_decomposition(d.graph)
    for blk in bd.blocks:
        assert is_crossing_free(blk, _block_edges(d.graph, blk))


def test_isolated_vertices_lie_in_no_block():
    g = Graph(("a", "b", "c", "z", "w"), [("a", "b"), ("b", "c"), ("c", "a")])
    bd = block_decomposition(g)
    assert bd.blocks == (("a", "b", "c"),)
    assert not any(len(bd.incidence[v]) > 1 for v in g.vertices)
    assert all(bd.attachment(0, v) == frozenset(v) for v in "abc")
    assert planar_circular_order(bd) == ("a", "b", "c", "z", "w")


def test_edgeless_graphs_have_no_blocks():
    for vs in ((), ("x",), ("x", "y", "z")):
        g = Graph(vs)
        bd = block_decomposition(g)
        assert bd.blocks == () and all(bd.incidence[v] == [] for v in vs)
        assert planar_circular_order(bd) == vs


def test_attachments_stay_within_their_component():
    left, right = frozenset("abcd"), frozenset("xyz")
    g = Graph(
        ("a", "x", "b", "y", "c", "z", "d"),
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("x", "y"), ("y", "z")],
    )
    bd = block_decomposition(g)
    assert len(bd.blocks) == 4
    for i, blk in enumerate(bd.blocks):
        comp = left if set(blk) <= left else right
        assert set().union(*(bd.attachment(i, v) for v in blk)) == comp


# -- the block-cut tree against the definitions, by plain BFS -------------------


def _bfs_components(vertices, edges):
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    comps, seen = [], set()
    for s in vertices:
        if s in seen:
            continue
        comp, queue = {s}, [s]
        while queue:
            for y in adj[queue.pop()] - comp:
                comp.add(y)
                queue.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def _check_against_definitions(g, tree):
    edges = sorted(g.edges)
    count = len(_bfs_components(g.vertices, edges))
    assert list(tree.components) == _bfs_components(g.vertices, edges)
    # each edge has both ends in exactly one block's cycle, and two blocks
    # share at most one vertex
    for e in edges:
        assert sum(set(e) <= set(blk) for blk in tree.blocks) == 1
    for i, blk in enumerate(tree.blocks):
        assert len(set(blk)) == len(blk) and all(len(set(blk) & set(other)) <= 1 for other in tree.blocks[i + 1 :])
    for blk in tree.blocks:
        bedges = _block_edges(g, blk)
        assert set(blk) == {x for e in bedges for x in e}
        # the cycle runs along edges, and the block's chords do not cross it
        assert all(g.edge(a, b) in bedges for a, b in zip(blk, blk[1:] + blk[:1]))
        assert is_crossing_free(blk, bedges)
        if len(blk) == 2:  # a bridge: deleting it splits a component
            assert len(_bfs_components(g.vertices, set(edges) - bedges)) == count + 1
        else:  # 2-connected: no single vertex deletion disconnects the block
            for x in blk:
                assert len(_bfs_components(set(blk) - {x}, [e for e in bedges if x not in e])) == 1
    for v in g.vertices:
        rest = [x for x in g.vertices if x != v]
        after = len(_bfs_components(rest, [e for e in edges if v not in e]))
        # deleting an isolated vertex lowers the count, which is not a cut
        assert (len(tree.incidence[v]) > 1) == (after > count)
    for i, blk in enumerate(tree.blocks):
        comps = _bfs_components(g.vertices, set(edges) - _block_edges(g, blk))
        for v in blk:
            assert tree.attachment(i, v) == next(c for c in comps if v in c)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROFILES), st.integers(4, 24), st.integers(0, 10**6), st.integers(0, 2))
def test_decomposition_matches_definitions(profile, n, seed, isolated):
    try:
        d = gen_random(n, seed, profile)
    except InvalidInstance:
        assume(False)  # gen_random(profile="disconnected") fails on one-vertex components
    extra = tuple(f"iso{i}" for i in range(isolated))
    g = Graph(d.graph.vertices + extra, d.graph.edges)
    _check_against_definitions(g, block_decomposition(g))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
def test_decomposition_of_arbitrary_graphs_matches_definitions(spec):
    """An arbitrary graph is decomposed exactly when it is outerplanar, and
    then its tree matches the definitions."""
    n, pairs = spec
    g = Graph([f"v{i}" for i in range(n)], {(f"v{a}", f"v{b}") for a, b in pairs if a != b})
    try:
        decomp = block_decomposition(g)
    except NotOuterplanar:
        assert enumerate_planar_orders(g) == []
        return
    assert enumerate_planar_orders(g) != []
    _check_against_definitions(g, decomp)


def _check_edge_fixed_pieces(d):
    """The pieces that the edge-fixed rule reads off the tree for each
    candidate edge e = (u, v) are the components of G - u - v, each once.
    Returns how many pieces were checked."""
    g = d.graph
    decomp = block_decomposition(g)
    checked = 0
    for cand in classify(d).candidates:
        u, v = cand.edge
        rest = [x for x in g.vertices if x != u and x != v]
        want = _bfs_components(rest, [e for e in g.edges if u not in e and v not in e])
        got = list(almost_planar._edge_fixed_pieces(decomp, cand.edge))
        assert len(got) == len(want) and set(got) == set(want), (d, cand.edge)
        checked += len(got)
    return checked


def test_edge_fixed_pieces_are_the_components_without_the_ends():
    drawings = list(enumerate_almost_planar_instances(6))
    drawings += [gen_random(n, seed, profile) for profile in ("almost-planar", "case-2-2") for n in range(10, 31) for seed in range(20)]
    # a disconnected drawing: a-d is crossed by b-f, a component of its own,
    # and by c-e, which hangs off d through the bridge d-e; g-h and i lie apart
    vs = tuple("abcdefghi")
    apart = CircularDrawing(Graph(vs, [("a", "d"), ("b", "f"), ("c", "e"), ("d", "e"), ("g", "h")]), vs)
    assert [c.edge for c in classify(apart).candidates] == [("a", "d")]
    assert _check_edge_fixed_pieces(apart) == 4
    assert sum(map(_check_edge_fixed_pieces, drawings)) > 5_000


# -- planar_order_keeping against enumeration -----------------------------------


def _check_keeping(g, order, fixed, planar_orders):
    """`planar_order_keeping` agrees with a scan of every planar order on
    whether one keeps `fixed` in input order, and its witness is valid."""
    want = restriction(order, fixed)
    feasible = any(cyclic_equal(restriction(t, fixed), want) for t in planar_orders)
    got = planar_order_keeping(block_decomposition(g), want)
    assert (got is not None) == feasible, (g.vertices, sorted(g.edges), order, fixed)
    if got is not None:
        assert sorted(got) == sorted(g.vertices)
        assert is_crossing_free(got, g.edges)
        assert cyclic_equal(restriction(got, fixed), want)
    return feasible


def test_planar_order_keeping_matches_enumeration(exhaustive_corpus):
    rng = random.Random(6)
    graphs = [d.graph for d in exhaustive_corpus]
    for profile in PROFILES:
        for n in range(5, 10):
            for seed in range(10):
                try:
                    graphs.append(gen_random(n, seed, profile).graph)
                except InvalidInstance:  # disconnected draws with a one-vertex part
                    pass
    checks = feasible = 0
    for g in graphs:
        planar_orders = enumerate_planar_orders(g)
        vs = list(g.vertices)
        # a random order with a random fixed set
        order = rng.sample(vs, len(vs))
        fixed = [x for x in vs if rng.random() < 0.5]
        feasible += _check_keeping(g, order, fixed, planar_orders)
        # a planar order with 0-2 vertices relocated, most vertices fixed
        order = list(rng.choice(planar_orders))
        for _ in range(rng.randint(0, 2)):
            order.insert(rng.randrange(len(order)), order.pop(rng.randrange(len(order))))
        fixed = [x for x in vs if rng.random() < 0.8]
        feasible += _check_keeping(g, order, fixed, planar_orders)
        checks += 2
    assert checks > 20_000 and 0.2 * checks < feasible < 0.9 * checks


def reference_keeping(decomp, walk):
    """Reference: `planar_order_keeping` as it was before its keep pass was
    made flat, kept as it was.  Each component is laid out by a post-order
    recursion of generators driven by `run`, whose orders nest as lists
    joined by `chain` and are flattened once by `flatten`; the orders are
    cut before each fixed vertex, and the pieces go out in the order of the
    walk."""

    def flatten(nested):
        out, stack = [], [iter(nested)]
        while stack:
            for x in stack[-1]:
                if type(x) is list:
                    stack.append(iter(x))
                    break
                out.append(x)
            else:
                stack.pop()
        return out

    def run(gen):
        stack, value = [gen], None
        while stack:
            try:
                stack.append(stack[-1].send(value))
                value = None
            except StopIteration as done:
                stack.pop()
                value = done.value
        return value

    def chain(spans):
        lo, count, out = 0, 0, []
        for s_lo, s_count, s_order in spans:
            if s_count:
                if not count:
                    lo = s_lo
                elif s_lo != lo + count:
                    return None
                count += s_count
            out.append(s_order)
        return lo, count, out

    def keep_component(root, rank):
        incidence, blocks, index = decomp.incidence, decomp.blocks, decomp.graph.index

        def lay(v, parent):
            spans = [(rank[v], 1, v) if v in rank else (0, 0, v)]
            for bi in incidence[v]:
                if bi != parent:
                    cycle, kids = rotate_to(blocks[bi], v), []
                    for w in cycle[1:]:
                        if len(incidence[w]) == 1:
                            kids.append((rank[w], 1, w) if w in rank else (0, 0, w))
                        else:
                            kids.append((yield lay(w, bi)))
                            if kids[-1] is None:
                                return None
                    ranked = [lo for lo, count, _ in kids if count]
                    if not ranked:
                        ranked = [index(cycle[1]), index(cycle[-1])]
                    if ranked[0] > ranked[-1]:
                        kids.reverse()
                    spans.append(chain(kids))
                    if spans[-1] is None:
                        return None
            if any(count for _, count, _ in spans):
                own = rank.get(v, -1)
                spans.sort(key=lambda s: (s[0], 0) if s[1] else (own, 1))
            return chain(spans)

        laid = run(lay(root, None))
        return None if laid is None else flatten(laid[2])

    comp_of = decomp.component_of
    ranks = [{} for _ in decomp.components]
    last = {}
    for i, x in enumerate(walk):
        c = comp_of[x]
        ranks[c][x] = len(ranks[c])
        last[c] = i
    piece = {}
    for rank in ranks:
        if not rank:
            continue
        laid = keep_component(next(iter(rank)), rank)
        if laid is None:
            return None
        for x in laid:
            if x in rank:
                head = piece[x] = []
            head.append(x)
    out, nest = [], []
    for i, x in enumerate(walk):
        c = comp_of[x]
        if nest[-1:] != [c]:
            if ranks[c][x]:
                return None
            nest.append(c)
        out.extend(piece[x])
        if i == last[c]:
            nest.pop()
    out += blocks._walk(decomp, [c for c, rank in enumerate(ranks) if not rank])
    return tuple(out)


def _keeping_walks(g, rng):
    """Walks to keep on g: a random order with a random fixed set, and a
    random layout of g with 0-2 vertices relocated and most vertices fixed,
    so that components nest."""
    vs = list(g.vertices)
    order = rng.sample(vs, len(vs))
    yield restriction(order, [x for x in vs if rng.random() < 0.5])
    order = list(planar_circular_order(block_decomposition(g), rng))
    for _ in range(rng.randint(0, 2)):
        order.insert(rng.randrange(len(order)), order.pop(rng.randrange(len(order))))
    yield restriction(order, [x for x in vs if rng.random() < 0.8])


def _multi_component_graphs():
    """Graphs of several components, some nested in the walks above: disjoint
    unions of cycles, paths, triangle hubs and isolated vertices."""
    for seed in range(40):
        rng = random.Random(seed)
        parts = [cycle_graph(rng.randint(3, 6)), path_graph(rng.randint(1, 5)), hub_of_triangles(rng.randint(1, 3))]
        parts += [Graph(("o",), ())] * rng.randint(0, 2)
        rng.shuffle(parts)
        vs, edges = [], []
        for k, part in enumerate(parts):
            name = {x: f"{k}.{x}" for x in part.vertices}
            vs += name.values()
            edges += [(name[a], name[b]) for a, b in part.edges]
        yield Graph(tuple(vs), edges)


def test_keeping_matches_reference():
    rng = random.Random(36)
    graphs = [g for profile in PROFILES + tuple(HAND_BUILT) for g, _ in reference_inputs(profile)]
    graphs += _multi_component_graphs()
    kept = failed = nested = 0
    for g in graphs:
        decomp, listings = block_decomposition(g), {}
        for walk in _keeping_walks(g, rng):
            got = planar_order_keeping(decomp, walk)
            assert got == reference_keeping(decomp, walk), (g.vertices, sorted(g.edges), walk)
            assert (blocks._keep(decomp, walk, listings) is not None) == (got is not None), (g.vertices, sorted(g.edges), walk)
            kept += got is not None
            failed += got is None
            nested += got is not None and len({decomp.component_of[x] for x in walk}) > 1
    assert kept > 300 and failed > 500 and nested > 100, (kept, failed, nested)


def test_keeping_matches_reference_on_deep_and_wide_trees():
    vs = cycle_graph(20_000).vertices
    fan = Graph(vs, [*zip(vs, vs[1:]), *((vs[0], x) for x in vs[2:])])
    for g in (path_graph(20_000), fan):  # a tree of depth ~40,000; one block of 20,000 vertices
        decomp, listings = block_decomposition(g), {}
        rng = random.Random(7)
        for walk in [*_keeping_walks(g, rng), g.vertices[:4], g.vertices[::-997], ("v1", "v3", "v2", "v4")]:
            got = planar_order_keeping(decomp, walk)
            assert got == reference_keeping(decomp, walk)
            assert (blocks._keep(decomp, walk, listings) is not None) == (got is not None)


def test_planar_order_keeping_nests_components():
    g = Graph(("a", "b", "c", "x", "y"), [("a", "b"), ("b", "c"), ("x", "y")])
    bd = block_decomposition(g)
    # x-y sits in the gap between b and c
    assert planar_order_keeping(bd, ("a", "b", "x", "y", "c")) == ("a", "b", "x", "y", "c")
    # a walk that can be read only once keeps its fixed components
    assert planar_order_keeping(bd, iter(("a", "c", "b"))) == planar_order_keeping(bd, ("a", "c", "b")) == ("a", "c", "b", "x", "y")
    # x-y interleaves a-b-c, which no crossing-free order does
    assert planar_order_keeping(bd, ("a", "x", "b", "y", "c")) is None
    # y is free, so it goes next to x
    got = planar_order_keeping(bd, restriction(("a", "x", "b", "y", "c"), ("a", "b", "c", "x")))
    assert cyclic_equal(restriction(got, "abcx"), ("a", "x", "b", "c"))
    assert is_crossing_free(got, g.edges)
    # nests in nests: each nested component goes just before the fixed vertex after it
    nested = block_decomposition(Graph(("a", "b", "c", "x", "y", "u", "v", "w"), [("a", "b"), ("b", "c"), ("x", "y"), ("u", "v")]))
    for walk, want in [
        ("axyuvbc", "axyuvbcw"),  # two nests side by side
        ("axuvybc", "axuvybcw"),  # a nest inside a nest
        ("axuyvb", None),  # an interleaving inside a nest
        ("auxyvc", "abuxyvcw"),  # a free vertex before a nest
        ("xaby", "xabcyuvw"),  # the outer path kept inside the x-y component
    ]:
        assert planar_order_keeping(nested, tuple(walk)) == (want and tuple(want)), walk
    # no fixed vertex at all: some planar order
    assert is_crossing_free(planar_order_keeping(bd, ()), g.edges)
    assert planar_order_keeping(block_decomposition(Graph(())), ()) == ()
    with pytest.raises(NotOuterplanar):
        planar_order_keeping(block_decomposition(k4()), ())


def test_untanglers_on_long_path():
    # v2 and v3 swapped: v1-v2 crosses v3-v4, and one move untangles it
    for n in (2000, 20_000):
        g = path_graph(n)
        order = list(g.vertices)
        order[1], order[2] = order[2], order[1]
        d = CircularDrawing(g, order)
        for untangle in (one_side_untangle, edge_fixed_untangle, min_untangle):
            rep = verify_untangling(d, untangle(d))
            assert rep.planar_ok and rep.fixed_set_ok and rep.moved_count == 1
