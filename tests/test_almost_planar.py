"""One-side, edge-fixed, and minimum untangling of almost-planar drawings."""

import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from untangling import (
    CircularDrawing,
    Graph,
    Untangling,
    block_decomposition,
    classify,
    crossings,
    cycle_graph,
    edge_fixed_untangle,
    enumerate_almost_planar_instances,
    exact_min_untangle,
    exact_min_untangle_edge_fixed,
    gen_fig5,
    gen_random,
    is_crossing_free,
    min_untangle,
    moves_to_reach,
    one_side_untangle,
    planar_order_keeping,
    unwrap_linearizations,
    verify_untangling,
)
from untangling import almost_planar, blocks, model, seqs
from untangling.almost_planar import _apex_cuts
from untangling.cli import main
from untangling.errors import NotAlmostPlanar, NotOuterplanar, StructuralAssertionFailed
from untangling.generators import _almost_planar_from
from untangling.io_formats import format_drawing
from untangling.model import cyclic_equal, restriction, rotate_to, sides_of_edge
from untangling.seqs import best_opening, best_target


def c4_tangled():
    g = cycle_graph(4)
    return CircularDrawing(g, ("v1", "v3", "v2", "v4"))


def two_path_satellites():
    # edge (a, d) crossed by both satellite paths; only candidate is (a, d)
    g = Graph(
        ("a", "b", "c", "d", "e", "f"),
        [("a", "d"), ("b", "f"), ("c", "e")],
    )
    return CircularDrawing(g, ("a", "b", "c", "d", "e", "f"))


def test_side_partition_examples():
    d = c4_tangled()
    assert sides_of_edge(d, ("v1", "v2")) == (("v4",), ("v3",))
    # endpoints adjacent on the circle: one side empty
    g = cycle_graph(4)
    left, right = sides_of_edge(CircularDrawing(g, g.vertices), ("v1", "v2"))
    assert right == () and len(left) == 2
    # the tight family: the crossing edge sees all other vertices
    d5 = gen_fig5(6)
    (cand,) = classify(d5).candidates
    left, right = sides_of_edge(d5, cand.edge)
    assert len(left) + len(right) == 4


def test_one_side_planar_input():
    g = cycle_graph(5)
    assert len(one_side_untangle(CircularDrawing(g, g.vertices))) == 0


def test_one_side_fig5():
    d = gen_fig5(6)
    u = one_side_untangle(d)
    rep = verify_untangling(d, u)
    assert rep.planar_ok and rep.moved_count == 2


def test_one_side_random_n50():
    d = gen_random(50, 7, "almost-planar")
    u = one_side_untangle(d)
    rep = verify_untangling(d, u)
    cands = classify(d).candidates
    assert rep.planar_ok
    assert rep.moved_count == min(min(len(c.left), len(c.right)) for c in cands)


def test_one_side_rejects_unfixable():
    g = Graph(
        tuple(f"v{i}" for i in range(1, 9)),
        [("v1", "v3"), ("v2", "v4"), ("v5", "v7"), ("v6", "v8")],
    )
    with pytest.raises(NotAlmostPlanar):
        one_side_untangle(CircularDrawing(g, g.vertices))


def test_edge_fixed_examples():
    g = cycle_graph(5)
    assert len(edge_fixed_untangle(CircularDrawing(g, g.vertices))) == 0
    d = c4_tangled()
    u = edge_fixed_untangle(d, ("v1", "v2"))
    rep = verify_untangling(d, u)
    assert rep.planar_ok and rep.moved_count == 1
    assert not {"v1", "v2"} & u.moved_set()


def test_edge_fixed_two_components_two_moves():
    d = two_path_satellites()
    u = edge_fixed_untangle(d, ("a", "d"))
    rep = verify_untangling(d, u)
    assert rep.planar_ok and rep.moved_count == 2
    assert exact_min_untangle_edge_fixed(d, ("a", "d")) == 2


def test_edge_fixed_can_exceed_unrestricted_optimum():
    # pinning both endpoints genuinely restricts: moving an endpoint next to
    # the other resolves everything here in one move
    d = two_path_satellites()
    assert exact_min_untangle(d).moved_count == 1
    assert exact_min_untangle_edge_fixed(d, ("a", "d")) == 2


def test_min_untangle_examples():
    g = cycle_graph(5)
    assert len(min_untangle(CircularDrawing(g, g.vertices))) == 0
    d = c4_tangled()
    u = min_untangle(d)
    rep = verify_untangling(d, u)
    assert rep.planar_ok and rep.moved_count == 1


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_min_untangle_fig5(n):
    d = gen_fig5(n)
    rep = verify_untangling(d, min_untangle(d))
    assert rep.planar_ok and rep.moved_count == n // 2 - 1


def test_min_untangle_exhaustive_n5():
    for d in enumerate_almost_planar_instances(5):
        rep = verify_untangling(d, min_untangle(d))
        assert rep.planar_ok and rep.fixed_set_ok
        assert rep.moved_count == exact_min_untangle(d).moved_count


def test_min_untangle_disconnected():
    d = two_path_satellites()
    rep = verify_untangling(d, min_untangle(d))
    assert rep.planar_ok and rep.moved_count == 1


def _forest_with_chords(rng: random.Random) -> CircularDrawing:
    """A random forest plus up to three chords on 5-9 vertices, drawn in a
    random order."""
    vs = [f"v{i}" for i in range(rng.randint(5, 9))]
    es = {(rng.choice(vs[:i]), x) for i, x in enumerate(vs) if i and rng.random() < 0.7}
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(vs, 2)
        if (b, a) not in es:
            es.add((a, b))
    return CircularDrawing(Graph(vs, es), rng.sample(vs, len(vs)))


def test_min_untangle_matches_oracle_on_disconnected_drawings():
    checked = edge_checks = 0
    rng = random.Random(22)
    while checked < 1000:
        d = _forest_with_chords(rng)
        try:
            decomp = block_decomposition(d.graph)
        except NotOuterplanar:
            continue
        cls = classify(d)
        if len(decomp.components) < 2 or cls.kind != "almost-planar":
            continue
        rep = verify_untangling(d, min_untangle(d))
        assert rep.planar_ok and rep.fixed_set_ok
        assert rep.moved_count == exact_min_untangle(d).moved_count, d
        for c in cls.candidates:
            rep = verify_untangling(d, edge_fixed_untangle(d, c.edge))
            assert rep.planar_ok
            assert rep.moved_count == exact_min_untangle_edge_fixed(d, c.edge), (d, c.edge)
            edge_checks += 1
        checked += 1
    assert edge_checks > checked


def test_min_untangle_upper_bounds():
    for seed in range(10):
        d = gen_random(9, seed, "almost-planar")
        n = len(d.order)
        rep = verify_untangling(d, min_untangle(d))
        cands = classify(d).candidates
        assert rep.moved_count <= n // 2 - 1
        assert rep.moved_count <= min(min(len(c.left), len(c.right)) for c in cands)


def test_unwrap_orders_leave_apex_uncovered():
    """No edge of a bridge's side spans its endpoint in any unwrapped order,
    a side's input order included."""
    checked = 0
    for profile, n, seed in product(("case-2-2", "almost-planar"), range(6, 15), range(20)):
        d = gen_random(n, seed, profile)
        for decomp, side, apex, other in _bridge_sides(d):
            side_edges = [ed for ed in d.graph.edges if ed[0] in side and ed[1] in side]
            for lin in expanded_cycles(unwrap_linearizations(d, decomp, side, apex, other)):
                pos = {x: i for i, x in enumerate(lin)}
                assert not any(min(pos[a], pos[b]) < pos[apex] < max(pos[a], pos[b]) for a, b in side_edges)
            checked += 1
    assert checked >= 250


def expanded_cycles(cycle, split=False):
    """Every linear order of unwrapping a slot cycle, taken as given and the
    other way round from its apex's slot 0: one rotation sigma[k:] +
    sigma[:k] of the apex at a cut k, placed before or after one rotation
    of each other slot.  With `split`, the apex may also wrap around the
    other slots: sigma[t:k] (cyclically, from t to k), the other slots,
    then sigma[k:t], for cuts t and k."""
    out = []
    for (sigma, cuts), *others in (cycle, cycle[:1] + cycle[:0:-1]):
        middles = [sum(combo, ()) for combo in product(*([s[c:] + s[:c] for c in cs] for s, cs in others))]
        for k in cuts:
            lin = sigma[k:] + sigma[:k]
            js = sorted({(t - k) % len(sigma) for t in cuts}) if split else [0]
            for j in js + [len(sigma)]:
                out += [lin[j:] + middle + lin[:j] for middle in middles]
    return out


def _bridge_candidates(d):
    """(decomp, bi, u, v) for every candidate edge (u, v) of `d` that is a
    bridge, block `bi` of the tree `decomp`."""
    decomp = block_decomposition(d.graph)
    for c in classify(d).candidates:
        bi = decomp.block_with_edge(c.edge)
        if len(decomp.blocks[bi]) == 2:
            yield decomp, bi, *c.edge


def _bridge_sides(d):
    """(decomp, side, apex, other) for both endpoint sides of every bridge
    candidate of `d`."""
    for decomp, bi, u, v in _bridge_candidates(d):
        yield decomp, decomp.attachment(bi, u), u, v
        yield decomp, decomp.attachment(bi, v), v, u


def scan_cuts(cyc, apex, edges):
    """Reference for `_apex_cuts`: try every rotation and scan every edge."""
    out = []
    for k in range(len(cyc)):
        pos = {x: i for i, x in enumerate(cyc[k:] + cyc[:k])}
        pa = pos[apex]
        if all(not (min(pos[a], pos[c]) < pa < max(pos[a], pos[c])) for a, c in edges):
            out.append(k)
    return out


@st.composite
def cyclic_orders_with_chords(draw):
    cyc = tuple(draw(st.permutations(range(draw(st.integers(1, 40))))))
    n = len(cyc)
    apex = draw(st.sampled_from(cyc))
    chords = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
        max_size=2 * n,
    )) if n > 1 else []
    return cyc, apex, chords


@settings(max_examples=300, deadline=None)
@given(cyclic_orders_with_chords())
def test_apex_cuts_match_rotation_scan(case):
    cyc, apex, chords = case
    assert _apex_cuts(cyc, apex, chords) == scan_cuts(cyc, apex, chords)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_min_untangle_matches_oracle_random_n8(seed):
    d = gen_random(8, seed, "almost-planar")
    rep = verify_untangling(d, min_untangle(d))
    assert rep.planar_ok
    assert rep.moved_count == exact_min_untangle(d).moved_count


def _bridge_shape(rng: random.Random, n: int) -> Graph:
    """Two triangles or single edges joined by the bridge a0-b0, with the
    other vertices hung off their ends as leaves or paths of two."""
    vs, es = [], [("a0", "b0")]
    for t in "ab":
        end = [f"{t}{i}" for i in range(rng.choice((2, 3)))]
        vs += end
        es += [(end[0], end[1])] + ([(end[1], end[2]), (end[0], end[2])] if len(end) == 3 else [])
    ends = list(vs)
    while len(vs) < n:
        path = [rng.choice(ends)] + [f"x{len(vs) + i}" for i in range(min(rng.choice((1, 2)), n - len(vs)))]
        vs += path[1:]
        es += list(zip(path, path[1:]))
    return Graph(vs, es)


def test_min_untangle_matches_oracle_on_bridge_shapes_n9():
    for seed in range(400):
        rng = random.Random(seed)
        d = _almost_planar_from(_bridge_shape(rng, 9), "a0", "b0", rng, 50)
        rep = verify_untangling(d, min_untangle(d))
        assert rep.planar_ok and rep.fixed_set_ok
        assert rep.moved_count == exact_min_untangle(d).moved_count, seed


@pytest.mark.parametrize("profile", ["almost-planar", "case-2-2"])
def test_min_untangle_matches_oracle_random_n10_to_14(profile):
    for n in range(10, 15):
        for seed in range(40):
            d = gen_random(n, seed, profile)
            rep = verify_untangling(d, min_untangle(d))
            assert rep.planar_ok and rep.fixed_set_ok
            assert rep.moved_count == exact_min_untangle(d).moved_count, (n, seed)


# Almost-planar drawings, all crossed by a bridge, on which `min_untangle`
# moves more than the oracle: (n, seed, the oracle's optimum).
KNOWN_GAPS = [(13, 259, 2), (14, 108, 2), (15, 62, 4), (16, 46, 2), (20, 263, 4), (21, 36, 8), (26, 3, 2)]


def _exact_untangling(d):
    res = exact_min_untangle(d)
    return Untangling(tuple(moves_to_reach(d.order, res.target_order, set(d.order) - set(res.fixed))))


@pytest.mark.parametrize("n, seed, optimum", KNOWN_GAPS)
def test_known_gaps_min_and_exact_answers_verify(n, seed, optimum):
    d = gen_random(n, seed, "almost-planar")
    rep = verify_untangling(d, min_untangle(d))
    assert rep.planar_ok and rep.fixed_set_ok
    rep = verify_untangling(d, _exact_untangling(d))
    assert rep.planar_ok and rep.fixed_set_ok and rep.moved_count == optimum


@pytest.mark.xfail(strict=True, reason="open defect: min_untangle is not minimal on these bridge drawings")
@pytest.mark.parametrize("n, seed, optimum", KNOWN_GAPS)
def test_known_gaps_min_untangle_is_minimal(n, seed, optimum):
    d = gen_random(n, seed, "almost-planar")
    assert verify_untangling(d, min_untangle(d)).moved_count == exact_min_untangle(d).moved_count


def test_candidate_edges_are_bridges_or_cycle_edges(exhaustive_corpus):
    """Every candidate edge of an almost-planar drawing is a bridge or an
    edge of its block's Hamiltonian cycle, never a chord (the reason is in
    the cycle branch of `_min_untangle_candidates`)."""
    drawings = [d for d in exhaustive_corpus if len(d.order) <= 6]
    drawings += [gen_random(n, seed, p) for p in ("almost-planar", "case-2-2") for n in range(8, 31, 2) for seed in range(30)]
    shapes = Counter()
    for d in drawings:
        decomp = block_decomposition(d.graph)
        for c in classify(d).candidates:
            cycle = rotate_to(decomp.blocks[decomp.block_with_edge(c.edge)], c.edge[0])
            shapes["bridge" if len(cycle) == 2 else "cycle" if c.edge[1] in (cycle[1], cycle[-1]) else "chord"] += 1
    assert shapes["chord"] == 0 and shapes["bridge"] and shapes["cycle"], shapes


def test_candidate_edge_validation():
    d = c4_tangled()
    with pytest.raises(NotAlmostPlanar):
        one_side_untangle(d, ("v2", "v3"))  # a real edge, but not a candidate


def _pieces(vertices, edges):
    """Connected components by plain BFS over the edge list."""
    out, seen = [], set()
    for s in vertices:
        if s in seen:
            continue
        comp, queue = {s}, [s]
        while queue:
            x = queue.pop()
            for e in edges:
                if x in e:
                    y = e[1] if e[0] == x else e[0]
                    if y in vertices and y not in comp:
                        comp.add(y)
                        queue.append(y)
        seen |= comp
        out.append(comp)
    return out


def _smaller(g, a, b):
    """Fewer vertices first, then the lexicographically smaller rank list."""
    return min(set(a), set(b), key=lambda s: (len(s), sorted(g.index(x) for x in s)))


def _moving_only(d, moved, edges):
    """The drawing after moving exactly `moved` into a crossing-free order of
    `edges` that keeps the other vertices, and the moves that reach it."""
    bd = block_decomposition(Graph(d.graph.vertices, edges))
    target = planar_order_keeping(bd, [x for x in d.order if x not in moved])
    assert target is not None
    return CircularDrawing(d.graph, target), moves_to_reach(d.order, target, moved)


def test_untanglers_move_the_counted_sides():
    """One-side moves exactly one candidate's smaller side.  Edge-fixed moves
    the smaller side of every piece of G - u - v and never u or v, and moving
    any one piece's side alone leaves every crossing on e.  Every result is
    planar and keeps the unmoved vertices in input order."""
    drawings = [d for n in range(4, 7) for d in enumerate_almost_planar_instances(n)]
    drawings += [gen_random(n, seed, "case-2-2") for n in (8, 11) for seed in range(10)]
    pieces_moved = 0
    for d in drawings:
        g = d.graph
        cands = classify(d).candidates
        one = one_side_untangle(d)
        rep = verify_untangling(d, one)
        assert rep.planar_ok and rep.fixed_set_ok
        assert rep.moved_count == min(min(len(c.left), len(c.right)) for c in cands)
        assert one.moved_set() in [_smaller(g, c.left, c.right) for c in cands]
        for cand in cands:
            u, v = cand.edge
            ef = edge_fixed_untangle(d, cand.edge)
            rep = verify_untangling(d, ef)
            assert rep.planar_ok and rep.fixed_set_ok
            assert u not in ef.moved_set() and v not in ef.moved_set()
            inner = [x for x in g.vertices if x not in (u, v)]
            inner_edges = [ed for ed in g.edges if u not in ed and v not in ed]
            want = set()
            for piece in _pieces(inner, inner_edges):
                side = _smaller(g, piece & set(cand.left), piece & set(cand.right))
                want |= side
                if side:
                    after, moves = _moving_only(d, side, g.edges - {cand.edge})
                    assert {m.vertex for m in moves} == side
                    assert is_crossing_free(after.order, g.edges - {cand.edge})
                    pieces_moved += 1
            assert ef.moved_set() == want
    assert pieces_moved > 500


def test_non_outerplanar_almost_planar_drawing_raises_not_outerplanar():
    # K4 drawn in convex position: only the two diagonals cross, so the
    # drawing is almost-planar, but no circular order is crossing-free
    vs = ("a", "b", "c", "d")
    d = CircularDrawing(Graph(vs, [(x, y) for i, x in enumerate(vs) for y in vs[i + 1 :]]), vs)
    assert classify(d).kind == "almost-planar"
    before = almost_planar.assertion_failures
    for untangle in (one_side_untangle, edge_fixed_untangle, min_untangle):
        with pytest.raises(NotOuterplanar):
            untangle(d)
    assert almost_planar.assertion_failures == before


def test_min_untangle_not_worse_than_edge_fixed_on_wide_attachments():
    # a triangle with 8 pendant leaves per vertex: each block scores up to
    # 2 x 9^3 canonical targets, and min_untangle must find the optimum
    leaves = {x: [f"{x}{i}" for i in range(8)] for x in "abc"}
    g = Graph(
        ("a", "b", "c", *(y for ys in leaves.values() for y in ys)),
        [("a", "b"), ("b", "c"), ("a", "c"), *((x, y) for x, ys in leaves.items() for y in ys)],
    )
    bd = block_decomposition(g)
    optima = {}
    for s in range(30):
        d = _almost_planar_from(g, "a", "b", random.Random(s), 50)
        u = min_untangle(d)
        rep = verify_untangling(d, u)
        assert rep.planar_ok and rep.fixed_set_ok
        k = rep.moved_count
        assert k <= len(edge_fixed_untangle(d).moved_set())
        # no k - 1 moves suffice: fixed sets that can stay are closed under
        # taking subsets, so every smaller moved set is covered too
        for moved in combinations(d.order, k - 1):
            assert planar_order_keeping(bd, [x for x in d.order if x not in moved]) is None, (s, moved)
        optima[s] = k
    assert [optima[s] for s in (0, 1, 6, 7)] == [4, 2, 3, 2]


def _wide_cycle(k: int) -> CircularDrawing:
    """A k-cycle c0..c(k-1) with 3 leaves per vertex, c0-c1 crossed: each
    attachment has 4 linearizations, so its block has 2 x 4^k targets."""
    cyc = [f"c{i}" for i in range(k)]
    leaves = [(c, f"{c}x{j}") for c in cyc for j in range(3)]
    g = Graph((*cyc, *(y for _, y in leaves)), [*((cyc[i], cyc[(i + 1) % k]) for i in range(k)), *leaves])
    return _almost_planar_from(g, "c0", "c1", random.Random(0), 50)


def _answers_as_edge_fixed(d: CircularDrawing, moved: int) -> None:
    """`min` answers and verifies, moving `moved` vertices, as many as
    `edge_fixed_untangle` and no more."""
    rep = verify_untangling(d, min_untangle(d))
    assert rep.planar_ok and rep.fixed_set_ok
    assert rep.moved_count == moved == len(edge_fixed_untangle(d).moved_set())


def test_min_untangle_target_budget(tmp_path, capsys):
    """Blocks of 2 x 4^k canonical targets, up to k = 32, are scored
    exactly, and the CLI answers the k = 10 drawing."""
    for k, moved in ((8, 6), (10, 10), (16, 23), (32, 54)):
        _answers_as_edge_fixed(_wide_cycle(k), moved)
    path = tmp_path / "wide.cdr"
    path.write_text(format_drawing(_wide_cycle(10)))
    assert main(["untangle", str(path), "--algorithm", "min"]) == 0
    assert "# moved=10 " in capsys.readouterr().out


def test_min_untangle_answers_a_long_wide_cycle():
    """A 300-cycle with 3 leaves per vertex (n = 1,200) answers: the
    scoring is polynomial."""
    d = _wide_cycle(300)
    rep = verify_untangling(d, min_untangle(d))
    assert rep.planar_ok and rep.fixed_set_ok and rep.moved_count == 592


def _bridged_triangles(k: int) -> CircularDrawing:
    """Triangles a0 a1 a2 and b0 b1 b2 with k leaves per vertex, joined by
    the bridge a0-b0 that carries every crossing."""
    vs, es = [], [("a0", "b0")]
    for t in "ab":
        tri = [f"{t}{i}" for i in range(3)]
        vs += tri
        es += [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
        for x in tri:
            vs += [f"{x}x{j}" for j in range(k)]
            es += [(x, f"{x}x{j}") for j in range(k)]
    return _almost_planar_from(Graph(vs, es), "a0", "b0", random.Random(0), 50)


def test_min_untangle_bridge_target_budget():
    """The bridge case's product of unwrapped sides, 256 x 256 targets at
    three leaves per vertex and far more at 8 and 16, is scored exactly."""
    d = _bridged_triangles(3)
    assert len(d.order) == 24 and ("a0", "b0") in {c.edge for c in classify(d).candidates}
    sides = [expanded_cycles(unwrap_linearizations(d, decomp, side, apex, other))
             for decomp, side, apex, other in _bridge_sides(d) if {apex, other} == {"a0", "b0"}]
    assert [len(set(s)) for s in sides] == [256, 256]
    for k, moved in ((3, 6), (8, 8), (16, 16)):
        _answers_as_edge_fixed(_bridged_triangles(k), moved)


@st.composite
def wide_attachment_drawings(draw):
    """A 3- to 5-cycle crossed at c0-c1, or two triangles joined by the
    crossing bridge a0-b0, with 0-2 leaves per vertex and n <= 9, drawn
    almost-planar (None when no layout is)."""
    if draw(st.booleans()):
        core = [f"c{i}" for i in range(draw(st.integers(3, 5)))]
        es = [(core[i], core[(i + 1) % len(core)]) for i in range(len(core))]
        e = ("c0", "c1")
    else:
        core = ["a0", "a1", "a2", "b0", "b1", "b2"]
        es = [("a0", "a1"), ("a1", "a2"), ("a0", "a2"), ("b0", "b1"), ("b1", "b2"), ("b0", "b2"), ("a0", "b0")]
        e = ("a0", "b0")
    vs = list(core)
    for x in core:
        for j in range(draw(st.integers(0, min(2, 9 - len(vs))))):
            vs.append(f"{x}x{j}")
            es.append((x, vs[-1]))
    return _almost_planar_from(Graph(vs, es), *e, random.Random(draw(st.integers(0, 10_000))), 50)


@settings(max_examples=150, deadline=None)
@given(wide_attachment_drawings())
def test_min_untangle_matches_oracle_on_wide_attachments(d):
    assume(d is not None)
    rep = verify_untangling(d, min_untangle(d))
    assert rep.planar_ok and rep.fixed_set_ok
    assert rep.moved_count == exact_min_untangle(d).moved_count


@st.composite
def unwrap_cycles(draw, source, side):
    """A slot cycle over the items of `side`: a random partition into
    slots, each listed in the cyclic order of `source` from a drawn item,
    with a non-empty set of cuts, the first slot the apex's."""
    rank = {x: i for i, x in enumerate(source)}
    order = draw(st.permutations(side))
    bounds = sorted(draw(st.sets(st.integers(1, max(1, len(order) - 1)), max_size=min(3, len(order) - 1))))
    slots = []
    for a, b in zip([0, *bounds], [*bounds, len(order)]):
        part = sorted(order[a:b], key=rank.__getitem__)
        z = draw(st.integers(0, len(part) - 1))
        slots.append((tuple(part[z:] + part[:z]), sorted(draw(st.sets(st.integers(0, len(part) - 1), min_size=1)))))
    return slots


def plain_lcs_len(a, b):
    """Length of a longest common subsequence of two sequences, from the
    O(len(a) len(b)) table."""
    row = [0] * (len(b) + 1)
    for x in a:
        diag = 0
        for j, y in enumerate(b, 1):
            diag, row[j] = row[j], diag + 1 if x == y else max(row[j], row[j - 1])
    return row[-1]


@st.composite
def arc_sides(draw):
    """A source of n = 2..9 items and two sides that are arcs of it: one
    rotation of the source split at one cut, each side with a slot cycle."""
    n = draw(st.integers(2, 9))
    source = tuple(f"v{i}" for i in draw(st.permutations(range(n))))
    r, cut = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
    rotated = source[r:] + source[:r]
    return source, [(arc, draw(unwrap_cycles(source, arc))) for arc in (rotated[:cut], rotated[cut:])]


@settings(max_examples=200, deadline=None)
@given(arc_sides())
def test_side_openings_keep_the_best_two_sided_target(case):
    """Each side's best opening keeps as much as a plain LCS of its arc
    with any of its unwrapped orders, and the two together are a common
    cyclic subsequence of the source and some target lv + lu that keeps
    as much as any target, unless that one keeps a single side."""
    source, sides = case
    kept = [x for arc, cycle in sides for x in best_opening(arc, cycle)]
    assert len(kept) == sum(max(plain_lcs_len(arc, lin) for lin in expanded_cycles(cycle)) for arc, cycle in sides)
    (arc_v, cv), (arc_u, cu) = sides
    targets = [lv + lu for lv in expanded_cycles(cv) for lu in expanded_cycles(cu)]
    assert len(kept) <= len(best_target(source, targets)[1]) <= max(len(kept), len(arc_v), len(arc_u))
    keep = set(kept)
    assert len(keep) == len(kept) and cyclic_equal(tuple(kept), restriction(source, keep))
    assert any(cyclic_equal(tuple(kept), restriction(t, keep)) for t in targets)


def _qualifying_blocks(d, decomp, side, apex, other):
    """(crossed, blocks): whether an edge of the side crosses the bridge,
    and every block at the apex (the bridge aside) whose apex attachment
    holds no such edge."""
    e = d.graph.edge(apex, other)
    crossing = [ed for pair in crossings(d) if e in pair for ed in pair - {e} if ed[0] in side]
    return bool(crossing), [
        bi
        for bi in decomp.incidence[apex]
        if other not in decomp.blocks[bi] and not any(ed[0] in decomp.attachment(bi, apex) for ed in crossing)
    ]


def _qualifying_cycles(d, decomp, side, apex, other):
    """(crossed, cycles): whether an edge of the side crosses the bridge,
    and the slot cycle, from the apex's slot, of every qualifying block."""
    crossed, qualifying = _qualifying_blocks(d, decomp, side, apex, other)
    if side == {apex}:
        return crossed, [[((apex,), [0])]]
    cycles = []
    for bi in qualifying:
        slots = almost_planar._block_attachment_targets(d, decomp, bi, side)
        a = next(k for k, (sigma, _) in enumerate(slots) if apex in sigma)
        cycles.append(slots[a:] + slots[:a])
    return crossed, cycles


def test_unwrapped_sides_keep_as_much_as_split_orders():
    """On every bridge candidate of seeded drawings, the best openings of
    the two sides keep as many items as the best target over every
    qualifying block's orders, those whose apex wraps around the other
    slots included, unless that target keeps items of one side only.  A
    side that an edge crossing the bridge lies in has one qualifying
    block; any other side is its input order alone, an unwrapped order of
    one of its qualifying blocks."""
    drawings = [gen_random(n, seed, profile)
                for profile, n, seed in product(("case-2-2", "almost-planar"), range(6, 15), range(40))]
    for seed in range(100):
        rng = random.Random(seed)
        drawings.append(_almost_planar_from(_bridge_shape(rng, rng.randint(6, 12)), "a0", "b0", rng, 50))
    uncrossed, several, crossed = 0, 0, 0
    for d in filter(None, drawings):
        for decomp, bi, u, v in _bridge_candidates(d):
            comp_u, comp_v = decomp.attachment(bi, u), decomp.attachment(bi, v)
            kept, families = [], []
            for side, apex, other in ((comp_v, v, u), (comp_u, u, v)):
                cycle = unwrap_linearizations(d, decomp, side, apex, other)
                is_crossed, cycles = _qualifying_cycles(d, decomp, side, apex, other)
                family = [lin for c in cycles for lin in expanded_cycles(c, split=True)]
                if is_crossed:
                    assert cycles == [cycle], (d, apex)
                    crossed += 1
                else:
                    assert cycle == [(restriction(rotate_to(d.order, other), side), [0])]
                    assert cycle[0][0] in family, (d, apex)
                    uncrossed += 1
                    several += len(cycles) > 1
                kept += best_opening(restriction(rotate_to(d.order, other), side), cycle)
                families.append(family)
            source = restriction(d.order, comp_u | comp_v)
            targets = [lv + lu for lv, lu in product(*families)]
            assert len(kept) <= len(best_target(source, targets)[1]) <= max(len(kept), len(comp_u), len(comp_v)), d
    assert uncrossed >= 350 and several >= 40 and crossed >= 400


def _searched_block_attachment_targets(d, decomp, bi, side):
    """`_block_attachment_targets` with every block vertex's attachment
    searched and read off the order and edges, one-vertex ones included."""
    cycle = decomp.blocks[bi]
    owner = {x: b for b in cycle for x in decomp.attachment(bi, b) & side}
    att_orders = {b: [x for x in d.order if owner.get(x) == b] for b in cycle}
    att_edges = {b: [ed for ed in d.graph.edges if owner.get(ed[0]) == owner.get(ed[1]) == b] for b in cycle}
    return [(tuple(att_orders[b]), _apex_cuts(tuple(att_orders[b]), b, att_edges[b])) for b in cycle]


def test_block_attachment_targets_match_a_search_of_every_attachment():
    """Laying a block vertex in no other block as ((b,), [0]) without a
    search gives the slot cycle that searching every attachment gives, on
    every cycle block and every qualifying block of a bridge side."""
    blocks_seen, bridge_blocks, single = 0, 0, 0
    for profile, n, seed in product(("almost-planar", "case-2-2"), range(6, 41), range(4)):
        d = gen_random(n, seed, profile)
        decomp = block_decomposition(d.graph)
        pairs = [(bi, decomp.components[decomp.component_of[b[0]]]) for bi, b in enumerate(decomp.blocks) if len(b) > 2]
        for _, side, apex, other in _bridge_sides(d):
            qualifying = _qualifying_blocks(d, decomp, side, apex, other)[1]
            pairs += [(bi, side) for bi in qualifying]
            bridge_blocks += len(qualifying)
        for bi, side in pairs:
            slots = almost_planar._block_attachment_targets(d, decomp, bi, side)
            assert slots == _searched_block_attachment_targets(d, decomp, bi, side), (d, bi)
            single += sum(len(sigma) == 1 for sigma, _ in slots)
            blocks_seen += 1
    assert blocks_seen >= 600 and bridge_blocks >= 140 and single >= 1800


def test_one_slot_unwrapped_sides_are_their_own_source():
    """A side that unwraps to one slot is the side read from `other`, cut
    only at 0, which is the source its opening is scored against: its best
    opening keeps all of it, so the bridge case need not score it.  Every
    side with more than one slot has an edge crossing the bridge."""
    one, more = 0, 0
    for profile, n, seed in product(("case-2-2", "almost-planar"), range(6, 25), range(20)):
        d = gen_random(n, seed, profile)
        for decomp, side, apex, other in _bridge_sides(d):
            source = restriction(rotate_to(d.order, other), side)
            cycle = unwrap_linearizations(d, decomp, side, apex, other)
            if len(cycle) == 1:
                assert cycle == [(source, [0])]
                assert best_opening(source, cycle) == list(source)
                one += 1
            else:
                assert _qualifying_blocks(d, decomp, side, apex, other)[0]
                more += 1
    assert one >= 200 and more >= 200


def test_min_untangle_lays_each_apex_slot_whole(monkeypatch):
    """A side with many pendant-leaf blocks at its apex costs one window
    per opening of its slot cycle, with one pass per slot: not one window
    per slot start, nor one per cut of the apex's slot, nor one cycle per
    block."""
    passes = []
    arcs = seqs._arcs

    def counted(*args):
        passes.append(1)
        return arcs(*args)

    monkeypatch.setattr(seqs, "_arcs", counted)
    for k, moved, bound in ((64, 52, 100), (128, 126, 100), (256, 230, 100)):
        passes.clear()
        d = _bridged_triangles(k)
        rep = verify_untangling(d, min_untangle(d))
        assert rep.planar_ok and rep.fixed_set_ok and rep.moved_count == moved
        assert len(passes) < bound, k


def test_min_untangle_scores_each_cycle_block_once(monkeypatch):
    """Candidate edges on one cycle block share its scored slots; each
    bridge candidate scores once each side whose slot cycle has more than
    one slot, and no side that unwraps to one slot, its own input order."""
    calls = {"best_slots": 0, "best_opening": 0}

    def counting(name):
        score = getattr(almost_planar, name)

        def counted(source, cycle):
            calls[name] += 1
            return score(source, cycle)

        return counted

    for name in calls:
        monkeypatch.setattr(almost_planar, name, counting(name))
    shared, bridges, scored = 0, 0, 0
    for seed in range(30):
        d = gen_random(12, seed, "almost-planar")
        decomp = block_decomposition(d.graph)
        cands = [decomp.block_with_edge(c.edge) for c in classify(d).candidates]
        on_cycles = [bi for bi in cands if len(decomp.blocks[bi]) > 2]
        sides = sum(len(unwrap_linearizations(d, decomp, side, apex, other)) > 1 for _, side, apex, other in _bridge_sides(d))
        calls.update(dict.fromkeys(calls, 0))
        min_untangle(d)
        assert calls == {"best_slots": len(set(on_cycles)), "best_opening": sides}
        shared += len(on_cycles) - len(set(on_cycles))
        bridges += len(cands) - len(on_cycles)
        scored += sides
    assert shared > 0 and 0 < scored < 2 * bridges


def test_untanglers_decompose_once(monkeypatch):
    """Each untangler builds one block-cut tree and reads every later step
    from it, planar_order_keeping included."""
    calls = []
    decompose = blocks.block_decomposition

    def counted(g):
        calls.append(g)
        return decompose(g)

    monkeypatch.setattr(almost_planar, "block_decomposition", counted)
    monkeypatch.setattr(blocks, "block_decomposition", counted)
    drawings = [d for n in range(3, 7) for d in enumerate_almost_planar_instances(n)]
    assert len(drawings) > 100
    for d in drawings:
        for untangle in (min_untangle, one_side_untangle, edge_fixed_untangle):
            calls.clear()
            untangle(d)
            assert calls == [d.graph], (untangle.__name__, d.order)


def test_untanglers_check_the_order_they_build(monkeypatch):
    """A crossing order from the construction raises a counted structural
    assertion in every untangler."""
    d = c4_tangled()
    monkeypatch.setattr(almost_planar, "planar_order_keeping", lambda decomp, walk: d.order)
    monkeypatch.setattr(almost_planar, "assertion_failures", almost_planar.assertion_failures)
    before = almost_planar.assertion_failures
    for untangle in (one_side_untangle, edge_fixed_untangle, min_untangle):
        with pytest.raises(StructuralAssertionFailed):
            untangle(d)
    assert almost_planar.assertion_failures == before + 3


def test_unwrap_counts_a_side_crossed_beyond_two_blocks(monkeypatch):
    """Edges crossing the bridge a-o beyond two blocks at a, which no
    almost-planar drawing has, leave no block to unwrap a around: a counted
    structural assertion."""
    g = Graph(("a", "x", "p", "o", "y", "q"), [("a", "o"), ("a", "x"), ("x", "y"), ("a", "p"), ("p", "q")])
    d = CircularDrawing(g, ("a", "x", "p", "o", "y", "q"))
    monkeypatch.setattr(almost_planar, "assertion_failures", almost_planar.assertion_failures)
    before = almost_planar.assertion_failures
    with pytest.raises(StructuralAssertionFailed):
        unwrap_linearizations(d, block_decomposition(g), frozenset("axypq"), "a", "o")
    assert almost_planar.assertion_failures == before + 1


def test_each_untangling_is_checked_for_crossings_once(monkeypatch):
    """The order each untangler builds gets one crossing test, in
    `_moves_keeping`; `planar_order_keeping` itself runs none."""
    checked = []
    check = almost_planar.is_crossing_free

    def counted(order, edges):
        checked.append(order)
        return check(order, edges)

    def no_check(order, edges):
        raise AssertionError("the tree build or planar_order_keeping ran a crossing sweep")

    monkeypatch.setattr(almost_planar, "is_crossing_free", counted)
    drawings = [c4_tangled(), two_path_satellites(), gen_fig5(10), gen_random(12, 1, "case-2-2")]
    for d in drawings:
        for untangle in (one_side_untangle, edge_fixed_untangle, min_untangle):
            checked.clear()
            u = untangle(d)
            assert len(checked) == 1, (untangle.__name__, d.order)
            assert cyclic_equal(verify_untangling(d, u).result.order, checked[0])
    monkeypatch.setattr(model, "crossing_pairs", no_check)  # under every crossing test
    for d in drawings:
        assert planar_order_keeping(block_decomposition(d.graph), d.order[:2]) is not None
