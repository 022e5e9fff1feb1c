"""One-side, edge-fixed, and minimum untangling of almost-planar drawings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untangling import (
    CircularDrawing,
    Graph,
    classify,
    classify_split_components,
    crossings,
    cycle_graph,
    edge_fixed_untangle,
    enumerate_almost_planar_instances,
    exact_min_untangle,
    exact_min_untangle_edge_fixed,
    gen_fig5,
    gen_random,
    min_untangle,
    move_connecting,
    move_non_connecting,
    one_side_untangle,
    side_partition,
    unwrap_linearizations,
    verify_untangling,
)
from untangling.almost_planar import _apex_cuts
from untangling.blocks import components
from untangling.errors import NotAlmostPlanar
from untangling.model import all_crossings_on, edges_crossing


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
    sp = side_partition(d, ("v1", "v2"))
    assert sp.left == ("v4",) and sp.right == ("v3",)
    # endpoints adjacent on the circle: one side empty
    g = cycle_graph(4)
    d2 = CircularDrawing(g, g.vertices)
    sp2 = side_partition(d2, ("v1", "v2"))
    assert sp2.right == () and len(sp2.left) == 2
    # the tight family: the crossing edge sees all other vertices
    d5 = gen_fig5(6)
    (cand,) = classify(d5).candidates
    sp5 = side_partition(d5, cand.edge)
    assert len(sp5.left) + len(sp5.right) == 4


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


def test_move_non_connecting_single_vertex():
    # u - f - v chain with a one-vertex satellite hanging across
    g = Graph(
        ("u", "f", "v", "s"),
        [("u", "v"), ("u", "f"), ("f", "v"), ("f", "s")],
    )
    d = CircularDrawing(g, ("u", "s", "v", "f"))
    cls = classify(d)
    assert cls.kind == "almost-planar"
    e = ("u", "v")
    split = classify_split_components(d, e)
    sat = next(c.vertices for c in split.components if c.vertices == frozenset({"s"}))
    frag, after = move_non_connecting(d, e, sat)
    assert frag.moved_set() == {"s"}
    assert all_crossings_on(after, e)


def test_move_connecting_keeps_crossings_on_edge():
    for seed in range(12):
        d = gen_random(8, seed, "case-2-2")
        (cand) = min(classify(d).candidates, key=lambda c: c.edge)
        e = cand.edge
        split = classify_split_components(d, e)
        moved_any = False
        for c in split.components:
            if c.connecting and (e[0] in c.vertices or e[1] in c.vertices):
                frag, after = move_connecting(d, e, c.vertices)
                assert frag.moved_set() <= set(c.vertices) - set(e)
                assert all_crossings_on(after, e)
                moved_any = True
                break
        if moved_any:
            return
    pytest.fail("no connecting component exercised")


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


def test_min_untangle_upper_bounds():
    for seed in range(10):
        d = gen_random(9, seed, "almost-planar")
        n = len(d.order)
        rep = verify_untangling(d, min_untangle(d))
        cands = classify(d).candidates
        assert rep.moved_count <= n // 2 - 1
        assert rep.moved_count <= min(min(len(c.left), len(c.right)) for c in cands)


def test_unwrap_orders_leave_apex_uncovered():
    for seed in range(8):
        d = gen_random(8, seed, "almost-planar")
        cand = min(classify(d).candidates, key=lambda c: c.edge)
        u, v = cand.edge
        comps = components(d.graph.vertices, d.graph.edges - {cand.edge})
        comp_v = next(c for c in comps if v in c)
        comp_u = next(c for c in comps if u in c)
        if comp_u == comp_v:
            continue
        sub_edges = [ed for ed in d.graph.edges if ed[0] in comp_v and ed[1] in comp_v]
        for lin in unwrap_linearizations(d, comp_v, v, u):
            pos = {x: i for i, x in enumerate(lin)}
            pv = pos[v]
            for a, b in sub_edges:
                assert not (min(pos[a], pos[b]) < pv < max(pos[a], pos[b]))


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


def test_candidate_edge_validation():
    d = c4_tangled()
    with pytest.raises(NotAlmostPlanar):
        one_side_untangle(d, ("v2", "v3"))  # a real edge, but not a candidate
    assert edges_crossing(d, ("v1", "v2")) == [("v3", "v4")]


def _reaches(vertices, edges, a, b):
    """Plain BFS: is b reachable from a in the graph (vertices, edges)?"""
    if a not in vertices or b not in vertices:
        return False
    seen, queue = {a}, [a]
    while queue:
        x = queue.pop()
        for e in edges:
            if x in e:
                y = e[1] if e[0] == x else e[0]
                if y in vertices and y not in seen:
                    seen.add(y)
                    queue.append(y)
    return b in seen


def _distances(edges, source):
    dist, frontier = {source: 0}, [source]
    while frontier:
        nxt = []
        for x in frontier:
            for e in edges:
                if x in e:
                    y = e[1] if e[0] == x else e[0]
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
        frontier = nxt
    return dist


def test_classify_split_components_matches_brute_force():
    checked = 0
    for n in range(4, 7):
        for d in enumerate_almost_planar_instances(n):
            vertices = set(d.graph.vertices)
            for cand in classify(d).candidates:
                u, v = cand.edge
                rest = d.graph.edges - {cand.edge}
                if not _reaches(vertices, rest, u, v):
                    continue
                seps = [c for c in vertices - {u, v} if not _reaches(vertices - {c}, rest, u, v)]
                if not seps:
                    continue  # u, v 2-connected in G - e: the other case of min_untangle
                split = classify_split_components(d, cand.edge)
                from_u, from_v = _distances(rest, u), _distances(rest, v)
                assert split.first_cut == min(seps, key=from_u.get)
                assert split.last_cut == min(seps, key=from_v.get)
                for comp in split.components:
                    cut_off = not _reaches(vertices - comp.vertices, rest, u, v)
                    assert comp.connecting == cut_off
                checked += 1
    assert checked > 100
