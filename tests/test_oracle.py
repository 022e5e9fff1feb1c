"""Brute-force oracles: enumeration soundness and exact solvers."""

from collections import Counter
from itertools import combinations

import pytest

from untangling import (
    CircularDrawing,
    Graph,
    cycle_graph,
    enumerate_planar_orders,
    exact_3partition,
    exact_disticor,
    exact_min_untangle,
    exact_min_untangle_edge_fixed,
    gen_fig5,
    gen_random,
    lis,
    min_untangle,
    naive_planar_orders,
    oracle,
    planar_order_keeping,
    verify_untangling,
)
from untangling.blocks import block_decomposition
from untangling.errors import ConstructionFailed, InvalidInstance, NotOuterplanar, TooLarge
from untangling.generators import PROFILES, enumerate_almost_planar_instances, vertex_names
from untangling.model import ALMOST_PLANAR, classify, cyclic_equal, is_crossing_free, restriction, rotate_to
from untangling.seqs import best_target, lis_length


def scan_planar_orders(g):
    """Reference for `enumerate_planar_orders`: the same backtracking over
    circle positions, checking each new chord against every placed chord."""
    n = len(g.vertices)
    if n == 0:
        return [()]
    out, pos, prefix, placed = [], {g.vertices[0]: 0}, [g.vertices[0]], []
    nbrs = {x: [] for x in g.vertices}
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)

    def crosses(i, j, a, b):
        return len({i, j, a, b}) == 4 and (min(i, j) < a < max(i, j)) != (min(i, j) < b < max(i, j))

    def extend():
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        p = len(prefix)
        for x in g.vertices:
            if x in pos:
                continue
            new = [(pos[y], p) for y in nbrs[x] if y in pos]
            if any(crosses(i, j, a, b) for i, j in new for a, b in placed):
                continue
            pos[x] = p
            prefix.append(x)
            placed.extend(new)
            extend()
            del pos[x], prefix[-1], placed[len(placed) - len(new) :]

    extend()
    return out


def scan_exact_min(d):
    """Reference for `exact_min_untangle`'s count: n minus the longest common
    cyclic subsequence of the drawing and any planar order, found by
    enumerating the orders and scoring them with `best_target`."""
    orders = enumerate_planar_orders(d.graph)
    if not orders:
        raise NotOuterplanar("graph admits no planar circular order")
    return len(d.order) - len(best_target(d.order, orders)[1])


def _lcs_distinct(a, b):
    pos = {x: i for i, x in enumerate(b)}
    return lis_length([pos[x] for x in a if x in pos])


def scan_edge_fixed(d, e, orders):
    """Reference for `exact_min_untangle_edge_fixed`: n minus the longest
    common cyclic subsequence through both ends of `e` of the drawing and any
    of `orders`, the graph's planar orders.  Cut at u, such a subsequence is
    u, a common subsequence of the arcs before v, v, and one of the arcs
    after it."""
    u, v = e
    best = 0
    for t in orders:
        a, b = rotate_to(d.order, u)[1:], rotate_to(t, u)[1:]
        ia, ib = a.index(v), b.index(v)
        best = max(best, 2 + _lcs_distinct(a[:ia], b[:ib]) + _lcs_distinct(a[ia + 1 :], b[ib + 1 :]))
    return len(d.order) - best


def _rotation_class(n, chords):
    """The least rotation of a set of chords between positions 0..n-1."""
    return min(tuple(sorted(tuple(sorted(((a + r) % n, (b + r) % n))) for a, b in chords)) for r in range(n))


@pytest.mark.parametrize("n", range(3, 7))
def test_corpus_is_one_drawing_per_rotation_class_of_its_definition(n):
    """Brute force over every chord set on v1..vn: the connected,
    outerplanar, almost-planar ones, up to rotation, are the corpus."""
    vs = vertex_names(n)
    chords = list(combinations(range(n), 2))
    want = set()
    for bits in range(1 << len(chords)):
        edges = [c for i, c in enumerate(chords) if bits >> i & 1]
        g = Graph(vs, [(vs[a], vs[b]) for a, b in edges])
        if classify(CircularDrawing(g, vs)).kind != ALMOST_PLANAR:
            continue
        try:
            tree = block_decomposition(g)
        except NotOuterplanar:
            continue
        if len(tree.components) != 1:
            continue
        want.add(_rotation_class(n, edges))
    got = []
    for d in enumerate_almost_planar_instances(n):
        assert d.order == d.graph.vertices == vs
        got.append(_rotation_class(n, [(vs.index(a), vs.index(b)) for a, b in d.graph.edges]))
    assert len(got) == len(set(got)) and set(got) == want


def test_corpus_sizes(exhaustive_corpus):
    sizes = Counter(len(d.order) for d in exhaustive_corpus)
    sizes[3] = sum(1 for _ in enumerate_almost_planar_instances(3))
    assert [sizes[n] for n in range(3, 8)] == [0, 4, 67, 894, 10_282]


def _cross_check_drawings():
    for n in range(3, 7):
        yield from enumerate_almost_planar_instances(n)
    for profile in ("almost-planar", "outerplanar-order-perturbed", "disconnected"):
        for n in (8, 9):
            for seed in range(8):
                try:
                    yield gen_random(n, seed, profile)
                except InvalidInstance:
                    continue  # gen_random(profile="disconnected") fails on one-vertex components


def test_exact_solvers_match_enumeration():
    checked = dict.fromkeys(("corpus", "random", "edges"), 0)
    for d in _cross_check_drawings():
        n = len(d.order)
        res = exact_min_untangle(d)
        assert res.moved_count == scan_exact_min(d) == n - len(res.fixed), d
        assert res.fixed == restriction(d.order, res.fixed)
        assert is_crossing_free(res.target_order, d.graph.edges)
        assert cyclic_equal(restriction(res.target_order, res.fixed), res.fixed)
        orders = enumerate_planar_orders(d.graph)
        for e in d.graph.sorted_edges():
            assert exact_min_untangle_edge_fixed(d, e) == scan_edge_fixed(d, e, orders), (d, e)
            checked["edges"] += 1
        checked["corpus" if n <= 6 else "random"] += 1
    assert checked["corpus"] == 965 and checked["random"] >= 36, checked


def test_exact_solvers_edge_cases():
    empty = exact_min_untangle(CircularDrawing(Graph(()), ()))
    assert (empty.moved_count, empty.target_order, empty.fixed) == (0, (), ())
    one = exact_min_untangle(CircularDrawing(Graph(("a",)), ("a",)))
    assert (one.moved_count, one.target_order, one.fixed) == (0, ("a",), ("a",))
    k4 = CircularDrawing(_k4(), _k4().vertices)
    with pytest.raises(NotOuterplanar):
        exact_min_untangle(k4)
    with pytest.raises(NotOuterplanar):
        exact_min_untangle_edge_fixed(k4, ("a", "b"))


def test_exact_min_meets_the_almost_planar_bound_past_enumeration():
    for n in range(10, 23, 2):
        d = gen_fig5(n)
        rep = verify_untangling(d, min_untangle(d))
        assert rep.planar_ok and exact_min_untangle(d).moved_count == rep.moved_count == n // 2 - 1, n


def test_exact_solvers_budget(monkeypatch):
    d = gen_fig5(8)
    monkeypatch.setattr(oracle, "FIXED_SET_BUDGET", 8 * 5)
    with pytest.raises(TooLarge):
        exact_min_untangle(d)
    with pytest.raises(TooLarge):
        exact_min_untangle_edge_fixed(d, d.graph.sorted_edges()[0])


def test_any_three_vertices_are_kept_in_either_cyclic_order(exhaustive_corpus):
    # the mirror of a crossing-free order is crossing-free, and three
    # vertices have two cyclic orders, each the other's mirror; checked on
    # every corpus graph of n <= 6 and every 7th of the 10,282 of n = 7
    graphs = [d.graph for d in exhaustive_corpus if len(d.order) < 7]
    graphs += [d.graph for d in exhaustive_corpus if len(d.order) == 7][::7]
    for profile in PROFILES:
        for n in (8, 12):
            for seed in range(4):
                try:
                    graphs.append(gen_random(n, seed, profile).graph)
                except InvalidInstance:
                    continue
    walks = 0
    for g in graphs:
        decomp = block_decomposition(g)
        for a, b, c in combinations(g.vertices, 3):
            for walk in ((a, b, c), (a, c, b)):
                assert planar_order_keeping(decomp, walk) is not None, (g, walk)
                walks += 1
    assert len(graphs) > 2_400 and walks > 140_000


def test_fixed_set_search_asks_only_about_four_or_more_vertices(monkeypatch):
    sizes, keep = [], oracle._keep
    monkeypatch.setattr(oracle, "_keep", lambda decomp, walk, listings: sizes.append(len(walk)) or keep(decomp, walk, listings))
    for d in (gen_fig5(8), gen_random(9, 3, "almost-planar"), gen_random(9, 0, "disconnected")):
        decomp = block_decomposition(d.graph)
        assert len(oracle._max_fixed_set(decomp, d.order)) == len(d.order) - scan_exact_min(d)
        for e in d.graph.sorted_edges():
            oracle._max_fixed_set(decomp, d.order, e)
    assert len(sizes) > 100 and min(sizes) == 4


def test_enumerate_c4():
    g = cycle_graph(4)
    orders = enumerate_planar_orders(g)
    assert len(orders) == 2  # forward and reflected
    assert all(t[0] == "v1" for t in orders)


def test_enumerate_k4_empty():
    vs = ("a", "b", "c", "d")
    g = Graph(vs, [(x, y) for i, x in enumerate(vs) for y in vs[i + 1 :]])
    assert enumerate_planar_orders(g) == []
    with pytest.raises(NotOuterplanar):
        exact_min_untangle(CircularDrawing(g, vs))


def test_enumerate_triangle_with_pendant():
    g = Graph(("v1", "v2", "v3", "p"), [("v1", "v2"), ("v2", "v3"), ("v3", "v1"), ("v1", "p")])
    orders = enumerate_planar_orders(g)
    # 2 reflections x 2 gaps adjacent to v1 for the pendant
    assert len(orders) == 4


def test_enumerate_matches_naive_filter():
    graphs = [
        cycle_graph(5),
        Graph(("a", "b", "c", "d", "e"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")]),
        Graph(("a", "b", "c", "d", "e", "f"), [("a", "b"), ("c", "d"), ("e", "f")]),
    ]
    for seed in range(8):
        graphs.append(gen_random(6, seed, "outerplanar-order-perturbed").graph)
    for g in graphs:
        fast = set(enumerate_planar_orders(g))
        naive = set(naive_planar_orders(g))
        assert fast == naive


def _k4():
    vs = ("a", "b", "c", "d")
    return Graph(vs, [(x, y) for i, x in enumerate(vs) for y in vs[i + 1 :]])


def test_enumeration_order_matches_scan_on_corpus():
    graphs = {d.graph for n in range(3, 7) for d in enumerate_almost_planar_instances(n)}
    assert len(graphs) > 50
    for g in graphs:
        assert enumerate_planar_orders(g) == scan_planar_orders(g)


def test_enumeration_order_matches_scan_on_random_graphs():
    tested = dict.fromkeys(PROFILES, 0)
    for profile in PROFILES:
        for n in (7, 8, 9):
            for seed in range(4):
                try:
                    g = gen_random(n, seed, profile).graph
                except InvalidInstance:
                    continue  # gen_random(profile="disconnected") fails on one-vertex components
                assert enumerate_planar_orders(g) == scan_planar_orders(g)
                tested[profile] += 1
    assert min(tested.values()) >= 4


def test_enumeration_order_matches_scan_on_edge_cases():
    graphs = [
        Graph(()),
        Graph(("a",)),
        Graph(("a", "b")),
        Graph(("a", "b"), [("a", "b")]),
        Graph(("a", "b", "c", "d", "e", "f", "g"), [("a", "c"), ("c", "e"), ("b", "d"), ("f", "g")]),
        Graph(("a", "b", "c", "d", "e"), [("b", "c"), ("c", "d"), ("d", "b")]),
        _k4(),
        Graph(("a", "b", "c", "d", "e"), [*_k4().edges, ("d", "e")]),
    ]
    for g in graphs:
        # permutations() runs in rank order too, so the naive filter gives the same list
        assert enumerate_planar_orders(g) == scan_planar_orders(g) == naive_planar_orders(g)
    assert enumerate_planar_orders(Graph(())) == [()]
    assert enumerate_planar_orders(Graph(("a",))) == [("a",)]
    assert enumerate_planar_orders(Graph(("a", "b"), [("a", "b")])) == [("a", "b")]
    assert enumerate_planar_orders(_k4()) == []


def test_enumeration_budget():
    g = cycle_graph(10)
    with pytest.raises(TooLarge):
        enumerate_planar_orders(g)
    with pytest.raises(TooLarge):
        naive_planar_orders(cycle_graph(8))


def test_exact_min_untangle_examples():
    g = cycle_graph(5)
    assert exact_min_untangle(CircularDrawing(g, g.vertices)).moved_count == 0
    g4 = cycle_graph(4)
    d = CircularDrawing(g4, ("v1", "v3", "v2", "v4"))
    res = exact_min_untangle(d)
    assert res.moved_count == 1
    assert cyclic_equal(res.target_order, ("v1", "v2", "v3", "v4")) or cyclic_equal(
        res.target_order, ("v1", "v4", "v3", "v2")
    )


def test_exact_min_untangle_checks_its_target(monkeypatch):
    # every probe passes and the target is the drawing's own crossing order
    monkeypatch.setattr(oracle, "_keep", lambda decomp, walk, listings: True)
    monkeypatch.setattr(oracle, "planar_order_keeping", lambda decomp, walk: tuple(walk))
    with pytest.raises(ConstructionFailed):
        exact_min_untangle(gen_fig5(6))


def test_exact_edge_fixed_examples():
    g4 = cycle_graph(4)
    d = CircularDrawing(g4, ("v1", "v3", "v2", "v4"))
    assert exact_min_untangle_edge_fixed(d, ("v1", "v2")) == 1
    planar = CircularDrawing(g4, g4.vertices)
    assert exact_min_untangle_edge_fixed(planar, ("v1", "v2")) == 0


def test_exact_disticor_trivial():
    chunks = ((2, 5), (1, 8, 4), (6, 7, 9, 3))
    assert exact_disticor(chunks, 1).solvable
    assert not exact_disticor(chunks, 10).solvable  # M = L + 1
    six = exact_disticor(chunks, 6)
    assert six.solvable and list(six.witness) == sorted(six.witness)
    assert not exact_disticor(chunks, 7).solvable  # 6 is golden, frozen after first computation


def test_exact_disticor_agrees_with_lis_per_arrangement():
    chunks = ((3, 1), (2, 4))

    def concat(arr):
        return [x for ci, s in arr for x in (chunks[ci] if s == 1 else reversed(chunks[ci]))]

    every = [((a, sa), (b, sb)) for a, b in ((0, 1), (1, 0)) for sa in (1, -1) for sb in (1, -1)]
    best = max(len(lis(concat(arr))) for arr in every)
    assert best == 3
    for m in range(1, 5):
        ans = exact_disticor(chunks, m)
        assert ans.solvable == (m <= best)
        if ans.solvable:
            # the witness is M increasing items of the arrangement it names
            items = iter(concat(ans.arrangement))
            assert len(ans.witness) == m and all(x in items for x in ans.witness)
            assert list(ans.witness) == sorted(ans.witness)


def test_exact_disticor_budget():
    with pytest.raises(TooLarge):
        exact_disticor(tuple((i,) for i in range(1, 10)), 1)


def test_exact_3partition():
    ok, triplets = exact_3partition((9, 9, 12), 30)
    assert ok and triplets == ((0, 1, 2),)
    ok, _ = exact_3partition((9, 9, 13), 30)
    assert not ok
    ok, triplets = exact_3partition((12, 12, 18, 12, 12, 18), 42)
    assert ok and len(triplets) == 2
    with pytest.raises(TooLarge):
        exact_3partition(tuple([10] * 15), 30)


def test_exact_min_is_a_lower_bound_for_algorithms():
    from untangling import min_untangle, one_side_untangle, verify_untangling

    for seed in range(8):
        d = gen_random(8, seed, "almost-planar")
        exact = exact_min_untangle(d).moved_count
        assert verify_untangling(d, min_untangle(d)).moved_count == exact
        assert verify_untangling(d, one_side_untangle(d)).moved_count >= exact
