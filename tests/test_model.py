"""Core model: crossings, classification, moves, verification."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from untangling import (
    ALMOST_PLANAR,
    NOT_ALMOST_PLANAR,
    PLANAR,
    AlmostPlanarClassification,
    BlockDecomposition,
    CircularDrawing,
    Graph,
    Untangling,
    VerificationReport,
    VertexMove,
    apply_untangling,
    classify,
    crossings,
    cycle_graph,
    gen_fig5,
    gen_random,
    is_crossing_free,
    moves_to_reach,
    verify_untangling,
)
from untangling import block_decomposition, model
from untangling.errors import InvalidInstance, InvalidN, NotDistinct, UnknownVertex
from untangling.generators import PROFILES
from untangling.model import EdgeCandidate, crossing_pairs, rotate_to, sides_of_edge
from untangling.oracle import exact_disticor, exact_min_untangle
from untangling.reductions import (
    DistIcorInstance,
    PartitionWitness,
    ReducedChunk,
    ReducedDistIcor,
    ThreePartitionInstance,
    reduce_3p_to_disticor,
    witness_3p_to_disticor,
)


def c4_tangled():
    g = cycle_graph(4)
    return CircularDrawing(g, ("v1", "v3", "v2", "v4"))


def test_graph_validation():
    with pytest.raises(InvalidInstance):
        Graph(("a",), [("a", "a")])
    with pytest.raises(UnknownVertex):
        Graph(("a", "b"), [("a", "c")])
    g = Graph(("a", "b"), [("b", "a"), ("a", "b")])
    assert g.edges == frozenset({("a", "b")})
    assert Graph(("a", "b"), [["a", "b"]]).edges == frozenset({("a", "b")})
    # an edge given as a tuple in rank order is kept, not copied
    e = ("a", "b")
    assert next(iter(Graph(("a", "b"), [e]).edges)) is e
    # lists, reversed tuples and a one-shot generator give the same edges
    vs = ("a", "b", "c")
    edges = frozenset({("a", "b"), ("a", "c"), ("b", "c")})
    for given in ([["b", "a"], ["a", "c"], ["c", "b"]], [("b", "a"), ("c", "a"), ("c", "b")]):
        assert Graph(vs, given).edges == edges
        assert Graph(vs, (e for e in given)).edges == edges


@pytest.mark.parametrize(
    "vertices, edges, error, message",
    [
        (("a", "b"), [("a", "b"), ("b", "b")], InvalidInstance, "self-loop at 'b'"),
        (("a", "b"), [("a", "b"), ("z", "z")], InvalidInstance, "self-loop at 'z'"),  # before the unknown vertex
        (("a", "b"), [("z", "a")], UnknownVertex, "('z', 'a') references undeclared"),
        (("a", "b"), [("a", "b"), ("b", "z")], UnknownVertex, "('b', 'z') references undeclared"),
        (("a", "b", "a"), [("a", "z")], InvalidInstance, "duplicate vertices"),  # before any edge
        (("a", "b"), [("z", "a"), ("b", "b")], UnknownVertex, "('z', 'a') references undeclared"),  # first bad edge
        (("a", "b"), [("a", "b", "c")], InvalidInstance, "edge ('a', 'b', 'c') does not have two ends"),
        (("a", "b"), [("a", "b"), ("a",)], InvalidInstance, "edge ('a',) does not have two ends"),
        (("a", "b"), [5], InvalidInstance, "edge 5 does not have two ends"),
        # a string is no pair of ends, whatever its length
        (("a", "b"), ["ab"], InvalidInstance, "edge 'ab' does not have two ends"),
        (("a", "b"), [("a", "b"), "abc"], InvalidInstance, "edge 'abc' does not have two ends"),
        (("a", "b"), [["a", "b"], ["b", "b"]], InvalidInstance, "self-loop at 'b'"),
        (("a", "b"), [["a", "z"]], UnknownVertex, "('a', 'z') references undeclared"),
        (("a", "b"), [("b", "a"), ("b", "z")], UnknownVertex, "('b', 'z') references undeclared"),
        (("a", "b"), [("b", "a"), ("a", "a")], InvalidInstance, "self-loop at 'a'"),
        (("a", "b"), [("a", "b"), ([1], [1])], InvalidInstance, "self-loop at [1]"),  # before the index lookup
        (("a", "b"), (e for e in [("a", "b"), ("b", "a"), ("z", "b"), ("a",)]), UnknownVertex, "('z', 'b') references"),
        (("a", "b"), (e for e in [("b", "a"), ("a", "b", "a")]), InvalidInstance, "('a', 'b', 'a') does not have two"),
    ],
)
def test_graph_rejects_bad_input(vertices, edges, error, message):
    with pytest.raises(error, match=re.escape(message)):
        Graph(vertices, edges)


@pytest.mark.parametrize(
    "order",
    [("a", "b"), ("a", "b", "c", "d"), ("a", "b", "c", "a"), ("a", "b", "b"), ("a", "b", "z"), ()],
)
def test_drawing_rejects_non_permutations(order):
    g = Graph(("a", "b", "c"), [("a", "b")])
    with pytest.raises(InvalidInstance):
        CircularDrawing(g, order)
    assert CircularDrawing(g, ("c", "a", "b")).position("b") == 2


def test_drawing_in_vertex_order_reads_graph_ranks():
    g = Graph(("a", "b", "c", "d"), [("a", "c")])
    for order in (g.vertices, list(g.vertices)):
        d = CircularDrawing(g, order)
        assert [d.position(v) for v in g.vertices] == [g.index(v) for v in g.vertices]
        with pytest.raises(UnknownVertex):
            d.position("z")
    d = CircularDrawing(g, ("c", "a", "d", "b"))
    assert [d.position(v) for v in ("c", "a", "d", "b")] == [0, 1, 2, 3]
    for order in (("a", "b", "c", "c"), ("a", "b", "c"), ("a", "b", "c", "d", "a"), ("b", "a", "c", "c")):
        with pytest.raises(InvalidInstance):
            CircularDrawing(g, order)


def test_drawing_equality_up_to_rotation():
    g = cycle_graph(4)
    d1 = CircularDrawing(g, ("v1", "v2", "v3", "v4"))
    d2 = CircularDrawing(g, ("v3", "v4", "v1", "v2"))
    d3 = CircularDrawing(g, ("v4", "v3", "v2", "v1"))  # reflection: different
    assert d1 == d2
    assert d1 != d3


def test_crossings_c4():
    got = crossings(c4_tangled())
    assert got == frozenset({frozenset({("v1", "v2"), ("v3", "v4")})})


def test_adjacent_edges_never_cross():
    g = Graph(("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("b", "d")])
    for order in (("a", "b", "c", "d"), ("a", "c", "b", "d"), ("b", "d", "a", "c")):
        assert all(
            ("b" not in e1 or "b" not in e2)
            for pair in crossings(CircularDrawing(g, order))
            for e1 in pair
            for e2 in pair
        )


def test_planar_order_has_no_crossings():
    g = cycle_graph(6)
    d = CircularDrawing(g, g.vertices)
    assert len(crossings(d)) == 0
    assert is_crossing_free(d.order, g.edges)


@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_crossing_detection_agrees_with_stack_check(seed):
    d = gen_random(9, seed, "outerplanar-order-perturbed")
    assert is_crossing_free(d.order, d.graph.edges) == (len(crossings(d)) == 0)


def _pairwise_crossings(d):
    """Reference: every pair of edges without a shared end whose endpoints
    alternate around the circle."""
    pos = {v: i for i, v in enumerate(d.order)}
    es = sorted(d.graph.edges)
    out = set()
    for i, e1 in enumerate(es):
        a, b = sorted((pos[e1[0]], pos[e1[1]]))
        for e2 in es[i + 1 :]:
            if not set(e1) & set(e2) and (a < pos[e2[0]] < b) != (a < pos[e2[1]] < b):
                out.add(frozenset((e1, e2)))
    return frozenset(out)


@pytest.mark.parametrize("profile", PROFILES)
def test_crossings_match_pairwise_definition(profile):
    checked = 0
    for n in (6, 12, 30):
        for seed in range(20):
            try:
                d = gen_random(n, seed, profile)
            except InvalidInstance:  # disconnected draws with a one-vertex part
                continue
            for order in (d.order, d.order[::-1], d.order[n // 3 :] + d.order[: n // 3]):
                dd = CircularDrawing(d.graph, order)
                assert crossings(dd) == _pairwise_crossings(dd)
                pairs = list(crossing_pairs(dd.order, dd.graph.edges))
                assert len(set(map(frozenset, pairs))) == len(pairs)
                assert set(map(frozenset, pairs)) == _pairwise_crossings(dd)
                checked += 1
    assert checked >= 90


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_alternation_soundness(seed):
    # for every reported crossing the endpoints alternate ABAB from any start
    d = gen_random(8, seed, "outerplanar-order-perturbed")
    for pair in crossings(d):
        e1, e2 = sorted(pair)
        for start in d.order:
            walk = rotate_to(d.order, start)
            tags = [("A" if x in e1 else "B") for x in walk if x in e1 or x in e2]
            assert tags in (["A", "B", "A", "B"], ["B", "A", "B", "A"])


def test_classify_planar():
    g = cycle_graph(5)
    cls = classify(CircularDrawing(g, g.vertices))
    assert cls.kind == PLANAR and cls.candidates == ()


def test_classify_c4_two_candidates():
    cls = classify(c4_tangled())
    assert cls.kind == ALMOST_PLANAR
    assert {c.edge for c in cls.candidates} == {("v1", "v2"), ("v3", "v4")}
    for c in cls.candidates:
        assert len(c.left) == 1 and len(c.right) == 1


def test_classify_not_almost_planar():
    # two independent crossings that no single edge covers
    g = Graph(
        tuple(f"v{i}" for i in range(1, 9)),
        [("v1", "v3"), ("v2", "v4"), ("v5", "v7"), ("v6", "v8")],
    )
    d = CircularDrawing(g, g.vertices)
    assert classify(d).kind == NOT_ALMOST_PLANAR


@st.composite
def small_drawings(draw):
    n = draw(st.integers(1, 9))
    names = [f"x{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    return CircularDrawing(Graph(names, edges), draw(st.permutations(names)))


@pytest.mark.parametrize(
    "n,profile,k",
    [
        (-3, "outerplanar-order-perturbed", None),
        (0, "almost-planar", None),
        (1, "almost-planar", None),
        (3, "almost-planar", None),
        (8, "outerplanar-order-perturbed", -1),
        (8, "disconnected", -2),
        (0, "outerplanar-order-perturbed", 1),
        (12, "almost-planar", 3),
        (12, "case-2-2", 0),
    ],
)
def test_gen_random_rejects_sizes_it_cannot_honour(n, profile, k):
    """A negative n or k, an almost-planar drawing on fewer than 4 vertices
    (none has a crossing), relocations with no vertex to move, or a k for a
    profile that draws its own crossings, is refused before any drawing is
    made."""
    with pytest.raises(InvalidN):
        gen_random(n, 0, profile, k)


@st.composite
def generated_drawings(draw):
    profile, n, seed = draw(st.sampled_from(PROFILES)), draw(st.integers(6, 16)), draw(st.integers(0, 10**6))
    try:
        return gen_random(n, seed, profile)
    except InvalidInstance:  # the disconnected profile drew a one-vertex component
        assume(False)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_drawings(), generated_drawings()))
def test_classify_matches_brute_force(d):
    g = d.graph
    pairs = crossings(d)
    want = [
        e for e in g.sorted_edges()
        if any(e in pair for pair in pairs) and not crossings(CircularDrawing(g.without_edge(e), d.order))
    ]
    cls = classify(d)
    kind = PLANAR if not pairs else ALMOST_PLANAR if want else NOT_ALMOST_PLANAR
    assert cls.kind == kind
    assert [c.edge for c in cls.candidates] == want
    for c in cls.candidates:
        assert (c.left, c.right) == sides_of_edge(d, c.edge)

    pair = next(crossing_pairs(d.order, g.edges), None)
    assert (pair is None) == (len(pairs) == 0) == is_crossing_free(d.order, g.edges)
    if pair is not None:
        assert frozenset(pair) in pairs


@pytest.mark.parametrize(
    "order, edges, error",
    [
        (("a", "b", "a"), [("a", "b")], InvalidInstance),
        (("a", "b", "c", "c"), [("a", "b")], InvalidInstance),
        (("a", "b"), [("a", "z")], UnknownVertex),
        (("a", "b"), [("b", "b")], InvalidInstance),
    ],
    ids=["repeated-end", "repeated-unused", "missing-end", "self-loop"],
)
def test_is_crossing_free_rejects_malformed_input(order, edges, error):
    with pytest.raises(error):
        is_crossing_free(order, edges)


@pytest.mark.parametrize(
    "make, read",
    [
        (lambda: gen_random(1000, 1, "outerplanar-order-perturbed"), None),  # 86,978 crossings
        (lambda: gen_fig5(600), 597),  # every crossing of its one candidate
    ],
    ids=["random-1000", "fig5-600"],
)
def test_classify_reads_few_crossing_pairs(monkeypatch, make, read):
    """After the first pair, each pair classify reads keeps at most one edge,
    and only the crossings of that edge keep it."""
    count = 0

    def counted(order, edges):
        nonlocal count
        for pair in crossing_pairs(order, edges):
            count += 1
            yield pair

    d = make()
    monkeypatch.setattr(model, "crossing_pairs", counted)
    cls = classify(d)
    m = len(d.graph.edges)
    assert 0 < count <= 2 * (m - 1)
    if read is None:
        assert cls.kind == NOT_ALMOST_PLANAR
    else:
        assert cls.kind == ALMOST_PLANAR and count == read


def test_record_repr():
    assert repr(Graph(("a", "b"), [("b", "a")])) == "Graph(vertices=('a', 'b'), edges=frozenset({('a', 'b')}))"
    assert repr(VertexMove("a", "b")) == "VertexMove(vertex='a', anchor='b')"
    g = Graph(("a", "b", "c"), [("a", "b")])
    d = CircularDrawing(g, ("b", "a", "c"))
    gr, dr = repr(g), f"CircularDrawing(graph={g!r}, order=('b', 'a', 'c'))"
    assert repr(d) == dr  # _index and _pos stay hidden
    assert repr(Untangling([VertexMove("a", "b")])) == "Untangling(moves=(VertexMove(vertex='a', anchor='b'),))"
    cand = EdgeCandidate(("a", "b"), ("c",), ())
    assert repr(cand) == "EdgeCandidate(edge=('a', 'b'), left=('c',), right=())"
    cls = AlmostPlanarClassification(ALMOST_PLANAR, (cand,))
    assert repr(cls) == f"AlmostPlanarClassification(kind='almost-planar', candidates=({cand!r},))"
    rep = VerificationReport(2, True, False, d)
    assert repr(rep) == f"VerificationReport(moved_count=2, fixed_set_ok=True, planar_ok=False, result={dr})"
    bd = block_decomposition(Graph(("a", "b", "c"), [("a", "b")]))
    assert bd.components == (frozenset("ab"), frozenset("c"))
    # incidence and component_of stay hidden
    assert repr(bd) == f"BlockDecomposition(graph={gr}, blocks=(('a', 'b'),), components={bd.components!r})"


def test_graph_repr_lists_edges_in_rank_order():
    g = Graph(("c", "a", "b", "d"), [("a", "d"), ("b", "a"), ("d", "c"), ("a", "c")])
    assert repr(g) == "Graph(vertices=('c', 'a', 'b', 'd'), edges=frozenset({('c', 'a'), ('c', 'd'), ('a', 'b'), ('a', 'd')}))"
    assert repr(Graph(("a",))) == "Graph(vertices=('a',), edges=frozenset())"
    assert repr(Graph(g.vertices, reversed(g.sorted_edges()))) == repr(g)


def test_graph_repr_is_the_same_in_every_process():
    """A frozenset of strings iterates in an order that the process's hash
    seed sets; the repr of a graph and of a drawing does not depend on it."""
    script = "from untangling import gen_random; d = gen_random(12, 1, 'case-2-2'); print(repr(d))"
    src = str(Path(model.__file__).resolve().parents[1])
    reprs = set()
    for seed in ("0", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reprs.add(proc.stdout.strip())
    assert reprs == {repr(gen_random(12, 1, "case-2-2"))}


def test_oracle_and_reduction_record_repr():
    assert repr(exact_min_untangle(gen_fig5(6))) == (
        "ExactUntangleResult(moved_count=2, target_order=('v2', 'v3', 'v4', 'v5', 'v6', 'v1'), "
        "fixed=('v2', 'v4', 'v6', 'v1'))"
    )
    yes, no = exact_disticor(((2, 5), (1, 8, 4)), 3), exact_disticor(((2, 5), (1, 8, 4)), 5)
    assert repr(yes) == "DistIcorAnswer(solvable=True, witness=(2, 5, 8), arrangement=((0, 1), (1, 1)))"
    assert repr(no) == "DistIcorAnswer(solvable=False, witness=None, arrangement=None)"
    t = ThreePartitionInstance((3, 3, 3), 9)
    di = DistIcorInstance(((2, 5), (1, 8, 4)), 3)
    ch = ReducedChunk(3, 30, (2, 1), (2, 3, 1, 2), (4, 2, 3, 1))
    assert repr(ReducedDistIcor(t, 1, 27, 90, (ch,), di)) == (
        "ReducedDistIcor(source=ThreePartitionInstance(a=(3, 3, 3), k=9), scale=1, x=27, block=90, "
        "chunks=(ReducedChunk(source_element=3, run_length=30, start_numbers=(2, 1), projection=(2, 3, 1, 2), "
        "ranks=(4, 2, 3, 1)),), instance=DistIcorInstance(chunks=((2, 5), (1, 8, 4)), m_target=3))"
    )
    w = PartitionWitness((0, 1, 2), (1, 2), (3, 4))
    assert repr(w) == "PartitionWitness(chunk_order=(0, 1, 2), ranks=(1, 2), projection=(3, 4))"


def test_equal_records_hash_equal():
    g = cycle_graph(4)
    rotated = CircularDrawing(g, ("v2", "v4", "v1", "v3"))
    pairs = [
        (g, Graph(list(g.vertices), [(b, a) for a, b in g.edges])),
        (c4_tangled(), rotated),
        (Untangling((VertexMove("v3", "v2"),)), Untangling((VertexMove("v3", "v2"),))),
        (Untangling([VertexMove("v3", "v2")]), Untangling((VertexMove("v3", "v2"),))),
        (classify(c4_tangled()).candidates[0], classify(rotated).candidates[0]),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)


def _records() -> dict:
    """One of each record: the seven of the model, the block-cut tree, the
    two of the oracle and the five of the reductions."""
    d = gen_fig5(8)
    u = Untangling((VertexMove("v3", "v2"), VertexMove("v1", "v3")))
    cls = classify(d)
    red = reduce_3p_to_disticor(ThreePartitionInstance((3, 3, 3), 9))
    return {
        "Graph": d.graph,
        "CircularDrawing": d,
        "VertexMove": u.moves[0],
        "Untangling": u,
        "EdgeCandidate": cls.candidates[0],
        "AlmostPlanarClassification": cls,
        "VerificationReport": verify_untangling(d, u),
        "BlockDecomposition": block_decomposition(d.graph),
        "ExactUntangleResult": exact_min_untangle(d),
        "DistIcorAnswer": exact_disticor(((2, 5), (1, 8, 4)), 3),
        "ThreePartitionInstance": red.source,
        "DistIcorInstance": red.instance,
        "ReducedChunk": red.chunks[0],
        "ReducedDistIcor": red,
        "PartitionWitness": witness_3p_to_disticor(red, [(0, 1, 2)]),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_survive_pickle_and_copy(name):
    record = RECORDS[name]
    clones = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(record), copy.deepcopy(record)]
    for clone in clones:
        assert type(clone) is type(record) and clone == record
        with pytest.raises(AttributeError):
            clone.extra = 1


def test_records_build_from_keywords():
    d = c4_tangled()
    rep = VerificationReport(moved_count=1, fixed_set_ok=True, planar_ok=False, result=d)
    assert (rep.moved_count, rep.fixed_set_ok, rep.planar_ok, rep.result) == (1, True, False, d)
    assert rep == VerificationReport(1, True, False, d)
    assert VertexMove(vertex="a", anchor="b") == VertexMove("a", "b")
    assert Untangling(moves=()) == Untangling(())
    cand = EdgeCandidate(edge=("v1", "v2"), left=("v3",), right=("v4",))
    assert AlmostPlanarClassification(kind=ALMOST_PLANAR, candidates=(cand,)).candidates[0].right == ("v4",)
    assert Graph(vertices=("a", "b"), edges=[("a", "b")]) == Graph(("a", "b"), [("b", "a")])
    assert CircularDrawing(graph=d.graph, order=d.order) == d
    bd = block_decomposition(d.graph)
    names = ("graph", "blocks", "components", "incidence", "component_of")
    assert BlockDecomposition(**{name: getattr(bd, name) for name in names}) == bd
    for bad in ({"moved_count": 1}, {"moved_count": 1, "fixed_set_ok": True, "planar_ok": True, "results": d}):
        with pytest.raises(TypeError, match="takes the fields moved_count, fixed_set_ok, planar_ok, result"):
            VerificationReport(**bad)
    with pytest.raises(TypeError):
        EdgeCandidate(("a", "b"), (), (), left=())


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_rebuild_from_their_fields_as_keywords(name):
    record = RECORDS[name]
    clone = type(record)(**dict(zip(record._fields, record._values())))
    assert clone is not record and clone == record and repr(clone) == repr(record)


@pytest.mark.parametrize(
    "cls, args, error, message",
    [
        (ThreePartitionInstance, ((), 9), InvalidInstance, "need 3m elements"),
        (ThreePartitionInstance, ((3, 3, 3, 3), 9), InvalidInstance, "need 3m elements"),
        (ThreePartitionInstance, ((3, 0, 3), 9), InvalidInstance, "elements and target must be positive"),
        (ThreePartitionInstance, ((3, 3, 3), 0), InvalidInstance, "elements and target must be positive"),
        (ThreePartitionInstance, ((6.0, 6, 6), 18), InvalidInstance, "elements and target must be positive"),
        (ThreePartitionInstance, ((6, 6, 6), 18.0), InvalidInstance, "elements and target must be positive"),
        (ThreePartitionInstance, ((2, 3, 4), 9), InvalidInstance, "every element must satisfy K/4 < a < K/2"),
        (DistIcorInstance, (((1, 2),), 0), InvalidInstance, "M must be positive"),
        (DistIcorInstance, (((1, 2), (3,)), 2.5), InvalidInstance, "M must be positive"),
        (DistIcorInstance, (((1, 2), (3,)), "2"), InvalidInstance, "M must be positive"),
        (DistIcorInstance, (((1, 2), ()), 2), InvalidInstance, "chunks must be nonempty"),
        (DistIcorInstance, (((0, 2),), 2), InvalidInstance, "chunk entries must be positive integers"),
        (DistIcorInstance, (((1.5, 2), (3,)), 2), InvalidInstance, "chunk entries must be positive integers"),
        (DistIcorInstance, (((1, 2), ("3",)), 2), InvalidInstance, "chunk entries must be positive integers"),
        (DistIcorInstance, (((1, 2), (3, 2)), 2), NotDistinct, "chunk entries repeat"),
    ],
)
def test_validated_records_check_keyword_fields_as_positional_ones(cls, args, error, message):
    for build in (lambda: cls(*args), lambda: cls(**dict(zip(cls._fields, args)))):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
            build()
        assert type(exc.value) is error


def test_block_decomposition_stays_unhashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(block_decomposition(cycle_graph(4)))


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_apply_examples():
    d = c4_tangled()
    assert apply_untangling(d, Untangling(())) == d
    moved = apply_untangling(d, Untangling((VertexMove("v3", "v2"),)))
    assert moved.order == ("v1", "v2", "v3", "v4")
    with pytest.raises(UnknownVertex):
        apply_untangling(d, Untangling((VertexMove("nope", "v2"),)))


def _apply_by_list(d: CircularDrawing, u: Untangling) -> tuple:
    """The reference: remove and reinsert in a Python list, O(n) per move."""
    order = list(d.order)
    for mv in u.moves:
        order.remove(mv.vertex)
        order.insert(order.index(mv.anchor) + 1, mv.vertex)
    return tuple(order)


@settings(max_examples=200)
@given(st.integers(2, 9), st.data())
def test_apply_matches_list_reference(n, data):
    """The linked-circle version returns the list version's linear order
    exactly, head included, over any move sequence."""
    vs = tuple(f"v{i}" for i in range(n))
    d = CircularDrawing(Graph(vs), data.draw(st.permutations(vs)))
    pairs = st.tuples(st.sampled_from(vs), st.sampled_from(vs)).filter(lambda p: p[0] != p[1])
    u = Untangling(tuple(VertexMove(x, a) for x, a in data.draw(st.lists(pairs, max_size=3 * n))))
    assert apply_untangling(d, u).order == _apply_by_list(d, u)


def test_vertex_move_validation():
    with pytest.raises(InvalidInstance):
        VertexMove("a", "a")


def test_verify_identity_on_planar():
    g = cycle_graph(5)
    d = CircularDrawing(g, g.vertices)
    rep = verify_untangling(d, Untangling(()))
    assert (rep.moved_count, rep.fixed_set_ok, rep.planar_ok) == (0, True, True)


def test_verify_counts_distinct_vertices():
    d = c4_tangled()
    u = Untangling((VertexMove("v3", "v2"), VertexMove("v3", "v2")))
    rep = verify_untangling(d, u)
    assert rep.moved_count == 1 <= len(u.moves)


def test_moves_to_reach_roundtrip():
    d = c4_tangled()
    target = ("v1", "v2", "v3", "v4")
    moves = moves_to_reach(d.order, target, {"v3"})
    res = apply_untangling(d, Untangling(tuple(moves)))
    assert res.canonical_order() == target


def test_moves_to_reach_needs_an_anchor_only_to_move():
    assert moves_to_reach((), (), ()) == []
    with pytest.raises(InvalidInstance):
        moves_to_reach(("a", "b"), ("b", "a"), {"a", "b"})


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.permutations(range(7)))
def test_moves_to_reach_restriction(seed, perm):
    d = gen_random(7, seed, "outerplanar-order-perturbed", k=0)
    target = tuple(d.graph.vertices[i] for i in perm)
    kept = set(target[:2])  # keep two, move the rest into target order
    from untangling.model import cyclic_equal, restriction

    if not cyclic_equal(restriction(d.order, kept), restriction(target, kept)):
        target = tuple(reversed(target))
    moves = moves_to_reach(d.order, target, set(target) - kept)
    res = apply_untangling(d, Untangling(tuple(moves)))
    assert cyclic_equal(res.order, target)
