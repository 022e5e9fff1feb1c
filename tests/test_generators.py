"""The generators' outputs, pinned: the benchmark's inputs are drawn from
them.  And the layering: no algorithm module builds instances."""

import ast
import hashlib
import random
from pathlib import Path

import pytest

from untangling import enumerate_almost_planar_instances, gen_random, generators
from untangling.errors import ConstructionFailed, InvalidInstance
from untangling.generators import PROFILES
from untangling.io_formats import format_drawing
from untangling.model import crossing_pairs

NS = (4, 10, 20, 100)
SEEDS = range(8)

# sha256 of the drawings of every (n, seed) in NS x SEEDS, in that order,
# each as its `format_drawing` text or as "InvalidInstance\n" when it raises
GOLDEN = {
    "outerplanar-order-perturbed": "6bab43c742fed6891e28bacbc16e91fbad108f7f41cf02b481431f1c5f5c5242",
    "almost-planar": "3f1d7cf42e99dc73037984c535e9a36368a3a8cfa853ed728b08e6703dc4983b",
    "case-2-2": "a3e54194e1adf63b697254fa6451e57c56cc6f2f298f5da6141d0314ca2444f7",
    "disconnected": "a562e74bbf0360cb23787290c85b6debba518f8e23c005fa63b3009b6694e190",
}

# a known generator defect: a one-vertex part of a disconnected drawing gets a self-loop
RAISING = {"disconnected": [(4, 0), (4, 3), (4, 6), (10, 6), (10, 7), (20, 1), (20, 2), (100, 6)]}


def _sha(texts) -> str:
    return hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("profile", PROFILES)
def test_gen_random_is_pinned(profile):
    texts, raised = [], []
    for n in NS:
        for seed in SEEDS:
            try:
                texts.append(format_drawing(gen_random(n, seed, profile)))
            except InvalidInstance:
                texts.append("InvalidInstance\n")
                raised.append((n, seed))
    assert raised == RAISING.get(profile, [])
    assert _sha(texts) == GOLDEN[profile]


# sha256 as in GOLDEN, over seeds 0-7 at sizes the ap-service benchmark draws
BENCH_NS = {"almost-planar": (14, 24, 36), "case-2-2": (12, 14)}
GOLDEN_BENCH = {
    "almost-planar": "90030e10ef1a43a2caa3a57275a1f84eeddc4ffe093652118893237ba91059d1",
    "case-2-2": "96a587becb82d1cd52149fc47df2703881fa3994f929e0c660ed590cf351a6de",
}


@pytest.mark.parametrize("profile", sorted(BENCH_NS))
def test_gen_random_is_pinned_at_benchmark_sizes(profile):
    texts = [format_drawing(gen_random(n, seed, profile)) for n in BENCH_NS[profile] for seed in SEEDS]
    assert _sha(texts) == GOLDEN_BENCH[profile]


def test_kept_layout_must_be_crossing_free(monkeypatch):
    """A layout of G - e that crosses itself is a defect of the tree's
    layout, not a random rejection: it raises."""
    monkeypatch.setattr(generators, "is_crossing_free", lambda order, edges: False)
    for profile in ("almost-planar", "case-2-2"):
        with pytest.raises(ConstructionFailed):
            gen_random(10, 0, profile)


def test_chord_test_matches_crossing_pairs():
    """`_chord_crosses` says that u-v crosses an edge exactly when some
    crossing pair holds u-v, on random orders and random edge sets, which
    may share an end with u-v and cross each other."""
    rng = random.Random(5)
    crossed = 0
    for _ in range(3000):
        n = rng.randint(2, 12)
        order = tuple(f"v{i}" for i in range(n))
        u, v = rng.sample(order, 2)
        rest = {tuple(rng.sample(order, 2)) for _ in range(rng.randint(0, 2 * n))} - {(u, v), (v, u)}
        order = tuple(rng.sample(order, n))
        want = any((u, v) in pair for pair in crossing_pairs(order, rest | {(u, v)}))
        assert generators._chord_crosses(order, u, v, rest) == want, (order, u, v, rest)
        crossed += want
    assert 500 < crossed < 2500


def recursive_noncrossing_edges(rng, n, hull_p, diag_p, connect):
    """Reference: `_random_noncrossing_edges` splitting its arcs by plain
    recursion, which defines the order of every `rng` draw."""
    edges = []
    for i in range(n):
        if rng.random() < hull_p:
            edges.append((i, (i + 1) % n))

    def split(lo, hi):
        if hi - lo < 2:
            return
        mid = rng.randint(lo + 1, hi - 1)
        if mid - lo > 1 and rng.random() < diag_p:
            edges.append((lo, mid))
        if hi - mid > 1 and rng.random() < diag_p:
            edges.append((mid, hi))
        split(lo, mid)
        split(mid, hi)

    if n >= 3:
        split(0, n - 1)
    if connect:
        edges.extend((r - 1, r) for r in generators._least_positions(n, edges)[1:])
    return sorted(set(edges))


@pytest.mark.parametrize("connect", [False, True])
def test_noncrossing_edges_match_recursive_reference(connect):
    for n in range(201):
        rng, ref_rng = random.Random(n), random.Random(n)
        got = generators._random_noncrossing_edges(rng, n, hull_p=0.85, diag_p=0.45, connect=connect)
        assert got == recursive_noncrossing_edges(ref_rng, n, 0.85, 0.45, connect), n
        assert rng.getstate() == ref_rng.getstate(), n


def test_corpus_is_pinned():
    drawings = list(enumerate_almost_planar_instances(5))
    assert len(drawings) == 67
    assert _sha(map(format_drawing, drawings)) == "a42e9bf1c3811127880a8d0f72116d646ed6b8c2e763a0d7e2292157c5157cd8"


def _bfs_least_positions(n, chords):
    """Reference: the least position of each component by BFS, ascending."""
    adj = [set() for _ in range(n)]
    for a, b in chords:
        adj[a].add(b)
        adj[b].add(a)
    seen, out = set(), []
    for s in range(n):
        if s not in seen:
            out.append(s)
            seen.add(s)
            queue = [s]
            while queue:
                for y in adj[queue.pop()] - seen:
                    seen.add(y)
                    queue.append(y)
    return out


def test_union_find_roots_match_bfs():
    """The union-find of the connect step and the corpus's connectivity
    test gives each component's least position, as BFS does, on random
    chord sets, with repeats and both orientations, and on one position
    with the self-loop that its hull edge (0, 1 % 1) makes."""
    assert generators._least_positions(1, [(0, 0)]) == [0]
    assert generators._least_positions(0, []) == []
    rng = random.Random(3)
    merged = 0
    for _ in range(2000):
        n = rng.randint(1, 30)
        chords = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n + 3))]
        want = _bfs_least_positions(n, chords)
        assert generators._least_positions(n, chords) == want, (n, chords)
        merged += len(want) < n
    assert merged > 1000


def test_layout_tries_share_one_tree(monkeypatch):
    """Each `_almost_planar_from` call builds one block-cut tree, of G - e,
    and lays it out on every try."""
    calls, trees, layouts = [], [], []
    draw, decompose = generators._almost_planar_from, generators.block_decomposition
    lay_out = generators.planar_circular_order
    monkeypatch.setattr(generators, "_almost_planar_from", lambda *a, **k: calls.append(a) or draw(*a, **k))
    monkeypatch.setattr(generators, "block_decomposition", lambda g: trees.append(g) or decompose(g))
    monkeypatch.setattr(generators, "planar_circular_order", lambda *a: layouts.append(a) or lay_out(*a))
    for profile in ("almost-planar", "case-2-2"):
        for seed in SEEDS:
            gen_random(20, seed, profile)
    assert len(trees) == len(calls) >= 2 * len(SEEDS)
    for (g, u, v, *_), tree in zip(calls, trees):
        assert tree.vertices == g.vertices and tree.edges == g.edges - {(u, v), (v, u)}
    assert len(layouts) > len(trees)  # some calls take more than one try


def test_corpus_drawing_must_cross(monkeypatch):
    """Each corpus drawing is checked to have a crossing by a test that
    `python -O` keeps, not by an assert."""
    monkeypatch.setattr(generators, "is_crossing_free", lambda order, edges: True)
    with pytest.raises(ConstructionFailed):
        next(enumerate_almost_planar_instances(4))


ALGORITHM_MODULES = ("model", "seqs", "blocks", "almost_planar", "general", "oracle", "reductions")


def test_no_algorithm_module_imports_generators():
    src = Path(generators.__file__).parent
    for name in ALGORITHM_MODULES:
        imported = []  # dotted paths: `from .x import y` gives ".x" and ".x.y"
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                imported += [base] + [f"{base}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
        bad = [path for path in imported if {"generators", "cli"} & set(path.split("."))]
        assert not bad, f"{name} imports {bad}"
