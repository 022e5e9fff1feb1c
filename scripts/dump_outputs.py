#!/usr/bin/env python3
"""Print the untanglers' outputs on a fixed input set, one line per input.

Run it on two checkouts and diff the results to show that a refactor or a
kernel change left every output unchanged:

    PYTHONPATH=src python3 scripts/dump_outputs.py > before.txt
    (in the other checkout)  PYTHONPATH=src python3 scripts/dump_outputs.py > after.txt
    diff before.txt after.txt

Each line is `section  input  output`, tab-separated.  The inputs are:

- every `enumerate_almost_planar_instances` drawing with n <= 7, through
  `classify`, `min_untangle`, `one_side_untangle` and `edge_fixed_untangle`;
  each untangler prints its move list and, in the `moved` section, its
  moved set sorted by vertex rank, so that a change of move anchors alone
  leaves `grep '^moved'` of two dumps identical;
- `classify` and `untangle_general` on seeded `gen_random` drawings with
  n = 100..300 (mostly not almost-planar);
- `planar_circular_order` on seeded `gen_random` graphs of all four
  profiles, without and with an `rng`, and the `rng`'s next draw after it;
- the oracle on every almost-planar drawing with n <= 6, on seeded
  almost-planar drawings with n = 8, 9 and on `gen_fig5(n)` for even
  n = 10..20: the count and a sha256 of `enumerate_planar_orders`' list,
  `exact_min_untangle`'s target and fixed set, and
  `exact_min_untangle_edge_fixed` for each candidate edge;
- a sha256 of `reduce_disticor_to_cu`'s order, sorted edges and budget on
  the 3-partition instances with m = 1 and m = 2 that the benchmark's
  research-batch workload reduces;
- a sha256 of every chunk's start numbers, projection and ranks, and of the
  target length M, that `reduce_3p_to_disticor` builds from the same
  instances and from one that it rescales (the `chunks` section);
- the `min_untangle` and `edge_fixed_untangle` moved sets of 30 drawings of
  a triangle with 8 pendant leaves per vertex, whose blocks score up to
  2 x 9^3 canonical targets each, and of 30 drawings each of two triangles
  with 2 and with 4 pendant leaves per vertex joined by the crossing bridge
  a0-b0, whose sides are wider than any case-2-2 drawing's below (the
  `adversarial` section);
- the `min_untangle` and `edge_fixed_untangle` move lists (the `bridge`
  section) and moved sets (in `moved`) of seeded `gen_random` case-2-2
  drawings with n = 10, 12, 14, whose crossing edge is a bridge;
- the `seqs` section: the `lics` witnesses of `es_tight_cyclic(s, r)` and
  of its reversal for a few (s, r), and, for seeded permutations with
  n = 0..40, `lics` and `best_target`'s kept items against the descending
  order; two long permutations print a length and a sha256 instead.

An input that raises prints the error's class name in place of the output.
"""

from __future__ import annotations

import hashlib
import random

import untangling as ut
from untangling.errors import UntanglingError
from untangling.generators import _almost_planar_from

ALMOST_PLANAR_MAX_N = 7
GENERAL_NS = range(100, 301, 50)
GENERAL_SEEDS = range(12)
GENERAL_PROFILES = ("outerplanar-order-perturbed", "disconnected")
LAYOUT_NS = (10, 20, 40)
LAYOUT_SEEDS = range(50)
ORACLE_MAX_N = 6
ORACLE_RANDOM_NS = (8, 9)
ORACLE_SEEDS = range(12)
ORACLE_FIG5_NS = range(10, 21, 2)
# (elements, K); all elements divisible by 3m, so no rescaling
THREE_PARTITIONS = (
    ((6, 6, 6), 18), ((6, 6, 9), 21), ((9, 9, 9), 27), ((9, 9, 12), 30), ((9, 12, 12), 33), ((9, 9, 15), 33),
    ((12, 12, 18, 12, 12, 18), 42),
)
# (elements, K) that the reduction multiplies through by 3m first
RESCALED_PARTITIONS = (((3, 3, 4), 10),)
ADVERSARIAL_LEAVES = 8
ADVERSARIAL_SEEDS = range(30)
ADVERSARIAL_BRIDGE_LEAVES = (2, 4)
BRIDGE_NS = (10, 12, 14)
BRIDGE_SEEDS = range(40)
SEQS_ES_PAIRS = ((1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (5, 5), (12, 12), (32, 32))
SEQS_NS = range(41)
SEQS_SEEDS = range(3)
SEQS_LONG_NS = (300, 1025)
UNTANGLERS = (
    ("min", ut.min_untangle),
    ("one-side", ut.one_side_untangle),
    ("edge-fixed", ut.edge_fixed_untangle),
)


def _moves(u: ut.Untangling) -> str:
    return " ".join(f"{m.vertex}>{m.anchor}" for m in u.moves)


def _moved(g: ut.Graph, u: ut.Untangling) -> str:
    return " ".join(sorted(u.moved_set(), key=g.index))


def _drawing(d: ut.CircularDrawing) -> str:
    return " ".join(map(str, d.order)) + " | " + " ".join(f"{a}-{b}" for a, b in d.graph.sorted_edges())


def _classify(d: ut.CircularDrawing) -> str:
    cls = ut.classify(d)
    cands = (f"{c.edge[0]}-{c.edge[1]} L {' '.join(c.left)} R {' '.join(c.right)}" for c in cls.candidates)
    return " ; ".join((cls.kind, *cands))


def _run(f):
    """f(), or the class name of the package error it raised."""
    try:
        return f()
    except UntanglingError as exc:
        return f"! {type(exc).__name__}"


def almost_planar_lines():
    for n in range(3, ALMOST_PLANAR_MAX_N + 1):
        for d in ut.enumerate_almost_planar_instances(n):
            yield "classify", _drawing(d), _run(lambda: _classify(d))
            for name, untangle in UNTANGLERS:
                u = _run(lambda: untangle(d))
                yield name, _drawing(d), u if isinstance(u, str) else _moves(u)
                yield "moved", f"{name} {_drawing(d)}", u if isinstance(u, str) else _moved(d.graph, u)


def general_lines():
    for profile in GENERAL_PROFILES:
        for n in GENERAL_NS:
            for seed in GENERAL_SEEDS:
                d = _run(lambda: ut.gen_random(n, seed, profile))
                key = f"{profile} n={n} seed={seed}"
                if isinstance(d, str):
                    yield "general", key, d
                    continue
                yield "classify", key, _run(lambda: _classify(d))
                yield "general", key, _run(lambda: _moves(ut.untangle_general(d)))


def layout_lines():
    for profile in ut.generators.PROFILES:
        for n in LAYOUT_NS:
            for seed in LAYOUT_SEEDS:
                d = _run(lambda: ut.gen_random(n, seed, profile))
                key = f"{profile} n={n} seed={seed}"
                if isinstance(d, str):
                    yield "layout", key, d
                    continue
                yield "layout", key, _run(lambda: " ".join(map(str, ut.planar_circular_order(ut.block_decomposition(d.graph)))))
                rng = random.Random(seed)

                def with_rng():
                    order = ut.planar_circular_order(ut.block_decomposition(d.graph), rng)
                    return " ".join(map(str, order)) + f" | next {rng.random()!r}"

                yield "layout-rng", key, _run(with_rng)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _oracle_lines(key: str, d: ut.CircularDrawing):
    orders = _run(lambda: ut.enumerate_planar_orders(d.graph))
    if not isinstance(orders, str):
        orders = f"{len(orders)} {_sha(';'.join(' '.join(t) for t in orders))}"
    yield "oracle-orders", key, orders

    def exact():
        res = ut.exact_min_untangle(d)
        return f"{res.moved_count} target {' '.join(res.target_order)} fixed {' '.join(res.fixed)}"

    yield "oracle-min", key, _run(exact)
    for cand in ut.classify(d).candidates:
        a, b = cand.edge
        yield "oracle-edge-fixed", f"{key} edge {a}-{b}", _run(lambda: ut.exact_min_untangle_edge_fixed(d, cand.edge))


def oracle_lines():
    for n in range(3, ORACLE_MAX_N + 1):
        for d in ut.enumerate_almost_planar_instances(n):
            yield from _oracle_lines(_drawing(d), d)
    for n in ORACLE_RANDOM_NS:
        for seed in ORACLE_SEEDS:
            d = ut.gen_random(n, seed, "almost-planar")
            yield from _oracle_lines(f"almost-planar n={n} seed={seed} {_drawing(d)}", d)
    for n in ORACLE_FIG5_NS:
        yield from _oracle_lines(f"fig5 n={n}", ut.gen_fig5(n))


def reduce_lines():
    for a, k in THREE_PARTITIONS:
        red = ut.reduce_3p_to_disticor(ut.ThreePartitionInstance(a, k))
        d, budget = ut.reduce_disticor_to_cu(red.instance)
        edges = " ".join(f"{x}-{y}" for x, y in sorted(d.graph.edges))
        text = " ".join(d.order) + f" | {edges} | {budget}"
        yield "reduce", f"3p {' '.join(map(str, a))} K={k}", f"{len(d.order)} {_sha(text)}"


def chunk_lines():
    for a, k in THREE_PARTITIONS + RESCALED_PARTITIONS:
        red = ut.reduce_3p_to_disticor(ut.ThreePartitionInstance(a, k))
        text = " ; ".join(
            " | ".join(" ".join(map(str, xs)) for xs in (ch.start_numbers, ch.projection, ch.ranks))
            for ch in red.chunks
        )
        text += f" | {red.instance.m_target}"
        yield "chunks", f"3p {' '.join(map(str, a))} K={k}", f"{red.instance.total} {_sha(text)}"


def adversarial_lines():
    leaves = {x: [f"{x}{i}" for i in range(ADVERSARIAL_LEAVES)] for x in "abc"}
    g = ut.Graph(
        ("a", "b", "c", *(y for ys in leaves.values() for y in ys)),
        [("a", "b"), ("b", "c"), ("a", "c"), *((x, y) for x, ys in leaves.items() for y in ys)],
    )
    for seed in ADVERSARIAL_SEEDS:
        d = _almost_planar_from(g, "a", "b", random.Random(seed), 50)
        for name, untangle in UNTANGLERS:
            if name != "one-side":
                u = _run(lambda: untangle(d))
                yield "adversarial", f"{name} seed={seed} {_drawing(d)}", u if isinstance(u, str) else _moved(g, u)
    for k in ADVERSARIAL_BRIDGE_LEAVES:
        g = _bridged_triangles(k)
        for seed in ADVERSARIAL_SEEDS:
            d = _almost_planar_from(g, "a0", "b0", random.Random(seed), 50)
            for name, untangle in UNTANGLERS:
                if name != "one-side":
                    u = _run(lambda: untangle(d))
                    key = f"{name} bridge leaves={k} seed={seed} {_drawing(d)}"
                    yield "adversarial", key, u if isinstance(u, str) else _moved(g, u)


def _bridged_triangles(k: int) -> ut.Graph:
    """Triangles a0 a1 a2 and b0 b1 b2 with k pendant leaves per vertex,
    joined by the bridge a0-b0."""
    vs, es = [], [("a0", "b0")]
    for t in "ab":
        tri = [f"{t}{i}" for i in range(3)]
        vs += tri
        es += [(tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])]
        for x in tri:
            vs += [f"{x}x{j}" for j in range(k)]
            es += [(x, f"{x}x{j}") for j in range(k)]
    return ut.Graph(vs, es)


def bridge_lines():
    for n in BRIDGE_NS:
        for seed in BRIDGE_SEEDS:
            d = ut.gen_random(n, seed, "case-2-2")
            key = f"case-2-2 n={n} seed={seed} {_drawing(d)}"
            for name, untangle in UNTANGLERS:
                if name != "one-side":
                    u = _run(lambda: untangle(d))
                    yield "bridge", f"{name} {key}", u if isinstance(u, str) else _moves(u)
                    yield "moved", f"bridge {name} {key}", u if isinstance(u, str) else _moved(d.graph, u)


def _monotone(p: tuple) -> tuple[list, list]:
    """`lics(p)` and the kept items of `p` against its descending order."""
    return ut.lics(p), ut.seqs.best_target(p, (tuple(sorted(p, reverse=True)),))[1]


def seqs_lines():
    for s, r in SEQS_ES_PAIRS:
        t = ut.es_tight_cyclic(s, r)
        yield "seqs", f"es s={s} r={r}", " ".join(map(str, ut.lics(t)))
        yield "seqs", f"es s={s} r={r} reversed", " ".join(map(str, ut.lics(t[::-1])))
    for n in SEQS_NS:
        for seed in SEQS_SEEDS:
            p = tuple(random.Random(f"seqs {n} {seed}").sample(range(n), n))
            inc, dec = _monotone(p)
            yield "seqs", f"perm n={n} seed={seed} increasing", " ".join(map(str, inc))
            yield "seqs", f"perm n={n} seed={seed} decreasing", " ".join(map(str, dec))
    for n in SEQS_LONG_NS:
        p = tuple(random.Random(f"seqs {n}").sample(range(n), n))
        for name, kept in zip(("increasing", "decreasing"), _monotone(p)):
            yield "seqs", f"perm n={n} {name}", f"{len(kept)} {_sha(' '.join(map(str, kept)))}"


def main() -> None:
    for lines in (
        almost_planar_lines,
        general_lines,
        layout_lines,
        oracle_lines,
        reduce_lines,
        chunk_lines,
        adversarial_lines,
        bridge_lines,
        seqs_lines,
    ):
        for section, key, value in lines():
            print(section, key, value, sep="\t")


if __name__ == "__main__":
    main()
