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
- `classify` and `untangle_general` on seeded `gen_random` drawings with
  n = 100..300 (mostly not almost-planar);
- `planar_circular_order` on seeded `gen_random` graphs of all four
  profiles, without and with an `rng`, and the `rng`'s next draw after it.

An input that raises prints the error's class name in place of the output.
"""

from __future__ import annotations

import random

import untangling as ut
from untangling.errors import UntanglingError

ALMOST_PLANAR_MAX_N = 7
GENERAL_NS = range(100, 301, 50)
GENERAL_SEEDS = range(12)
GENERAL_PROFILES = ("outerplanar-order-perturbed", "disconnected")
LAYOUT_NS = (10, 20, 40)
LAYOUT_SEEDS = range(50)
UNTANGLERS = (
    ("min", ut.min_untangle),
    ("one-side", ut.one_side_untangle),
    ("edge-fixed", ut.edge_fixed_untangle),
)


def _moves(u: ut.Untangling) -> str:
    return " ".join(f"{m.vertex}>{m.anchor}" for m in u.moves)


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
                yield name, _drawing(d), _run(lambda: _moves(untangle(d)))


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
                yield "layout", key, _run(lambda: " ".join(map(str, ut.planar_circular_order(d.graph).order)))
                rng = random.Random(seed)

                def with_rng():
                    order = ut.planar_circular_order(d.graph, rng).order
                    return " ".join(map(str, order)) + f" | next {rng.random()!r}"

                yield "layout-rng", key, _run(with_rng)


def main() -> None:
    for lines in (almost_planar_lines, general_lines, layout_lines):
        for section, key, value in lines():
            print(section, key, value, sep="\t")


if __name__ == "__main__":
    main()
