#!/usr/bin/env python3
"""Exhaustive optimality sweep: minimum untangler vs. brute-force oracle.

Enumerates every almost-planar drawing of every connected outerplanar graph
at the given size (one per rotation class), compares the algorithmic minimum
against the oracle, and tabulates optimum values.  Exits non-zero with the
first mismatch, which it prints.
"""

import argparse
import sys
import time
from collections import Counter

import untangling as ut


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6, help="vertex count (exhaustive; keep <= 7)")
    ap.add_argument("--also-edge-fixed", action="store_true")
    args = ap.parse_args()

    t0 = time.time()
    count = 0
    optima: Counter = Counter()
    for d in ut.enumerate_almost_planar_instances(args.n):
        exact = ut.exact_min_untangle(d)
        rep = ut.verify_untangling(d, ut.min_untangle(d))
        if not (rep.planar_ok and rep.moved_count == exact.moved_count):
            sys.exit(
                f"min mismatch: edges={sorted(d.graph.edges)} order={d.order} "
                f"planar={rep.planar_ok} moved={rep.moved_count} optimum={exact.moved_count}"
            )
        optima[exact.moved_count] += 1
        if args.also_edge_fixed:
            for cand in ut.classify(d).candidates:
                rep = ut.verify_untangling(d, ut.edge_fixed_untangle(d, cand.edge))
                want = ut.exact_min_untangle_edge_fixed(d, cand.edge)
                if not (rep.planar_ok and rep.moved_count == want):
                    sys.exit(
                        f"edge-fixed mismatch: edges={sorted(d.graph.edges)} order={d.order} "
                        f"edge={cand.edge} planar={rep.planar_ok} moved={rep.moved_count} optimum={want}"
                    )
        count += 1

    print(f"n={args.n}: {count} almost-planar drawings, all optimal, {time.time() - t0:.1f}s")
    print("moves  #instances")
    for k in sorted(optima):
        print(f"{k:5d}  {optima[k]}")


if __name__ == "__main__":
    main()
