"""Command-line surface: check, untangle, verify, generate, render."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import FormatError, TooLarge, UntanglingError
from .io_formats import (
    format_drawing,
    format_icor,
    format_moves,
    parse_3p,
    parse_drawing,
    parse_icor,
    parse_moves,
)
from .model import PROFILES, CircularDrawing, classify, crossing_pairs, moves_to_reach, Untangling, verify_untangling

# Each command imports the algorithm modules it runs when it runs, so that a
# cold `check` or `verify` compiles only errors, model, io_formats and cli.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as f:  # a leading byte-order mark is dropped
            return f.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8: {exc}") from exc


def _read_moves(path: str, d: CircularDrawing) -> Untangling:
    """The moves in `path`; a move naming a vertex that `d` lacks is bad input."""
    u = parse_moves(_read(path))
    known = set(d.order)
    for m in u.moves:
        for v in (m.vertex, m.anchor):
            if v not in known:
                raise FormatError(f"bad move line: move {m.vertex} after {m.anchor}: unknown vertex {v!r}")
    return u


def _cmd_check(args) -> int:
    d = parse_drawing(_read(args.file))
    cls = classify(d)
    ncross = sum(1 for _ in crossing_pairs(d.order, d.graph.edges))  # counted, not held
    cands = " ".join(f"{e.edge[0]}-{e.edge[1]}" for e in cls.candidates)
    print(f"crossings {ncross}")
    print(f"kind {cls.kind}")
    if cands:
        print(f"candidates {cands}")
    return EXIT_OK


def _cmd_untangle(args) -> int:
    d = parse_drawing(_read(args.file))
    if args.algorithm == "general":
        from .general import untangle_general

        u = untangle_general(d)
    elif args.algorithm == "exact":
        from . import oracle

        res = oracle.exact_min_untangle(d)
        moved = set(d.order) - set(res.fixed)
        u = Untangling(moves_to_reach(d.order, res.target_order, moved))
    else:
        from . import almost_planar

        untangle = {
            "one-side": almost_planar.one_side_untangle,
            "edge-fixed": almost_planar.edge_fixed_untangle,
            "min": almost_planar.min_untangle,
        }[args.algorithm]
        u = untangle(d)
    rep = verify_untangling(d, u)
    moved = u.moved_set()
    fixed = [v for v in d.order if v not in moved]
    sys.stdout.write(format_moves(u, fixed=fixed))
    print(
        f"algorithm={args.algorithm} moved={rep.moved_count} planar={rep.planar_ok}",
        file=sys.stderr,
    )
    return EXIT_OK if rep.planar_ok and rep.fixed_set_ok else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    d = parse_drawing(_read(args.drawing))
    u = _read_moves(args.moves, d)
    rep = verify_untangling(d, u)
    print(f"moved {rep.moved_count}")
    print(f"fixedSetOk {'true' if rep.fixed_set_ok else 'false'}")
    print(f"planarOk {'true' if rep.planar_ok else 'false'}")
    return EXIT_OK if rep.planar_ok else EXIT_VERIFY_FAILED


def _cmd_generate(args) -> int:
    kind = args.kind
    if kind == "reduce-3p":
        from .reductions import reduce_3p_to_disticor

        inst = parse_3p(_read(args.file))
        sys.stdout.write(format_icor(reduce_3p_to_disticor(inst).instance))
        return EXIT_OK
    if kind == "reduce-icor":
        from .reductions import reduce_disticor_to_cu

        d, budget = reduce_disticor_to_cu(parse_icor(_read(args.file)))
        comment = f"budget K={budget}"
    else:
        from . import generators

        if kind == "fig5":
            d, comment = generators.gen_fig5(args.n), f"tight almost-planar family n={args.n}"
        elif kind == "es-tight":
            d, comment = generators.gen_tight_general(args.n), f"general-bound tight cycle n={args.n}"
        else:  # random
            d = generators.gen_random(args.n, args.seed, args.profile, k=args.k)
            comment = f"random profile={args.profile} n={args.n} seed={args.seed}"
    sys.stdout.write(format_drawing(d, comments=[comment]))
    return EXIT_OK


def _cmd_render(args) -> int:
    from .render import render_svg

    d = parse_drawing(_read(args.file))
    moved = ()
    if args.moves:
        u = _read_moves(args.moves, d)
        rep = verify_untangling(d, u)
        d = rep.result
        moved = tuple(u.moved_set())
    svg = render_svg(d, moved=moved)
    try:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(svg)
    except OSError as exc:
        raise FormatError(f"cannot write {args.output}: {exc}") from exc
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="untangling", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="crossing count and drawing classification")
    c.add_argument("file")
    c.set_defaults(fn=_cmd_check)

    u = sub.add_parser("untangle", help="compute an untangling and print its moves")
    u.add_argument("file")
    u.add_argument(
        "--algorithm",
        choices=["general", "one-side", "edge-fixed", "min", "exact"],
        default="min",
    )
    u.set_defaults(fn=_cmd_untangle)

    v = sub.add_parser("verify", help="verify a move list against a drawing")
    v.add_argument("drawing")
    v.add_argument("moves")
    v.set_defaults(fn=_cmd_verify)

    g = sub.add_parser("generate", help="emit instance files")
    gsub = g.add_subparsers(dest="kind", required=True)
    g5 = gsub.add_parser("fig5")
    g5.add_argument("--n", type=int, required=True)
    es = gsub.add_parser("es-tight")
    es.add_argument("--n", type=int, required=True)
    rnd = gsub.add_parser("random")
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("--profile", choices=list(PROFILES), default="almost-planar")
    rnd.add_argument("--k", type=int, default=None)
    r3 = gsub.add_parser("reduce-3p")
    r3.add_argument("file")
    ri = gsub.add_parser("reduce-icor")
    ri.add_argument("file")
    for sp in (g5, es, rnd, r3, ri):
        sp.set_defaults(fn=_cmd_generate)

    r = sub.add_parser("render", help="render a drawing (optionally after moves) to SVG")
    r.add_argument("file")
    r.add_argument("--moves")
    r.add_argument("-o", "--output", required=True)
    r.set_defaults(fn=_cmd_render)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UntanglingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, FormatError) else EXIT_BUDGET if isinstance(exc, TooLarge) else EXIT_PRECONDITION


def entry() -> None:
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)


if __name__ == "__main__":
    entry()
