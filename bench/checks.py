"""Independent output checks.

Nothing here calls into the package under test: moves are parsed from the
text the program printed, applied to the input order, and the result is
tested with this module's own crossing test, so a bug in the program's
verifier cannot hide a bug in its untanglers.
"""

from __future__ import annotations

from math import isqrt


def parse_move_text(text: str) -> tuple[list[tuple[str, str]], int, list[str] | None]:
    """(moves, moved count from the summary line, fixed list or None)."""
    moves: list[tuple[str, str]] = []
    moved = -1
    fixed = None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "move" and len(parts) == 4 and parts[2] == "after":
            moves.append((parts[1], parts[3]))
        elif parts[0] == "#":
            for field in parts[1:]:
                key, _, value = field.partition("=")
                if key == "moved":
                    moved = int(value)
                elif key == "fixed":
                    fixed = value.split(",") if value else []
        else:
            raise ValueError(f"unexpected line in move output: {line!r}")
    return moves, moved, fixed


def apply_moves(order, moves) -> list[str]:
    out = list(order)
    for v, anchor in moves:
        out.remove(v)
        out.insert(out.index(anchor) + 1, v)
    return out


def crossing_free(order, edges) -> bool:
    """Chords on a circle are crossing-free iff they nest like brackets."""
    pos = {v: i for i, v in enumerate(order)}
    spans = sorted((min(pos[a], pos[b]), -max(pos[a], pos[b])) for a, b in edges)
    stack: list[int] = []
    for lo, neg_hi in spans:
        hi = -neg_hi
        while stack and stack[-1] <= lo:
            stack.pop()
        if stack and hi > stack[-1]:
            return False
        stack.append(hi)
    return True


def crossing_count(order, edges) -> int:
    pos = {v: i for i, v in enumerate(order)}
    es = [tuple(sorted((pos[a], pos[b]))) for a, b in edges]
    count = 0
    for i, (a, b) in enumerate(es):
        for c, d in es[i + 1 :]:
            if len({a, b, c, d}) == 4 and (a < c < b) != (a < d < b):
                count += 1
    return count


def _cyclic_equal(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    k = b.index(a[0]) if a[0] in b else -1
    return k >= 0 and b[k:] + b[:k] == a


def untangling_problem(order, edges, moves) -> str | None:
    """None when the moves leave a crossing-free drawing in which the
    unmoved vertices keep their cyclic order; otherwise the reason."""
    result = apply_moves(order, moves)
    moved = {v for v, _ in moves}
    fixed = [v for v in order if v not in moved]
    if not _cyclic_equal(fixed, [v for v in result if v not in moved]):
        return "unmoved vertices changed cyclic order"
    if not crossing_free(result, edges):
        return "result drawing has crossings"
    return None


def check_move_text(order, edges, text: str, reported_moved: int) -> tuple[int, str | None]:
    """Check a printed move list end to end; returns (moved count, problem)."""
    moves, summary_moved, fixed = parse_move_text(text)
    moved = {v for v, _ in moves}
    if summary_moved != len(moved) or reported_moved != len(moved):
        return len(moved), f"moved count mismatch: summary {summary_moved}, report {reported_moved}, moves {len(moved)}"
    if fixed is not None and fixed != [v for v in order if v not in moved]:
        return len(moved), "fixed list does not match the unmoved vertices"
    return len(moved), untangling_problem(order, edges, moves)


def general_bound(n: int) -> int:
    return max(0, n - isqrt(n - 2) - 2) if n >= 2 else 0


def strictly_increasing(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))
