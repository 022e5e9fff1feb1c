"""Monotone-subsequence kernels on linear and cyclic rank sequences.

Everything downstream that counts vertex moves bottoms out here: the number
of vertices an untangling may keep fixed equals the length of a suitable
monotone or common cyclic subsequence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

from .errors import ConstructionFailed, InvalidInstance, TooLarge


def lis_indices(items: Sequence) -> list[int]:
    """Indices of one longest strictly increasing subsequence (patience piles)."""
    tails: list = []          # smallest tail value per pile length
    tail_idx: list[int] = []  # index of that tail in `items`
    parent = [-1] * len(items)
    for i, x in enumerate(items):
        j = bisect_left(tails, x)
        if j == len(tails):
            tails.append(x)
            tail_idx.append(i)
        else:
            tails[j] = x
            tail_idx[j] = i
        parent[i] = tail_idx[j - 1] if j > 0 else -1
    if not tails:
        return []
    out = []
    i = tail_idx[-1]
    while i != -1:
        out.append(i)
        i = parent[i]
    out.reverse()
    return out


def lis_length(items: Iterable) -> int:
    """Length of a longest strictly increasing subsequence, from one
    length-only patience pass that builds no witness and copies no input;
    the piles are counted as they open, not measured per item."""
    tails: list = []
    piles = 0
    for x in items:
        j = bisect_left(tails, x)
        if j == piles:
            tails.append(x)
            piles += 1
        else:
            tails[j] = x
    return piles


def lis(s) -> list:
    """One longest strictly increasing subsequence of a linear sequence."""
    items = tuple(s)
    return [items[i] for i in lis_indices(items)]


# The most evenly spaced split points that bound a sequence's rotations.
MAX_SPLITS = 4


def _prefix_lis_lens(items: Sequence) -> list[int]:
    """out[k] = LIS length of items[:k], from one patience pass that counts
    its piles as in `lis_length`."""
    tails: list = []
    piles = 0
    out = [0]
    for x in items:
        j = bisect_left(tails, x)
        if j == piles:
            tails.append(x)
            piles += 1
        else:
            tails[j] = x
        out.append(piles)
    return out


def _split_bounds(items: tuple, c: int) -> list[int]:
    """bound[r] >= LIS length of rotation r, from split point c.

    Rotation r is the arc [r, c) followed by the arc [c, r + n); an
    increasing subsequence of it is one of each arc, so its LIS is at most
    LIS([r, c)) + LIS([c, r + n)).  One forward patience pass from c gives
    the second term for every r, one backward pass the first.  The bound of
    rotation c itself is its exact LIS.
    """
    n = len(items)
    rot = items[c:] + items[:c]
    fwd = _prefix_lis_lens(rot)                           # fwd[j]: arc [c, c + j)
    bwd = _prefix_lis_lens([-x for x in reversed(rot)])  # bwd[j]: arc [c - j, c)
    split = [f + b for f, b in zip(fwd, reversed(bwd))]   # rotation c + j, j < n
    return split[n - c:n] + split[:n - c]


def _best_rotation(items: tuple, floor: int, bound: list[int]) -> tuple[int, int]:
    """(length, r) for the smallest rotation r whose LIS is longest, if that
    length exceeds `floor`; otherwise (floor, -1).

    `bound` is `_split_bounds(items, 0)`, which the caller has computed.
    The sequence is rejected at once if no entry of it exceeds `floor`, and
    otherwise after each further evenly spaced split point c = i * n // k
    whose bounds, with those before, leave none above `floor`.  Then
    rotations are tried in order of falling bound until no untried one can
    beat the best length found, or tie it at a smaller rotation index.
    Cost: O(k n log n) for k split points plus O(n log n) per rotation
    tried, up to the O(n^2 log n) of a plain scan when every bound is loose.
    """
    n = len(items)
    if max(bound) <= floor:
        return floor, -1
    k = min(MAX_SPLITS, n)
    for c in (i * n // k for i in range(1, k)):
        bound = list(map(min, bound, _split_bounds(items, c)))
        if max(bound) <= floor:
            return floor, -1
    best, best_r = floor, -1
    doubled = items + items
    for r in sorted(range(n), key=bound.__getitem__, reverse=True):  # stable: ties by r
        b = bound[r]
        if b < best or (b == best and (best_r < 0 or r >= best_r)):
            break
        length = lis_length(doubled[r:r + n])
        if length > best or (length == best and r < best_r):
            best, best_r = length, r
    return best, best_r


def lics(s) -> list:
    """Longest strictly increasing cyclic subsequence of distinct items: the
    items `best_target` keeps against their sorted order.

    A decreasing cyclic subsequence is an increasing one of the reversed
    sequence, read backwards.  Items may be any hashable, totally ordered
    values; a repeated item raises InvalidInstance.
    """
    items = tuple(s)
    return best_target(items, (tuple(sorted(items)),))[1]


_NOT_ONE_ITEM_SET = "cyclic orders scored against each other must list the same distinct items"


def lccs(a, b) -> list:
    """Longest common cyclic subsequence of two cyclic orders of one item set,
    `best_target(a, (b,))`'s kept items.

    Returns a largest set of items, listed in the shared cyclic order.
    Positions of `b` are used as ranks, so the answer is the longest
    increasing cyclic subsequence of `a` mapped through those ranks.  Both
    orders must list the same distinct items.
    """
    return best_target(a, (tuple(b),))[1]


def _ranked(source) -> tuple[tuple, dict]:
    """The items of `source` and each one's rank; a repeat raises InvalidInstance."""
    items = tuple(source)
    rank = {v: i for i, v in enumerate(items)}
    if len(rank) != len(items):
        raise InvalidInstance(_NOT_ONE_ITEM_SET)
    return items, rank


def best_target(source, targets) -> tuple:
    """`(target, kept)`: the first of `targets` (as given) whose longest
    common cyclic subsequence with `source` is longest, and `kept`, that
    subsequence at its smallest rotation of `source`, equal to
    `lccs(source, target)`.

    `source` is ranked once, and each target is read as its positions of
    the source's items by inverting that rank map.  Every target's split
    point c = 0 is computed first; its entry for rotation 0 is that
    rotation's exact LIS, so the first target with the longest one, at
    rotation 0, is the best so far before any search.  Targets are then
    searched by `_best_rotation` in order of falling largest c = 0 bound,
    each with the floor it must exceed to win: the best length so far, less
    one if the target comes before the best one in the given order.  So the
    tie rule is that of scoring the targets one by one, and a target whose
    c = 0 bounds are all at or below its floor costs that one split point:
    the losing orientation of a (planar order, mirror) pair usually stops
    there.  A call with one target is one `_best_rotation` whose floor is
    the LIS of rotation 0.  Every target must list the items of `source`,
    each once.
    """
    items, rank = _ranked(source)
    n = len(items)
    scored = []  # (target, positions, bounds from split point 0)
    for t in targets:
        pos = [-1] * n  # pos[i]: the position in t of items[i]
        try:
            for j, x in enumerate(t):
                pos[rank[x]] = j
        except KeyError:
            raise InvalidInstance(_NOT_ONE_ITEM_SET) from None
        if len(t) != n or -1 in pos:
            raise InvalidInstance(_NOT_ONE_ITEM_SET)
        pos = tuple(pos)
        scored.append((t, pos, _split_bounds(pos, 0) or [0]))  # n = 0: one empty rotation
    if not scored:
        raise InvalidInstance("best_target needs at least one target")
    best = max(range(len(scored)), key=lambda i: scored[i][2][0])  # the first longest rotation 0
    best_len, best_r = scored[best][2][0], 0
    for i in sorted(range(len(scored)), key=lambda i: -max(scored[i][2])):  # stable: ties as given
        _, pos, bound = scored[i]
        length, r = _best_rotation(pos, best_len - (i < best), bound)
        if r >= 0:
            best, best_len, best_r = i, length, r
    target, pos, _ = scored[best]
    return target, [items[(best_r + i) % n] for i in lis_indices(pos[best_r:] + pos[:best_r])]


# A slot `(sigma, cuts)` is the rotations sigma[c:] + sigma[:c] of its items,
# listed in source order.  A common cyclic subsequence with a chain of slots
# keeps, without loss, one arc of each sigma that the slot's cut is not
# strictly inside, on disjoint spans of the source in slot order.  A window
# reads the source from rank s (ranks r < s as r + n); th[v] ends its shortest
# prefix keeping v items, and nodes[v] is its chain of arcs (prev, pos, i, j).

Laid = tuple[list[int], list[int], int]


def _lay(rank: dict, n: int, sigma, cuts) -> Laid:
    """`(ranks, room, m)` of a slot of m items: their ranks, ascending, then
    again plus n, and twice over each item's room, the most items an arc of
    sigma from it holds with some cut not strictly inside.

    A one-item slot cut at 0, a block vertex in no other block, is laid
    directly: its one rotation is itself, in order, and its room is 1.
    """
    try:
        ranks = [rank[x] for x in sigma]
    except KeyError:
        raise InvalidInstance(_NOT_ONE_ITEM_SET) from None
    m, cut = len(ranks), set(cuts)
    if m == 1 and cut == {0}:
        return [ranks[0], ranks[0] + n], [1, 1], 1
    if not cut or not cut <= set(range(m)):
        raise InvalidInstance(f"a slot of {m} items needs cuts among 0..{m - 1}, got {sorted(cut)}")
    last, room = max(cut) - m, []  # last: the latest cut so far, the final one unrolled at first
    for a in range(m):
        if a in cut:
            last = a
        room.append(m if a in cut else (last - a) % m)
    z = ranks.index(min(ranks))
    ranks, room = ranks[z:] + ranks[:z], room[z:] + room[:z]
    if any(x >= y for x, y in zip(ranks, ranks[1:])):
        raise InvalidInstance("a slot must list its items in the source's cyclic order")
    return ranks + [r + n for r in ranks], room + room, m


def _arcs(th: list[int], nodes: list, lay: Laid, s: int) -> None:
    """Add a laid slot's best arc to the tails of the window from rank s.

    Arc i..j-1 of its items follows the prefix kept before item i, so the
    best start for end j is a sliding-window maximum of kept[i] - i over the
    starts whose room reaches j.  An end lifts at most one tail: it keeps at
    most one more than the previous end or than its own item's prefix.
    Tails are read before any moves.  O(m log n).
    """
    ranks, room, m = lay
    o = bisect_left(ranks, s, 0, m)
    if m == 1:  # a patience step; a slice at len(th) appends
        p = ranks[o]
        v = bisect_right(th, p)
        if v == len(th) or p + 1 < th[v]:
            th[v:v + 1], nodes[v:v + 1] = [p + 1], [(nodes[v - 1], (p,), 0, 1)]
        return
    pos, room = ranks[o:o + m], room[o:o + m]
    key, prev, live, head, reached, moves = [], [], [], 0, -1, []
    v = 0
    for j, p in enumerate(pos, 1):
        v = bisect_right(th, p, v) - 1
        prev.append(nodes[v])
        key.append(v - j + 1)
        while len(live) > head and key[live[-1]] <= key[-1]:
            live.pop()
        live.append(j - 1)
        while live[head] + room[live[head]] < j:
            head += 1
        i = live[head]
        w = key[i] + j
        if w > reached:
            reached = w
            if w >= len(th) or p + 1 < th[w]:
                moves.append((w, p + 1, (prev[i], pos, i, j)))
    for w, end, node in moves:  # w rises, and only the last may be len(th)
        th[w:w + 1], nodes[w:w + 1] = [end], [node]


def _starts(lay: Laid, n: int) -> list[int]:
    """The indices of a laid slot's items that a window must start at: its
    cuts, and the items whose source predecessor is not the slot's.  No best
    kept set starts its first arc at any other item: the arc could take the
    predecessor too, as no cut falls before the item."""
    ranks, room, m = lay
    return [o for o in range(m) if room[o] == m or (ranks[o] - ranks[o - 1]) % n != 1]


def _kept(items: tuple, node) -> list:
    """The items a chain of arcs keeps, in window order, read back in a loop."""
    n, arcs = len(items), []
    while node is not None:
        node, pos, i, j = node
        arcs.append(pos[i:j])
    return [items[p % n] for pos in reversed(arcs) for p in pos]


def _turns(cycle: list) -> list[list]:
    """A slot cycle as given and, past two slots, the other way round from slot 0."""
    return [cycle, cycle[:1] + cycle[:0:-1]] if len(cycle) > 2 else [cycle]


def _laid(rank: dict, n: int, slots) -> list[Laid]:
    """Each slot laid once; between them they must list the n ranked items once."""
    laid = [_lay(rank, n, sigma, cuts) for sigma, cuts in slots]
    if sorted(r for ranks, _, m in laid for r in ranks[:m]) != list(range(n)):
        raise InvalidInstance(_NOT_ONE_ITEM_SET)
    return laid


def _window(run: list[Laid], s: int, left: int, best: int):
    """`(length, chain)` of the window from rank s over `run`'s laid slots of
    `left` items, one `_arcs` pass each; None once they cannot beat `best`."""
    th, nodes = [s], [None]
    for slot in run:
        left -= slot[2]
        _arcs(th, nodes, slot, s)
        if len(th) - 1 + left <= best:
            return None
    return len(th) - 1, nodes[-1]


def best_slots(source, cycle) -> list:
    """A longest common cyclic subsequence of `source` and a target of the
    slot cycle, in the source's cyclic order; the first found on a tie.

    The slots `(sigma, cuts)` list the items of `source` once between them
    and are laid once; a target joins one rotation sigma[c:] + sigma[:c],
    c in cuts (not empty), per slot of a `_turns` of the cycle.  Per turn,
    windows start at the `_starts` of the largest live slot, that slot
    first; they find every best kept set that keeps some of it, so it is
    dropped after them.  A turn ends once the best length so far reaches
    the items of live slots.  O(n) windows of O(n log n).
    """
    items, rank = _ranked(source)
    n, best, won = len(items), 0, None
    for turn in _turns(_laid(rank, n, cycle)):
        live, left = turn, n
        for lay in sorted(live, key=lambda lay: -lay[2]):
            if best >= left:
                break
            at = live.index(lay)
            live = live[at:] + live[:at]
            for s in (lay[0][o] for o in _starts(lay, n)):
                if found := _window(live, s, left, best):
                    best, won = found
            live, left = live[1:], left - lay[2]
    return _kept(items, won)


def best_opening(source, cycle) -> list:
    """A longest common subsequence of the linear order `source` and a
    target of the slot cycle's openings, in source order; the first found
    on a tie.  An opening is a `_turns` of the cycle opened just before or
    just after slot 0, with one rotation per slot as in `best_slots`.  The
    slots are laid once, and each opening is one window from the source's
    first item: at most four, O(n log n)."""
    items, rank = _ranked(source)
    n, best, won = len(items), 0, None
    for turn in _turns(_laid(rank, n, cycle)):
        for opening in (turn, turn[1:] + turn[:1]) if len(turn) > 1 else (turn,):
            if found := _window(opening, 0, n, best):
                best, won = found
    return _kept(items, won)


# Verifying a witness costs two `lics` calls on it; 1,025 = 32 * 32 + 1
# items covers every tight general-bound instance with n <= 1,025.
ES_TIGHT_MAX_LEN = 1025


def es_tight_cyclic(s: int, r: int) -> tuple[int, ...]:
    """A cyclic sequence of s*r + 1 distinct ranks with no increasing cyclic
    subsequence of s+2 terms and no decreasing one of r+2 terms.

    The sequence is k -> r*k mod (s*r+1): r increasing runs of step r, the
    first from 0 and the others from r-1, r-2, ..., 1, which is the grid of
    Erdos and Szekeres (Compositio Math. 2, 1935) laid around the circle.
    It is verified before return, which costs two `lics` calls; above
    ES_TIGHT_MAX_LEN items that check is out of budget and TooLarge is
    raised.
    """
    if s < 1 or r < 1:
        raise InvalidInstance("es_tight_cyclic needs s, r >= 1")
    n = s * r + 1
    if n > ES_TIGHT_MAX_LEN:
        raise TooLarge(f"es_tight_cyclic verifies lengths up to {ES_TIGHT_MAX_LEN}, got {n}")
    items = tuple(r * k % n for k in range(n))
    if len(lics(items)) > s + 1 or len(lics(items[::-1])) > r + 1:
        raise ConstructionFailed(f"the grid sequence for s={s}, r={r} is not tight")
    return items
