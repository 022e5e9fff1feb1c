"""Monotone-subsequence kernels on linear and cyclic rank sequences.

Everything downstream that counts vertex moves bottoms out here: the number
of vertices an untangling may keep fixed equals the length of a suitable
monotone or common cyclic subsequence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count
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
    length-only patience pass that builds no witness and copies no input."""
    tails: list = []
    for x in items:
        j = bisect_left(tails, x)
        if j == len(tails):
            tails.append(x)
        else:
            tails[j] = x
    return len(tails)


def lis(s) -> list:
    """One longest strictly increasing subsequence of a linear sequence."""
    items = tuple(s)
    return [items[i] for i in lis_indices(items)]


# Rotation bounds use one split point per SPLIT_SPAN items, at most
# MAX_SPLITS; below 32 items a second split point costs more than it saves.
SPLIT_SPAN = 32
MAX_SPLITS = 4


def _prefix_lis_lens(items: Sequence) -> list[int]:
    """out[k] = LIS length of items[:k], from one patience pass."""
    tails: list = []
    out = [0]
    for x in items:
        j = bisect_left(tails, x)
        if j == len(tails):
            tails.append(x)
        else:
            tails[j] = x
        out.append(len(tails))
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


def _best_rotation(items: tuple, floor: int) -> tuple[int, int]:
    """(length, r) for the smallest rotation r whose LIS is longest, if that
    length exceeds `floor`; otherwise (floor, -1).

    The rotations are bounded from evenly spaced split points, and the
    sequence is rejected as soon as no bound exceeds `floor`.  Otherwise
    rotations are tried in order of falling bound until no untried one can
    beat the best length found, or tie it at a smaller rotation index.
    Cost: O(k n log n) for k split points plus O(n log n) per rotation
    tried, up to the O(n^2 log n) of a plain scan when every bound is loose.
    """
    n = len(items)
    if n == 0:
        return (0, 0) if floor < 0 else (floor, -1)
    k = min(MAX_SPLITS, 1 + n // SPLIT_SPAN)
    bound = None
    for c in dict.fromkeys(i * n // k for i in range(k)):
        split = _split_bounds(items, c)
        bound = split if bound is None else list(map(min, bound, split))
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


def best_target(source, targets) -> tuple:
    """`(target, kept)`: the first of `targets` (as given) whose longest
    common cyclic subsequence with `source` is longest, and `kept`, that
    subsequence, equal to `lccs(source, target)`.

    One `best_product` call with each target a walk of one slot and one
    option, so each target goes straight to `_best_rotation` and most
    losing targets stop at its rotation bounds.  Every target must list
    the items of `source`, each once.
    """
    targets = tuple(targets)
    target, kept = best_product(source, (((tuple(t),),) for t in targets))
    return next(t for t in targets if tuple(t) == target), kept  # equal targets tie, so the first won


def _may_beat(keys: Sequence, best: int) -> bool:
    """Whether the split-point-0 bound of `_split_bounds` on `keys`, taken
    over non-decreasing subsequences, exceeds `best`.

    A slot not decided yet gives all its items its first position.  Slots
    occupy disjoint position ranges, so an increasing subsequence of any
    completion is a non-decreasing one of these keys, and the bound holds
    for every completion.  On distinct keys it is `_split_bounds(keys, 0)`.
    """
    tails: list = []
    fwd = []  # fwd[i]: the longest non-decreasing subsequence of keys[:i]
    m = 0
    for x in keys:
        fwd.append(m)
        j = bisect_right(tails, x)
        if j == m:
            tails.append(x)
            m += 1
        else:
            tails[j] = x
    if m > best:  # rotation 0, or no items and no best yet
        return True
    tails, m = [], 0
    for i in range(len(keys) - 1, 0, -1):  # m: the same of keys[i:], found backwards
        x = -keys[i]
        j = bisect_right(tails, x)
        if j == m:
            tails.append(x)
            m += 1
            if fwd[i] + m > best:  # fwd falls with i, so only a longer m can pass
                return True
        else:
            tails[j] = x
    return False


# Options one `best_product` call may try: a flat product of 65,536 targets takes fewer.
SEARCH_BUDGET = 1 << 17


def best_product(source, walks) -> tuple:
    """`best_target(source, targets)` for the targets of `walks`, scored
    without building them.

    A walk is a sequence of slots and a slot a sequence of options, each a
    sequence of items or, if a list, a walk itself.  A walk's targets are
    the concatenations of one option target per slot, in `itertools.product`
    order, and the walks follow one another; each must list the items of
    `source` once, and a slot's options one item set.  The winner is a tuple.

    The search is a depth-first branch and bound over one array of target
    positions indexed by source rank: deciding a slot writes its positions
    (a walk option's slots are decided next), and a subtree is dropped as
    soon as `_may_beat` says no completion can beat the best so far.  A
    leaf left standing goes to `_best_rotation`, and a walk of one target
    goes there at once.  Pruning needs a strict improvement, so the winner
    is the first argmax, as in `best_target`.  Each option tried for a slot
    to decide counts, and TooLarge is raised past SEARCH_BUDGET.
    """
    items = tuple(source)
    n = len(items)
    rank = {v: i for i, v in enumerate(items)}
    if len(rank) != n:
        raise InvalidInstance(_NOT_ONE_ITEM_SET)
    budget, tries = SEARCH_BUDGET, count(1)
    best_len, best_pos, best_r = -1, (), 0

    def laid(walk, off: int):
        """(ranks, keys, slots to decide) of a walk laid from `off`, or None
        without targets: its items' ranks (-1 for a foreign item) by each
        slot's first option, their positions (all a slot's first one while it
        is undecided), and the slots to decide as (offset, options laid, ranks)."""
        rs, ks, branch = [], [], []
        for opts in walk:
            lays = []
            for o in opts:  # a list option is a walk of its own
                lay = laid(o, off) if isinstance(o, list) else ([rank.get(x, -1) for x in o], range(off, off + len(o)), ())
                if lay is not None:
                    lays.append(lay)
            if not lays:
                return None  # a slot without options: no targets
            first = lays[0][0]
            rs += first
            if len(lays) == 1:
                ks += lays[0][1]
                branch += lays[0][2]
            else:
                want = sorted(first)
                if any(sorted(lay[0]) != want for lay in lays):
                    raise InvalidInstance(_NOT_ONE_ITEM_SET)
                ks += [off] * len(first)
                branch.append((off, lays, first))
            off += len(first)
        return rs, ks, tuple(branch)

    def descend(keys: list, todo: tuple) -> None:
        nonlocal best_len, best_pos, best_r
        if not todo:  # a whole target: score it
            pos = tuple(keys)
            length, r = _best_rotation(pos, best_len)
            if r >= 0:
                best_len, best_pos, best_r = length, pos, r
            return
        (off, lays, reset), rest = todo[0], todo[1:]
        for ranks, ks, sub in lays:
            if next(tries) > budget:
                raise TooLarge(f"the target search would try more than SEARCH_BUDGET = {budget} options")
            for i, k in zip(ranks, ks):
                keys[i] = k
            if _may_beat(keys, best_len):
                descend(keys, sub + rest)
        for i in reset:
            keys[i] = off

    for walk in walks:
        lay = laid(walk, 0)
        if lay is None:
            continue
        ranks, ks, branch = lay
        if sorted(ranks) != list(range(n)):  # each item once, and no foreign one
            raise InvalidInstance(_NOT_ONE_ITEM_SET)
        keys = [0] * n  # keys[i]: the position in the target of items[i]
        for i, k in zip(ranks, ks):
            keys[i] = k
        if not branch or _may_beat(keys, best_len):  # one target goes straight to its score
            descend(keys, branch)
    if best_len < 0:
        raise InvalidInstance("best_target needs at least one target")
    at = dict(zip(best_pos, items))  # the winner's item at each position
    return tuple(map(at.__getitem__, range(n))), [items[(best_r + i) % n] for i in lis_indices(best_pos[best_r:] + best_pos[:best_r])]


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
