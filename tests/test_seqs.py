"""Sequence kernels against brute-force oracles and fixed examples."""

from itertools import combinations, permutations, product

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untangling import (
    block_decomposition,
    es_tight_cyclic,
    gen_random,
    lccs,
    lics,
    lis,
    planar_circular_order,
    seqs,
    untangle_general,
)
from untangling.errors import InvalidInstance, TooLarge
from untangling.model import cyclic_equal
from untangling.seqs import ES_TIGHT_MAX_LEN, best_opening, best_slots, best_target, lis_indices, lis_length


def scan_lics(items, sign=1):
    """Reference: the best `lis` over every rotation, on the keys times
    `sign` (-1 for decreasing), scanned in index order, so the smallest
    rotation index wins ties."""
    best = []
    for r in range(len(items)):
        rot = items[r:] + items[:r]
        w = [rot[i] for i in lis_indices([sign * x for x in rot])]
        if len(w) > len(best):
            best = w
    return best


def monotone(items, sign):
    """The package's longest increasing (sign 1) or decreasing (sign -1)
    cyclic subsequence: `lics`, or the items kept against the descending
    order."""
    if sign == 1:
        return lics(items)
    return best_target(items, (tuple(sorted(items, reverse=True)),))[1]


def brute_lis_len(items):
    best = 0
    for k in range(len(items), 0, -1):
        for picks in combinations(range(len(items)), k):
            vals = [items[i] for i in picks]
            if all(a < b for a, b in zip(vals, vals[1:])):
                return k
    return best


def brute_lics_len(items, sign):
    n = len(items)
    best = 0
    for r in range(n):
        rot = items[r:] + items[:r]
        for k in range(n, 0, -1):
            if k <= best:
                break
            for picks in combinations(range(n), k):
                vals = [rot[i] for i in picks]
                if all(sign * a < sign * b for a, b in zip(vals, vals[1:])):
                    best = max(best, k)
                    break
    return best


def is_cyclic_subsequence(sub, seq):
    if not sub:
        return True
    n = len(seq)
    for r in range(n):
        rot = seq[r:] + seq[:r]
        it = iter(rot)
        if all(x in it for x in sub):
            return True
    return False


def test_lis_examples():
    assert len(lis((2, 5, 1, 8, 4))) == 3
    assert lis((1, 2, 3, 4)) == [1, 2, 3, 4]
    assert len(lis((5, 4, 3, 2, 1))) == 1
    assert lis(()) == []


@settings(max_examples=60)
@given(st.lists(st.integers(0, 500), max_size=12, unique=True))
def test_lis_matches_bruteforce(items):
    w = lis(tuple(items))
    assert all(a < b for a, b in zip(w, w[1:]))
    it = iter(items)
    assert all(x in it for x in w)  # subsequence of the input
    assert len(w) == brute_lis_len(tuple(items))


def test_lis_length_matches_lis_indices():
    rng = random.Random(7)
    for _ in range(300):
        items = [rng.randrange(rng.choice((3, 30, 1000))) for _ in range(rng.randrange(0, 40))]
        assert lis_length(items) == len(lis_indices(items))
        assert lis_length(reversed(items)) == len(lis_indices(items[::-1]))
    assert lis_length([]) == lis_length(iter(())) == 0


def test_lics_examples():
    assert len(lics((1, 2, 3, 4))) == 4
    assert len(lics((3, 1, 4, 2))) == 3
    assert lics(()) == []
    with pytest.raises(InvalidInstance):
        lics((1, 2, 1))
    with pytest.raises(InvalidInstance):
        lics(("w1", "w0", "w1"))


@settings(max_examples=40)
@given(st.permutations(range(7)))
def test_lics_matches_bruteforce(perm):
    items = tuple(perm)
    assert len(lics(items)) == brute_lics_len(items, 1)
    assert len(lics(items[::-1])) == brute_lics_len(items, -1)  # decreasing is reversed


@settings(max_examples=40)
@given(st.permutations(range(8)))
def test_lics_at_least_any_rotation_lis(perm):
    items = tuple(perm)
    n = len(items)
    best_rot = max(len(lis(items[r:] + items[:r])) for r in range(n))
    assert len(lics(items)) >= best_rot


distinct_ints = st.lists(st.integers(-1000, 1000), max_size=60, unique=True)


@st.composite
def tied_rotations(draw):
    """k shifted copies of one pattern, the copies' offsets in a drawn order:
    rotations starting at the copies' boundaries tie whenever the offsets
    fall, so the tie rule decides the witness."""
    pattern = draw(st.permutations(range(draw(st.integers(1, 8)))))
    offsets = draw(st.permutations(range(draw(st.integers(2, 6)))))
    m = len(pattern)
    return tuple(x + off * m - 20 for off in offsets for x in pattern)


@settings(max_examples=150, deadline=None)
@given(st.one_of(distinct_ints, tied_rotations()), st.sampled_from([1, -1]))
def test_lics_equals_rotation_scan(items, sign):
    items = tuple(items)
    ref = scan_lics(items, sign)
    assert monotone(items, sign) == ref
    assert len(lics(items[::sign])) == len(ref)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 999), max_size=20, unique=True), st.sampled_from([1, -1]))
def test_lics_on_ordered_non_numbers(items, sign):
    # zero-padded words sort like their numbers
    words = tuple(f"w{x:03d}" for x in items)
    assert monotone(words, sign) == [f"w{x:03d}" for x in scan_lics(tuple(items), sign)]


def test_lics_equals_rotation_scan_long_perturbed():
    # long, nearly sorted sequences: the bounds prune most rotations here
    rng = random.Random(4)
    for n in (40, 100, 250):
        for _ in range(4):
            items = list(range(n))
            for _ in range(n // 8):
                items.insert(rng.randrange(n), items.pop(rng.randrange(n)))
            k = rng.randrange(n)
            items = tuple(items[k:] + items[:k])
            for sign in (1, -1):
                assert monotone(items, sign) == scan_lics(items, sign)


def test_erdos_szekeres_cyclic_six():
    # every cyclic permutation of 6 distinct ranks has a monotone cyclic
    # subsequence of 4 terms (s = r = 2)
    for tail in permutations(range(1, 6)):
        seq = (0,) + tail
        assert len(lics(seq)) >= 4 or len(lics(seq[::-1])) >= 4


def test_lccs_examples():
    a = ("v1", "v2", "v3", "v4")
    assert len(lccs(a, a)) == 4
    assert len(lccs(a, ("v1", "v3", "v2", "v4"))) == 3
    five = ("a", "b", "c", "d", "e")
    assert len(lccs(five, tuple(reversed(five)))) == 2
    # the kept items start where the positions in b rise longest
    assert lccs(five, ("c", "d", "e", "a", "b")) == ["c", "d", "e", "a", "b"]


def brute_lccs_len(a, b):
    n = len(a)
    for k in range(n, 0, -1):
        for picks in combinations(a, k):
            sa = tuple(x for x in a if x in picks)
            sb = tuple(x for x in b if x in picks)
            if is_cyclic_subsequence(sa, sb) or is_cyclic_subsequence(sb, sa):
                # same set; cyclic equality of the two restrictions
                from untangling.model import cyclic_equal

                if cyclic_equal(sa, sb):
                    return k
    return 0


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(7)))
def test_lccs_matches_subset_oracle(perm):
    a = tuple(range(7))
    b = tuple(perm)
    got = lccs(a, b)
    assert len(got) == brute_lccs_len(a, b)
    assert len(lccs(b, a)) == len(got)  # symmetry


def test_lccs_rejects_mismatched_orders():
    with pytest.raises(InvalidInstance):
        lccs((1, 2), (1, 2, 1))  # repeats in b
    with pytest.raises(InvalidInstance):
        lccs((1, 2, 1), (1, 2))  # repeats in a
    with pytest.raises(InvalidInstance):
        lccs((1, 2), (1, 3))
    with pytest.raises(InvalidInstance):
        lccs(("x",), ())


@st.composite
def targets_with_ties(draw):
    n = draw(st.integers(0, 12))
    source = tuple(f"v{i}" for i in draw(st.permutations(range(n))))
    pool = [tuple(source[i] for i in draw(st.permutations(range(n)))) for _ in range(draw(st.integers(1, 4)))]
    targets = []
    for _ in range(draw(st.integers(1, 12))):
        t = draw(st.sampled_from(pool))
        k = draw(st.integers(0, max(0, n - 1)))
        targets.append(draw(st.sampled_from((tuple, list)))([*t[k:], *t[:k]]))  # a fresh object; rotations score alike
    return source, targets


def scan_kept(source, target):
    """Reference for `best_target`'s kept list: the smallest rotation of
    `source`, read through the target's positions, with the longest `lis`,
    read back as items."""
    pos = {x: i for i, x in enumerate(target)}
    best = []
    for r in range(len(source)):
        w = lis(pos[x] for x in source[r:] + source[:r])
        if len(w) > len(best):
            best = w
    return [target[i] for i in best]


@settings(max_examples=150, deadline=None)
@given(targets_with_ties())
def test_best_target_is_first_argmax(case):
    source, targets = case
    scores = [len(scan_kept(source, t)) for t in targets]
    target, kept = best_target(source, targets)
    assert target is targets[scores.index(max(scores))]
    assert kept == scan_kept(source, target)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_best_target_keeps_the_scanned_subsequence(pair):
    a, b = map(tuple, pair)
    target, kept = best_target(a, (b,))
    assert target is b
    assert kept == lccs(a, b) == scan_kept(a, b)


def test_best_target_rejects_bad_input():
    with pytest.raises(InvalidInstance):
        best_target(("a", "b"), [])
    with pytest.raises(InvalidInstance):
        best_target(("a", "b"), iter(()))
    with pytest.raises(InvalidInstance):
        best_target(("a", "b"), [("a", "b"), ("a", "a")])
    with pytest.raises(InvalidInstance):
        best_target(("a", "b"), [("a", "b", "c")])


def rotations(slot):
    """The targets of one slot `(sigma, cuts)`: sigma rotated at each cut."""
    sigma, cuts = slot
    return [tuple(sigma[c:]) + tuple(sigma[:c]) for c in cuts]


def both_ways(cycle):
    """A slot cycle as given and the other way round from slot 0."""
    return [cycle, cycle[:1] + cycle[:0:-1]]


def expanded(cycle):
    """Every target of a slot cycle: one rotation per slot, concatenated,
    with the slots in either direction."""
    return [sum(combo, ()) for slots in both_ways(cycle) for combo in product(*map(rotations, slots))]


def is_common_cyclic_subsequence(kept, source, target):
    """Whether `kept` lists distinct items of `source`, in its cyclic order,
    that `target` holds in the same cyclic order."""
    keep = set(kept)
    a = tuple(x for x in source if x in keep)
    return len(keep) == len(kept) == len(a) and is_cyclic_subsequence(tuple(kept), a) and cyclic_equal(
        a, tuple(x for x in target if x in keep)
    )


@st.composite
def slot_lists(draw, source):
    """A random partition of `source` into slots, each listed in the cyclic
    order of `source` from a drawn item, with a non-empty set of cuts."""
    order = draw(st.permutations(source))
    bounds = sorted(draw(st.sets(st.integers(1, max(1, len(order) - 1)), max_size=len(order) - 1))) if order else []
    rank = {x: i for i, x in enumerate(source)}
    slots = []
    for a, b in zip([0, *bounds], [*bounds, len(order)]):
        part = sorted(order[a:b], key=rank.__getitem__)
        z = draw(st.integers(0, len(part) - 1))
        cuts = draw(st.sets(st.integers(0, len(part) - 1), min_size=1))
        slots.append((tuple(part[z:] + part[:z]), sorted(cuts)))
    return slots


@st.composite
def slot_cycles(draw):
    """A source of n = 1..11 items and a cycle of slots over them."""
    n = draw(st.integers(1, 11))
    source = tuple(f"v{i}" for i in draw(st.permutations(range(n))))
    return source, draw(slot_lists(source))


@settings(max_examples=300, deadline=None)
@given(slot_cycles())
def test_best_slots_matches_best_target_over_the_expanded_product(case):
    source, cycle = case
    targets = expanded(cycle)
    kept = best_slots(source, cycle)
    assert len(kept) == len(best_target(source, targets)[1])
    assert any(is_common_cyclic_subsequence(kept, source, t) for t in targets)


def opened(cycle):
    """Every target of a slot cycle's openings: each way round from slot 0,
    opened just before and just after it, one rotation per slot."""
    return [sum(combo, ()) for turn in both_ways(cycle) for slots in (turn, turn[1:] + turn[:1])
            for combo in product(*map(rotations, slots))]


def plain_lcs_len(a, b):
    """Length of a longest common subsequence of two sequences, from the
    O(len(a) len(b)) table."""
    row = [0] * (len(b) + 1)
    for x in a:
        diag = 0
        for j, y in enumerate(b, 1):
            diag, row[j] = row[j], diag + 1 if x == y else max(row[j], row[j - 1])
    return row[-1]


def is_subsequence(sub, seq):
    it = iter(seq)
    return all(x in it for x in sub)


@settings(max_examples=300, deadline=None)
@given(slot_cycles())
def test_best_opening_matches_a_plain_lcs_over_every_opening(case):
    source, cycle = case
    targets = opened(cycle)
    kept = best_opening(source, cycle)
    assert len(kept) == max(plain_lcs_len(source, t) for t in targets)
    assert is_subsequence(kept, source) and any(is_subsequence(kept, t) for t in targets)


@settings(max_examples=150, deadline=None)
@given(slot_cycles(), st.data())
def test_best_slots_rejects_slots_of_another_item_set(case, data):
    source, slots = case
    s = data.draw(st.integers(0, len(slots) - 1))
    sigma, cuts = slots[s]
    elsewhere = [x for t, (other, _) in enumerate(slots) if t != s for x in other]
    bad = [(sigma + ("foreign",), cuts), ((*sigma, sigma[0]), cuts), (sigma, [*cuts, len(sigma)])]
    if len(sigma) > 1:
        bad += [(sigma[1:], [0]), (sigma[:1] + sigma[:-1], cuts)]  # an item left out, or one repeated
    if len(sigma) > 2:
        bad.append(((sigma[1], sigma[0], *sigma[2:]), cuts))  # not the source's cyclic order
    if elsewhere:
        bad.append((sigma + (data.draw(st.sampled_from(elsewhere)),), cuts))  # another slot's item
    slots[s] = data.draw(st.sampled_from(bad))
    for score in (best_slots, best_opening):
        with pytest.raises(InvalidInstance):
            score(source, slots)


def test_best_slots_edge_cases():
    assert best_slots((), []) == []
    assert best_slots(("a", "b"), [(("a", "b"), [1])]) in (["a", "b"], ["b", "a"])
    with pytest.raises(InvalidInstance):  # a slot without cuts has no rotation
        best_slots(("a", "b"), [(("a",), [0]), (("b",), [])])
    assert best_opening((), []) == []
    assert best_opening(("a", "b"), [(("a", "b"), [1])]) in (["a"], ["b"])
    assert best_opening(("a", "b", "c"), [(("a",), [0]), (("c",), [0]), (("b",), [0])]) == ["a", "b", "c"]
    with pytest.raises(InvalidInstance):
        best_opening(("a", "b"), [(("a",), [0]), (("b",), [])])


def test_one_item_slots_are_laid_directly_and_checked():
    """A one-item slot cut at 0 is its rank, again plus n, with room 1;
    one cut elsewhere, or an item the source lacks, is still refused."""
    rank = {"a": 0, "b": 1, "c": 2}
    assert seqs._lay(rank, 3, ("b",), [0]) == ([1, 4], [1, 1], 1)
    assert seqs._lay(rank, 3, ("b",), (0, 0)) == ([1, 4], [1, 1], 1)
    for sigma, cuts in ((("b",), [1]), (("b",), [0, 1]), (("b",), []), (("z",), [0])):
        with pytest.raises(InvalidInstance):
            seqs._lay(rank, 3, sigma, cuts)


def sequential_rotation_search(items, floor):
    """The rotation search of one target scored on its own: split points
    c = i * n // k from c = 0, each rejecting the target once no bound
    exceeds `floor`, then rotations by falling bound.  It returns what
    `seqs._best_rotation` does, and runs its passes through `seqs`, so a
    counter patched there sees them."""
    n = len(items)
    if n == 0:
        return (0, 0) if floor < 0 else (floor, -1)
    k = min(seqs.MAX_SPLITS, n)
    bound = None
    for c in (i * n // k for i in range(k)):
        split = seqs._split_bounds(items, c)
        bound = split if bound is None else list(map(min, bound, split))
        if max(bound) <= floor:
            return floor, -1
    best, best_r = floor, -1
    doubled = items + items
    for r in sorted(range(n), key=bound.__getitem__, reverse=True):
        b = bound[r]
        if b < best or (b == best and (best_r < 0 or r >= best_r)):
            break
        length = seqs.lis_length(doubled[r:r + n])
        if length > best or (length == best and r < best_r):
            best, best_r = length, r
    return best, best_r


def one_rotation_per_target(source, targets):
    """Reference for `best_target`: the targets searched one after another
    in the given order, the first with floor -1 and each later one with
    the best length so far, each read through the source's ranks."""
    n = len(source)
    rank = {x: i for i, x in enumerate(source)}
    best, best_len, best_pos, best_r = None, -1, (), 0
    for t in targets:
        pos = [0] * n
        for j, x in enumerate(t):
            pos[rank[x]] = j
        pos = tuple(pos)
        length, r = sequential_rotation_search(pos, best_len)
        if r >= 0:
            best, best_len, best_pos, best_r = t, length, pos, r
    return best, [source[(best_r + i) % n] for i in lis_indices(best_pos[best_r:] + best_pos[:best_r])]


MIRROR_WINS = {(100, 2), (300, 3)}


@pytest.mark.parametrize("n,seed", [(12, 0), (40, 1), (100, 2), (300, 3)])
def test_one_target_walks_add_no_passes(monkeypatch, n, seed):
    """`untangle_general`'s call with two targets runs no more patience
    passes than one full search per target in the given order, and
    strictly fewer where the mirror wins: the planar order then stops at
    the bounds that the mirror's length sets."""
    d = gen_random(n, seed, "outerplanar-order-perturbed", k=n // 3)
    calls = {"_prefix_lis_lens": 0, "lis_length": 0}
    for name in calls:
        def counted(*args, _f=getattr(seqs, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(seqs, name, counted)
    untangle_general(d)
    general_calls = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    base = planar_circular_order(block_decomposition(d.graph))
    mirror = base[::-1]
    want = one_rotation_per_target(d.order, (base, mirror))
    assert all(general_calls[k] <= calls[k] for k in calls) and general_calls["_prefix_lis_lens"] > 0
    assert (want[0] is mirror) == ((n, seed) in MIRROR_WINS)
    if want[0] is mirror:
        assert sum(general_calls.values()) < sum(calls.values())
    assert best_target(d.order, (base, mirror)) == want


def perturbed_pair(rng, n):
    """`(source, p, mirror)`: a random cyclic order p of v0..v(n-1), its
    mirror, and a source that is, by a coin flip, one of the two with up
    to n // 3 items moved, or a shuffle, against which both orientations
    score short and alike; the source is rotated at random."""
    p = tuple(f"v{i}" for i in rng.sample(range(n), n))
    source = list(p if rng.random() < 0.5 else p[::-1])
    if rng.random() < 0.5:
        rng.shuffle(source)
    for _ in range(rng.randrange(n // 3 + 1)):
        source.insert(rng.randrange(n), source.pop(rng.randrange(n)))
    k = rng.randrange(n)
    return tuple(source[k:] + source[:k]), p, p[::-1]


def rotation_zero(source, target):
    """The LIS of the source as given, read through the target's positions:
    the exact length `best_target` takes from each target's first split."""
    pos = {x: j for j, x in enumerate(target)}
    return lis_length(pos[x] for x in source)


def first_argmax(source, targets):
    """The index of the first target with the longest `scan_kept`, after
    checking that `best_target` returns that very object and its kept list."""
    scores = [len(scan_kept(source, t)) for t in targets]
    win = scores.index(max(scores))
    target, kept = best_target(source, targets)
    assert target is targets[win]
    assert kept == scan_kept(source, target)
    return win


def test_best_target_orientations_at_scale():
    """(p, mirror) pairs at n = 40-150, including pairs where rotation 0
    ranks the losing orientation above the winner, so the incumbent loses."""
    rng = random.Random(23)
    loser_first = mirror_wins = 0
    for _ in range(60):
        source, p, mirror = perturbed_pair(rng, rng.randrange(40, 151))
        win = first_argmax(source, [p, mirror])
        first = [rotation_zero(source, t) for t in (p, mirror)]
        loser_first += first[1 - win] > first[win]
        mirror_wins += win
    assert loser_first > 0 and 0 < mirror_wins < 60


def test_best_target_tied_orientations_keep_the_first():
    """An arc of p followed by the next arc of p reversed keeps m + 1 items
    against p and against its mirror: the target given first wins."""
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randrange(20, 76)
        p = tuple(f"v{i}" for i in rng.sample(range(2 * m), 2 * m))
        source = p[:m] + p[:m - 1:-1]
        k = rng.randrange(2 * m)
        source = source[k:] + source[:k]
        mirror = p[::-1]
        assert len(scan_kept(source, p)) == len(scan_kept(source, mirror)) == m + 1
        assert first_argmax(source, [p, mirror]) == 0
        assert first_argmax(source, [mirror, p]) == 0


def test_best_target_longer_lists_and_generators():
    """Two orientation pairs plus rotated copies of one pair, shuffled: a
    copy scores as its original, so the first of them given wins, wherever
    it stands; a generator of the same targets gives the same answer."""
    rng = random.Random(11)
    later = 0
    for _ in range(30):
        n = rng.randrange(40, 151)
        source, p, mirror = perturbed_pair(rng, n)
        _, q, q_mirror = perturbed_pair(rng, n)
        k = rng.randrange(1, n)
        targets = [p, mirror, q, q_mirror, p[k:] + p[:k], mirror[k:] + mirror[:k]]
        rng.shuffle(targets)
        win = first_argmax(source, targets)
        target, kept = best_target(source, (t for t in targets))
        assert target is targets[win] and kept == scan_kept(source, target)
        later += win > 0
    assert later > 0
    with pytest.raises(InvalidInstance):
        best_target(source, (t for t in ()))


def test_moves_between():
    # the fewest vertex moves turning one cyclic order into another is n - lccs
    a = (1, 2, 3, 4)
    assert len(a) - len(lccs(a, (2, 3, 4, 1))) == 0  # rotation is free
    assert len(a) - len(lccs(a, (1, 3, 2, 4))) == 1


@pytest.mark.parametrize(
    "s,r",
    [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (1, 11), (11, 1), (2, 5), (5, 2), (4, 3), (12, 12), (32, 32)],
)
def test_es_tight_cyclic(s, r):
    t = es_tight_cyclic(s, r)
    n = s * r + 1
    assert sorted(t) == list(range(n))
    assert len(lics(t)) == s + 1
    assert len(lics(t[::-1])) == r + 1
    assert t == tuple(r * k % n for k in range(n))


def test_es_tight_cyclic_caps():
    assert ES_TIGHT_MAX_LEN == 32 * 32 + 1
    es_tight_cyclic(ES_TIGHT_MAX_LEN - 1, 1)
    with pytest.raises(TooLarge):
        es_tight_cyclic(ES_TIGHT_MAX_LEN, 1)
    with pytest.raises(InvalidInstance):
        es_tight_cyclic(0, 1)
