"""Sequence kernels against brute-force oracles and fixed examples."""

from itertools import chain, combinations, permutations, product

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
from untangling.seqs import ES_TIGHT_MAX_LEN, best_product, best_target, lis_indices, lis_length


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
        best_target(("a", "b"), [("a", "b"), ("a", "a")])
    with pytest.raises(InvalidInstance):
        best_target(("a", "b"), [("a", "b", "c")])


@st.composite
def nested_walk(draw, piece):
    """A walk over the items of `piece`: 1-2 slots of 1-4 options each."""
    order = draw(st.permutations(piece))
    cuts = sorted(draw(st.lists(st.integers(0, len(piece)), max_size=1)))
    return [
        [tuple(order[a:b]), *draw(st.lists(st.permutations(order[a:b]).map(tuple), max_size=3))]
        for a, b in zip([0, *cuts], [*cuts, len(piece)])
    ]


@st.composite
def walks_with_ties(draw):
    """A source of n = 0..14 items and 1-3 walks of 1-4 slots with 1-4
    options each, an option sometimes a walk itself; a walk may repeat an
    earlier one with its slots rotated, whose targets are rotations of the
    earlier walk's and tie with them."""
    n = draw(st.integers(0, 14))
    source = tuple(f"v{i}" for i in draw(st.permutations(range(n))))
    walks = []
    for _ in range(draw(st.integers(1, 3))):
        if walks and draw(st.booleans()):
            slots = draw(st.sampled_from(walks))
            k = draw(st.integers(0, len(slots) - 1))
            walks.append(slots[k:] + slots[:k])
            continue
        order = draw(st.permutations(source))
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
        slots = []
        for a, b in zip([0, *cuts], [*cuts, n]):
            piece = tuple(order[a:b])
            opts = [piece, *draw(st.lists(st.permutations(piece).map(tuple), max_size=3))]
            if draw(st.booleans()):
                opts.insert(draw(st.integers(0, len(opts))), draw(nested_walk(piece)))
            slots.append(opts)
        walks.append(slots)
    return source, walks


def expanded(walks):
    """Every target of `walks`, a walk option standing for its own targets."""
    def targets(opt):
        return expanded([opt]) if isinstance(opt, list) else [opt]

    return [
        tuple(chain.from_iterable(combo))
        for slots in walks
        for combo in product(*([t for opt in opts for t in targets(opt)] for opts in slots))
    ]


@settings(max_examples=300, deadline=None)
@given(walks_with_ties())
def test_best_product_matches_best_target_over_the_expanded_product(case):
    source, walks = case
    want, want_kept = best_target(source, expanded(walks))
    target, kept = best_product(source, walks)
    assert tuple(target) == want
    assert kept == want_kept == scan_kept(source, want)


def test_walk_options_are_searched_in_product_order():
    """A walk option's own slots are decided before the slots after it, so
    ties between its targets and a later slot's options go to the first
    target in product order."""
    rng = random.Random(0)

    def options(piece):
        return list(dict.fromkeys([tuple(piece), *(tuple(rng.sample(piece, len(piece))) for _ in range(2))]))

    for _ in range(1000):
        n = rng.randint(4, 8)
        source, order = tuple(rng.sample(range(n), n)), rng.sample(range(n), n)
        c = rng.randint(2, n - 2)
        a = rng.randint(1, c - 1)
        walks = [[[[options(order[:a]), options(order[a:c])], tuple(order[:c])], options(order[c:])]]
        assert best_product(source, walks) == best_target(source, expanded(walks))


@settings(max_examples=150, deadline=None)
@given(walks_with_ties(), st.data())
def test_best_product_rejects_options_of_another_item_set(case, data):
    source, walks = case
    walks = [[list(opts) for opts in slots] for slots in walks]
    w = data.draw(st.integers(0, len(walks) - 1))
    s = data.draw(st.integers(0, len(walks[w]) - 1))
    opts = walks[w][s]
    opt = next(o for o in opts if isinstance(o, tuple))  # each slot has an item option
    elsewhere = [x for t, other in enumerate(walks[w]) if t != s for x in next(o for o in other if isinstance(o, tuple))]
    bad = [opt + ("foreign",)]
    if opt:
        bad += [opt[1:], opt[:1] + opt]  # an item left out, or one repeated
    if len(opt) > 1:
        bad.append(opt[:1] + opt[:-1])  # one repeated in place of another
    if opt and elsewhere:
        bad.append((data.draw(st.sampled_from(elsewhere)),) + opt[1:])  # another slot's item
    bad = data.draw(st.sampled_from(bad))
    if data.draw(st.booleans()):  # the bad items in a walk option, split over two slots
        cut = data.draw(st.integers(0, len(bad)))
        bad = [[bad[:cut]], [bad[cut:]]]
    opts.insert(data.draw(st.integers(0, len(opts))), bad)
    with pytest.raises(InvalidInstance):
        best_product(source, walks)
    with pytest.raises(InvalidInstance):
        best_target(source, expanded(walks))


def one_rotation_per_target(source, targets):
    """Reference for `best_target`: one `_best_rotation` call per target,
    each read through the source's ranks."""
    n = len(source)
    rank = {x: i for i, x in enumerate(source)}
    best, best_len, best_pos, best_r = None, -1, (), 0
    for t in targets:
        pos = [0] * n
        for j, x in enumerate(t):
            pos[rank[x]] = j
        pos = tuple(pos)
        length, r = seqs._best_rotation(pos, best_len)
        if r >= 0:
            best, best_len, best_pos, best_r = t, length, pos, r
    return best, [source[(best_r + i) % n] for i in lis_indices(best_pos[best_r:] + best_pos[:best_r])]


@pytest.mark.parametrize("n,seed", [(12, 0), (40, 1), (100, 2), (300, 3)])
def test_one_target_walks_add_no_passes(monkeypatch, n, seed):
    """`untangle_general`'s call with two targets runs the patience passes of
    one `_best_rotation` per target and no product bound."""
    d = gen_random(n, seed, "outerplanar-order-perturbed", k=n // 3)
    calls = {"_prefix_lis_lens": 0, "lis_length": 0, "_may_beat": 0}
    for name in calls:
        def counted(*args, _f=getattr(seqs, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(seqs, name, counted)
    untangle_general(d)
    general_calls = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    base = planar_circular_order(block_decomposition(d.graph))
    want = one_rotation_per_target(d.order, (base, base[::-1]))
    assert general_calls == calls and calls["_prefix_lis_lens"] > 0 and calls["_may_beat"] == 0
    assert best_target(d.order, (base, base[::-1])) == want


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
