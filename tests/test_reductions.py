"""Reduction constructions: chunk building, witnesses, drawing instances."""

import random
import tracemalloc
from itertools import accumulate, chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untangling import (
    CircularDrawing,
    DistIcorInstance,
    Graph,
    ThreePartitionInstance,
    block_decomposition,
    chunk_property_check,
    classify,
    crossings,
    exact_3partition,
    exact_disticor,
    exact_min_untangle,
    reduce_3p_to_disticor,
    reduce_disticor_to_cu,
    witness_3p_to_disticor,
)
from untangling.io_formats import format_drawing
from untangling import oracle, reductions, seqs
from untangling.errors import InvalidInstance, NotAWitness, NotDistinct, PropertyViolation, TooLarge
from untangling.reductions import MAX_CHUNK_WORDS, _chunk_length, _run_slice, expected_chunk_length


@pytest.fixture(scope="module")
def reduced_m1():
    return reduce_3p_to_disticor(ThreePartitionInstance((9, 9, 12), 30))


def reference_ranks(projections):
    """Ranks by sorting every word (value, later position first) of the
    concatenated projections, as the construction defines them."""
    flat = list(chain.from_iterable(projections))
    ranks = [0] * len(flat)
    for r, j in enumerate(sorted(range(len(flat)), key=lambda j: (flat[j], -j)), 1):
        ranks[j] = r
    out, lo = [], 0
    for p in projections:
        out.append(tuple(ranks[lo : lo + len(p)]))
        lo += len(p)
    return out


# (triplet, K) with K/4 < every element < K/2 and K <= 15
M1_YES_TRIPLETS = tuple(
    ((a, b, k - a - b), k)
    for k in range(7, 16)
    for a in range(1, k)
    for b in range(a, k - 2 * a + 1)
    if b <= k - a - b and all(k < 4 * x < 2 * k for x in (a, b, k - a - b))
)
# m = 2 yes-triplets small enough to reduce: K = 7 is rescaled by 3m = 6 to
# K = 42, and the others are already multiples of 6
M2_YES_TRIPLETS = (((2, 2, 3), 7), ((12, 12, 12), 36), ((12, 12, 18), 42))


def random_yes_instance(seed):
    """m = 1 for even seeds, 2 for odd ones; elements shuffled."""
    rng = random.Random(seed)
    if seed % 2 == 0:
        triplet, k = rng.choice(M1_YES_TRIPLETS)
        elements = list(triplet)
    else:
        triplet, k = rng.choice(M2_YES_TRIPLETS)
        elements = list(triplet) * 2
    rng.shuffle(elements)
    return ThreePartitionInstance(tuple(elements), k)


# the first ten distinct ones; some seeds draw the same instance
RANDOM_YES_INSTANCES = list(dict.fromkeys(map(random_yes_instance, range(30))))[:10]


@pytest.mark.parametrize(
    "inst",
    [
        ThreePartitionInstance((9, 9, 12), 30),
        ThreePartitionInstance((3, 3, 4), 10),
        ThreePartitionInstance((12, 12, 18, 12, 12, 18), 42),
        *RANDOM_YES_INSTANCES,
    ],
    ids=str,
)
def test_counted_ranks_match_word_sort(inst):
    red = reduce_3p_to_disticor(inst)
    assert exact_3partition(red.source.a, red.source.k)[0]
    assert [ch.ranks for ch in red.chunks] == reference_ranks([ch.projection for ch in red.chunks])


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        ThreePartitionInstance((1, 1, 2), 4)  # violates the quarter bounds
    with pytest.raises(InvalidInstance):
        ThreePartitionInstance((9, 9), 30)
    with pytest.raises(NotDistinct):
        DistIcorInstance(((1, 2), (2, 3)), 1)
    with pytest.raises(NotDistinct):  # a repeat within one chunk
        DistIcorInstance(((1, 1),), 1)


def test_instances_keep_what_they_checked():
    """Instances built from lists hold tuples: changing the lists later
    changes no field, equality or hash, and slips no repeat past the check.
    Tuples passed in are kept as the same objects."""
    a, chunks = [3, 3, 3], [[1, 2], [3]]
    tp, di = ThreePartitionInstance(a, 9), DistIcorInstance(chunks, 2)
    before = [(x, x._values(), hash(x), repr(x)) for x in (tp, di)]
    a[0] = 100
    chunks[1].append(2)
    chunks.append([7])
    assert [(x, x._values(), hash(x), repr(x)) for x in (tp, di)] == before
    assert (tp.a, di.chunks) == ((3, 3, 3), ((1, 2), (3,)))
    assert tp == ThreePartitionInstance((3, 3, 3), 9) and di == DistIcorInstance(((1, 2), (3,)), 2)
    assert repr(tp) == "ThreePartitionInstance(a=(3, 3, 3), k=9)"
    t, c = (3, 3, 3), ((1, 2), (3,))
    assert ThreePartitionInstance(t, 9).a is t
    assert all(x is y for x, y in zip(DistIcorInstance(c, 2).chunks, c))


def test_chunk_sizes_match_closed_form(reduced_m1):
    red = reduced_m1
    assert red.scale == 1 and red.x == 90 and red.block == 300
    assert red.instance.m_target == 300
    for i, ch in enumerate(red.chunks):
        assert len(ch.ranks) == expected_chunk_length(red, i)
        assert len(ch.ranks) == (red.source.a[i] + red.x) * 3 * red.source.m * (
            red.source.k - red.source.a[i] + 1
        )


def test_normalization_applies_when_needed():
    red = reduce_3p_to_disticor(ThreePartitionInstance((3, 3, 4), 10))
    assert red.scale == 3
    assert red.source.a == (9, 9, 12) and red.source.k == 30


def test_ranks_are_a_bijection(reduced_m1):
    all_ranks = [r for ch in reduced_m1.chunks for r in ch.ranks]
    assert sorted(all_ranks) == list(range(1, len(all_ranks) + 1))


def test_reduction_is_deterministic():
    a = reduce_3p_to_disticor(ThreePartitionInstance((9, 9, 12), 30))
    b = reduce_3p_to_disticor(ThreePartitionInstance((9, 9, 12), 30))
    assert a.instance == b.instance


def test_witness_m1_projection_is_full_range(reduced_m1):
    w = witness_3p_to_disticor(reduced_m1, [(0, 1, 2)])
    assert len(w.ranks) == reduced_m1.instance.m_target
    assert all(a < b for a, b in zip(w.ranks, w.ranks[1:]))
    assert list(w.projection) == list(range(1, reduced_m1.block + 1))


def test_witness_m2():
    inst = ThreePartitionInstance((12, 12, 18, 12, 12, 18), 42)
    ok, triplets = exact_3partition(inst.a, inst.k)
    assert ok
    red = reduce_3p_to_disticor(inst)
    w = witness_3p_to_disticor(red, triplets)
    assert len(w.ranks) == red.instance.m_target == 2 * red.block
    assert all(a < b for a, b in zip(w.ranks, w.ranks[1:]))


def test_run_slice_finds_each_run_and_only_runs(reduced_m1):
    ch = reduced_m1.chunks[0]
    width = ch.run_length
    for i, start in enumerate(ch.start_numbers):
        assert _run_slice(ch, start) == (i * width, (i + 1) * width)
    for start in (ch.start_numbers[0] + 1, ch.start_numbers[-1] - 1):
        with pytest.raises(NotAWitness):
            _run_slice(ch, start)


def test_witness_rejects_bad_partition(reduced_m1):
    with pytest.raises(NotAWitness):
        witness_3p_to_disticor(reduced_m1, [(0, 1, 1)])
    inst = ThreePartitionInstance((12, 12, 18, 12, 12, 18), 42)
    red = reduce_3p_to_disticor(inst)
    with pytest.raises(NotAWitness):
        witness_3p_to_disticor(red, [(0, 1, 3), (2, 4, 5)])  # triplet sums miss K


def test_chunk_properties_pass(reduced_m1):
    assert chunk_property_check(reduced_m1) is None


def _replace(rec, **changes):
    """`rec` with `changes`, rebuilt through its constructor."""
    return type(rec)(**{**dict(zip(rec._fields, rec._values())), **changes})


def test_chunk_properties_catch_mutation(reduced_m1):
    bad = _with_chunk0(reduced_m1, _rank_swap(reduced_m1.chunks[0], 10, 500))
    with pytest.raises(PropertyViolation):
        chunk_property_check(bad)


def _with_chunk0(red, ch0):
    return _replace(red, chunks=(ch0,) + red.chunks[1:])


def _rerun(chunk, starts):
    """`chunk` with its runs replaced by runs at `starts`, ranked as words."""
    proj = tuple(v for st in starts for v in range(st, st + chunk.run_length))
    return _replace(chunk, start_numbers=tuple(starts), projection=proj, ranks=reference_ranks([proj])[0])


def _rank_swap(chunk, j1, j2):
    ranks = list(chunk.ranks)
    ranks[j1], ranks[j2] = ranks[j2], ranks[j1]
    return _replace(chunk, ranks=tuple(ranks))


def _tie_swapped(chunk):
    """`chunk` with the ranks of two words of one value swapped, so the
    earlier word ranks first."""
    v = chunk.start_numbers[0] + 1  # a value of the first run ...
    j1 = chunk.projection.index(v)
    return _rank_swap(chunk, j1, chunk.projection.index(v, j1 + 1))  # ... that a later run repeats


def _rising(chunk):
    """`chunk` with its runs in ascending order of start."""
    return _rerun(chunk, sorted(chunk.start_numbers))


def _too_many_runs(red):
    """Chunk 0 of `red` with its last run repeated up to X + 1 runs."""
    ch0 = red.chunks[0]
    return _rerun(ch0, ch0.start_numbers + (ch0.start_numbers[-1],) * (red.x + 1 - len(ch0.start_numbers)))


def _violated(red):
    with pytest.raises(PropertyViolation) as exc:
        chunk_property_check(red)
    return exc.value.prop


def test_chunk_property_i_catches_tie_swap(reduced_m1):
    assert _violated(_with_chunk0(reduced_m1, _tie_swapped(reduced_m1.chunks[0]))) == "i"


def test_chunk_property_iii_catches_run_edit(reduced_m1):
    ch0 = reduced_m1.chunks[0]
    starts = list(ch0.start_numbers)
    starts[0], starts[1] = starts[1], starts[0]
    assert _violated(_with_chunk0(reduced_m1, _replace(ch0, start_numbers=tuple(starts)))) == "iii"


def test_chunk_property_iii_checks_every_run():
    # 186 runs per chunk; a check of a sample of them could miss runs 1 and 2
    red = reduce_3p_to_disticor(ThreePartitionInstance((12, 12, 18, 12, 12, 18), 42))
    ch0 = red.chunks[0]
    starts = list(ch0.start_numbers)
    assert len(starts) == 186
    starts[1], starts[2] = starts[2], starts[1]
    assert _violated(_with_chunk0(red, _replace(ch0, start_numbers=tuple(starts)))) == "iii"


def test_chunk_property_iv_catches_rising_runs(reduced_m1):
    # (i) ties the rank order to the projection, so only edited runs, ranked
    # again as words, can lengthen the increasing subsequence
    ch0 = reduced_m1.chunks[0]
    bad = _rising(ch0)
    assert bad.ranks != ch0.ranks
    assert _violated(_with_chunk0(reduced_m1, bad)) == "iv"


def test_chunk_property_v_catches_too_many_runs(reduced_m1):
    # more than X runs give a decreasing subsequence longer than X, one word
    # per run, while the increasing one stays a_i + X
    assert _violated(_with_chunk0(reduced_m1, _too_many_runs(reduced_m1))) == "v"


def reference_property_check(reduced):
    """The five passes with both patience passes always run, after the
    tiling check that `chunk_property_check` makes first (without it a short
    projection raises IndexError in (i)), then the comparison with the
    instance's chunks: None, or the letter of the first property that
    fails."""
    for ch in reduced.chunks:
        n, w = len(ch.ranks), ch.run_length
        if not len(ch.projection) == n == len(ch.start_numbers) * w:
            return "iii"
        keys = [ch.projection[j] * n - j for j in range(n)]
        in_rank_order = [keys[j] for j in sorted(range(n), key=ch.ranks.__getitem__)]
        if any(a >= b for a, b in zip(in_rank_order, in_rank_order[1:])):
            return "i"
        for st in ch.start_numbers:
            first_multiple = ((st + reduced.block - 1) // reduced.block) * reduced.block
            if st <= first_multiple <= st + w - 2:
                return "ii"
        for ri, st in enumerate(ch.start_numbers):
            run = slice(ri * w, (ri + 1) * w)
            seg = ch.ranks[run]
            if any(a >= b for a, b in zip(seg, seg[1:])) or ch.projection[run] != tuple(range(st, st + w)):
                return "iii"
        if seqs.lis_length(ch.ranks) != w:
            return "iv"
        if seqs.lis_length(reversed(ch.ranks)) > reduced.x:
            return "v"
    if [ch.ranks for ch in reduced.chunks] != list(reduced.instance.chunks):
        return "instance"
    return None


def _verdict(red):
    try:
        return chunk_property_check(red)
    except PropertyViolation as exc:
        return exc.prop


def _corruptions(red):
    """Chunk 0 of `red` corrupted eight ways, each with the verdict both
    checks give."""
    ch0 = red.chunks[0]
    starts = ch0.start_numbers
    yield "rank swap in a run", _rank_swap(ch0, 10, 20), "i"
    yield "rank swap across runs", _rank_swap(ch0, 10, 500), "i"
    yield "tie swap", _tie_swapped(ch0), "i"
    yield "ascending starts", _rising(ch0), "iv"
    yield "one repeated start", _rerun(ch0, (starts[0],) + starts[:-1]), "instance"
    yield "more than X runs", _too_many_runs(red), "v"
    yield "truncated projection", _replace(ch0, projection=ch0.projection[:-1]), "iii"
    extra = _replace(ch0, projection=ch0.projection + (red.block,), ranks=ch0.ranks + (red.instance.total + 1,))
    yield "extra word", extra, "iii"


def test_chunk_property_check_matches_the_patience_passes(reduced_m1):
    """(iv) and (v) read off the runs give the verdicts that measuring both
    subsequences gives, on the outputs and on corrupted chunks."""
    assert _verdict(reduced_m1) is reference_property_check(reduced_m1) is None
    for what, ch0, letter in _corruptions(reduced_m1):
        bad = _with_chunk0(reduced_m1, ch0)
        assert (_verdict(bad), reference_property_check(bad)) == (letter, letter), what


def test_chunk_property_check_compares_the_chunks_with_the_instance(reduced_m1):
    """Chunks that pass (i)-(v) but are not `reduced.instance`'s fail with
    the first chunk index where the two differ."""
    chunks = reduced_m1.chunks
    starts = chunks[0].start_numbers
    swapped = DistIcorInstance((chunks[0].ranks, chunks[2].ranks, chunks[1].ranks), reduced_m1.instance.m_target)
    for bad, ci in (
        (_with_chunk0(reduced_m1, _rerun(chunks[0], (starts[0],) + starts[:-1])), 0),
        (_replace(reduced_m1, instance=swapped), 1),
        (_replace(reduced_m1, chunks=chunks[:2]), 2),
    ):
        with pytest.raises(PropertyViolation) as exc:
            chunk_property_check(bad)
        assert (exc.value.prop, exc.value.witness) == ("instance", (ci,))


@pytest.fixture
def lis_calls(monkeypatch):
    calls = []

    def counted(items):
        calls.append(1)
        return seqs.lis_length(items)

    monkeypatch.setattr(reductions, "lis_length", counted)
    return calls


@pytest.mark.parametrize(
    "inst",
    [
        ThreePartitionInstance((9, 9, 12), 30),
        ThreePartitionInstance((3, 3, 4), 10),
        ThreePartitionInstance((12, 12, 18, 12, 12, 18), 42),
    ],
    ids=str,
)
def test_chunk_property_check_runs_no_patience_pass_on_reductions(inst, lis_calls):
    assert chunk_property_check(reduce_3p_to_disticor(inst)) is None
    assert lis_calls == []


def test_chunk_property_check_measures_where_a_premise_fails(reduced_m1, lis_calls):
    """Rising starts leave (iv) to a patience pass, more than X runs (v)."""
    for what, ch0, letter in _corruptions(reduced_m1):
        del lis_calls[:]
        assert _verdict(_with_chunk0(reduced_m1, ch0)) == letter
        assert bool(lis_calls) == (what in ("ascending starts", "more than X runs")), what


def test_chunk_property_check_needs_runs_that_tile_the_chunk(reduced_m1):
    """A short projection or an extra word fails (iii) with the chunk index
    and the three lengths, not an IndexError or a longer subsequence."""
    ch0 = reduced_m1.chunks[0]
    n = len(ch0.ranks)
    with pytest.raises(PropertyViolation) as exc:
        chunk_property_check(_with_chunk0(reduced_m1, _replace(ch0, projection=ch0.projection[:-1])))
    assert (exc.value.prop, exc.value.witness) == ("iii", (0, n - 1, n, n))
    ch2 = reduced_m1.chunks[2]
    grown = _replace(ch2, projection=ch2.projection + (1,), ranks=ch2.ranks + (10**6,))
    with pytest.raises(PropertyViolation) as exc:
        chunk_property_check(_replace(reduced_m1, chunks=reduced_m1.chunks[:2] + (grown,)))
    assert (exc.value.prop, exc.value.witness) == ("iii", (2, len(ch2.ranks) + 1, len(ch2.ranks) + 1, len(ch2.ranks)))


def test_reduce_disticor_fig3():
    inst = DistIcorInstance(((2, 5), (1, 8, 4), (6, 7, 9, 3)), 5)
    d, budget = reduce_disticor_to_cu(inst)
    assert d.order == tuple(f"v{i}" for i in range(10))
    assert budget == 9 - 5
    cycles = {
        frozenset({("v0", "v2"), ("v2", "v5"), ("v0", "v5")}),
        frozenset({("v0", "v1"), ("v1", "v8"), ("v4", "v8"), ("v0", "v4")}),
        frozenset({("v0", "v6"), ("v6", "v7"), ("v7", "v9"), ("v3", "v9"), ("v0", "v3")}),
    }
    assert frozenset(d.graph.edges) == frozenset(e for c in cycles for e in c)


@pytest.mark.parametrize("spread", [lambda x: 10 * x, lambda x: x + 100], ids=["x10", "+100"])
def test_reduce_disticor_renumbers_entries_that_are_not_ranks(spread):
    """Entries other than 1..L are renumbered by rank: fig3's chunks spread
    out give the drawing and budget of `test_reduce_disticor_fig3`."""
    chunks = ((2, 5), (1, 8, 4), (6, 7, 9, 3))
    d, budget = reduce_disticor_to_cu(DistIcorInstance(chunks, 5))
    spread_d, spread_budget = reduce_disticor_to_cu(DistIcorInstance(tuple(tuple(map(spread, c)) for c in chunks), 5))
    assert spread_d.order == d.order
    assert spread_d.graph.sorted_edges() == d.graph.sorted_edges()
    assert spread_budget == budget == 4


def reference_flower(inst):
    """The drawing of `reduce_disticor_to_cu`, built by name through `Graph`:
    entry x of rank r is vertex vr, and each chunk closes a cycle through v0."""
    vertices = tuple(f"v{r}" for r in range(inst.total + 1))
    name = dict(zip(sorted(chain.from_iterable(inst.chunks)), vertices[1:]))
    edges = []
    for c in inst.chunks:
        cycle = ["v0", *map(name.__getitem__, c)]
        edges.extend(zip(cycle, cycle[1:] + cycle[:1]))
    return CircularDrawing(Graph(vertices, edges), vertices), inst.total - inst.m_target


@st.composite
def chunk_instances(draw, spread):
    """Distinct chunks over 1..L; spread, each entry is moved up by a
    random rising offset, so the entries are not 1..L and are renumbered."""
    total = draw(st.integers(1, 30))
    entries = draw(st.permutations(range(1, total + 1)))
    if spread:
        gaps = draw(st.lists(st.integers(1, 4), min_size=total, max_size=total))
        up = list(accumulate([1, *gaps[1:]], initial=gaps[0]))  # the first entry is at least 2
        entries = [up[x] for x in entries]
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), max_size=6))) if total > 1 else []
    chunks = tuple(tuple(entries[i:j]) for i, j in zip([0, *cuts], [*cuts, total]))
    return DistIcorInstance(chunks, draw(st.integers(1, total)))


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(chunk_instances))
def test_reduce_disticor_matches_the_flower_built_by_name(inst):
    """The rank runs give the graph, order, budget and file bytes of the
    flower built edge by edge through the named `Graph` constructor, with
    entries 1..L and with entries that must be renumbered."""
    d, budget = reduce_disticor_to_cu(inst)
    want, want_budget = reference_flower(inst)
    assert (d, budget) == (want, want_budget)
    assert d.order == want.order
    assert repr(d.graph) == repr(want.graph) and d.graph._index == want.graph._index
    assert format_drawing(d).encode() == format_drawing(want).encode()


@pytest.mark.parametrize("inst", [ThreePartitionInstance((6, 6, 6), 18), ThreePartitionInstance((9, 9, 12), 30)], ids=str)
@pytest.mark.parametrize("spread, bound", [(1, 0.05), (10, 0.2)], ids=["ranks", "x10"])
def test_reduce_disticor_peaks_little_above_its_drawing(inst, spread, bound):
    """Each edge is built once, kept by `Graph` and fed to it one at a time:
    with the ranks 1..L as entries the traced peak stays within 5% of the
    drawing it returns.  Entries times 10 are renumbered through a map of
    all L entries, held while the edges are fed: within 20%."""
    ranked = reduce_3p_to_disticor(inst).instance
    di = DistIcorInstance(tuple(tuple(spread * x for x in c) for c in ranked.chunks), ranked.m_target)
    tracemalloc.start()
    try:
        result = reduce_disticor_to_cu(di)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[1] == di.total - di.m_target
    assert peak - kept <= bound * kept


def test_projections_share_one_int_per_value(reduced_m1):
    """Words of one projection value hold the same int: at most M + 2
    distinct objects over all chunks, not one per word."""
    objects = {id(v) for ch in reduced_m1.chunks for v in ch.projection}
    assert len(objects) <= reduced_m1.instance.m_target + 2 < reduced_m1.instance.total


def test_reduce_disticor_increasing_chunk_is_planar():
    inst = DistIcorInstance(((1, 2, 3, 4, 5),), 5)
    d, budget = reduce_disticor_to_cu(inst)
    assert budget == 0
    assert len(crossings(d)) == 0


def test_solvable_reduced_drawing_untangles_within_budget():
    """A yes-instance's drawing needs at most K = L - M moves, the paper's
    yes => shift <= K direction.  The converse is not asserted: the hub can
    move, so a drawing can need fewer than K moves."""
    chunks = ((2, 5), (1, 8, 4), (6, 7, 9, 3))
    assert exact_disticor(chunks, 5).solvable
    d, budget = reduce_disticor_to_cu(DistIcorInstance(chunks, 5))
    assert classify(d).kind == "not-almost-planar"
    assert len(crossings(d)) == 17
    assert budget == 4
    assert exact_min_untangle(d).moved_count <= budget


# The hub v0 can move.  Over every arrangement of these chunks the longest
# increasing subsequence has 4 items, so M = 5 is a no-instance, with K = 3;
# yet its drawing untangles in 3 moves, one of them the hub's (ROADMAP item 6).
HUB_CHUNKS = ((4, 3, 7, 2, 8, 6, 5), (1,))


@pytest.mark.xfail(strict=True, reason="open gap: the hub moves, so a no-instance's drawing untangles in K moves")
def test_unsolvable_reduced_drawing_needs_more_than_budget():
    """The paper's no => shift > K direction, on the drawing itself."""
    assert not exact_disticor(HUB_CHUNKS, 5).solvable
    d, budget = reduce_disticor_to_cu(DistIcorInstance(HUB_CHUNKS, 5))
    assert exact_min_untangle(d).moved_count > budget


@pytest.mark.parametrize("m_target, solvable, over_budget", [(5, False, 1), (4, True, 0)])
def test_hub_pinned_untangling_meets_the_budget_exactly_when_solvable(m_target, solvable, over_budget):
    """With the hub held fixed, the yes-instance M = 4 needs its K = 4 moves
    and the no-instance M = 5 needs K + 1 = 4, while either drawing
    untangles in 3 when the hub may move."""
    assert exact_disticor(HUB_CHUNKS, m_target).solvable == solvable
    d, budget = reduce_disticor_to_cu(DistIcorInstance(HUB_CHUNKS, m_target))
    assert exact_min_untangle(d).moved_count == 3
    pinned = oracle._max_fixed_set(block_decomposition(d.graph), d.order, ("v0",))
    assert len(d.order) - len(pinned) == budget + over_budget


def test_reduction_refuses_more_chunk_words_than_its_cap(monkeypatch, reduced_m1):
    """The word count is the closed form's, after the 3m rescale, so the cap
    admits exactly the words it names; a one-line instance that asks for
    180,023,400 words is refused before any is built."""
    words = reduced_m1.instance.total
    monkeypatch.setattr(reductions, "MAX_CHUNK_WORDS", words)
    assert reduce_3p_to_disticor(ThreePartitionInstance((9, 9, 12), 30)).instance.total == words
    monkeypatch.setattr(reductions, "MAX_CHUNK_WORDS", words - 1)
    with pytest.raises(TooLarge):
        reduce_3p_to_disticor(ThreePartitionInstance((9, 9, 12), 30))
    monkeypatch.undo()
    with pytest.raises(TooLarge, match="180,023,400"):
        reduce_3p_to_disticor(ThreePartitionInstance((300, 330, 370), 1000))
    # m = 3, (18, 18, 27) x 3 with K = 63 needs no rescale and stays admitted
    assert sum(_chunk_length(a, 3, 63, 3 * 3 * 63) for a in (18, 18, 27) * 3) == 2_046_546 <= MAX_CHUNK_WORDS
