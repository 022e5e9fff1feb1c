"""General untangler: bound, planarity, witness validity, tight instances."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untangling import (
    CircularDrawing,
    block_decomposition,
    cycle_graph,
    exact_min_untangle,
    gen_fig5,
    gen_random,
    gen_tight_general,
    general_bound,
    lccs,
    planar_circular_order,
    untangle_general,
    verify_untangling,
)
from untangling.errors import InvalidInstance, InvalidN, TooLarge
from untangling.model import cyclic_equal, is_planar_drawing, moves_to_reach, restriction
from untangling.seqs import ES_TIGHT_MAX_LEN, lis_indices


def test_planar_input_needs_no_moves():
    g = cycle_graph(7)
    d = CircularDrawing(g, g.vertices)
    assert len(untangle_general(d)) == 0


def test_tight_n6_matches_exact_oracle():
    d = gen_tight_general(6)
    assert general_bound(6) == 2
    u = untangle_general(d)
    rep = verify_untangling(d, u)
    assert rep.planar_ok and rep.moved_count == 2
    assert exact_min_untangle(d).moved_count == 2


def test_fig5_n8_within_bound_optimum_three():
    d = gen_fig5(8)
    assert general_bound(8) == 4
    u = untangle_general(d)
    rep = verify_untangling(d, u)
    assert rep.planar_ok and rep.moved_count <= 4
    assert exact_min_untangle(d).moved_count == 3


@pytest.mark.parametrize(
    "n,expect", [(4, 1), (6, 2), (11, 6), (12, 7), (20, 14), (102, 90), (ES_TIGHT_MAX_LEN, 992)]
)
def test_gen_tight_values(n, expect):
    d = gen_tight_general(n)
    assert general_bound(n) == expect
    # a cycle's planar order is unique up to reflection: the exact answer is
    # two common-cyclic-subsequence computations
    base = tuple(d.graph.vertices)
    rev = (base[0],) + tuple(reversed(base[1:]))
    best = max(len(lccs(d.order, base)), len(lccs(d.order, rev)))
    assert n - best == expect
    if n <= 9:
        assert exact_min_untangle(d).moved_count == expect


def test_gen_tight_out_of_range():
    with pytest.raises(TooLarge, match=f"up to n = {ES_TIGHT_MAX_LEN}, got n = {ES_TIGHT_MAX_LEN + 1}$"):
        gen_tight_general(ES_TIGHT_MAX_LEN + 1)
    with pytest.raises(InvalidN):
        gen_tight_general(3)


def test_cycle_shift_equals_monotone_complement():
    # for cycles, the optimum equals n minus the best monotone cyclic
    # subsequence of the rank sequence, cross-checked with the full oracle
    import random

    rng = random.Random("cycle-shift")
    for n in (5, 6, 7, 8, 9):
        g = cycle_graph(n)
        for _ in range(4):
            order = list(g.vertices)
            rng.shuffle(order)
            d = CircularDrawing(g, order)
            base = planar_circular_order(block_decomposition(g))
            rev = (base[0],) + tuple(reversed(base[1:]))
            best = max(len(lccs(d.order, base)), len(lccs(d.order, rev)))
            assert exact_min_untangle(d).moved_count == len(d.order) - best


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 24))
def test_untangle_general_properties(seed, n):
    d = gen_random(n, seed, "outerplanar-order-perturbed")
    u = untangle_general(d)
    rep = verify_untangling(d, u)
    assert rep.planar_ok and rep.fixed_set_ok
    assert rep.moved_count <= general_bound(n)
    # the fixed vertices form a cyclic subsequence of both the input order
    # and the final order by construction
    fixed = [v for v in d.order if v not in u.moved_set()]
    assert cyclic_equal(restriction(d.order, fixed), restriction(rep.result.order, fixed))


def test_disconnected_graphs_supported():
    d = gen_random(12, 5, "disconnected")
    u = untangle_general(d)
    rep = verify_untangling(d, u)
    assert rep.planar_ok and rep.moved_count <= general_bound(12)


def test_general_bound_values():
    assert [general_bound(n) for n in (2, 3, 4, 6, 11)] == [0, 0, 1, 2, 6]
    assert general_bound(8) == 8 - isqrt(6) - 2 == 4


def _scan_lics(seq, sign):
    """The best `lis` over every rotation of `seq`, on the keys times `sign`
    (-1 for decreasing), the smallest rotation index winning ties."""
    best = []
    for r in range(len(seq)):
        rot = seq[r:] + seq[:r]
        w = [rot[i] for i in lis_indices([sign * x for x in rot])]
        if len(w) > len(best):
            best = w
    return best


def _two_lics_untangle(d):
    """Reference: the general untangler from the longest increasing and
    decreasing cyclic subsequences of the drawing's ranks in the planar
    order, each found by a rotation scan, increasing on a tie.  Returns the
    moves and which one won."""
    base = planar_circular_order(block_decomposition(d.graph))
    rank = {v: i for i, v in enumerate(base)}
    seq = tuple(rank[x] for x in d.order)
    inc, dec = _scan_lics(seq, 1), _scan_lics(seq, -1)
    if len(inc) >= len(dec):
        target, kept_ranks = base, inc
    else:
        target, kept_ranks = (base[0],) + tuple(reversed(base[1:])), dec
    kept = {base[r] for r in kept_ranks}
    winner = "tie" if len(inc) == len(dec) else "increasing" if len(inc) > len(dec) else "decreasing"
    return moves_to_reach(d.order, target, set(d.order) - kept), winner


def test_untangle_general_matches_two_lics_reference():
    """Scoring the planar order and its mirror as targets gives the moves of
    the two-`lics` construction, with the planar order kept on a tie."""
    wins = {"increasing": 0, "decreasing": 0, "tie": 0}
    for profile in ("outerplanar-order-perturbed", "disconnected"):
        for n in (8, 13, 30):
            for seed in range(15):
                try:
                    d = gen_random(n, seed, profile)
                except InvalidInstance:  # disconnected draws with a one-vertex part
                    continue
                if is_planar_drawing(d):
                    continue
                moves, winner = _two_lics_untangle(d)
                assert list(untangle_general(d).moves) == moves, (profile, n, seed)
                wins[winner] += 1
    assert min(wins.values()) >= 1, wins
