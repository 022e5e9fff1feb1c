"""Acceptance suite: one test per criterion, exact tolerances, one summary
line printed per criterion.

Shared corpora are built once per session: the exhaustive family of
almost-planar drawings of connected outerplanar graphs with n <= 7 (the
`exhaustive_corpus` fixture of conftest.py), plus 500 seeded random
almost-planar instances with n in {8, 9}.
"""

import math
import random
from itertools import permutations

import pytest

import untangling as ut
from untangling import almost_planar as ap
from untangling.seqs import lics

RANDOM_COUNT = 500


def _report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


@pytest.fixture(scope="session")
def random_corpus():
    out = []
    for i in range(RANDOM_COUNT):
        n = 8 + (i % 2)
        out.append(ut.gen_random(n, seed=i, profile="almost-planar"))
    return out


@pytest.fixture(scope="session")
def oracle_cache():
    return {}


def _exact(d, cache):
    key = (d.graph, d.canonical_order())
    if key not in cache:
        cache[key] = ut.exact_min_untangle(d)
    return cache[key]


def test_criterion_1_minimum_untangling_optimality(exhaustive_corpus, random_corpus, oracle_cache):
    checked = 0
    for d in exhaustive_corpus + random_corpus:
        exact = _exact(d, oracle_cache)
        rep = ut.verify_untangling(d, ut.min_untangle(d))
        assert rep.planar_ok and rep.fixed_set_ok
        assert rep.moved_count == exact.moved_count, (d.graph.edges, d.order)
        checked += 1
    _report(
        "criterion 1 (minimum untangling optimality)",
        f"{len(exhaustive_corpus)} exhaustive n<=7 + {len(random_corpus)} random n in 8..9, "
        f"{checked} instances exactly optimal",
    )


def test_criterion_2_tight_family_values():
    for n in range(4, 21, 2):
        d = ut.gen_fig5(n)
        rep = ut.verify_untangling(d, ut.min_untangle(d))
        assert rep.planar_ok and rep.moved_count == n // 2 - 1, n
        if n <= 8:
            assert ut.exact_min_untangle(d).moved_count == n // 2 - 1
    _report("criterion 2 (tight family n/2-1)", "n in 4..20 even, oracle-checked through n=8")


def test_criterion_3_one_side_untangling():
    rng = random.Random("one-side-sizes")
    sizes = [round(math.exp(rng.uniform(math.log(6), math.log(200)))) for _ in range(990)]
    sizes += [200] * 10
    hi = 0
    for i, n in enumerate(sizes):
        d = ut.gen_random(n, seed=i, profile="almost-planar")
        u = ut.one_side_untangle(d)
        rep = ut.verify_untangling(d, u)
        cands = ut.classify(d).candidates
        expected = min(min(len(c.left), len(c.right)) for c in cands)
        assert rep.planar_ok
        assert rep.moved_count == expected <= len(d.order) // 2 - 1, (n, i)
        hi = max(hi, len(d.order))
    _report("criterion 3 (one-side untangling)", f"{len(sizes)} instances, n up to {hi}")


def test_criterion_4_edge_fixed_optimality(exhaustive_corpus, random_corpus):
    pairs = 0
    for d in exhaustive_corpus + random_corpus:
        for cand in ut.classify(d).candidates:
            u = ut.edge_fixed_untangle(d, cand.edge)
            rep = ut.verify_untangling(d, u)
            want = ut.exact_min_untangle_edge_fixed(d, cand.edge)
            assert rep.planar_ok
            assert not set(cand.edge) & u.moved_set()
            assert rep.moved_count == want, (d.graph.edges, d.order, cand.edge)
            pairs += 1
    _report("criterion 4 (edge-fixed optimality)", f"{pairs} (instance, candidate-edge) pairs")


def test_criterion_5_general_bound():
    rng = random.Random("general-sizes")
    sizes = [round(math.exp(rng.uniform(math.log(5), math.log(200)))) for _ in range(990)]
    sizes += [200] * 10
    for i, n in enumerate(sizes):
        d = ut.gen_random(n, seed=i, profile="outerplanar-order-perturbed")
        u = ut.untangle_general(d)
        rep = ut.verify_untangling(d, u)
        assert rep.planar_ok and rep.fixed_set_ok
        assert rep.moved_count <= ut.general_bound(len(d.order)), (n, i)
    for n in (4, 6, 11):
        d = ut.gen_tight_general(n)
        bound = ut.general_bound(n)
        base = tuple(d.graph.vertices)
        rev = (base[0],) + tuple(reversed(base[1:]))
        exact = len(d.order) - max(len(ut.lccs(d.order, base)), len(ut.lccs(d.order, rev)))
        assert exact == bound, (n, exact, bound)
        rep = ut.verify_untangling(d, ut.untangle_general(d))
        assert rep.planar_ok and rep.moved_count == bound
    _report(
        "criterion 5 (general bound)",
        f"{len(sizes)} random drawings within n-floor(sqrt(n-2))-2; tight at n in (4, 6, 11)",
    )


def test_criterion_6_erdos_szekeres_cyclic():
    cases = 0
    for s, r in ((1, 1), (1, 2), (2, 1), (2, 2)):
        n = s * r + 2
        for tail in permutations(range(1, n)):
            seq = (0,) + tail
            inc = len(lics(seq))
            dec = len(lics(seq[::-1]))  # a decreasing one, reversed
            assert inc >= s + 2 or dec >= r + 2, (s, r, seq)
            cases += 1
        tight = ut.es_tight_cyclic(s, r)
        assert len(tight) == s * r + 1
        assert len(lics(tight)) < s + 2
        assert len(lics(tight[::-1])) < r + 2
    _report("criterion 6 (cyclic monotone-subsequence bound)", f"{cases} cyclic permutations + 4 tight witnesses")


def test_criterion_7_chunk_ordering_reduction():
    instances = [((2, 5), (1, 8, 4), (6, 7, 9, 3))]
    rng = random.Random("icor-instances")
    while len(instances) < 51:
        total = rng.randint(4, 9)
        vals = list(range(1, total + 1))
        rng.shuffle(vals)
        chunks, i = [], 0
        while i < total:
            take = min(rng.randint(1, 4), total - i)
            chunks.append(tuple(vals[i : i + take]))
            i += take
        instances.append(tuple(chunks))
    for chunks in instances:
        total = sum(len(c) for c in chunks)
        inst = ut.DistIcorInstance(chunks, 1)
        d, _ = ut.reduce_disticor_to_cu(inst)
        exact = ut.exact_min_untangle(d).moved_count
        for m_target in range(1, total + 1):
            ans = ut.exact_disticor(chunks, m_target)
            assert ans.solvable == (exact <= total - m_target), (chunks, m_target)
    _report("criterion 7 (chunk ordering <-> untangling)", f"{len(instances)} instances, every 1<=M<=L")


def _random_yes_instance(rng: random.Random, m: int) -> tuple[ut.ThreePartitionInstance, list]:
    step = 3 * m
    while True:
        k = step * rng.randint(6, 12)
        lo, hi = k // 4 + 1, (k - 1) // 2
        picks = [x for x in range(lo, hi + 1) if x % step == 0]
        triplets = []
        values = []
        ok = True
        for _ in range(m):
            found = None
            for _ in range(40):
                a, b = rng.choice(picks), rng.choice(picks)
                c = k - a - b
                if lo <= c <= hi and c % step == 0:
                    found = (a, b, c)
                    break
            if not found:
                ok = False
                break
            triplets.append(found)
            values.extend(found)
        if not ok:
            continue
        inst = ut.ThreePartitionInstance(tuple(values), k)
        partition = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(m)]
        return inst, partition


def test_criterion_8_partition_reduction_forward():
    rng = random.Random("3p-instances")
    count = 0
    for t in range(20):
        m = 1 if t % 2 == 0 else 2
        inst, partition = _random_yes_instance(rng, m)
        red = ut.reduce_3p_to_disticor(inst)
        w = ut.witness_3p_to_disticor(red, partition)
        assert len(w.ranks) == red.instance.m_target == inst.m * red.block
        assert all(a < b for a, b in zip(w.ranks, w.ranks[1:]))
        assert ut.chunk_property_check(red) is None
        count += 1
    _report("criterion 8 (partition-to-chunks, forward witness + properties)", f"{count} yes-instances, m in 1..2")


def test_criterion_9_oracle_soundness():
    graphs = []
    for n in (4, 5, 6, 7):
        for seed in range(6):
            graphs.append(ut.gen_random(n, seed, "outerplanar-order-perturbed").graph)
    graphs.append(ut.cycle_graph(7))
    checked = 0
    for g in graphs:
        assert set(ut.enumerate_planar_orders(g)) == set(ut.naive_planar_orders(g))
        checked += 1
    _report("criterion 9 (oracle cross-validation)", f"{checked} graphs, set equality up to n=7")


def test_criterion_10_no_structural_assertions_fired():
    assert ap.assertion_failures == 0
    _report("criterion 10 (structural assertions)", "no structural assertion fired across criteria 1-5")
