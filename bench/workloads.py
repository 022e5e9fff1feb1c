"""The benchmark's three workloads.

Each workload turns a seed into a fixed request list (its set-up), serves one
request at a time the way a caller of the package would, and afterwards
checks every response.  Program functions are always looked up through their
module at call time, so the tracer's wrappers see every call.

Sizes are chosen by n range and request count only; no instance is ever
dropped for being slow.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from untangling import almost_planar, general, generators, io_formats, model, oracle, reductions
from untangling.errors import InvalidInstance

import checks


@dataclass
class Request:
    kind: str
    key: int            # index of the input this request is about
    n: int = 0


@dataclass
class Pool:
    requests: list[Request]
    inputs: list[dict]  # per key: what the workload needs to serve and check, with its "profile"

    def properties(self) -> dict:
        """n histogram, profile mix and request-kind mix of one pass."""
        failures = Counter()
        for inp in self.inputs:
            failures.update(inp.get("generation_failures", {}))
        return {
            "requests_per_pass": len(self.requests),
            "n_histogram": dict(sorted(Counter(r.n for r in self.requests if r.n).items())),
            "profile_mix": dict(sorted(Counter(self.inputs[r.key]["profile"] for r in self.requests).items())),
            "request_mix": dict(sorted(Counter(r.kind for r in self.requests).items())),
            "generation_failures": dict(failures),
        }


def _generate(profile: str, n: int, seed: int):
    """gen_random, or gen_fig5 for the tight family, plus failed attempts.

    `gen_random(profile="disconnected")` builds a self-loop, and raises, when
    it draws a one-vertex component; such attempts are counted (the run's
    `inputs` line reports them) and the next seed is taken.
    """
    if profile == "fig5":
        return generators.gen_fig5(n), 0
    failed = 0
    while True:
        try:
            return generators.gen_random(n, seed + failed, profile), failed
        except InvalidInstance:
            failed += 1


def _drawing_input(profile: str, n: int, seed: int, text: bool) -> dict:
    d, failed = _generate(profile, n, seed)
    inp = {"n": n, "order": d.order, "edges": sorted(d.graph.edges), "profile": profile}
    if failed:
        inp["generation_failures"] = {profile: failed}
    if text:
        inp["text"] = io_formats.format_drawing(d)
    else:
        inp["drawing"] = d
    return inp


def _moves_of(u) -> list[tuple[str, str]]:
    return [(m.vertex, m.anchor) for m in u.moves]


class Workload:
    name = ""
    tail_pct = 90
    pass_s = 20.0   # reference seconds one pass takes (see speed.py); --seconds sets the pass count

    def plan(self, seed: int) -> list[tuple]:
        """One argument tuple per input; the seed decides them all."""
        raise NotImplementedError

    def make_input(self, spec: tuple):
        raise NotImplementedError

    def assemble(self, seed: int, inputs: list) -> Pool:
        """The request list of one pass over the generated inputs."""
        raise NotImplementedError

    def new_pass(self, pool: Pool) -> dict:
        return {}

    def end_pass(self, pool: Pool, ctx: dict) -> list[str]:
        """Problems found once a pass is over (beyond per-request checks)."""
        return []

    def serve(self, pool: Pool, req: Request, ctx: dict):
        raise NotImplementedError

    def check(self, pool: Pool, responses: list) -> list:
        """One entry per request of a pass: None, or why the response is wrong."""
        raise NotImplementedError

    def warmup(self, pool: Pool) -> list[Request]:
        """Requests to serve once before timing: the smallest ones first."""
        return sorted(pool.requests, key=lambda r: r.n)

    def moved(self, req: Request, resp) -> int:
        """Moved vertices reported in one response."""
        raise NotImplementedError

    def cli_inputs(self, pool: Pool) -> list[dict]:
        """Drawings (with `n`, `text`, `order`, `edges`) for the cold CLI runs."""
        raise NotImplementedError


# -- ap-service ------------------------------------------------------------

UNTANGLERS = {"min": "min_untangle", "one-side": "one_side_untangle", "edge-fixed": "edge_fixed_untangle"}


def _serve_untangle(kind: str, text: str):
    """What `untangling untangle FILE --algorithm KIND` does, minus file I/O."""
    d = io_formats.parse_drawing(text)
    u = getattr(almost_planar, UNTANGLERS[kind])(d)
    rep = model.verify_untangling(d, u)
    moved = u.moved_set()
    fixed = [v for v in d.order if v not in moved]
    return (io_formats.format_moves(u, fixed=fixed), rep.moved_count, rep.planar_ok, rep.fixed_set_ok)


def _serve_check(text: str):
    d = io_formats.parse_drawing(text)
    cls = model.classify(d)
    return (len(model.crossings(d)), cls.kind, tuple(c.edge for c in cls.candidates))


def _serve_verify(text: str, moves_text: str):
    d = io_formats.parse_drawing(text)
    u = io_formats.parse_moves(moves_text)
    rep = model.verify_untangling(d, u)
    return (rep.moved_count, rep.planar_ok, rep.fixed_set_ok)


class ApService(Workload):
    """Almost-planar `.cdr` requests handled as the CLI handles them."""

    name = "ap-service"
    tail_pct = 90
    # (profile, n values, drawings per n per pass).  Most of the pass is many
    # small drawings: the cost of `min` is heavy-tailed at every n (one draw
    # in a hundred costs 5-25 times the mean, more as n grows; case-2-2 from
    # n = 16 and almost-planar above n = 20 reach seconds per request), so a
    # run's throughput is only repeatable across seeds when no single draw
    # can dominate a pass.  Larger random drawings appear twice per n, fig5
    # covers n up to 36 deterministically.
    CELLS = (
        ("almost-planar", range(10, 21, 2), 160),
        ("almost-planar", range(22, 37, 2), 2),
        ("case-2-2", (10, 12), 240),
        ("case-2-2", (14,), 120),
        ("fig5", range(10, 37, 2), 1),
    )
    # extra requests by drawing position (mod 5), each after the drawing's `min`
    EXTRAS = (("one-side", "edge-fixed"), ("check",), ("verify",), (), ())

    def plan(self, seed: int) -> list[tuple]:
        rng = random.Random(f"ap-service:{seed}")
        return [
            (profile, n, rng.randrange(2**31))
            for profile, ns, reps in self.CELLS for n in ns for _ in range(reps)
        ]

    def make_input(self, spec: tuple) -> dict:
        return _drawing_input(*spec, text=True)

    def assemble(self, seed: int, inputs: list) -> Pool:
        inputs = list(inputs)
        random.Random(f"ap-service:{seed}:order").shuffle(inputs)
        requests = []
        for key, inp in enumerate(inputs):
            requests.append(Request("min", key, inp["n"]))
            for kind in self.EXTRAS[key % len(self.EXTRAS)]:
                requests.append(Request(kind, key, inp["n"]))
        return Pool(requests, inputs)

    def warmup(self, pool: Pool) -> list[Request]:
        # a `verify` needs the `min` response served before it in the same pass
        return [r for r in super().warmup(pool) if r.kind != "verify"]

    def serve(self, pool: Pool, req: Request, ctx: dict):
        text = pool.inputs[req.key]["text"]
        if req.kind == "check":
            return _serve_check(text)
        if req.kind == "verify":
            return _serve_verify(text, ctx[req.key])
        resp = _serve_untangle(req.kind, text)
        if req.kind == "min":
            ctx[req.key] = resp[0]
        return resp

    def check(self, pool: Pool, responses: list) -> list:
        problems: list = [None] * len(responses)
        min_moved: dict[int, int] = {}
        other_moved: dict[int, list[tuple[int, int]]] = {}
        for i, (req, resp) in enumerate(zip(pool.requests, responses)):
            inp = pool.inputs[req.key]
            order, edges = inp["order"], inp["edges"]
            if req.kind in UNTANGLERS:
                text, moved, planar_ok, fixed_ok = resp
                if not (planar_ok and fixed_ok):
                    problems[i] = f"verify_untangling: planar_ok={planar_ok} fixed_set_ok={fixed_ok}"
                    continue
                count, why = checks.check_move_text(order, edges, text, moved)
                if why is not None:
                    problems[i] = why
                elif req.kind == "min":
                    min_moved[req.key] = count
                    if inp["profile"] == "fig5" and count != inp["n"] // 2 - 1:
                        problems[i] = f"fig5 n={inp['n']} needs {inp['n'] // 2 - 1} moves, got {count}"
                else:
                    other_moved.setdefault(req.key, []).append((i, count))
            elif req.kind == "check":
                ncross, kind, cands = resp
                expect = checks.crossing_count(order, edges)
                if ncross != expect or kind != "almost-planar" or not cands:
                    problems[i] = f"check: crossings={ncross} (expected {expect}) kind={kind} candidates={len(cands)}"
                elif any(not checks.crossing_free(order, [e for e in edges if set(e) != set(c)]) for c in cands):
                    problems[i] = "check: a candidate edge does not carry all crossings"
            else:  # verify
                moved, planar_ok, fixed_ok = resp
                if not (planar_ok and fixed_ok) or moved != min_moved.get(req.key):
                    problems[i] = f"verify: moved={moved} planar_ok={planar_ok} fixed_set_ok={fixed_ok}"
        for key, pairs in other_moved.items():
            for i, count in pairs:
                if key in min_moved and min_moved[key] > count and problems[i] is None:
                    problems[i] = f"min moved {min_moved[key]} > {pool.requests[i].kind} moved {count}"
        return problems

    def moved(self, req: Request, resp) -> int:
        return resp[1] if req.kind in UNTANGLERS else 0

    def cli_inputs(self, pool: Pool) -> list[dict]:
        return pool.inputs


# -- general-large -------------------------------------------------------------


class GeneralLarge(Workload):
    """Arbitrary drawings of large outerplanar graphs through the general untangler."""

    name = "general-large"
    tail_pct = 90
    PROFILES = ("outerplanar-order-perturbed", "disconnected")
    NS = range(100, 301, 25)
    REPS = 10

    def plan(self, seed: int) -> list[tuple]:
        rng = random.Random(f"general-large:{seed}")
        return [
            (profile, n, rng.randrange(2**31))
            for profile in self.PROFILES for n in self.NS for _ in range(self.REPS)
        ]

    def make_input(self, spec: tuple) -> dict:
        return _drawing_input(*spec, text=False)

    def assemble(self, seed: int, inputs: list) -> Pool:
        inputs = list(inputs)
        random.Random(f"general-large:{seed}:order").shuffle(inputs)
        requests = [Request("general", key, inp["n"]) for key, inp in enumerate(inputs)]
        return Pool(requests, inputs)

    def serve(self, pool: Pool, req: Request, ctx: dict):
        d = pool.inputs[req.key]["drawing"]
        u = general.untangle_general(d)
        rep = model.verify_untangling(d, u)
        return (tuple(_moves_of(u)), rep.moved_count, rep.planar_ok, rep.fixed_set_ok)

    def check(self, pool: Pool, responses: list) -> list:
        problems: list = [None] * len(responses)
        for i, (req, resp) in enumerate(zip(pool.requests, responses)):
            inp = pool.inputs[req.key]
            moves, moved, planar_ok, fixed_ok = resp
            count = len({v for v, _ in moves})
            bound = checks.general_bound(inp["n"])
            if not (planar_ok and fixed_ok) or moved != count:
                problems[i] = f"verify_untangling: moved={moved}/{count} planar_ok={planar_ok} fixed_set_ok={fixed_ok}"
            elif count > bound:
                problems[i] = f"moved {count} > general bound {bound} at n={inp['n']}"
            else:
                problems[i] = checks.untangling_problem(inp["order"], inp["edges"], moves)
        return problems

    def moved(self, req: Request, resp) -> int:
        return resp[1]

    def cli_inputs(self, pool: Pool) -> list[dict]:
        return [dict(inp, text=io_formats.format_drawing(inp["drawing"])) for inp in pool.inputs]


# -- research-batch --------------------------------------------------------------

CORPUS_N = 6
CORPUS_SIZE = 894   # almost-planar drawings of connected outerplanar graphs on 6 vertices

# 3-partition instances (elements, K) with m <= 2 whose elements are already
# divisible by 3m, so the reduction needs no rescaling.  Larger K or m = 3
# builds drawings with millions of vertices.
THREE_P_M1 = (((6, 6, 6), 18), ((6, 6, 9), 21), ((9, 9, 9), 27), ((9, 9, 12), 30), ((9, 12, 12), 33), ((9, 9, 15), 33))
THREE_P_M2 = ((12, 12, 18, 12, 12, 18), 42)


def _cross_check(d):
    """Algorithm against oracle on one drawing, as the acceptance suite does."""
    u = almost_planar.min_untangle(d)
    rep = model.verify_untangling(d, u)
    exact = oracle.exact_min_untangle(d)
    per_edge = []
    for cand in model.classify(d).candidates:
        ef = almost_planar.edge_fixed_untangle(d, cand.edge)
        ef_rep = model.verify_untangling(d, ef)
        ef_exact = oracle.exact_min_untangle_edge_fixed(d, cand.edge)
        per_edge.append((cand.edge, tuple(_moves_of(ef)), ef_rep.moved_count, ef_rep.planar_ok, ef_rep.fixed_set_ok, ef_exact))
    return (
        "drawing", d.order, tuple(sorted(d.graph.edges)),
        tuple(_moves_of(u)), rep.moved_count, rep.planar_ok, rep.fixed_set_ok,
        exact.moved_count, exact.target_order, len(exact.fixed), tuple(per_edge),
    )


def _hardness(a: tuple[int, ...], k: int):
    """3-partition -> chunk ordering -> drawing, with the yes-witness."""
    inst = reductions.ThreePartitionInstance(a, k)
    red = reductions.reduce_3p_to_disticor(inst)
    reductions.chunk_property_check(red)
    solvable, partition = oracle.exact_3partition(red.source.a, red.source.k)
    ranks = reductions.witness_3p_to_disticor(red, partition).ranks if solvable else ()
    d, budget = reductions.reduce_disticor_to_cu(red.instance)
    return ("3p", solvable, ranks, red.instance.m_target, len(d.order) - 1, budget)


class ResearchBatch(Workload):
    """Optimality cross-check: exhaustive corpus, random drawings, hardness pipeline."""

    name = "research-batch"
    tail_pct = 95
    pass_s = 10.0
    RANDOM_NS = (8, 9)
    RANDOM_PER_N = 12
    THREE_P_M1_PER_PASS = 4

    def plan(self, seed: int) -> list[tuple]:
        rng = random.Random(f"research-batch:{seed}")
        specs: list[tuple] = [
            ("random", n, rng.randrange(2**31)) for n in self.RANDOM_NS for _ in range(self.RANDOM_PER_N)
        ]
        picks = [rng.choice(THREE_P_M1) for _ in range(self.THREE_P_M1_PER_PASS)] + [THREE_P_M2]
        specs += [("3p", tuple(rng.sample(a, len(a))), k) for a, k in picks]
        return specs

    def make_input(self, spec: tuple) -> dict:
        if spec[0] == "3p":
            _, a, k = spec
            return {"profile": f"3p-m{len(a) // 3}", "a": a, "k": k}
        inp = _drawing_input("almost-planar", spec[1], spec[2], text=False)
        inp["profile"] = "random"
        return inp

    def assemble(self, seed: int, inputs: list) -> Pool:
        inputs = list(inputs)
        extra = [Request("3p" if "a" in inp else "random", key, inp.get("n", 0)) for key, inp in enumerate(inputs)]
        random.Random(f"research-batch:{seed}:order").shuffle(extra)
        # spread the extra items evenly through the corpus enumeration
        corpus_key = len(inputs)
        inputs.append({"n": CORPUS_N, "profile": "corpus"})
        requests: list[Request] = []
        step = CORPUS_SIZE / (len(extra) + 1)
        nxt = 0
        for c in range(CORPUS_SIZE):
            while nxt < len(extra) and c >= (nxt + 1) * step:
                requests.append(extra[nxt])
                nxt += 1
            requests.append(Request("corpus", corpus_key, CORPUS_N))
        requests.extend(extra[nxt:])
        return Pool(requests, inputs)

    def new_pass(self, pool: Pool) -> dict:
        return {"corpus": None}

    def serve(self, pool: Pool, req: Request, ctx: dict):
        if req.kind == "corpus":
            if ctx["corpus"] is None:
                ctx["corpus"] = generators.enumerate_almost_planar_instances(CORPUS_N)
            return _cross_check(next(ctx["corpus"]))
        inp = pool.inputs[req.key]
        if req.kind == "random":
            return _cross_check(inp["drawing"])
        return _hardness(inp["a"], inp["k"])

    def warmup(self, pool: Pool) -> list[Request]:
        return [r for r in pool.requests if r.kind == "corpus"]

    def end_pass(self, pool: Pool, ctx: dict) -> list[str]:
        if ctx["corpus"] is not None and next(ctx["corpus"], None) is not None:
            return [f"n={CORPUS_N} enumeration yields more than {CORPUS_SIZE} drawings"]
        return []

    def check(self, pool: Pool, responses: list) -> list:
        problems: list = [None] * len(responses)
        for i, (req, resp) in enumerate(zip(pool.requests, responses)):
            if resp[0] == "3p":
                problems[i] = self._check_3p(pool.inputs[req.key], resp)
            else:
                problems[i] = self._check_drawing(resp)
        return problems

    @staticmethod
    def _check_drawing(resp) -> str | None:
        (_, order, edges, moves, moved, planar_ok, fixed_ok, exact_moved, target, exact_fixed, per_edge) = resp
        if not (planar_ok and fixed_ok):
            return f"min: planar_ok={planar_ok} fixed_set_ok={fixed_ok}"
        if moved != exact_moved:
            return f"min moved {moved} != oracle {exact_moved}"
        if not checks.crossing_free(target, edges) or exact_fixed != len(order) - exact_moved:
            return "oracle target is not a planar order with the stated fixed set"
        why = checks.untangling_problem(order, edges, moves)
        if why is not None:
            return f"min: {why}"
        if not per_edge:
            return "classify found no candidate edge"
        for edge, ef_moves, ef_moved, ef_planar, ef_fixed, ef_exact in per_edge:
            if not (ef_planar and ef_fixed) or ef_moved != ef_exact:
                return f"edge-fixed on {edge}: moved {ef_moved} vs oracle {ef_exact}, planar_ok={ef_planar}"
            if set(edge) & {v for v, _ in ef_moves}:
                return f"edge-fixed on {edge} moved an endpoint"
            why = checks.untangling_problem(order, edges, ef_moves)
            if why is not None:
                return f"edge-fixed on {edge}: {why}"
        return None

    @staticmethod
    def _check_3p(inp: dict, resp) -> str | None:
        _, solvable, ranks, m_target, total, budget = resp
        m, k = len(inp["a"]) // 3, inp["k"]
        x = 3 * m * k
        if m_target != m * (k + 3 * x):
            return f"M = {m_target}, expected m(K + 3X) = {m * (k + 3 * x)}"
        if not solvable:
            return "exact_3partition found no partition of a yes-instance"
        if len(ranks) != m_target or not checks.strictly_increasing(ranks):
            return f"witness of length {len(ranks)} is not strictly increasing of length M = {m_target}"
        if budget != total - m_target:
            return f"budget {budget} != L - M = {total - m_target}"
        return None

    def moved(self, req: Request, resp) -> int:
        if resp[0] == "3p":
            return 0
        return resp[4] + sum(e[2] for e in resp[10])

    def cli_inputs(self, pool: Pool) -> list[dict]:
        return [dict(inp, text=io_formats.format_drawing(inp["drawing"])) for inp in pool.inputs if "drawing" in inp]


WORKLOADS = {w.name: w for w in (ApService(), GeneralLarge(), ResearchBatch())}
