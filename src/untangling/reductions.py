"""Instance constructions linking 3-partition, chunk ordering, and untangling.

The chunk construction turns each 3-partition element a_i into a long chunk
whose strictly increasing subsequences are capped at a_i + X forwards and X
backwards; a valid triplet partition lines up per-chunk runs into one
increasing subsequence of length exactly m * (K + 3X).  Each chunk word is
ranked by (value, later position first) over all chunks, and the ranks
follow by counting, with no sort: a prefix sum over the count of each value
gives its first rank, and a backward pass hands each run of consecutive
values its ranks as one slice.  `chunk_property_check` verifies the five
chunk properties; once the runs tile each chunk and (i) and (iii) hold, the
runs decide (iv) and (v), so a patience pass runs only to report the length
where (iv) fails, and to measure (v) where a chunk has more than X runs.

The second construction turns a distinct-chunk instance into a flower of
cycles sharing one hub vertex, drawn with ranks in clockwise order, with
the move budget K = L - M.  The entries of the first construction's output
are the ranks 1..L already, so there each entry names its vertex directly;
other entries are renumbered by a sort.  The edges are fed to `Graph` one
at a time, so no list of them is held beside the graph.  An increasing
subsequence of length M gives an untangling within K moves.  The converse
needs the hub held fixed: the no-instance of chunks (4, 3, 7, 2, 8, 6, 5)
and (1,) with M = 5 has K = 3, and its drawing untangles in 3 moves when
the hub moves but needs 4 with the hub fixed (ROADMAP item 6).

One knob deviates from the narrowest reading of the source casework: the run
starting offsets go up to K - a_i + 1 (not K - a_i).  With the shorter range
the top value m*(K+3X) never occurs in any chunk, so no witness of the stated
length exists; the extended range keeps all five chunk properties intact.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, repeat, zip_longest
from operator import eq, lt, mul, sub
from typing import Iterator, Sequence

from .errors import ConstructionFailed, InvalidInstance, NotAWitness, NotDistinct, PropertyViolation, TooLarge
from .model import CircularDrawing, Graph, _Record, _set
from .seqs import lis_length


# The most chunk words `reduce_3p_to_disticor` builds.  Each word holds its
# own rank and a shared projection value, so this bounds the chunk words to
# about 200 MB, 400 MB while they are built.  It admits m = 3 instances
# such as (18, 18, 27) x 3 with K = 63 (2,046,546 words: 94 MB kept, 194 MB
# while built), whose whole pipeline, chunks to drawing, peaks at about
# 645 MB RSS.
MAX_CHUNK_WORDS = 4_000_000


class ThreePartitionInstance(_Record):
    """Multiset `a` of 3m positive integers, each strictly between K/4 and K/2 for K = `k`."""

    __slots__ = _fields = ("a", "k")

    def __init__(self, a: tuple[int, ...], k: int):
        a = tuple(a)  # what is checked is what is kept; a tuple is not copied
        if len(a) == 0 or len(a) % 3 != 0:
            raise InvalidInstance("need 3m elements")
        if not all(isinstance(x, int) and x > 0 for x in a) or not isinstance(k, int) or k <= 0:
            raise InvalidInstance("elements and target must be positive")
        if any(not (k < 4 * x and 2 * x < k) for x in a):
            raise InvalidInstance("every element must satisfy K/4 < a < K/2")
        _set(self, "a", a)
        _set(self, "k", k)

    @property
    def m(self) -> int:
        return len(self.a) // 3


class DistIcorInstance(_Record):
    """Chunks plus the target increasing-subsequence length M (`m_target`)."""

    __slots__ = _fields = ("chunks", "m_target")

    def __init__(self, chunks: tuple[tuple[int, ...], ...], m_target: int):
        chunks = tuple(map(tuple, chunks))  # as for `a`: no chunk tuple is copied
        if not isinstance(m_target, int) or m_target <= 0:
            raise InvalidInstance("M must be positive")
        if any(len(c) == 0 for c in chunks):
            raise InvalidInstance("chunks must be nonempty")
        # one set of types, not a call per entry: this runs on every chunk word
        types = set(map(type, chain.from_iterable(chunks)))
        if not all(issubclass(t, int) for t in types) or min(map(min, chunks), default=1) <= 0:
            raise InvalidInstance("chunk entries must be positive integers")
        entries = sorted(chain.from_iterable(chunks))  # equal entries end up side by side
        if any(map(eq, entries, islice(entries, 1, None))):
            raise NotDistinct("chunk entries repeat")
        _set(self, "chunks", chunks)
        _set(self, "m_target", m_target)

    @property
    def total(self) -> int:
        return sum(len(c) for c in self.chunks)


class ReducedChunk(_Record):
    """The chunk of a_i = `source_element`: a run of `run_length` = a_i + X
    values from each of the decreasing `start_numbers`, concatenated in
    `projection` (values may repeat across chunks), and its word `ranks`,
    distinct over all chunks."""

    __slots__ = _fields = ("source_element", "run_length", "start_numbers", "projection", "ranks")


class ReducedDistIcor(_Record):
    """The chunk instance of `source`, the 3-partition instance after
    normalization; `scale` is 1, or 3m when normalization multiplied
    through.  `x` is X = 3mK and `block` is K + 3X."""

    __slots__ = _fields = ("source", "scale", "x", "block", "chunks", "instance")


def reduce_3p_to_disticor(inst: ThreePartitionInstance) -> ReducedDistIcor:
    """Build the chunk instance; M = m * (K + 3X) with X = 3mK.  Above
    MAX_CHUNK_WORDS chunk words in all, TooLarge is raised before any is
    built."""
    m = inst.m
    scale = 1
    if any(x % (3 * m) != 0 for x in inst.a):
        scale = 3 * m
        inst = ThreePartitionInstance(tuple(x * scale for x in inst.a), inst.k * scale)
    k = inst.k
    x = 3 * m * k
    block = k + 3 * x
    words = sum(_chunk_length(ai, m, k, x) for ai in inst.a)
    if words > MAX_CHUNK_WORDS:
        raise TooLarge(f"the reduction builds up to {MAX_CHUNK_WORDS:,} chunk words, this instance {words:,}")

    # run starts alpha * block + beta * x + gamma, generated in decreasing order
    runs_per_chunk: list[tuple[int, list[int]]] = []
    for ai in inst.a:
        starts = [
            alpha * block + beta * x + gamma
            for alpha in reversed(range(m))
            for beta in (2, 1, 0)
            for gamma in reversed(range(1, k - ai + 2))
        ]
        runs_per_chunk.append((ai + x, starts))

    # Words (value, later position first) in lexicographic order become the
    # ranks 1..L.  They follow by counting: the words of value v take the
    # ranks after every word of a smaller value, the last of them first.  A
    # run's values are distinct, so a backward pass over the runs gives each
    # run its ranks as one slice of the next free rank per value.
    m_target = m * block  # also the top value
    count = [0] * (m_target + 2)
    for run_len, starts in runs_per_chunk:
        for st in starts:
            count[st] += 1
            count[st + run_len] -= 1
    next_rank = list(accumulate(accumulate(count), initial=1))  # 1 + #words below v
    chunk_ranks: list[tuple[int, ...]] = []
    for run_len, starts in reversed(runs_per_chunk):
        run_ranks = []
        for st in reversed(starts):
            seg = next_rank[st : st + run_len]
            run_ranks.append(seg)
            next_rank[st : st + run_len] = map((1).__add__, seg)
        chunk_ranks.append(tuple(chain.from_iterable(reversed(run_ranks))))
    chunk_ranks.reverse()

    # every projection slices one list of the values, so words of one value
    # share its int
    values = list(range(m_target + 2))
    chunks: list[ReducedChunk] = []
    for (run_len, starts), ranks in zip(runs_per_chunk, chunk_ranks):
        proj: list[int] = []
        for st in starts:
            proj.extend(values[st : st + run_len])
        chunks.append(
            ReducedChunk(
                source_element=run_len - x,
                run_length=run_len,
                start_numbers=tuple(starts),
                projection=tuple(proj),
                ranks=ranks,
            )
        )

    di = DistIcorInstance(tuple(c.ranks for c in chunks), m_target)
    return ReducedDistIcor(inst, scale, x, block, tuple(chunks), di)


def expected_chunk_length(reduced: ReducedDistIcor, i: int) -> int:
    """Closed form: (a_i + X) runs times 3m(K - a_i + 1) starting offsets."""
    return _chunk_length(reduced.source.a[i], reduced.source.m, reduced.source.k, reduced.x)


def _chunk_length(ai: int, m: int, k: int, x: int) -> int:
    return (ai + x) * 3 * m * (k - ai + 1)


class PartitionWitness(_Record):
    __slots__ = _fields = ("chunk_order", "ranks", "projection")


def _run_slice(chunk: ReducedChunk, start: int) -> tuple[int, int]:
    try:
        idx = chunk.start_numbers.index(start)
    except ValueError:
        raise NotAWitness(f"no run starting at {start} in chunk of element {chunk.source_element}") from None
    lo = idx * chunk.run_length
    return lo, lo + chunk.run_length


def witness_3p_to_disticor(
    reduced: ReducedDistIcor, partition: Sequence[Sequence[int]]
) -> PartitionWitness:
    """Turn a valid triplet partition (index triplets) into an increasing
    subsequence of length exactly m * (K + 3X) across the ordered chunks."""
    inst = reduced.source
    m, k, x, block = inst.m, inst.k, reduced.x, reduced.block
    flat = [i for t in partition for i in t]
    if sorted(flat) != list(range(3 * m)):
        raise NotAWitness("partition is not a disjoint cover of the element indices")
    for t in partition:
        if len(t) != 3 or sum(inst.a[i] for i in t) != k:
            raise NotAWitness(f"triplet {tuple(t)} does not sum to K")

    chunk_order: list[int] = []
    ranks: list[int] = []
    projection: list[int] = []
    for ti, t in enumerate(partition):
        ix, iy, iz = sorted(t)
        ax, ay = inst.a[ix], inst.a[iy]
        base = ti * block
        picks = (
            (ix, base + 1),
            (iy, base + x + ax + 1),
            (iz, base + 2 * x + ax + ay + 1),
        )
        for ci, start in picks:
            lo, hi = _run_slice(reduced.chunks[ci], start)
            chunk_order.append(ci)
            ranks.extend(reduced.chunks[ci].ranks[lo:hi])
            projection.extend(reduced.chunks[ci].projection[lo:hi])

    if len(ranks) != m * block or any(ranks[i] >= ranks[i + 1] for i in range(len(ranks) - 1)):
        raise ConstructionFailed("assembled witness is not strictly increasing of length M")
    return PartitionWitness(tuple(chunk_order), tuple(ranks), tuple(projection))


def chunk_property_check(reduced: ReducedDistIcor) -> None:
    """Verify the five structural chunk properties on every chunk and run;
    raise PropertyViolation with a witness on the first failure.

    (i)   rank order refines projection order (equal projections rank backwards),
    (ii)  no run crosses a multiple of K + 3X,
    (iii) the advertised incremental runs exist with increasing ranks,
    (iv)  the longest increasing subsequence is exactly a_i + X,
    (v)   reversed, it is at most X.

    First the runs must tile the chunk: its projection and ranks both hold
    `len(start_numbers) * run_length` words.  Once (i) and (iii) hold, the
    runs decide (iv) and (v):

    - (iv) By (i), the ranks of an increasing-rank subsequence rise with
      its projection values, strictly, since equal values rank backwards.
      If the chunk has a run and its start numbers never rise, every value
      of such a subsequence lies in the range of the last run it uses: it
      is at most the value taken from that run, so below the run's top,
      and at least its own run's start, which is no lower than the last
      run's.  So the longest has at most `run_length` words, and one run,
      rising by (iii), has exactly that many.  Otherwise, with
      `run_length` > 0, (iv) fails: a chunk with no run is empty, and if a
      start is below the next one, the earlier run and then the last word
      of the later run, which by (i) outranks the whole earlier run, rise
      over `run_length` + 1 words.  A length-only patience pass
      (`seqs.lis_length`) runs there only to report the length.
    - (v) The runs tile the chunk and each rises, by (iii), so a
      decreasing subsequence takes at most one word of each run: at most
      `len(start_numbers)` words, which is 3m(K - a_i + 1) <= 3mK = X in
      every `reduce_3p_to_disticor` output.  A patience pass measures (v)
      only when the chunk has more than X runs.

    Last, the chunks' ranks must be `reduced.instance.chunks`, which
    `reduce_disticor_to_cu` is given.  Each witness leads with the chunk
    index: (i) gives `(chunk, position, position)` for two words out of
    order, (ii) `(chunk, start)`, (iii) `(chunk, start)` for a bad run and
    `(chunk, len(projection), len(ranks), len(start_numbers) * run_length)`
    when the runs do not tile the chunk, (iv) and (v) `(chunk, length,
    bound)`, and "instance" `(chunk,)` for the first chunk that differs.
    """
    block = reduced.block
    for ci, ch in enumerate(reduced.chunks):
        n = len(ch.ranks)
        runs = len(ch.start_numbers)
        if not len(ch.projection) == n == runs * ch.run_length:
            raise PropertyViolation("iii", (ci, len(ch.projection), n, runs * ch.run_length))

        # (i) holds iff the keys projection * n - position rise in rank order:
        # they order words by projection, then later position first
        by_rank = sorted(range(n), key=ch.ranks.__getitem__)
        keys = list(map(sub, map(mul, ch.projection, repeat(n)), range(n)))
        in_rank_order = list(map(keys.__getitem__, by_rank))
        if not all(map(lt, in_rank_order, islice(in_rank_order, 1, None))):
            t = next(t for t in range(n - 1) if in_rank_order[t] >= in_rank_order[t + 1])
            raise PropertyViolation("i", (ci, by_rank[t], by_rank[t + 1]))

        for st in ch.start_numbers:
            hi = st + ch.run_length - 1
            first_multiple = ((st + block - 1) // block) * block
            if st <= first_multiple <= hi - 1:
                raise PropertyViolation("ii", (ci, st))

        for ri, st in enumerate(ch.start_numbers):
            run = slice(ri * ch.run_length, (ri + 1) * ch.run_length)
            seg_ranks = ch.ranks[run]
            in_order = all(map(lt, seg_ranks, islice(seg_ranks, 1, None)))
            if not in_order or ch.projection[run] != tuple(range(st, st + ch.run_length)):
                raise PropertyViolation("iii", (ci, st))

        starts_never_rise = runs > 0 and not any(map(lt, ch.start_numbers, islice(ch.start_numbers, 1, None)))
        best = ch.run_length if starts_never_rise else lis_length(ch.ranks)
        if best != ch.run_length:
            raise PropertyViolation("iv", (ci, best, ch.run_length))

        if runs > reduced.x:
            best_rev = lis_length(reversed(ch.ranks))
            if best_rev > reduced.x:
                raise PropertyViolation("v", (ci, best_rev, reduced.x))

    checked, given = tuple(ch.ranks for ch in reduced.chunks), reduced.instance.chunks
    if checked != given:  # the same tuples in every reduction: O(#chunks)
        ci = next(ci for ci, (a, b) in enumerate(zip_longest(checked, given)) if a != b)
        raise PropertyViolation("instance", (ci,))


def reduce_disticor_to_cu(inst: DistIcorInstance) -> tuple[CircularDrawing, int]:
    """Distinct chunks to a circular drawing plus a move budget K = L - M.

    Entries are renumbered by rank to 1..L, which leaves entries that are
    already 1..L, such as the ranks of `reduce_3p_to_disticor`, as they are;
    the graph is one cycle per chunk, all sharing the hub v0, drawn in the
    clockwise order v0, v1, ..., vL.
    """
    total = inst.total
    vertices = tuple(f"v{i}" for i in range(total + 1))
    g = Graph(vertices, _flower_edges(inst.chunks, vertices))
    return CircularDrawing(g, vertices), total - inst.m_target


def _flower_edges(chunks: Sequence[Sequence[int]], vertices: tuple[str, ...]) -> Iterator[tuple[str, str]]:
    """Yield each chunk's cycle through the hub vertices[0], every edge
    built once with its lower-ranked end first, so `Graph` keeps it; no
    list of the edges is held.  The entries are distinct positive integers,
    so they are the ranks 1..L exactly when the largest is L, as in every
    `reduce_3p_to_disticor` output: then each entry indexes its vertex.
    Otherwise a sort maps each entry to the vertex of its rank, and the map
    lives while the edges are yielded."""
    if max(map(max, chunks), default=0) == len(vertices) - 1:
        name = vertices
    else:
        name = dict(zip(sorted(chain.from_iterable(chunks)), islice(vertices, 1, None)))
    hub = vertices[0]
    for c in chunks:
        yield hub, name[c[0]]
        for x, y in zip(c, islice(c, 1, None)):
            yield (name[x], name[y]) if x < y else (name[y], name[x])
        yield hub, name[c[-1]]
