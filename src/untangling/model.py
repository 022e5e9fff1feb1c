"""Core combinatorial model: graphs, circular drawings, crossings, moves.

A circular drawing is a graph plus a clockwise cyclic order of its vertices;
an edge is the chord between its endpoints, and two chords cross exactly when
their endpoints alternate around the circle.  Everything here is immutable
and pure.
"""

from __future__ import annotations

from itertools import chain
from operator import lt
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInstance, UnknownEdge, UnknownVertex

Vertex = str
Edge = tuple[Vertex, Vertex]

PLANAR = "planar"
ALMOST_PLANAR = "almost-planar"
NOT_ALMOST_PLANAR = "not-almost-planar"

# the drawing families `generators.gen_random` draws; held here so that the
# CLI can offer them without importing the generators
PROFILES = ("outerplanar-order-perturbed", "almost-planar", "case-2-2", "disconnected")

_set = object.__setattr__  # how a record's own __init__ writes its slots


class _Record:
    """An immutable value over `__slots__`, built without `dataclasses`: the
    base of every record in the package.

    `_fields` lists the fields in constructor order: the __init__ here takes
    them by position or keyword, and a subclass's own writes them with `_set`.
    Records compare and hash by class and fields, `repr` shows the fields
    not `_unshown`, and pickle and copy pass the fields back to the
    constructor.  Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _unshown: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args) :] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = [f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._unshown]
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Record):
    """Undirected simple graph over string-labeled vertices.

    `vertices` is an ordered set; its order defines the tie-breaking rank
    used by all deterministic choices downstream.  An edge is any pair of
    declared vertices but a string, kept with its lower-ranked end first.
    """

    _fields = ("vertices", "edges")
    __slots__ = _fields + ("_index",)

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Sequence[Vertex]] = ()):
        vs = tuple(vertices)
        index = _index_of(vs)

        def normal(edge: Sequence[Vertex]) -> Edge:
            try:
                a, b = () if isinstance(edge, str) else edge  # a string's characters are not its ends
            except (TypeError, ValueError):
                raise InvalidInstance(f"edge {edge!r} does not have two ends") from None
            if a == b:
                raise InvalidInstance(f"self-loop at {a!r}")
            try:
                ia, ib = index[a], index[b]
            except (KeyError, TypeError):  # an unhashable end is no declared vertex
                raise UnknownVertex(f"edge ({a!r}, {b!r}) references undeclared vertex") from None
            return (edge if type(edge) is tuple else (a, b)) if ia < ib else (b, a)  # keep a tuple in rank order

        _set(self, "vertices", vs)
        _set(self, "edges", frozenset(map(normal, edges)))  # the first bad edge raises
        _set(self, "_index", index)

    @classmethod
    def _from_rank_runs(
        cls, vertices: Iterable[Vertex], runs: Iterable[tuple[Sequence[int], Sequence[int]]]
    ) -> "Graph":
        """The graph whose edges join `vertices[lo[k]]` and `vertices[hi[k]]`
        for each run `(lo, hi)` of equal-length int sequences: `Graph` with
        no Python call and no name lookup per edge, as each edge is built
        lower-ranked end first.

        Each run is checked whole by C-level passes, which hold exactly when
        every rank is an `int` and lo[k] < hi[k] <= n - 1 and 0 <= lo[k].
        A run that fails is walked to its first bad edge, which raises the
        error `Graph` names: a rank that is not an `int` (a `bool` neither)
        InvalidInstance, equal ends a self-loop, a rank outside 0..n-1
        UnknownVertex (a negative one is no index from the end), and a
        higher end first InvalidInstance.  The name index is built after the
        edge set, so it does not sit beside the set's last resize.
        """
        vs = tuple(vertices)
        try:
            hash(vs)  # an unhashable vertex raises here, not in the edge set
        except TypeError:
            raise InvalidInstance("vertices must be hashable") from None
        n = len(vs)
        name = vs.__getitem__

        def edges(run: tuple[Sequence[int], Sequence[int]]) -> Iterator[Edge]:
            lo, hi = run
            if len(lo) != len(hi):
                raise InvalidInstance(f"rank run of {len(lo)} low ends and {len(hi)} high ends")
            if lo and not (
                {*map(type, lo), *map(type, hi)} == {int} and all(map(lt, lo, hi)) and min(lo) >= 0 and max(hi) < n
            ):
                _refuse_rank_edge(lo, hi, n)
            return zip(map(name, lo), map(name, hi))

        g = cls.__new__(cls)
        _set(g, "vertices", vs)
        _set(g, "edges", frozenset(chain.from_iterable(map(edges, runs))))  # the first bad run raises
        _set(g, "_index", _index_of(vs))
        return g

    def index(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(repr(v)) from None

    def edge(self, a: Vertex, b: Vertex) -> Edge:
        """Normalized endpoint pair; raises if the edge is absent."""
        e = (a, b) if self.index(a) < self.index(b) else (b, a)
        if e not in self.edges:
            raise UnknownEdge(f"({a!r}, {b!r})")
        return e

    def sorted_edges(self) -> list[Edge]:
        index, n = self._index, len(self.vertices)
        return sorted(self.edges, key=lambda e: index[e[0]] * n + index[e[1]])

    def without_edge(self, e: Edge) -> "Graph":
        e = self.edge(*e)
        return Graph(self.vertices, self.edges - {e})

    def __repr__(self) -> str:
        # the edges in rank order, not the frozenset's, so that equal graphs
        # print alike in every process
        edges = f"frozenset({{{', '.join(map(repr, self.sorted_edges()))}}})" if self.edges else "frozenset()"
        return f"Graph(vertices={self.vertices!r}, edges={edges})"


def _index_of(vs: tuple[Vertex, ...]) -> dict[Vertex, int]:
    """Each vertex's rank; a repeated or unhashable vertex raises InvalidInstance."""
    try:
        index = dict(zip(vs, range(len(vs))))
    except TypeError:
        raise InvalidInstance("vertices must be hashable") from None
    if len(index) != len(vs):
        raise InvalidInstance("duplicate vertices")
    return index


def _refuse_rank_edge(lo: Sequence[int], hi: Sequence[int], n: int) -> None:
    """Raise the error of the first bad edge of a rank run over n vertices."""
    for i, j in zip(lo, hi):
        if type(i) is not int or type(j) is not int:
            raise InvalidInstance(f"rank edge ({i!r}, {j!r}) has an end that is not an int")
        if i == j:
            raise InvalidInstance(f"self-loop at rank {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise UnknownVertex(f"rank edge ({i}, {j}) has an end outside 0..{n - 1}")
        if i > j:
            raise InvalidInstance(f"rank edge ({i}, {j}) has its higher end first")


class CircularDrawing(_Record):
    """A graph with a clockwise cyclic order of all its vertices.

    Two drawings are equal iff their cyclic orders agree up to rotation;
    reflection is a different drawing (clockwise orientation is significant).
    """

    _fields = ("graph", "order")
    __slots__ = _fields + ("_pos",)

    def __init__(self, graph: Graph, order: Iterable[Vertex]):
        ot = tuple(order)
        if ot == graph.vertices:
            pos = graph._index  # neither object ever writes to it
        else:
            try:
                pos = dict(zip(ot, range(len(ot))))
            except TypeError:  # an unhashable vertex is none of the graph's
                raise InvalidInstance("order must be a permutation of the graph vertices") from None
            # no repeats, and the same vertex set: compared as dict views, in C
            if len(pos) != len(ot) or pos.keys() != graph._index.keys():
                raise InvalidInstance("order must be a permutation of the graph vertices")
        _set(self, "graph", graph)
        _set(self, "order", ot)
        _set(self, "_pos", pos)

    def position(self, v: Vertex) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise UnknownVertex(repr(v)) from None

    def canonical_order(self) -> tuple[Vertex, ...]:
        return rotate_to(self.order, min(self.order, key=self.graph.index)) if self.order else ()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircularDrawing):
            return NotImplemented
        return self.graph == other.graph and self.canonical_order() == other.canonical_order()

    def __hash__(self) -> int:
        return hash((self.graph, self.canonical_order()))


class VertexMove(_Record):
    """Remove `vertex` and reinsert it immediately clockwise of `anchor`."""

    __slots__ = _fields = ("vertex", "anchor")

    def __init__(self, vertex: Vertex, anchor: Vertex):
        if vertex == anchor:
            raise InvalidInstance("a vertex cannot anchor its own move")
        _set(self, "vertex", vertex)
        _set(self, "anchor", anchor)


class Untangling(_Record):
    """An ordered list of vertex moves; cost is the number of distinct moved vertices."""

    __slots__ = _fields = ("moves",)

    def __init__(self, moves: Iterable[VertexMove]):
        _set(self, "moves", tuple(moves))

    def moved_set(self) -> set[Vertex]:
        return {m.vertex for m in self.moves}

    def __len__(self) -> int:
        return len(self.moves)


class EdgeCandidate(_Record):
    """An edge involved in all crossings, with the two vertex sets beside it.

    `left` is the clockwise arc strictly from v to u for the edge (u, v);
    `right` the clockwise arc strictly from u to v.  Both keep arc order.
    """

    __slots__ = _fields = ("edge", "left", "right")


class AlmostPlanarClassification(_Record):
    __slots__ = _fields = ("kind", "candidates")


class VerificationReport(_Record):
    __slots__ = _fields = ("moved_count", "fixed_set_ok", "planar_ok", "result")


def rotate_to(seq: tuple, v) -> tuple:
    k = seq.index(v)
    return seq[k:] + seq[:k]


def cyclic_equal(a: Sequence, b: Sequence) -> bool:
    """True iff two sequences of distinct items are equal up to rotation."""
    ta, tb = tuple(a), tuple(b)
    if len(ta) != len(tb):
        return False
    if not ta:
        return True
    if ta[0] not in tb:
        return False
    return rotate_to(tb, ta[0]) == ta


def restriction(order: Sequence[Vertex], subset: Iterable[Vertex]) -> tuple[Vertex, ...]:
    ss = set(subset)
    return tuple(v for v in order if v in ss)


def crossing_pairs(order: Sequence[Vertex], edges: Iterable[Edge]) -> Iterator[tuple[Edge, Edge]]:
    """Every crossing pair of chords on the circle `order`, each once, as
    (f, g) with f closing first.

    One left-to-right pass keeps the open chords on a stack, pushed at their
    left ends longest first.  When f closes at p, each open chord g above f
    opened after f and before p and closes after p, so f and g cross.  The
    closing chords on top are popped; only when one lies under open chords
    does the pass walk down to the deepest one, and each open chord passed
    crosses it: O(n + m log m + K) for K crossings.  A repeated vertex or a
    self-loop raises InvalidInstance, an edge end outside `order` UnknownVertex.
    """
    n = len(order)
    try:
        pos = dict(zip(order, range(n)))
    except TypeError:
        raise InvalidInstance("order has an unhashable vertex") from None
    if len(pos) != n:
        raise InvalidInstance("order repeats a vertex")
    opens: list[list[tuple[int, Edge]]] = [[] for _ in range(n)]
    ncloses = [0] * n
    for e in edges:
        try:
            i, j = pos[e[0]], pos[e[1]]
        except (KeyError, TypeError):  # an unhashable end is not in the order
            raise UnknownVertex(f"edge {e!r} has an end outside the order") from None
        if i > j:
            i, j = j, i
        elif i == j:
            raise InvalidInstance(f"self-loop at {e[0]!r}")
        opens[i].append((j, e))
        ncloses[j] += 1
    stack: list[tuple[int, Edge]] = []
    for p in range(n):
        k = ncloses[p]
        while k and stack[-1][0] == p:
            stack.pop()
            k -= 1
        if k:
            above = []  # the open chords passed on the way down, top first
            while k:
                j, f = stack.pop()
                if j == p:
                    k -= 1
                    for _, g in above:
                        yield f, g
                else:
                    above.append((j, f))
            stack.extend(reversed(above))
        if opens[p]:
            opens[p].sort(reverse=True)
            stack.extend(opens[p])


def crossings(d: CircularDrawing) -> frozenset[frozenset[Edge]]:
    """All crossing edge pairs of the drawing, each a frozenset of two edges."""
    return frozenset(map(frozenset, crossing_pairs(d.order, d.graph.edges)))


def is_crossing_free(order: Sequence[Vertex], edges: Iterable[Edge]) -> bool:
    """True iff `crossing_pairs` yields nothing; it stops at the first pair."""
    return next(crossing_pairs(order, edges), None) is None


def is_planar_drawing(d: CircularDrawing) -> bool:
    return is_crossing_free(d.order, d.graph.edges)


def sides_of_edge(d: CircularDrawing, e: Edge) -> tuple[tuple[Vertex, ...], tuple[Vertex, ...]]:
    """(left, right) for e=(u, v): left is the clockwise arc strictly from v
    to u, right the clockwise arc strictly from u to v; arc order is kept."""
    u, v = d.graph.edge(*e)
    seq = rotate_to(d.order, u)
    iv = seq.index(v)
    right = seq[1:iv]
    left = seq[iv + 1 :]
    return left, right


def classify(d: CircularDrawing) -> AlmostPlanarClassification:
    """Planar / almost-planar / neither, with every qualifying edge listed
    in order of its endpoints' ranks.

    An edge qualifies when it is involved in all crossings, i.e. the drawing
    minus that edge is crossing-free while the drawing itself is not: it
    lies in every crossing pair.  One `crossing_pairs` pass intersects the
    pairs as they come and stops when the intersection is empty.  After the
    first pair, a pair that keeps an edge is another crossing of it, so at
    most m pairs are read.
    """
    cands = None
    for pair in crossing_pairs(d.order, d.graph.edges):
        cands = set(pair) if cands is None else cands.intersection(pair)
        if not cands:
            return AlmostPlanarClassification(NOT_ALMOST_PLANAR, ())
    if cands is None:
        return AlmostPlanarClassification(PLANAR, ())
    g = d.graph
    cands = sorted(cands, key=lambda e: (g.index(e[0]), g.index(e[1])))
    return AlmostPlanarClassification(ALMOST_PLANAR, tuple(EdgeCandidate(e, *sides_of_edge(d, e)) for e in cands))


def apply_untangling(d: CircularDrawing, u: Untangling) -> CircularDrawing:
    """Apply moves left to right; each deletes the vertex and reinserts it
    immediately clockwise of its anchor's current position.  Successor and
    predecessor links over input positions make each move O(1); the result
    is read from where a list's index 0 would be: the first vertex, handed
    to its successor whenever it moves."""
    order, pos = d.order, d._pos
    n = len(order)
    succ = list(range(1, n)) + [0]
    pred = [n - 1] + list(range(n - 1))
    head = 0
    for mv in u.moves:
        try:
            x, a = pos[mv.vertex], pos[mv.anchor]
        except KeyError:
            raise UnknownVertex(f"move {mv} references unknown vertex") from None
        p, s = pred[x], succ[x]
        succ[p], pred[s] = s, p
        if x == head:
            head = s
        s = succ[a]
        succ[a], pred[x], succ[x], pred[s] = x, a, s, x
    out = []
    for _ in order:
        out.append(order[head])
        head = succ[head]
    return CircularDrawing(d.graph, out)


def verify_untangling(d: CircularDrawing, u: Untangling) -> VerificationReport:
    """Moved-vertex count, fixed-set order preservation, and planarity of the result."""
    result = apply_untangling(d, u)
    moved = u.moved_set()
    fixed = [v for v in d.order if v not in moved]  # d.order restricted to the unmoved vertices
    fixed_ok = cyclic_equal(fixed, restriction(result.order, fixed))
    return VerificationReport(len(moved), fixed_ok, is_planar_drawing(result), result)


def moves_to_reach(
    order: Sequence[Vertex],
    target: Sequence[Vertex],
    moved: Iterable[Vertex],
) -> list[VertexMove]:
    """Moves that make the restriction of `order` to the target's vertex set
    equal `target` (cyclically), moving exactly the vertices in `moved`.

    The vertices of `target` not in `moved` must already appear in `order`
    in the target's relative cyclic order.  Each moved vertex is anchored to
    its target predecessor, so every vertex is moved at most once and fixed
    vertices (inside or outside the target set) never change relative order.
    """
    moved = set(moved)
    tt = tuple(target)
    if not tt:
        return []
    fixed = [v for v in tt if v not in moved]  # the target restricted to its unmoved vertices
    if not fixed:
        raise InvalidInstance("moves_to_reach needs at least one fixed vertex as anchor")
    if not cyclic_equal(restriction(order, fixed), fixed):
        raise InvalidInstance("fixed vertices are not in target order already")
    walk = rotate_to(tt, fixed[0])
    return [VertexMove(walk[i], walk[i - 1]) for i in range(1, len(walk)) if walk[i] in moved]
