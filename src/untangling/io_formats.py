"""Line-based text formats for drawings, move lists, and problem instances.

All formats are UTF-8 with LF line endings, `#` comment lines, and
whitespace-tolerant parsing; serialization is canonical so golden files are
byte-stable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .errors import FormatError, UntanglingError
from .model import CircularDrawing, Graph, Untangling, Vertex, VertexMove

if TYPE_CHECKING:  # the 3p and icor parsers import these when they run
    from .reductions import DistIcorInstance, ThreePartitionInstance


def _payload_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append(line.split())
    return out


def parse_drawing(text: str) -> CircularDrawing:
    n: Optional[int] = None
    order: Optional[tuple[str, ...]] = None
    edges: list[tuple[str, str]] = []
    for parts in _payload_lines(text):
        kw = parts[0]
        if kw == "vertices":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise FormatError(f"bad vertices line: {' '.join(parts)}")
            if n is not None:
                raise FormatError("drawing file has more than one `vertices` line")
            n = int(parts[1])
        elif kw == "order":
            if order is not None:
                raise FormatError("drawing file has more than one `order` line")
            order = tuple(parts[1:])
        elif kw == "edge":
            if len(parts) != 3:
                raise FormatError(f"bad edge line: {' '.join(parts)}")
            edges.append((parts[1], parts[2]))
        else:
            raise FormatError(f"unknown keyword {kw!r} in drawing file")
    if n is None or order is None:
        raise FormatError("drawing file needs one `vertices` and one `order` line")
    if len(order) != n or len(set(order)) != n:
        raise FormatError(f"order line must list {n} distinct vertices")
    try:
        return CircularDrawing(Graph(order, edges), order)
    except UntanglingError as exc:
        raise FormatError(str(exc)) from exc


def format_drawing(d: CircularDrawing, comments: Iterable[str] = ()) -> str:
    for v in d.order:
        if v.split() != [v]:  # `parse_drawing` would read other vertices back
            raise FormatError(f"vertex name {v!r} is empty or holds whitespace and cannot be written")
    lines = [f"# {c}" for c in comments]
    lines.append(f"vertices {len(d.order)}")
    lines.append("order " + " ".join(d.order))
    for a, b in d.graph.sorted_edges():
        lines.append(f"edge {a} {b}")
    return "\n".join(lines) + "\n"


def parse_moves(text: str) -> Untangling:
    moves = []
    for parts in _payload_lines(text):
        if len(parts) != 4 or parts[0] != "move" or parts[2] != "after":
            raise FormatError(f"bad move line: {' '.join(parts)}")
        try:
            moves.append(VertexMove(parts[1], parts[3]))
        except UntanglingError as exc:
            raise FormatError(f"bad move line: {' '.join(parts)}: {exc}") from exc
    return Untangling(moves)


def format_moves(u: Untangling, fixed: Optional[Iterable[Vertex]] = None) -> str:
    lines = [f"move {m.vertex} after {m.anchor}" for m in u.moves]
    summary = f"# moved={len(u.moved_set())}"
    if fixed is not None:
        summary += " fixed=" + ",".join(fixed)
    lines.append(summary)
    return "\n".join(lines) + "\n"


def parse_3p(text: str) -> ThreePartitionInstance:
    from .reductions import ThreePartitionInstance

    lines = _payload_lines(text)
    if len(lines) != 1 or lines[0][0] != "3p":
        raise FormatError("a 3-partition file is a single `3p m K a_1 ... a_3m` line")
    parts = lines[0]
    try:
        m, k = int(parts[1]), int(parts[2])
        a = tuple(int(x) for x in parts[3:])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad 3p line: {exc}") from exc
    if m < 1:
        raise FormatError(f"bad 3p line: m = {m}, not a positive count of triples")
    if len(a) != 3 * m:
        raise FormatError(f"expected {3 * m} elements, found {len(a)}")
    try:
        return ThreePartitionInstance(a, k)
    except UntanglingError as exc:
        raise FormatError(str(exc)) from exc


def format_3p(inst: ThreePartitionInstance) -> str:
    return f"3p {inst.m} {inst.k} " + " ".join(str(x) for x in inst.a) + "\n"


def parse_icor(text: str) -> DistIcorInstance:
    from .reductions import DistIcorInstance

    m_target: Optional[int] = None
    chunks: list[tuple[int, ...]] = []
    for parts in _payload_lines(text):
        if parts[0] == "icor":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise FormatError(f"bad icor line: {' '.join(parts)}")
            if m_target is not None:
                raise FormatError("icor file has more than one `icor` line")
            m_target = int(parts[1])
        elif parts[0] == "chunk":
            try:
                chunks.append(tuple(int(x) for x in parts[1:]))
            except ValueError as exc:
                raise FormatError(f"bad chunk line: {exc}") from exc
        else:
            raise FormatError(f"unknown keyword {parts[0]!r} in icor file")
    if m_target is None or not chunks:
        raise FormatError("icor file needs an `icor M` line and chunk lines")
    try:
        return DistIcorInstance(chunks, m_target)
    except UntanglingError as exc:
        raise FormatError(str(exc)) from exc


def format_icor(inst: DistIcorInstance) -> str:
    lines = [f"icor {inst.m_target}"]
    for c in inst.chunks:
        lines.append("chunk " + " ".join(str(x) for x in c))
    return "\n".join(lines) + "\n"
