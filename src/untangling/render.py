"""Deterministic SVG rendering of circular drawings.

Vertex i of n sits on a circle at angle 2*pi*i/n measured clockwise from the
top; edges are straight chords.  Crossing edges are drawn red, moved vertices
filled orange, so before/after pictures line up visually.
"""

from __future__ import annotations

import math
from typing import Iterable

from .model import CircularDrawing, Vertex, crossing_pairs

_SIZE = 440
_R = 180
_LABEL_R = _R + 22


def _xy(i: int, n: int, radius: float) -> tuple[float, float]:
    theta = -math.pi / 2 + 2 * math.pi * i / max(n, 1)
    c = _SIZE / 2
    return c + radius * math.cos(theta), c + radius * math.sin(theta)


def render_svg(d: CircularDrawing, moved: Iterable[Vertex] = ()) -> str:
    n = len(d.order)
    moved = set(moved)
    crossing_edges = {e for pair in crossing_pairs(d.order, d.graph.edges) for e in pair}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<circle cx="{_SIZE // 2}" cy="{_SIZE // 2}" r="{_R}" fill="none" '
        'stroke="#bbbbbb" stroke-dasharray="4 4"/>',
    ]
    for a, b in d.graph.sorted_edges():
        x1, y1 = _xy(d.position(a), n, _R)
        x2, y2 = _xy(d.position(b), n, _R)
        color, width = ("#cc2222", 2.5) if (a, b) in crossing_edges else ("#333333", 1.5)
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )
    for v in d.order:
        x, y = _xy(d.position(v), n, _R)
        fill = "#ff9933" if v in moved else "#ffffff"
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="7" fill="{fill}" stroke="#000000"/>'
        )
        lx, ly = _xy(d.position(v), n, _LABEL_R)
        label = v.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # names are free text
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="12" text-anchor="middle" '
            f'dominant-baseline="middle">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
