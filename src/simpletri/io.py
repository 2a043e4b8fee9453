"""Text formats: edge-list graphs, relation-list orders, representation dumps.

Graph files start with a line holding the vertex count, followed by one
``u v`` edge per line.  Order files are the same with ``u < v`` relation
lines; the transitive closure is taken on load.  Lines starting with ``#``
and blank lines are ignored.  Vertices are 0-based integers everywhere.
"""
from __future__ import annotations

import json
import sys
from typing import Iterator

from .errors import DuplicateEdge, ParseError, SelfLoop
from .graphs import Graph
from .orders import PartialOrder, make_partial_order
from .triangles import TriangleRepresentation

__all__ = [
    "parse_graph",
    "parse_order",
    "load_graph",
    "load_order",
    "graph_to_text",
    "order_to_text",
    "emit_representation",
    "parse_representation",
]


# Far above what any exact search here decides, and small enough that the
# per-vertex tables of a graph or order always fit in memory.
MAX_VERTICES = 10_000


# Characters that _significant_lines splits into lines at once, so that a
# large file never has all its lines in memory together.
_PIECE = 1 << 16


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    """Numbered lines of ``text`` as ``str.splitlines`` breaks them, less
    blanks and comments.  Each piece ends just after a ``\\n``, which no
    line break can straddle, so the numbering is the whole text's."""
    lineno = start = 0
    while start < len(text):
        end = text.find("\n", start + _PIECE) + 1 or len(text)
        for raw in text[start:end].splitlines():
            lineno += 1
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line
        start = end


def _natural(text: str) -> int:
    """``text`` as an integer, ASCII digits only: ``int`` alone also takes
    a sign, ``_`` separators and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def _read_count(lines, what: str) -> tuple[int, object]:
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise ParseError(f"empty {what} file") from None
    try:
        n = _natural(line)
    except ValueError:
        raise ParseError(f"expected {what} size, got {line!r}", lineno) from None
    if not 0 <= n <= MAX_VERTICES:
        raise ParseError(f"{what} size must be in 0..{MAX_VERTICES}, got {n}", lineno)
    return n, lines


def parse_graph(text: str) -> Graph:
    """Parse edge-list text into a validated :class:`Graph`."""
    n, lines = _read_count(_significant_lines(text), "graph")
    adj = [0] * n
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = _natural(parts[0]), _natural(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in {line!r}", lineno)
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}", lineno)
        if adj[u] >> v & 1:
            raise DuplicateEdge(f"duplicate edge {min(u, v)} {max(u, v)}", lineno)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._from_adj(n, adj)


def parse_order(text: str) -> PartialOrder:
    """Parse relation-list text and return its transitive closure.

    Raises :class:`simpletri.errors.CycleError` when the closure is cyclic.
    """
    n, lines = _read_count(_significant_lines(text), "order")
    relations = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[1] != "<":
            raise ParseError(f"expected 'u < v', got {line!r}", lineno)
        try:
            u, v = _natural(parts[0]), _natural(parts[2])
        except ValueError:
            raise ParseError(f"non-integer element in {line!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"element out of range in {line!r}", lineno)
        relations.append((u, v))
    return make_partial_order(n, relations)


def _read_source(path: str) -> str:
    """The text of ``path``, '-' for standard input, decoded alike from both
    whatever the locale: strict UTF-8 less one leading byte-order mark.  Line
    breaks stay as they are: :func:`_significant_lines` splits at each."""
    if path == "-":
        name, data = "standard input", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            name, data = path, handle.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not UTF-8 text: {exc.reason}") from None


def load_graph(path: str) -> Graph:
    """Read a graph file; '-' reads standard input."""
    return parse_graph(_read_source(path))


def load_order(path: str) -> PartialOrder:
    """Read an order file; '-' reads standard input."""
    return parse_order(_read_source(path))


def graph_to_text(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def order_to_text(p: PartialOrder) -> str:
    lines = [str(p.n)]
    lines.extend(f"{u} < {v}" for u, v in sorted(p.pairs))
    return "\n".join(lines) + "\n"


def emit_representation(t: TriangleRepresentation, format: str = "structured") -> str:
    """Serialize a representation; ``structured`` is versioned JSON, ``svg``
    draws the two lines with one translucent triangle per vertex."""
    if format == "structured":
        doc = {
            "version": 1,
            "triangles": [
                {"v": v, "apex": t.apex[v], "base": [t.base[v][0], t.base[v][1]]}
                for v in range(t.n)
            ],
        }
        return json.dumps(doc, separators=(",", ":"))
    if format == "svg":
        return _to_svg(t)
    raise ValueError(f"unknown format {format!r}")


def parse_representation(text: str) -> TriangleRepresentation:
    """Inverse of the structured format of :func:`emit_representation`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and over-long integer literals,
        # RecursionError deeply nested arrays or objects
        raise ParseError(f"invalid JSON: {exc}") from None
    # type() rather than isinstance(): JSON true is a bool, an int subclass
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != 1:
        raise ParseError("expected a version-1 representation document")
    triangles = doc.get("triangles")
    if not isinstance(triangles, list):
        raise ParseError("missing triangle list")
    apex = []
    base = []
    for i, entry in enumerate(triangles):
        if not isinstance(entry, dict):
            raise ParseError(f"triangle {i} is not an object, got {entry!r}")
        if type(entry.get("v")) is not int or entry["v"] != i:
            raise ParseError(f"triangle entries must be ascending, got {entry!r}")
        if type(entry.get("apex")) is not int:
            raise ParseError(f"triangle {i}: apex must be an integer, got {entry!r}")
        bounds = entry.get("base")
        if not (isinstance(bounds, list) and len(bounds) == 2 and all(type(b) is int for b in bounds)):
            raise ParseError(f"triangle {i}: base must be two integers, got {entry!r}")
        apex.append(entry["apex"])
        base.append(tuple(bounds))
    try:
        return TriangleRepresentation(tuple(apex), tuple(base))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _to_svg(t: TriangleRepresentation) -> str:
    scale = margin = 40  # pixels per coordinate unit, and around the drawing
    coords = [1]
    for v in range(t.n):
        coords.extend((t.apex[v], t.base[v][0], t.base[v][1]))
    width = margin * 2 + scale * max(coords)
    top, bottom = margin, margin + 160  # the two lines, 160 pixels apart
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{bottom + margin}" viewBox="0 0 {width} {bottom + margin}">',
        f'<line x1="0" y1="{top}" x2="{width}" y2="{top}" stroke="black"/>',
        f'<line x1="0" y1="{bottom}" x2="{width}" y2="{bottom}" stroke="black"/>',
    ]
    for v in range(t.n):
        ax = margin + scale * (t.apex[v] - 1)
        lx = margin + scale * (t.base[v][0] - 1)
        rx = margin + scale * (t.base[v][1] - 1)
        hue = (v * 360) // max(t.n, 1)
        parts.append(
            f'<polygon points="{ax},{top} {lx},{bottom} {rx},{bottom}" '
            f'fill="hsl({hue},70%,50%)" fill-opacity="0.45" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ax}" y="{top - 6}" text-anchor="middle" '
            f'font-size="14">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
