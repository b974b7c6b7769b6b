"""Graph text formats: a plain edge-list format and graph6.

Edge list: a header line "n m" followed by m lines "u v" with 0-indexed
endpoints.  graph6: offset-63 printable bytes holding the edge mask
(upper-triangle bits in pair_order, column-major) bit-reversed, 6 bits per
byte, zero-padded.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from .constructions import graph_to_mask, mask_to_graph
from .graphs import Graph, from_edge_list, max_vertices


class ParseError(ValueError):
    """Malformed graph input."""


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" edge-list format.

    Duplicate edges are collapsed with a warning; self-loops and out-of-range
    endpoints are errors, as is an edge count that disagrees with the header.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ParseError("vertex and edge counts must be nonnegative")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"edge line must be two integers, got {ln!r}") from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) out of range for {n} vertices")
        key = (min(u, v), max(u, v))
        if key in seen:
            warnings.warn(f"duplicate edge {key[0]} {key[1]} collapsed", stacklevel=2)
            continue
        seen.add(key)
        edges.append(key)
    try:
        return from_edge_list(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    """Vertex count and the offset where edge bits start."""
    if not data:
        raise ParseError("empty graph6 input")
    if data[0] == 126:  # '~': long form
        if len(data) < 4:
            raise ParseError("truncated graph6 vertex count")
        if data[1] == 126:
            raise ParseError("graph6 counts above 258047 are not supported")
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        return n, 4
    return data[0] - 63, 1


def _reverse_bits(x: int, nbits: int) -> int:
    """x with its nbits low bits in reverse order.

    graph6 stores the edge of pair_order index i at bit nbits - 1 - i of its
    bit string, so the string read as an integer is the edge mask reversed.
    """
    return int(format(x, f"0{nbits}b")[::-1], 2)


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line (an optional >>graph6<< header is accepted).

    Input holding more than one non-empty line is a ParseError: it would
    describe several graphs.
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].lstrip()
    lines = [ln for ln in (raw.strip() for raw in s.splitlines()) if ln]
    if not lines:
        raise ParseError("empty graph6 input")
    if len(lines) > 1:
        raise ParseError(f"graph6 input holds {len(lines)} graphs; expected one")
    try:
        data = lines[0].encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParseError(f"non-ASCII character {exc.object[exc.start]!r} "
                         "in graph6 input") from None
    for b in data:
        if not (63 <= b <= 126):
            raise ParseError(f"invalid graph6 byte {b}")
    n, off = _g6_decode_n(data)
    if n < 0 or n > max_vertices():
        raise ParseError(f"graph6 vertex count {n} outside 0..{max_vertices()}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[off:]
    if len(body) != nbytes:
        raise ParseError(f"expected {nbytes} edge bytes for n = {n}, got {len(body)}")
    bitbuf = 0
    for b in body:
        bitbuf = (bitbuf << 6) | (b - 63)
    pad = 6 * nbytes - nbits
    if bitbuf & ((1 << pad) - 1):
        raise ParseError("nonzero padding bits in graph6 input")
    return mask_to_graph(n, _reverse_bits(bitbuf >> pad, nbits))


def serialize_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [n + 63]
    elif n <= 258047:
        out = [126, 63 + (n >> 12), 63 + (n >> 6 & 63), 63 + (n & 63)]
    else:
        raise ValueError("graph6 vertex counts above 258047 are not supported")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    bitbuf = _reverse_bits(graph_to_mask(g), nbits) << (6 * nbytes - nbits)
    for i in range(nbytes - 1, -1, -1):
        out.append(63 + (bitbuf >> (6 * i) & 63))
    return bytes(out).decode("ascii")


class GraphDocument(namedtuple("GraphDocument", "graph")):
    """A parsed graph input."""

    __slots__ = ()


def detect_format(text: str) -> str:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        return "graph6"
    first = s.splitlines()[0].strip() if s else ""
    parts = first.split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        return "edges"
    return "graph6"


def load_document(text: str, fmt: str = "auto") -> GraphDocument:
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == "g6":
        fmt = "graph6"
    if fmt == "edges":
        return GraphDocument(parse_edge_list(text))
    if fmt == "graph6":
        return GraphDocument(parse_graph6(text))
    raise ParseError(f"unknown format {fmt!r}; expected 'edges' or 'graph6'")


def serialize(g: Graph, fmt: str) -> str:
    if fmt == "edges":
        return serialize_edge_list(g)
    if fmt in ("graph6", "g6"):
        return serialize_graph6(g) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected 'edges' or 'graph6'")
