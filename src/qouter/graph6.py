"""Bit-exact graph6 encoding and decoding (ASCII, upper triangle column-major)."""

from __future__ import annotations

from .errors import CapacityError
from .graphs import Graph, MAX_VERTICES, from_edges


def graph6_encode(g: Graph) -> str:
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        # three-byte size record, valid for n up to 258047
        head = "~" + "".join(
            chr(63 + ((g.n >> shift) & 0x3F)) for shift in (12, 6, 0)
        )
    bitstream = []
    for j in range(1, g.n):
        for i in range(j):
            bitstream.append(1 if g.has_edge(i, j) else 0)
    body = []
    for k in range(0, len(bitstream), 6):
        chunk = bitstream[k : k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = (val << 1) | b
        body.append(chr(63 + val))
    return head + "".join(body)


def _sextet(c: str) -> int:
    """The 6-bit value of one graph6 byte; ValueError outside 63..126."""
    val = ord(c) - 63
    if not 0 <= val < 64:
        raise ValueError(f"invalid graph6 character {c!r}")
    return val


def graph6_decode(text: str) -> Graph:
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    if not text:
        raise ValueError("empty graph6 string")
    if text[0] == "~":
        if len(text) < 4 or text[1] == "~":
            raise ValueError("unsupported graph6 size record")
        n = 0
        for c in text[1:4]:
            n = (n << 6) | _sextet(c)
        rest = text[4:]
    else:
        n = _sextet(text[0])
        rest = text[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise CapacityError(f"graph6 order {n} outside 1..{MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(rest) != need:
        raise ValueError(f"graph6 body has {len(rest)} chars, expected {need}")
    bitstream = []
    for c in rest:
        val = _sextet(c)
        bitstream.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[k]:
                edges.append((i, j))
            k += 1
    if any(bitstream[k:]):
        raise ValueError("nonzero padding in graph6 body")
    return from_edges(n, edges)
