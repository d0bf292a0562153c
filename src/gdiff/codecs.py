"""graph6 and edge-list codecs.

graph6 is the compact printable encoding used by the standard small-graph
tools: the order n first (one byte n+63 for n <= 62, else '~' followed by
three bytes holding an 18-bit n), then the upper adjacency triangle read
column by column, packed big-endian into 6-bit groups, each emitted as one
printable byte offset by 63. Padding bits must be zero.

The edge-list format is line oriented: a header line ``n <count>`` followed
by one ``a b`` line per edge with 0-based endpoints. Self-loops and
duplicate edges are rejected with the offending line number.
"""

from __future__ import annotations

from .core import CAPACITY, CapacityError, Graph

HEADER = ">>graph6<<"


class FormatError(ValueError):
    """Malformed graph6 or edge-list input."""


def write_graph6(g: Graph) -> str:
    code = 0
    for j in range(1, g.n):
        for i in range(j):
            code = code << 1 | (g.adj[i] >> j & 1)
    return _graph6(g.n, code)


def _graph6(n: int, code: int) -> str:
    """graph6 text of order n whose upper triangle, read column by column, is ``code``."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(
            chr(63 + (n >> shift & 0x3F)) for shift in (12, 6, 0)
        )
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    code <<= ngroups * 6 - nbits
    body = "".join(
        chr(63 + (code >> 6 * (ngroups - 1 - k) & 0x3F)) for k in range(ngroups)
    )
    return head + body


def parse_graph6(text: str) -> Graph:
    data = text.strip()
    if data.startswith(HEADER):
        data = data[len(HEADER):]
    if not data:
        raise FormatError("empty graph6 string")
    for pos, ch in enumerate(data):
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"invalid graph6 byte {ch!r} at position {pos}")
    if data[0] != "~":
        n = ord(data[0]) - 63
        body = data[1:]
    else:
        if len(data) >= 2 and data[1] == "~":
            raise FormatError("graph6 orders beyond 18 bits are not supported")
        if len(data) < 4:
            raise FormatError("truncated graph6 order field")
        n = 0
        for ch in data[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = data[4:]
    if n > CAPACITY:
        raise CapacityError(f"graph6 order {n} exceeds capacity {CAPACITY}")
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(body) != ngroups:
        raise FormatError(
            f"graph6 body has {len(body)} bytes, expected {ngroups} for order {n}"
        )
    code = 0
    for ch in body:
        code = code << 6 | (ord(ch) - 63)
    pad = ngroups * 6 - nbits
    if pad and code & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits in graph6 body")
    code >>= pad
    rows = [0] * n
    for j in range(n - 1, 0, -1):
        for i in range(j - 1, -1, -1):
            if code & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            code >>= 1
    return Graph(n, tuple(rows))


def write_edgelist(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{a} {b}" for a, b in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            try:
                n = int(parts[1]) if len(parts) == 2 and parts[0] == "n" else -1
            except ValueError:
                n = -1
            if n < 0:
                raise FormatError(f"line {lineno}: expected header 'n <count>'")
            if n > CAPACITY:
                raise CapacityError(f"order {n} exceeds capacity {CAPACITY}")
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'a b'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints must be integers") from None
        if not (0 <= a < n and 0 <= b < n):
            raise FormatError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if a == b:
            raise FormatError(f"line {lineno}: self-loop at {a}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    if n is None:
        raise FormatError("missing 'n <count>' header line")
    return Graph.from_edges(n, edges)
