"""Generators for the named graph families, plus structure detectors.

Labeling conventions are fixed so that witnesses are comparable across
runs: complete bipartite graphs put the part of size p on indices 0..p-1;
the matched bipartite family ``kprime(r)`` has parts P = 0..r-1 and
Q = r..3r-1 with matching edges {r+i, 2r+i}; wheels put the apex last;
stars put the center first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import CAPACITY, CapacityError, Graph, VertexSet, bits

KINDS = (
    "complete",
    "complete_bipartite",
    "kprime",
    "wheel",
    "path",
    "cycle",
    "star",
    "star_plus_edge",
    "empty",
)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("complete: n must be non-negative")
    return Graph.from_edges(n, combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("empty: n must be non-negative")
    return Graph.from_edges(n, ())


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path: n must be at least 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle: n must be at least 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    if n < 2:
        raise ValueError("star: n must be at least 2")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def star_plus_edge(n: int) -> Graph:
    """K_{1,n-1} plus one edge joining two leaves (center 0, leaves 1 and 2)."""
    if n < 3:
        raise ValueError("star_plus_edge: n must be at least 3")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)] + [(1, 2)])


def wheel(n: int) -> Graph:
    """Cycle on n-1 vertices plus an apex (the last index) adjacent to all."""
    if n < 4:
        raise ValueError("wheel: n must be at least 4")
    rim = n - 1
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph.from_edges(n, edges)


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} with the p-part on indices 0..p-1."""
    if p < 1 or q < 1:
        raise ValueError("complete_bipartite: both parts must be non-empty")
    return Graph.from_edges(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def kprime(r: int) -> Graph:
    """K_{r,2r} plus a perfect matching on the larger part.

    P = 0..r-1, Q = r..3r-1, matching edges {r+i, 2r+i} for i in 0..r-1.
    """
    if r < 2:
        raise ValueError("kprime: r must be at least 2")
    edges = [(i, r + j) for i in range(r) for j in range(2 * r)]
    edges += [(r + i, 2 * r + i) for i in range(r)]
    return Graph.from_edges(3 * r, edges)


@dataclass(frozen=True)
class FamilySpec:
    """A family name with its parameters; ``build`` produces the graph."""

    kind: str
    n: int | None = None
    p: int | None = None
    q: int | None = None
    r: int | None = None

    def build(self) -> Graph:
        return generate(self)


def _check_order(kind: str, order: int) -> None:
    if order > CAPACITY:
        raise CapacityError(f"{kind} order {order} exceeds capacity {CAPACITY}")


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a spec names; an order above CAPACITY is refused first."""
    kind = spec.kind
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if kind == "complete_bipartite":
        if spec.p is None or spec.q is None:
            raise ValueError("complete_bipartite requires p and q")
        _check_order(kind, spec.p + spec.q)
        return complete_bipartite(spec.p, spec.q)
    if kind == "kprime":
        if spec.r is None:
            raise ValueError("kprime requires r")
        _check_order(kind, 3 * spec.r)
        return kprime(spec.r)
    if spec.n is None:
        raise ValueError(f"{kind} requires n")
    _check_order(kind, spec.n)
    builder = {
        "complete": complete,
        "wheel": wheel,
        "path": path,
        "cycle": cycle,
        "star": star,
        "star_plus_edge": star_plus_edge,
        "empty": empty_graph,
    }[kind]
    return builder(spec.n)


# -- structure detectors ------------------------------------------------------
#
# These recognize family membership directly from degrees and adjacency, so
# they work at any order (unlike the factorial canonical form).


def is_complete(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n * (g.n - 1) // 2


def is_cycle(g: Graph) -> bool:
    return (
        g.n >= 3
        and g.is_connected
        and all(row.bit_count() == 2 for row in g.adj)
    )


def is_path(g: Graph) -> bool:
    if g.n == 1:
        return g.m == 0
    if g.n < 2 or not g.is_connected:
        return False
    degrees = sorted(row.bit_count() for row in g.adj)
    return degrees[:2] == [1, 1] and all(d == 2 for d in degrees[2:])


def star_center(g: Graph) -> int | None:
    """Center of K_{1,n-1}, or None."""
    if g.n < 2 or g.m != g.n - 1:
        return None
    for v, row in enumerate(g.adj):
        if row.bit_count() == g.n - 1:
            return v
    return None


def star_plus_edge_center(g: Graph) -> int | None:
    """Center of a star with one extra leaf-leaf edge, or None."""
    if g.n < 3 or g.m != g.n:
        return None
    for v, row in enumerate(g.adj):
        if row.bit_count() == g.n - 1:
            rest, _ = g.induced_subgraph(VertexSet(g.n, g.full_mask & ~(1 << v)))
            if rest.m == 1:
                return v
    return None


def complete_bipartite_parts(g: Graph) -> tuple[VertexSet, VertexSet] | None:
    """The bipartition of K_{p,q} (smaller part first), or None."""
    if g.n < 2 or not g.is_connected:
        return None
    color = [-1] * g.n
    color[0] = 0
    queue = [0]
    while queue:
        v = queue.pop()
        for u in bits(g.adj[v]):
            if color[u] == -1:
                color[u] = 1 - color[v]
                queue.append(u)
            elif color[u] == color[v]:
                return None
    a = VertexSet.of(g.n, (v for v in range(g.n) if color[v] == 0))
    b = a.complement()
    if g.m != len(a) * len(b):
        return None
    if (len(a), min(a.members or (g.n,))) > (len(b), min(b.members or (g.n,))):
        a, b = b, a
    return a, b


def wheel_apex(g: Graph) -> int | None:
    """Apex of a wheel (cycle plus a universal vertex), or None."""
    if g.n < 4:
        return None
    for v, row in enumerate(g.adj):
        if row.bit_count() == g.n - 1:
            rim, _ = g.induced_subgraph(VertexSet(g.n, g.full_mask & ~(1 << v)))
            if is_cycle(rim):
                return v
    return None


def kprime_order(g: Graph) -> int | None:
    """The r for which g is K_{r,2r} plus a matching on the large part, or None."""
    if g.n % 3 or g.n < 6:
        return None
    r = g.n // 3
    p_mask = 0
    q_mask = 0
    for v, row in enumerate(g.adj):
        d = row.bit_count()
        if d == 2 * r:
            p_mask |= 1 << v
        elif d == r + 1:
            q_mask |= 1 << v
        else:
            return None
    if p_mask.bit_count() != r or q_mask.bit_count() != 2 * r:
        return None
    for v in bits(p_mask):
        if g.adj[v] != q_mask:
            return None
    for v in bits(q_mask):
        if (g.adj[v] & q_mask).bit_count() != 1:
            return None
    return r
