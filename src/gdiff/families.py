"""Generators for the named graph families.

Labeling conventions are fixed so that witnesses are comparable across
runs: complete bipartite graphs put the part of size p on indices 0..p-1;
the matched bipartite family ``kprime(r)`` has parts P = 0..r-1 and
Q = r..3r-1 with matching edges {r+i, 2r+i}; wheels put the apex last;
stars put the center first. ``propositions`` recognizes the families
under any labeling.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .core import CAPACITY, CapacityError, Graph

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


class FamilySpec(NamedTuple):
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
