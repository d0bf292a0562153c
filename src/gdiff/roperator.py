"""The graph operator R: one new vertex per edge, joined to that edge's ends.

``build_r`` returns R(G) as a plain ``Graph`` laid out as V = 0..n-1, G's
own vertices with their indices unchanged, followed by U, where vertex
n + i is the edge-vertex of the i-th edge of ``g.edges()`` (lexicographic
order of the endpoint pairs), so witnesses and serialized output are
stable across runs.
"""

from __future__ import annotations

from .core import Graph


def build_r(g: Graph) -> Graph:
    """Construct R(g): V = 0..n-1, then vertex n + i for edge i of ``g.edges()``."""
    edges = g.edges()
    rows = list(g.adj)
    for i, (a, b) in enumerate(edges):
        rows[a] |= 1 << g.n + i
        rows[b] |= 1 << g.n + i
    rows += [1 << a | 1 << b for a, b in edges]
    return Graph(len(rows), tuple(rows))


def validate_r(g: Graph, r: Graph) -> list[str]:
    """Check that ``r`` is R(g) in ``build_r``'s layout; return violated check names.

    The empty list means all of: vertex and edge counts, each edge-vertex
    n + i adjacent to exactly the ends of edge i, degree doubling on V, g
    as the subgraph induced by V, identity with g exactly for edgeless g,
    and the connectivity equivalence between g and r.
    """
    violations = []

    sized = r.n == g.n + g.m
    if not sized:
        violations.append("vertex-count")
    if r.m != 3 * g.m:
        violations.append("edge-count")

    if not sized or any(
        r.adj[g.n + i] != 1 << a | 1 << b for i, (a, b) in enumerate(g.edges())
    ):
        violations.append("u-degree")

    if r.n < g.n or any(
        r.adj[v].bit_count() != 2 * g.adj[v].bit_count() for v in range(g.n)
    ):
        violations.append("v-degree")

    if r.n < g.n or any(r.adj[v] & g.full_mask != g.adj[v] for v in range(g.n)):
        violations.append("induced-subgraph")

    if (g.m == 0) != (r == g):
        violations.append("edgeless-identity")

    if g.is_connected != r.is_connected:
        violations.append("connectivity")

    return violations
