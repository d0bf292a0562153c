"""The graph operator R: one new vertex per edge, joined to that edge's ends.

``build_r`` produces the operated graph together with its canonical
partition {V, U}: V holds the original vertices (indices unchanged), U the
added edge-vertices, appended in lexicographic order of their endpoint
pairs so witnesses and serialized output are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, VertexSet, bits


@dataclass(frozen=True)
class RGraph:
    """R(G) bundled with its base graph and canonical partition.

    ``edge_map[i]`` is the endpoint pair of edge-vertex ``base.n + i``.
    Construction performs no validation so that deliberately broken
    instances can be built for negative tests; ``validate_r`` is the check.
    """

    base: Graph
    total: Graph
    v_part: VertexSet
    u_part: VertexSet
    edge_map: tuple[tuple[int, int], ...]

    def u_vertex_of(self, a: int, b: int) -> int:
        """The edge-vertex attached to base edge {a, b}."""
        pair = (a, b) if a < b else (b, a)
        try:
            i = self.edge_map.index(pair)
        except ValueError:
            raise ValueError(f"{{{a}, {b}}} is not an edge of the base graph") from None
        return self.base.n + i


def r_v_rows(g: Graph) -> tuple[int, ...]:
    """R(g)'s rows for V: N_G(v) plus bit n + i for each edge i of ``g.edges()`` at v.

    Plain integers, so a scan of V can use them without building R(g).
    """
    rows = list(g.adj)
    for i, (a, b) in enumerate(g.edges()):
        rows[a] |= 1 << g.n + i
        rows[b] |= 1 << g.n + i
    return tuple(rows)


def build_r(g: Graph) -> RGraph:
    """Construct R(g) with edge-vertices in lexicographic endpoint order."""
    edges = g.edges()
    total_n = g.n + len(edges)
    rows = r_v_rows(g) + tuple(1 << a | 1 << b for a, b in edges)
    total = Graph(total_n, rows)
    v_mask = (1 << g.n) - 1
    return RGraph(
        base=g,
        total=total,
        v_part=VertexSet(total_n, v_mask),
        u_part=VertexSet(total_n, total.full_mask & ~v_mask),
        edge_map=tuple(edges),
    )


def validate_r(rg: RGraph) -> list[str]:
    """Check the structural identities of R(G); return violated check names.

    The empty list means all of: vertex and edge counts, the canonical
    partition, edge-vertex shape, degree doubling on V, the base appearing
    as an induced subgraph, identity with the base exactly for edgeless
    bases, and the connectivity equivalence between base and total.
    """
    g, t = rg.base, rg.total
    violations = []

    if t.n != g.n + g.m:
        violations.append("vertex-count")
    if t.m != 3 * g.m:
        violations.append("edge-count")

    if (
        rg.v_part.n != t.n
        or rg.u_part.n != t.n
        or rg.v_part.mask & rg.u_part.mask
        or rg.v_part.mask | rg.u_part.mask != t.full_mask
    ):
        violations.append("partition")

    if list(rg.edge_map) != g.edges():
        violations.append("edge-map")

    u_members = list(bits(rg.u_part.mask))
    u_ok = len(u_members) == len(rg.edge_map)
    if u_ok:
        for u, (a, b) in zip(u_members, rg.edge_map):
            if t.adj[u] != (1 << a | 1 << b):
                u_ok = False
                break
            if not (a in rg.v_part and b in rg.v_part and g.has_edge(a, b)):
                u_ok = False
                break
    if not u_ok:
        violations.append("u-degree")

    if any(
        v < g.n and t.adj[v].bit_count() != 2 * g.adj[v].bit_count()
        for v in bits(rg.v_part.mask)
    ):
        violations.append("v-degree")

    if "partition" not in violations:
        induced, _ = t.induced_subgraph(rg.v_part)
        if induced.n != g.n or induced.adj != g.adj:
            violations.append("induced-subgraph")

    if (g.m == 0) != (t.n == g.n and t.adj == g.adj):
        violations.append("edgeless-identity")

    if g.is_connected != t.is_connected:
        violations.append("connectivity")

    return violations
