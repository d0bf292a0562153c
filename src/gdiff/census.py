"""Canonical forms and isomorph-free generation of small connected graphs.

Every connected graph of order k >= 2 has a vertex whose removal leaves
it connected (any leaf of a spanning tree will do). So each order-k class
is some order-(k - 1) class plus one new vertex joined to a nonempty set
of old vertices. ``enumerate_connected`` builds the census level by level
from K1: it extends every representative of the level below in every
such way, which never disconnects a graph, and keeps one graph per
canonical form (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998). Each kept graph is decoded from its canonical
form, so ``canonical_form`` of a representative is its own upper-triangle
code, and each level is sorted by canonical form. The stream therefore
depends only on the classes, not on the order in which extensions happen
to find them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from .core import Graph, bits

CANONICAL_MAX = 8


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant byte encoding; equal forms iff isomorphic.

    Minimizes the upper-triangle adjacency code over all relabelings that
    respect the (degree, neighbor-degree multiset) profile; any isomorphism
    preserves the profile, so restricting to these relabelings keeps the
    form complete while skipping most of the n! search.
    """
    n = g.n
    if n > CANONICAL_MAX:
        raise ValueError(f"canonical form is a factorial search; order must be <= {CANONICAL_MAX}")
    if n <= 1:
        return bytes([n])
    adj = g.adj
    degree = [row.bit_count() for row in adj]
    profile = {
        v: (degree[v], tuple(sorted((degree[u] for u in bits(adj[v])), reverse=True)))
        for v in range(n)
    }
    ordered = sorted(range(n), key=lambda v: profile[v], reverse=True)
    blocks: list[list[int]] = []
    for v in ordered:
        if blocks and profile[blocks[-1][-1]] == profile[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    best = None
    for parts in product(*(permutations(block) for block in blocks)):
        p = [v for part in parts for v in part]
        code = 0
        for i, j in pairs:
            code = code << 1 | (adj[p[i]] >> p[j] & 1)
        if best is None or code < best:
            best = code
    nbits = n * (n - 1) // 2
    return bytes([n]) + best.to_bytes((nbits + 7) // 8, "big")


def _from_form(form: bytes) -> Graph:
    """The graph whose own upper-triangle code is ``form``."""
    n = form[0]
    code = int.from_bytes(form[1:], "big")
    rows = [0] * n
    shift = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            shift -= 1
            if code >> shift & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def enumerate_connected(n: int):
    """Yield one canonically labeled graph per connected class of order n.

    Graphs come in ascending order of canonical form.
    """
    if not 1 <= n <= CANONICAL_MAX:
        raise ValueError(f"census enumeration supports 1 <= n <= {CANONICAL_MAX}")
    level = [Graph(1, (0,))]
    for k in range(1, n):
        new_bit = 1 << k
        forms = set()
        for g in level:
            for nbrs in range(1, new_bit):
                rows = [row | new_bit if nbrs >> v & 1 else row for v, row in enumerate(g.adj)]
                rows.append(nbrs)
                forms.add(canonical_form(Graph(k + 1, tuple(rows))))
        level = [_from_form(form) for form in sorted(forms)]
    yield from level


@lru_cache(maxsize=None)
def connected_census(n: int) -> tuple[Graph, ...]:
    """Connected census of order n, one graph per class, cached per process."""
    return tuple(enumerate_connected(n))
