"""Immutable bit-vector graphs and vertex-set primitives.

A graph stores, for every vertex, its neighborhood as one integer bitmask,
so set-level operations (neighborhood of a set, boundary, exterior, private
neighbors, induced subgraphs) reduce to a handful of integer operations.
Vertex indices run 0..n-1. Python integers have no word size, so graphs of
any order are values; only input from outside the program (the parsers and
the family generators) is bounded, by CAPACITY.

Terminology used throughout the package, for a graph G and S a subset of
its vertices:

* N(v) / N[v]      open / closed neighborhood of a vertex
* N(S)             union of N(v) over v in S
* B(S)             boundary: N(S) minus S
* C(S)             exterior: everything outside S and B(S)
* differential     |B(S)| - |S|; the graph differential is its maximum
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

#: Largest order accepted from outside the program: by the graph6 and
#: edge-list parsers and by ``families.generate``. Graphs built inside it,
#: such as R(G), may be larger.
CAPACITY = 64


class CapacityError(ValueError):
    """An input graph's order exceeds CAPACITY."""


class BudgetExceededError(RuntimeError):
    """An exact search ran past its node budget; no partial result is kept."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(rows: tuple[int, ...], mask: int) -> int:
    """Union of ``rows[v]`` over the members v of ``mask``: N(S) for adjacency rows."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def mask_of(members: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in members:
        if v < 0:
            raise ValueError(f"negative vertex index {v}")
        m |= 1 << v
    return m


@dataclass(frozen=True)
class VertexSet:
    """A subset of 0..n-1, stored as a bitmask over an ambient order n."""

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative ambient order {self.n}")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("vertex index out of range for ambient order")

    @classmethod
    def of(cls, n: int, members: Iterable[int] = ()) -> "VertexSet":
        return cls(n, mask_of(members))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check_ambient(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError(f"ambient order mismatch: {self.n} != {other.n}")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_ambient(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_ambient(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_ambient(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) & ~self.mask)

    def issubset(self, other: "VertexSet") -> bool:
        self._check_ambient(other)
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"


@dataclass(frozen=True)
class DegreeStats:
    """Per-vertex degrees with explicit min/max; both None on the empty graph."""

    degrees: tuple[int, ...]
    minimum: int | None
    maximum: int | None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency rows.

    Invariants enforced at construction: symmetry, irreflexivity, all
    neighbor indices below ``n``. Instances are immutable values and safe
    to share across workers.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency rows must match vertex count")
        for v, row in enumerate(self.adj):
            if row < 0 or row >> self.n:
                raise ValueError(f"neighbor of vertex {v} out of range")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels must match vertex count")

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], labels: tuple[str, ...] | None = None
    ) -> "Graph":
        rows = [0] * n
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for order {n}")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(n, tuple(rows), labels)

    # -- counts and masks ---------------------------------------------------

    @cached_property
    def m(self) -> int:
        """Edge count, derived as half the degree sum."""
        return sum(row.bit_count() for row in self.adj) // 2

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def closed_adj(self) -> tuple[int, ...]:
        """Closed neighborhoods N[v] as bitmask rows."""
        return tuple(row | 1 << v for v, row in enumerate(self.adj))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(a)
        self._check_vertex(b)
        return bool(self.adj[a] >> b & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted pairs, in lexicographic order."""
        return [(v, u) for v in range(self.n) for u in bits(self.adj[v]) if u > v]

    # -- validation helpers -------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for order {self.n}")

    def _coerce(self, s: "VertexSet | Iterable[int]") -> int:
        if isinstance(s, VertexSet):
            if s.n != self.n:
                raise ValueError(f"ambient order mismatch: {s.n} != {self.n}")
            return s.mask
        m = mask_of(s)
        if m >> self.n:
            raise ValueError("set member out of range")
        return m

    # -- neighborhood primitives ---------------------------------------------

    def open_neighborhood(self, v: int) -> VertexSet:
        """N(v): all vertices adjacent to v."""
        self._check_vertex(v)
        return VertexSet(self.n, self.adj[v])

    def closed_neighborhood(self, v: int) -> VertexSet:
        """N[v] = N(v) plus v itself."""
        self._check_vertex(v)
        return VertexSet(self.n, self.adj[v] | 1 << v)

    def set_neighborhood(self, s: "VertexSet | Iterable[int]", closed: bool = False) -> VertexSet:
        """N(S), the union of N(v) over v in S; the closed form also unions S."""
        smask = self._coerce(s)
        out = _union(self.adj, smask)
        return VertexSet(self.n, out | smask if closed else out)

    def boundary(self, s: "VertexSet | Iterable[int]") -> VertexSet:
        """B(S) = N(S) minus S."""
        smask = self._coerce(s)
        return VertexSet(self.n, _union(self.adj, smask) & ~smask)

    def exterior(self, s: "VertexSet | Iterable[int]") -> VertexSet:
        """C(S): vertices in neither S nor B(S); {S, B(S), C(S)} partitions V."""
        smask = self._coerce(s)
        return VertexSet(self.n, self.full_mask & ~(_union(self.adj, smask) | smask))

    def set_differential(self, s: "VertexSet | Iterable[int]") -> int:
        """|B(S)| - |S|; may be negative."""
        smask = self._coerce(s)
        return (_union(self.adj, smask) & ~smask).bit_count() - smask.bit_count()

    def external_private_neighbors(self, v: int, s: "VertexSet | Iterable[int]") -> VertexSet:
        """Neighbors of v outside S that are adjacent to no other member of S.

        Requires v in S.
        """
        self._check_vertex(v)
        smask = self._coerce(s)
        if not smask >> v & 1:
            raise ValueError(f"vertex {v} is not a member of the set")
        others = _union(self.adj, smask & ~(1 << v))
        return VertexSet(self.n, self.adj[v] & ~smask & ~others)

    # -- structure ------------------------------------------------------------

    def induced_subgraph(
        self, s: "VertexSet | Iterable[int]"
    ) -> tuple["Graph", dict[int, int]]:
        """Subgraph induced by S plus the old->new index mapping."""
        smask = self._coerce(s)
        members = list(bits(smask))
        index = {old: new for new, old in enumerate(members)}
        rows = []
        for old in members:
            row = 0
            for u in bits(self.adj[old] & smask):
                row |= 1 << index[u]
            rows.append(row)
        new_labels = None
        if self.labels is not None:
            new_labels = tuple(self.labels[old] for old in members)
        return Graph(len(members), tuple(rows), new_labels), index

    def degree_stats(self) -> DegreeStats:
        degrees = tuple(row.bit_count() for row in self.adj)
        if self.n == 0:
            return DegreeStats((), None, None)
        return DegreeStats(degrees, min(degrees), max(degrees))

    def connectivity(self) -> tuple[bool, list[VertexSet]]:
        """Connected components; the graph is connected iff there is exactly one."""
        components = []
        remaining = self.full_mask
        while remaining:
            comp = remaining & -remaining
            frontier = comp
            while frontier:
                frontier = _union(self.adj, frontier) & ~comp
                comp |= frontier
            components.append(VertexSet(self.n, comp))
            remaining &= ~comp
        return len(components) == 1, components

    @cached_property
    def is_connected(self) -> bool:
        return self.connectivity()[0]

    def is_k_dependent(self, s: "VertexSet | Iterable[int]", k: int) -> bool:
        """True iff the subgraph induced by S has maximum degree at most k."""
        if k < 0:
            raise ValueError("k must be non-negative")
        smask = self._coerce(s)
        return all((self.adj[v] & smask).bit_count() <= k for v in bits(smask))

    # -- rebuilding ------------------------------------------------------------

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Apply a vertex permutation; ``perm[old]`` is the new index."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("not a permutation of 0..n-1")
        rows = [0] * self.n
        for v, row in enumerate(self.adj):
            for u in bits(row):
                rows[p[v]] |= 1 << p[u]
        new_labels = None
        if self.labels is not None:
            new_labels = [""] * self.n
            for v in range(self.n):
                new_labels[p[v]] = self.labels[v]
            new_labels = tuple(new_labels)
        return Graph(self.n, tuple(rows), new_labels)

    def disjoint_union(self, other: "Graph") -> "Graph":
        rows = list(self.adj) + [row << self.n for row in other.adj]
        return Graph(self.n + other.n, tuple(rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"
