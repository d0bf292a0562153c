"""Immutable bit-vector graphs and vertex-set primitives.

A graph stores, for every vertex, its neighborhood as one integer bitmask,
so set-level operations (neighborhood of a set, boundary, exterior,
induced subgraphs) reduce to a handful of integer operations.
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

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

#: Largest order accepted from outside the program: by the graph6 and
#: edge-list parsers and by ``families.generate``. Graphs built inside it,
#: such as R(G), may be larger.
CAPACITY = 64

#: Units of work each exact search may spend before it raises
#: BudgetExceededError: the solvers' default and the CLI's ``--budget``.
DEFAULT_BUDGET = 10_000_000

#: Largest order ``census.canonical_form`` and the census accept.
CANONICAL_MAX = 8


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


def _reach(rows: tuple[int, ...] | list[int], start: int, within: int) -> int:
    """The vertices of ``within`` joined to ``start`` by paths inside ``within``."""
    reached = frontier = start
    while frontier:
        frontier = _union(rows, frontier) & within & ~reached
        reached |= frontier
    return reached


def mask_of(members: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in members:
        if v < 0:
            raise ValueError(f"negative vertex index {v}")
        m |= 1 << v
    return m


def _immutable(self, *args) -> None:
    raise AttributeError(f"{type(self).__name__} is immutable")


class VertexSet:
    """A subset of 0..n-1, stored as a bitmask over an ambient order n.

    Instances are immutable values, equal and hashed by ``(n, mask)``.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError(f"negative ambient order {n}")
        if mask < 0 or mask >> n:
            raise ValueError("vertex index out of range for ambient order")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.mask == other.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __reduce__(self):
        return VertexSet, (self.n, self.mask)

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

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) & ~self.mask)

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"


class DegreeStats(NamedTuple):
    """Per-vertex degrees with explicit min/max; both None on the empty graph."""

    degrees: tuple[int, ...]
    minimum: int | None
    maximum: int | None


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency rows.

    Invariants enforced at construction: symmetry, irreflexivity, all
    neighbor indices below ``n``. Instances are immutable values, equal and
    hashed by ``(n, adj)``, and safe to share across workers.
    """

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n:
            raise ValueError("adjacency rows must match vertex count")
        for v, row in enumerate(adj):
            if row < 0 or row >> n:
                raise ValueError(f"neighbor of vertex {v} out of range")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(adj):
            bit = 1 << v
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] & bit:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
                row ^= low
        # The cached properties below are stored in the same __dict__.
        self.__dict__.update(n=n, adj=adj)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for order {n}")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(n, tuple(rows))

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

    @cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, u) for v in range(self.n) for u in bits(self.adj[v]) if u > v)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted pairs, in lexicographic order; listed once per graph."""
        return self._edges

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

    # -- set primitives -------------------------------------------------------

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
        return Graph(len(members), tuple(rows)), index

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
            comp = _reach(self.adj, remaining & -remaining, remaining)
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
        return Graph(self.n, tuple(rows))

    def disjoint_union(self, other: "Graph") -> "Graph":
        rows = list(self.adj) + [row << self.n for row in other.adj]
        return Graph(self.n + other.n, tuple(rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"
