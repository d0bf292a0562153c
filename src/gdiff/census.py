"""Canonical forms and isomorph-free generation of small connected graphs.

The canonical form of a graph is the graph6 text of its least labeling:
the one with the least upper-triangle adjacency code, read column by
column as graph6 reads it (column j holds the pairs (0, j) .. (j - 1, j)),
over the relabelings that list the vertices by (degree, neighbour-degree
multiset) profile, largest first. Any isomorphism keeps profiles, so
equal forms mean isomorphic graphs. ``canonical_form`` finds the least
code by a depth-first search that places one vertex per position. Once
positions 0..j are placed, column j is fixed, so the search tries at
position j only the vertices that give the least column j, and it drops
a partial labeling as soon as its columns exceed those of the best code
found. When a branch that lay below the best code replaces it, the
branch's later siblings compare against the new best again. Of two free
twins (vertices whose rows agree but for each other) it tries one, since
swapping them fixes the prefix and so gives the same codes.

Every connected graph of order k >= 2 has a vertex whose removal leaves
it connected (any leaf of a spanning tree will do). So each order-k class
is some order-(k - 1) class plus one new vertex joined to a nonempty set
of old vertices. ``connected_census(n)`` extends each graph of the cached
level n - 1, so a process builds each level once, from K1 up, and keeps
one graph per canonical form (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998). Each kept graph is
parsed from its canonical form, so the identity labeling reaches its
least code, and the labelings that reach it, collected by the same search
without the twin rule, are exactly its automorphisms. Two neighbourhood
masks in one orbit of that group give isomorphic extensions, so each
representative is extended only by the masks that are least in their
orbit.

Most classes are still reached from several representatives, so an
extension is canonicalized only when its new vertex x could be the vertex
that a canonical deletion removes (McKay's canonical augmentation). A
vertex v beats x when removing v leaves the graph connected and v has a
larger profile than x; the extension gets a ``Graph`` and a
``canonical_form`` call only when no vertex beats x. This loses no class.
Take a class C, and let c be a vertex of C with the greatest profile among
those whose removal leaves C connected. C - c is isomorphic to some
representative P, and the isomorphism carries N(c) to a mask of P whose
orbit holds a least mask. That extension is isomorphic to C by a map that
sends c to x. Profiles and connectivity are invariant under isomorphism,
so x has the greatest profile among the vertices of the extension whose
removal leaves it connected, and the extension is kept. Ties in profile
keep extensions from more than one representative; the set of forms
merges them. Each level is sorted by canonical form, so the stream depends
only on the classes, not on the order in which extensions happen to find
them.
graph6 writes the code left-aligned in 6-bit groups of a fixed number for
the order, so sorting the forms of one order sorts their codes: a level is
in ascending order of code and of graph6, and a representative's form is
its own graph6.

``census_runs`` runs the proposition checks over the census, serially or
in a pool of worker processes, one instance's reports at a time.
"""

from __future__ import annotations

import os
from collections import deque
from functools import lru_cache
from itertools import groupby, islice
from typing import Iterator

from .codecs import _graph6, parse_graph6, write_graph6
from .core import CANONICAL_MAX, DEFAULT_BUDGET, Graph, _reach, bits
from .propositions import PROPOSITIONS, CheckReport, run_all


def _profile(
    adj: tuple[int, ...] | list[int], degree: list[int], v: int
) -> tuple[int, tuple[int, ...]]:
    """Vertex v's profile: its degree, then its neighbours' degrees, largest first.

    Isomorphisms keep profiles. Canonical labelings list the vertices by
    profile, and generation keeps an extension by its new vertex's profile.
    """
    return degree[v], tuple(sorted([degree[u] for u in bits(adj[v])], reverse=True))


def _least_labelings(g: Graph, automorphisms: bool) -> tuple[list[int], list[tuple[int, ...]]]:
    """The columns of g's least code and, if asked, every labeling that reaches it.

    A labeling lists the vertex at each position. Column j of a labeling
    p holds the bits adj[p[i]][p[j]] for i < j, the first one highest, so
    comparing columns as integers of equal width compares codes. Unless
    ``automorphisms`` is set, the search tries one of each set of free
    twins, so it finds the least code but not every labeling reaching it.
    """
    n = g.n
    adj = g.adj
    # adjacent[v][u]: 1 when u and v are adjacent
    adjacent = [[row >> u & 1 for u in range(n)] for row in adj]
    degree = [row.bit_count() for row in adj]
    profile = [_profile(adj, degree, v) for v in range(n)]
    ordered = sorted(range(n), key=profile.__getitem__, reverse=True)
    blocks = [list(block) for _, block in groupby(ordered, key=profile.__getitem__)]
    # members[j]: the vertices that may take position j, those with its profile
    members = [block for block in blocks for _ in block]
    best: list[int] = []
    cols = [0] * n
    labeling = [0] * n
    least: list[tuple[int, ...]] = []

    def place(j: int, placed: int, seen: list[int], tight: bool) -> bool:
        """Place a vertex at position j and on; True when the best code was replaced.

        ``seen[v]`` is column j for v at position j. ``tight`` says the
        columns so far equal the best code's; otherwise they are below it,
        or there is no best code yet. One vertex is left for position n - 1.
        """
        free = [v for v in members[j] if not placed >> v & 1]
        col = min([seen[v] for v in free])
        # Column j is compared before every later one, so only the vertices
        # that give the least column can lead to the least code.
        if tight:
            if col > best[j]:
                return False
            tight = col == best[j]
        cols[j] = col
        if j == n - 1:
            labeling[j] = free[0]
            if tight:
                if automorphisms:
                    least.append(tuple(labeling))
                return False
            best[:] = cols
            if automorphisms:
                least[:] = [tuple(labeling)]
            return True
        chosen = [v for v in free if seen[v] == col]
        if not automorphisms and len(chosen) > 1:
            # Swapping two free twins (equal rows but for each other) fixes
            # the placed prefix, so their subtrees give equal codes.
            kept = []
            rows: set[int] = set()
            for v in chosen:
                row = adj[v]
                if row not in rows and row | 1 << v not in rows:
                    kept.append(v)
                    rows.update((row, row | 1 << v))
            chosen = kept
        replaced = False
        for v in chosen:
            labeling[j] = v
            below = [s << 1 | a for s, a in zip(seen, adjacent[v])]
            if place(j + 1, placed | 1 << v, below, tight):
                # The new best shares columns 0..j with this node, so
                # the siblings still to come must compare against it.
                replaced = tight = True
        return replaced

    if n:
        place(0, 0, [0] * n, False)
    return best, least


def canonical_form(g: Graph) -> str:
    """The graph6 text of g's least labeling; equal forms iff isomorphic.

    The labelings searched and the search are as in the module docstring.
    """
    n = g.n
    if n > CANONICAL_MAX:
        raise ValueError(f"canonical form supports order <= {CANONICAL_MAX}")
    best, _ = _least_labelings(g, False)
    code = 0
    for j in range(1, n):
        code = code << j | best[j]
    return _graph6(n, code)


def _orbit_least_masks(rep: Graph) -> list[int]:
    """The nonempty vertex masks of a representative that are least in their Aut-orbit.

    ``rep`` is canonically labeled, so the labelings that reach its least
    code are its automorphisms.
    """
    _, automorphisms = _least_labelings(rep, True)
    least = []
    found: set[int] = set()
    for mask in range(1, 1 << rep.n):
        if mask not in found:
            least.append(mask)
            vertices = list(bits(mask))
            found.update(sum([1 << p[v] for v in vertices]) for p in automorphisms)
    return least


def _is_non_cut(rows: list[int], v: int) -> bool:
    """True when removing v leaves the graph of adjacency rows ``rows`` connected."""
    rest = (1 << len(rows)) - 1 & ~(1 << v)
    return _reach(rows, rest & -rest, rest) == rest


def _new_vertex_unbeaten(rows: list[int]) -> bool:
    """True when no vertex beats the last one, x, the vertex an extension adds.

    A vertex v beats x when removing v leaves the graph connected and v
    has a larger profile than x. The degrees are compared first, the
    neighbour degrees only when two degrees tie, and the connectivity test
    runs only for a vertex that would beat x.
    """
    x = len(rows) - 1
    degree = [row.bit_count() for row in rows]
    x_degree = degree[x]
    x_profile = None
    for v in range(x):
        if degree[v] < x_degree:
            continue
        if degree[v] == x_degree:
            if x_profile is None:
                x_profile = _profile(rows, degree, x)
            if _profile(rows, degree, v) <= x_profile:
                continue
        if _is_non_cut(rows, v):
            return False
    return True


@lru_cache(maxsize=None)
def connected_census(n: int) -> tuple[Graph, ...]:
    """One canonically labeled graph per connected class of order n, cached per process.

    Graphs come in ascending order of canonical form, which is their graph6.
    """
    if not 1 <= n <= CANONICAL_MAX:
        raise ValueError(f"census enumeration supports 1 <= n <= {CANONICAL_MAX}")
    if n == 1:
        return (Graph(1, (0,)),)
    new_bit = 1 << n - 1
    forms = set()
    for g in connected_census(n - 1):
        for nbrs in _orbit_least_masks(g):
            rows = [row | new_bit if nbrs >> v & 1 else row for v, row in enumerate(g.adj)]
            rows.append(nbrs)
            if _new_vertex_unbeaten(rows):
                forms.add(canonical_form(Graph(n, tuple(rows))))
    return tuple(parse_graph6(form) for form in sorted(forms))


# Instances per task of a census worker process, and tasks in flight per worker.
CENSUS_BATCH = 8
BATCHES_PER_WORKER = 4


def _census_worker(g6s: list[str], prop_ids: list[str], budget: int) -> list[list[CheckReport]]:
    return [run_all(parse_graph6(g6), prop_ids, budget) for g6 in g6s]


def census_runs(
    n_max: int,
    prop_ids: list[str] | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[list[CheckReport]]:
    """``run_all``'s reports on each connected census graph of order 3..n_max.

    The arguments are checked at the call. The census is generated and
    checked as the result is iterated, one instance's reports at a time,
    in census order for every worker count. ``jobs`` is capped at the
    CPUs this process may run on; above 1, a process pool of that many
    workers checks batches of instances, a bounded number ahead.
    """
    if not 3 <= n_max <= CANONICAL_MAX:
        raise ValueError(f"census runs support 3 <= n_max <= {CANONICAL_MAX}")
    ids = list(prop_ids) if prop_ids else list(PROPOSITIONS)
    for pid in ids:
        if pid not in PROPOSITIONS:
            raise ValueError(f"unknown proposition id {pid!r}")
    instances = (g for n in range(3, n_max + 1) for g in connected_census(n))
    jobs = min(jobs, _available_cpus())
    if jobs > 1:
        return _pooled_runs(instances, ids, jobs, budget)
    return (run_all(g, ids, budget) for g in instances)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled_runs(instances, ids: list[str], jobs: int, budget: int) -> Iterator[list[CheckReport]]:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    batches = iter(lambda: [write_graph6(g) for g in islice(instances, CENSUS_BATCH)], [])
    pending: deque = deque()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
        for batch in batches:
            pending.append(pool.submit(_census_worker, batch, ids, budget))
            if len(pending) == BATCHES_PER_WORKER * jobs:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
