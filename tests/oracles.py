"""Independent brute-force oracles used to pin expected values.

Every oracle here is a scan that shares no code with the solvers it
checks, so agreement is meaningful; it imports nothing of gdiff but
``gdiff.core``. All but one are plain full scans with no pruning. All of
them are exponential and meant for orders up to ~10 (the Roman labeling
scan, 3^n, up to ~7; the differentials in R(G) of the subsets of V, built
up one vertex at a time, up to 20).

The one with cuts is ``naive_r_maximizers``, every maximizer of the
differential over all n + m vertices of R(G), where a plain scan would
visit 2^(n + m) sets. It scans A + F, A inside V and F a set of
edge-vertices, with two exact cuts that its docstring proves: F holds no
edge-vertex at A or with both ends in N(A), and an A whose value with F
empty plus |C(A)| is below the best value inside V is skipped.
``test_r_maximizer_oracle_matches_the_full_scan`` checks it against the
plain scan of R(G) on the small census.
"""

from itertools import combinations, permutations, product
from random import Random

from gdiff.core import Graph, bits


def naive_differential(g: Graph) -> int:
    """max over ALL 2^n subsets of |B(S)| - |S|, no pruning."""
    best = None
    for smask in range(1 << g.n):
        b = 0
        for v in bits(smask):
            b |= g.adj[v]
        d = (b & ~smask).bit_count() - smask.bit_count()
        if best is None or d > best:
            best = d
    return best


def naive_differential_sets(g: Graph) -> list[int]:
    """All maximizer masks of the differential, full scan."""
    best = naive_differential(g)
    out = []
    for smask in range(1 << g.n):
        b = 0
        for v in bits(smask):
            b |= g.adj[v]
        if (b & ~smask).bit_count() - smask.bit_count() == best:
            out.append(smask)
    return out


def naive_enclaveless(g: Graph) -> int:
    best = 0
    for smask in range(1 << g.n):
        b = 0
        for v in bits(smask):
            b |= g.adj[v]
        best = max(best, (b & ~smask).bit_count())
    return best


def naive_domination(g: Graph) -> int:
    full = (1 << g.n) - 1
    best = g.n
    for smask in range(1 << g.n):
        covered = smask
        for v in bits(smask):
            covered |= g.adj[v]
        if covered == full:
            best = min(best, smask.bit_count())
    return best


def naive_minimum_dominating_sets(g: Graph, within: int | None = None) -> list[int]:
    """All minimum dominating set masks inside ``within`` (default: V), in mask order.

    Scans every submask of ``within``; ``within`` itself must dominate.
    """
    full = (1 << g.n) - 1
    within = full if within is None else within
    dominating = []
    smask = within
    while True:
        covered = smask
        for v in bits(smask):
            covered |= g.adj[v]
        if covered == full:
            dominating.append(smask)
        if smask == 0:
            break
        smask = (smask - 1) & within
    dominating.reverse()
    gamma = min(m.bit_count() for m in dominating)
    return [m for m in dominating if m.bit_count() == gamma]


def naive_vertex_cover(g: Graph) -> int:
    edges = g.edges()
    best = g.n
    for smask in range(1 << g.n):
        if all(smask >> a & 1 or smask >> b & 1 for a, b in edges):
            best = min(best, smask.bit_count())
    return best


def naive_independence(g: Graph) -> int:
    best = 0
    for smask in range(1 << g.n):
        if all(not g.adj[v] & smask for v in bits(smask)):
            best = max(best, smask.bit_count())
    return best


def naive_roman(g: Graph) -> int:
    """Minimum Roman weight via the two-set formulation.

    For any choice of the 2-labeled set T, the cheapest completion labels
    the vertices outside N[T] with 1, so the optimum is
    min over T of 2|T| + |V \\ N[T]|. Independent of the labeling scan.
    """
    full = (1 << g.n) - 1
    best = None
    for tmask in range(1 << g.n):
        covered = tmask
        for v in bits(tmask):
            covered |= g.adj[v]
        weight = 2 * tmask.bit_count() + (full & ~covered).bit_count()
        if best is None or weight < best:
            best = weight
    return best


def naive_roman_labeling(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum Roman weight and a minimum labeling, by the definition.

    A labeling V -> {0, 1, 2} is valid when every 0-labeled vertex has a
    2-labeled neighbor; the weight is the label sum. Scans all 3^n
    labelings.
    """
    adj = g.adj
    best: int | None = None
    best_labels: tuple[int, ...] = ()
    for labels in product((0, 1, 2), repeat=g.n):
        weight = sum(labels)
        if best is not None and weight >= best:
            continue
        two_mask = 0
        for v, lab in enumerate(labels):
            if lab == 2:
                two_mask |= 1 << v
        if all(lab != 0 or adj[v] & two_mask for v, lab in enumerate(labels)):
            best, best_labels = weight, labels
    assert best is not None
    return best, best_labels


def naive_r_differentials(g: Graph) -> list[int]:
    """The differential in R(G) of every subset S of V, indexed by mask.

    Computed from G alone, without building R(G): the boundary of S in
    R(G) is its boundary in G plus one edge-vertex per edge with an end in
    S. The maximum is the differential of R(G) (some maximizer lies in V).
    The masks of 0..v are those of 0..v-1, then each of them plus v, which
    adds N(v) and the edges at v but those into the mask, so one pass per
    vertex builds N(S) and the number of edges with an end in S for every
    S, and the scan reaches order 20.
    """
    near, touched = [0], [0]
    for row in g.adj:
        d = row.bit_count()
        near += [b | row for b in near]
        touched += [t + d - (row & s).bit_count() for s, t in enumerate(touched)]
    return [
        (b & ~s).bit_count() + t - s.bit_count() for s, (b, t) in enumerate(zip(near, touched))
    ]


def naive_r_maximizers(g: Graph) -> tuple[int, list[int]]:
    """The differential of R(G) and every maximizer over all n + m vertices
    of R(G), as masks in ``build_r``'s layout (V = 0..n-1, then n + i for
    edge i of ``g.edges()``), in mask order.

    Computed from G alone. A set of R(G) is A + F, A inside V and F a set
    of edge-vertices, and with E_A the edges with an end in A

        diff_R(A + F) = |N(A) - A| + |E_A - F| + |ends(F) - N[A]| - |A| - |F|.

    Two exact cuts leave a scan small enough for every graph with n + m up
    to 22:

    * an edge-vertex at A, or one with both ends in N(A), reaches nothing
      outside N[A], so dropping it from F raises the value by 2 or by 1,
      whatever else F holds: no maximizer holds one, and F is made of
      edges with an end in C(A) = V - N[A] and none in A;
    * F adds at most |C(A)| to A's value with F empty, so an A whose value
      plus |C(A)| is below the largest value of a set inside V holds no
      maximizer.

    Every F of the edges left is scanned for every other A.
    """
    n, edges = g.n, g.edges()
    in_v = naive_r_differentials(g)
    best = floor = max(in_v)
    found = []
    for a, base in enumerate(in_v):
        closed = a
        for v in bits(a):
            closed |= g.adj[v]
        outside = g.full_mask & ~closed
        if base + outside.bit_count() < floor:
            continue
        free = [i for i, (x, y) in enumerate(edges) if (1 << x | 1 << y) & outside]
        for f in range(1 << len(free)):
            ends, s = 0, a
            for j in bits(f):
                x, y = edges[free[j]]
                ends |= 1 << x | 1 << y
                s |= 1 << n + free[j]
            d = base + (ends & outside).bit_count() - f.bit_count()
            if d > best:
                best, found = d, [s]
            elif d == best:
                found.append(s)
    return best, sorted(found)


def naive_p12(g: Graph) -> tuple[str, int]:
    """P12 by a scan of every subset of V: (status, qualifying covers).

    A vertex cover qualifies when it attains the differential of G; P12
    passes when every qualifying cover attains the differential of R(G).
    """
    edges = g.edges()
    diff_g = naive_differential(g)
    in_r = naive_r_differentials(g)
    diff_r = max(in_r)
    qualifying = 0
    for smask in range(1 << g.n):
        if not all(smask >> a & 1 or smask >> b & 1 for a, b in edges):
            continue
        b = 0
        for v in bits(smask):
            b |= g.adj[v]
        if (b & ~smask).bit_count() - smask.bit_count() != diff_g:
            continue
        qualifying += 1
        if in_r[smask] != diff_r:
            return "fail", qualifying
    return ("pass" if qualifying else "vacuous"), qualifying


def naive_canonical_form(g: Graph) -> str:
    """graph6 text of the relabeling with the least column-major upper-triangle
    code among every relabeling that lists the vertices by (degree, sorted
    neighbour degrees), largest first: a scan of the product of the
    permutations of each block. The 6-bit packing is written out here.
    """
    n = g.n
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
        code = "".join(str(adj[p[i]] >> p[j] & 1) for i, j in pairs)
        if best is None or code < best:
            best = code
    best += "0" * (-len(best) % 6)
    return chr(63 + n) + "".join(chr(63 + int(best[k : k + 6], 2)) for k in range(0, len(best), 6))


def random_graph(rng: Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_graphs(seed: int, count: int, nmin: int = 0, nmax: int = 10):
    """``count`` seeded G(n, p) graphs with n in nmin..nmax and p in 0.15..0.85."""
    rng = Random(seed)
    return [
        random_graph(rng, rng.randint(nmin, nmax), rng.uniform(0.15, 0.85))
        for _ in range(count)
    ]


def card_lex_order(masks) -> list[int]:
    """Masks sorted by cardinality, then by member tuple."""
    return sorted(masks, key=lambda m: (m.bit_count(), tuple(bits(m))))


def sparse_connected_graphs(seed: int, orders) -> list[Graph]:
    """One connected G(n, 3 / (n - 1)) graph per order, redrawn until connected."""
    rng = Random(seed)
    graphs = []
    for n in orders:
        g = random_graph(rng, n, 3 / (n - 1))
        while not g.is_connected:
            g = random_graph(rng, n, 3 / (n - 1))
        graphs.append(g)
    return graphs


def random_connected_graph(rng: Random, n: int) -> Graph:
    while True:
        g = random_graph(rng, n)
        if g.n >= 1 and g.is_connected:
            return g


def all_subsets(n: int):
    yield from range(1 << n)


def ksubsets(n: int, k: int):
    for combo in combinations(range(n), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        yield mask
