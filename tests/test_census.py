import os
from itertools import permutations
from math import factorial
from random import Random

import networkx as nx
import pytest

from gdiff import census
from gdiff.census import (
    _least_labelings,
    _orbit_least_masks,
    canonical_form,
    connected_census,
)
from gdiff.codecs import parse_graph6, write_graph6
from gdiff.core import Graph
from gdiff.families import complete, complete_bipartite, cycle, path, star
from gdiff.propositions import run_census

from oracles import naive_canonical_form, random_graph, random_graphs


def test_census_counts_match_oracle():
    # connected isomorphism classes by order (OEIS A001349)
    for n, count in ((1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112), (7, 853)):
        assert len(connected_census(n)) == count


@pytest.mark.skipif(not os.environ.get("GDIFF_SLOW"), reason="set GDIFF_SLOW=1; order 8 takes about 3 s")
def test_census_counts_order8():
    assert len(connected_census(8)) == 11117


@pytest.mark.skipif(not os.environ.get("GDIFF_SLOW"), reason="set GDIFF_SLOW=1; about 7 s, 4 s once order 8 is generated")
def test_census_order8_full_space_checks_answer():
    # P03, P06 and P09 read the differential of R(G) over its full subset
    # space; on the census up to order 8 none of them is skipped or fails.
    summary, _ = run_census(8, ["P03", "P06", "P09"])
    for pid, counts in summary.counts.items():
        assert "skipped" not in counts and "fail" not in counts, (pid, counts)


def test_census_graphs_are_connected_and_ordered():
    for n in range(1, 6):
        for g in connected_census(n):
            assert g.n == n
            assert g.is_connected


def test_census_matches_networkx_atlas():
    # The atlas lists every graph of order <= 7, independently of gdiff.
    atlas: dict[int, set[str]] = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n >= 1 and nx.is_connected(h):
            atlas[n].add(canonical_form(Graph.from_edges(n, h.edges())))
    for n in range(1, 8):
        forms = [canonical_form(g) for g in connected_census(n)]
        assert len(set(forms)) == len(forms)
        assert set(forms) == atlas[n]


def _automorphisms(g: Graph) -> int:
    edges = set(g.edges())
    return sum(
        all((min(p[a], p[b]), max(p[a], p[b])) in edges for a, b in edges)
        for p in permutations(range(g.n))
    )


def test_census_labeled_count():
    # Each class stands for n!/|Aut| labeled graphs; the labeled connected
    # graphs number 1, 1, 4, 38, 728, 26704 (OEIS A001187).
    for n, labeled in ((1, 1), (2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)):
        assert sum(factorial(n) // _automorphisms(g) for g in connected_census(n)) == labeled


def test_census_representatives_are_canonical_and_sorted():
    # Each representative's form is its own graph6, and a level is in
    # ascending order of it.
    for n in range(1, 8):
        forms = [canonical_form(g) for g in connected_census(n)]
        assert forms == [write_graph6(g) for g in connected_census(n)]
        assert forms == sorted(forms)


def test_census_range_guard():
    with pytest.raises(ValueError):
        connected_census(0)
    with pytest.raises(ValueError):
        connected_census(9)


def test_census_is_deterministic():
    connected_census.cache_clear()
    first = [write_graph6(g) for g in connected_census(5)]
    connected_census.cache_clear()
    second = [write_graph6(g) for g in connected_census(5)]
    assert first == second


def _kept_extensions(monkeypatch, nmax: int) -> list[Graph]:
    """The extensions that censuses of orders 3..nmax, in turn, canonicalize."""
    kept = []

    def recording(g):
        kept.append(g)
        return canonical_form(g)

    monkeypatch.setattr(census, "canonical_form", recording)
    connected_census.cache_clear()
    try:
        for n in range(3, nmax + 1):
            connected_census(n)
    finally:
        connected_census.cache_clear()
    return kept


def test_census_builds_each_level_once(monkeypatch):
    # Level n extends the cached level n - 1, so a census of orders 3..6
    # looks at the orbit-least extensions of each of orders 1..5 once, and
    # canonicalizes the 144 of them whose new vertex no other vertex beats
    # (388 extensions in all).
    assert len(_kept_extensions(monkeypatch, 6)) == 144


def test_canonical_form_examples():
    assert canonical_form(cycle(4)) == canonical_form(cycle(4).relabel([2, 0, 3, 1]))
    assert canonical_form(path(4)) != canonical_form(star(4))
    assert canonical_form(complete(3)) == canonical_form(cycle(3))


def test_canonical_form_invariant_under_relabeling():
    rng = Random(71)
    for n in range(2, 7):
        for g in connected_census(n):
            form = canonical_form(g)
            for _ in range(50):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == form


def test_canonical_form_separates_census_classes():
    forms = [canonical_form(g) for g in connected_census(5)]
    assert len(set(forms)) == len(forms)


def test_canonical_form_agrees_with_networkx_isomorphism():
    rng = Random(73)
    graphs = [random_graph(rng, 5) for _ in range(60)]
    for a in graphs[:20]:
        for b in graphs[:20]:
            ga = nx.Graph()
            ga.add_nodes_from(range(a.n))
            ga.add_edges_from(a.edges())
            gb = nx.Graph()
            gb.add_nodes_from(range(b.n))
            gb.add_edges_from(b.edges())
            assert (canonical_form(a) == canonical_form(b)) == nx.is_isomorphic(ga, gb)


def test_canonical_form_size_guard():
    with pytest.raises(ValueError):
        canonical_form(complete(9))


def test_graph6_roundtrip_on_census():
    for n in range(1, 6):
        for g in connected_census(n):
            text = write_graph6(g)
            assert parse_graph6(text) == g
            assert write_graph6(parse_graph6(text)) == text


def test_canonical_form_matches_oracle_on_census():
    for n in range(1, 8):
        for g in connected_census(n):
            assert canonical_form(g) == naive_canonical_form(g)


def test_canonical_form_matches_oracle_on_random_graphs():
    # connected or not, order 0..8
    for g in random_graphs(seed=83, count=300, nmin=0, nmax=8):
        assert canonical_form(g) == naive_canonical_form(g)


def _circulant(n: int, jumps) -> Graph:
    return Graph.from_edges(n, [(v, (v + d) % n) for v in range(n) for d in jumps])


def test_canonical_form_matches_oracle_on_symmetric_graphs():
    # Large profile blocks and large automorphism groups: K8, K_{4,4},
    # C8, C8(1,2) and the cube Q3 (vertices adjacent when one bit differs).
    cube = Graph.from_edges(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3) if v < v ^ 1 << b])
    rng = Random(89)
    for g in (complete(8), complete_bipartite(4, 4), cycle(8), _circulant(8, (1, 2)), cube):
        form = naive_canonical_form(g)
        assert canonical_form(g) == form
        for _ in range(5):
            perm = list(range(8))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == form


def test_least_labelings_of_a_representative_are_its_automorphisms():
    # A representative is canonically labeled, so the identity reaches its
    # least code and the labelings that reach it are exactly Aut(rep).
    for n in range(1, 7):
        for g in connected_census(n):
            _, labelings = _least_labelings(g, True)
            assert tuple(range(n)) in labelings
            assert len(set(labelings)) == len(labelings) == _automorphisms(g)
            edges = set(g.edges())
            for p in labelings:
                assert {(min(p[a], p[b]), max(p[a], p[b])) for a, b in edges} == edges


def _extension(g: Graph, nbrs: int) -> Graph:
    """g plus a new vertex joined to the members of ``nbrs``."""
    new_bit = 1 << g.n
    rows = [row | new_bit if nbrs >> v & 1 else row for v, row in enumerate(g.adj)]
    return Graph(g.n + 1, tuple(rows) + (nbrs,))


def test_orbit_least_masks_reach_every_extension_class():
    # Built from every neighbourhood mask through the oracle, each level up
    # to order 7 equals the census level, which extends by orbit-least masks.
    for n in range(1, 7):
        level: set[str] = set()
        for g in connected_census(n):
            forms = {nbrs: naive_canonical_form(_extension(g, nbrs)) for nbrs in range(1, 1 << n)}
            least = _orbit_least_masks(g)
            assert {forms[nbrs] for nbrs in least} == set(forms.values())
            level.update(forms.values())
        assert sorted(level) == [write_graph6(g) for g in connected_census(n + 1)]


def _profile(h: nx.Graph, v: int) -> tuple[int, list[int]]:
    return h.degree(v), sorted((h.degree(u) for u in h[v]), reverse=True)


def test_kept_extensions_lose_no_class(monkeypatch):
    # The extensions the deletion rule keeps reach the same classes as all
    # orbit-least extensions of the level below.
    kept = _kept_extensions(monkeypatch, 6)
    for n in range(2, 7):
        everything = {
            canonical_form(_extension(g, nbrs))
            for g in connected_census(n - 1)
            for nbrs in _orbit_least_masks(g)
        }
        assert {canonical_form(h) for h in kept if h.n == n} == everything


def test_kept_extensions_add_a_greatest_non_cut_vertex(monkeypatch):
    # An orbit-least extension is kept exactly when its new vertex, the last,
    # has the greatest (degree, neighbour degrees) profile among the vertices
    # whose removal leaves the graph connected; networkx finds the cut vertices.
    kept = {(h.n, h.adj) for h in _kept_extensions(monkeypatch, 7)}
    for n in range(2, 8):
        for g in connected_census(n - 1):
            for nbrs in _orbit_least_masks(g):
                h = _extension(g, nbrs)
                nxh = nx.Graph(h.edges())
                non_cut = set(range(n)) - set(nx.articulation_points(nxh))
                assert n - 1 in non_cut
                greatest = max(_profile(nxh, v) for v in non_cut)
                assert ((n, h.adj) in kept) == (_profile(nxh, n - 1) == greatest)
