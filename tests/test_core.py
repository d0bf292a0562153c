import copy
import pickle
import pytest
from random import Random

from gdiff.core import Graph, VertexSet, bits
from gdiff.families import complete, complete_bipartite, cycle, empty_graph, path, wheel
from gdiff.propositions import run_all
from gdiff.solvers import differential_exact, full_record

from oracles import naive_differential, random_graph


def test_boundary():
    assert complete(4).boundary([0]).members == (1, 2, 3)
    assert cycle(5).boundary([0, 1]).members == (2, 4)
    g = cycle(6)
    assert g.boundary(range(6)).members == ()


def test_exterior():
    assert path(5).exterior([0]).members == (2, 3, 4)
    assert complete(4).exterior([0]).members == ()
    assert cycle(6).exterior([0]).members == (2, 3, 4)


def test_partition_law_random():
    rng = Random(7)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        smask = rng.getrandbits(n)
        s = VertexSet(n, smask)
        b = g.boundary(s)
        c = g.exterior(s)
        assert s.mask & b.mask == 0
        assert s.mask & c.mask == 0
        assert b.mask & c.mask == 0
        assert s.mask | b.mask | c.mask == g.full_mask


def test_set_differential_examples():
    for n in (2, 3, 5, 7):
        assert complete(n).set_differential([0]) == n - 2
    g = path(7)
    assert g.set_differential([]) == 0
    assert g.set_differential([1, 5]) == 2  # boundary is {0, 2, 4, 6}
    assert g.boundary([1, 5]).members == (0, 2, 4, 6)


def test_set_differential_extremes():
    for g in (path(5), complete(4), empty_graph(3)):
        assert g.set_differential([]) == 0
        assert g.set_differential(range(g.n)) == -g.n


def test_induced_subgraph():
    k5 = complete(5)
    sub, index = k5.induced_subgraph([1, 2, 4])
    assert sub == complete(3)
    assert index == {1: 0, 2: 1, 4: 2}
    sub, _ = cycle(6).induced_subgraph([0, 1, 2])
    assert sub == path(3)
    sub, _ = complete(4).induced_subgraph([])
    assert sub.n == 0


def test_degree_stats():
    stats = wheel(5).degree_stats()
    assert stats.degrees[4] == 4  # apex is the last index
    assert (stats.minimum, stats.maximum) == (3, 4)
    stats = complete_bipartite(2, 3).degree_stats()
    assert sorted(stats.degrees) == [2, 2, 2, 3, 3]
    assert (stats.minimum, stats.maximum) == (2, 3)
    assert path(2).degree_stats().minimum == path(2).degree_stats().maximum == 1
    empty_stats = empty_graph(0).degree_stats()
    assert empty_stats.minimum is None and empty_stats.maximum is None


def test_connectivity():
    ok, comps = path(5).connectivity()
    assert ok and len(comps) == 1
    ok, comps = empty_graph(3).connectivity()
    assert not ok and len(comps) == 3
    g = complete(3).disjoint_union(path(2))
    ok, comps = g.connectivity()
    assert not ok and len(comps) == 2
    assert comps[0].members == (0, 1, 2)
    assert comps[1].members == (3, 4)
    assert not empty_graph(0).connectivity()[0]


def test_is_k_dependent():
    g = cycle(4)
    assert g.is_k_dependent([0, 2], 0)  # independent set
    assert not g.is_k_dependent(range(4), 1)
    assert path(4).is_k_dependent([0, 1], 1)


def test_component_additivity_bruteforce():
    # differential of a disjoint union is the sum over the components
    rng = Random(17)
    for _ in range(30):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        g1 = random_graph(rng, n1)
        g2 = random_graph(rng, n2)
        both = g1.disjoint_union(g2)
        assert naive_differential(both) == naive_differential(g1) + naive_differential(g2)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(IndexError):
        path(3).degree(3)


def test_invalid_rows_and_masks_raise_the_same_messages():
    cases = [
        (lambda: Graph(-1, ()), "vertex count must be non-negative"),
        (lambda: Graph(2, (0b10,)), "adjacency rows must match vertex count"),
        (lambda: Graph(2, (0b100, 0b00)), "neighbor of vertex 0 out of range"),
        (lambda: Graph(2, (0b00, -1)), "neighbor of vertex 1 out of range"),
        (lambda: Graph(1, (0b1,)), "self-loop at vertex 0"),
        (lambda: Graph(2, (0b10, 0b00)), "asymmetric adjacency between 0 and 1"),
        (lambda: VertexSet(-1), "negative ambient order -1"),
        (lambda: VertexSet(3, 0b1000), "vertex index out of range for ambient order"),
        (lambda: VertexSet(3, -1), "vertex index out of range for ambient order"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_graphs_and_vertex_sets_are_immutable_values():
    g, h = cycle(5), Graph.from_edges(5, [(4, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
    assert g is not h and g == h and hash(g) == hash(h)
    assert g != path(5) and g != cycle(6) and g != (5, g.adj)
    assert len({g, h, path(5)}) == 2
    a, b = VertexSet(5, 0b101), VertexSet.of(5, [2, 0])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != VertexSet(6, 0b101) and a != (5, 0b101)
    assert len({a, b, VertexSet(5, 0b11)}) == 2
    for value in (g, a):
        with pytest.raises(AttributeError):
            value.n = 9
        assert value.n == 5


def test_values_round_trip_through_pickle_and_deepcopy():
    g = wheel(6)
    assert g.m == 10  # cached on the instance before it is copied
    values = [
        g,
        VertexSet.of(6, [1, 3]),
        run_all(g, ["P09"])[0],
        differential_exact(g, "all"),
        full_record(g),
    ]
    for value in values:
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value) and copied == value
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert vars(copied)["m"] == 10 and hash(copied) == hash(g)
        with pytest.raises(AttributeError):
            copied.n = 7


def test_small_orders_are_legal():
    g0 = empty_graph(0)
    assert g0.n == 0 and g0.m == 0
    g1 = empty_graph(1)
    assert g1.degree_stats().minimum == 0
    assert g1.is_connected


def test_vertexset_algebra():
    a = VertexSet.of(6, [0, 2, 4])
    assert a.complement().members == (1, 3, 5)
    assert len(a) == 3 and 2 in a and 1 not in a
    assert list(bits(a.mask)) == [0, 2, 4]
    with pytest.raises(ValueError):
        VertexSet.of(3, [5])


def test_edges_are_listed_once_per_graph():
    g = Graph.from_edges(4, [(2, 3), (0, 2), (1, 0)])
    assert g.edges() == ((0, 1), (0, 2), (2, 3))
    assert g.edges() is g.edges()


def test_relabel_preserves_structure():
    rng = Random(23)
    g = random_graph(rng, 6)
    perm = list(range(6))
    rng.shuffle(perm)
    h = g.relabel(perm)
    assert h.m == g.m
    for a, b in g.edges():
        assert h.adj[perm[a]] >> perm[b] & 1
