from random import Random

from gdiff.census import canonical_form, connected_census
from gdiff.core import Graph
from gdiff.families import complete, cycle, empty_graph, path
from gdiff.roperator import build_r, validate_r

from oracles import random_graph


def test_build_r_counts():
    r = build_r(complete(3))
    assert r.n == 6
    assert r.m == 9


def test_single_edge_becomes_triangle():
    assert canonical_form(build_r(path(2))) == canonical_form(complete(3))


def test_edgeless_base_is_fixed_point():
    g = empty_graph(4)
    assert build_r(g) == g
    assert validate_r(g, build_r(g)) == []


def test_u_vertices_see_their_edge():
    # vertex n + i of R(G) is the edge-vertex of the i-th edge of g.edges()
    for g in (cycle(5), complete(3), path(3)):
        r = build_r(g)
        for i, (a, b) in enumerate(g.edges()):
            assert r.adj[g.n + i] == 1 << a | 1 << b
    assert build_r(complete(3)).adj[3] == 0b11


def test_validate_r_correct_by_construction():
    assert validate_r(complete(4), build_r(complete(4))) == []
    r = build_r(cycle(5))
    assert validate_r(cycle(5), r) == []
    assert r.is_connected


def test_validate_r_census():
    for n in range(3, 7):
        for g in connected_census(n):
            assert validate_r(g, build_r(g)) == []
    # R(h) of another graph h of the same order and size is not R(g)
    g, h = [g for g in connected_census(5) if g.m == 5][:2]
    assert validate_r(g, build_r(h)) != []


def test_validate_r_census_order7():
    for g in connected_census(7):
        assert validate_r(g, build_r(g)) == []


def test_validate_r_detects_bad_u_degree():
    # graft an extra edge onto the first u-vertex so its degree becomes 3
    rows = list(build_r(path(3)).adj)
    u = 3
    rows[u] |= 1 << 2
    rows[2] |= 1 << u
    assert "u-degree" in validate_r(path(3), Graph(5, tuple(rows)))


def test_validate_r_detects_another_base_on_v():
    # C_6 and two triangles share order, size and degrees, so only the
    # edge-vertices, the subgraph on V and connectivity tell R(C_6) apart.
    triangles = complete(3).disjoint_union(complete(3))
    assert validate_r(cycle(6), build_r(triangles)) == [
        "u-degree", "induced-subgraph", "connectivity"
    ]


def test_validate_r_detects_wrong_counts():
    # wrong base: K3 has one edge more than P3
    violations = validate_r(complete(3), build_r(path(3)))
    assert {"vertex-count", "edge-count", "u-degree"} <= set(violations)


def test_degree_doubling():
    g = cycle(6)
    r = build_r(g)
    for v in range(g.n):
        assert r.degree(v) == 2 * g.degree(v)


def test_edge_count_identity_random():
    rng = Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        r = build_r(g)
        assert r.m == 3 * g.m
        assert r.n == g.n + g.m


def test_build_r_beyond_input_capacity():
    # CAPACITY bounds input only; R(K_11) has 11 + 55 = 66 vertices.
    r = build_r(complete(11))
    assert r.n == 66
    assert validate_r(complete(11), r) == []
