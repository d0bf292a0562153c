import pytest
from random import Random

from gdiff.census import canonical_form, connected_census
from gdiff.core import Graph
from gdiff.families import complete, cycle, empty_graph, path
from gdiff.roperator import RGraph, build_r, validate_r

from oracles import random_graph


def test_build_r_counts():
    rg = build_r(complete(3))
    assert rg.total.n == 6
    assert rg.total.m == 9
    assert rg.v_part.members == (0, 1, 2)
    assert rg.u_part.members == (3, 4, 5)


def test_single_edge_becomes_triangle():
    rg = build_r(path(2))
    assert canonical_form(rg.total) == canonical_form(complete(3))


def test_edgeless_base_is_fixed_point():
    rg = build_r(empty_graph(4))
    assert rg.total == empty_graph(4)
    assert validate_r(rg) == []


def test_u_vertex_indexing():
    rg = build_r(complete(3))
    assert rg.u_vertex_of(0, 1) == 3
    assert rg.u_vertex_of(0, 2) == 4
    assert rg.u_vertex_of(1, 2) == 5
    assert rg.u_vertex_of(2, 1) == rg.u_vertex_of(1, 2)
    with pytest.raises(ValueError):
        build_r(path(3)).u_vertex_of(0, 2)


def test_u_vertices_see_their_edge():
    rg = build_r(cycle(5))
    for i, (a, b) in enumerate(rg.edge_map):
        u = rg.base.n + i
        assert rg.total.open_neighborhood(u).members == (a, b)
        assert rg.base.has_edge(a, b)


def test_validate_r_correct_by_construction():
    assert validate_r(build_r(complete(4))) == []
    rg = build_r(cycle(5))
    assert validate_r(rg) == []
    assert rg.total.is_connected


def test_validate_r_census():
    for n in range(3, 7):
        for g in connected_census(n):
            assert validate_r(build_r(g)) == []


def test_validate_r_census_order7():
    for g in connected_census(7):
        assert validate_r(build_r(g)) == []


def test_validate_r_detects_bad_u_degree():
    rg = build_r(path(3))
    # graft an extra edge onto the first u-vertex so its degree becomes 3
    rows = list(rg.total.adj)
    u = 3
    rows[u] |= 1 << 2
    rows[2] |= 1 << u
    doctored = RGraph(
        base=rg.base,
        total=Graph(rg.total.n, tuple(rows)),
        v_part=rg.v_part,
        u_part=rg.u_part,
        edge_map=rg.edge_map,
    )
    assert "u-degree" in validate_r(doctored)


def test_validate_r_detects_wrong_counts():
    rg = build_r(path(3))
    doctored = RGraph(
        base=complete(3),  # wrong base: different edges
        total=rg.total,
        v_part=rg.v_part,
        u_part=rg.u_part,
        edge_map=rg.edge_map,
    )
    assert validate_r(doctored) != []


def test_degree_doubling():
    g = cycle(6)
    rg = build_r(g)
    for v in range(g.n):
        assert rg.total.degree(v) == 2 * g.degree(v)


def test_edge_count_identity_random():
    rng = Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        rg = build_r(g)
        assert rg.total.m == 3 * g.m
        assert rg.total.n == g.n + g.m


def test_build_r_beyond_input_capacity():
    # CAPACITY bounds input only; R(K_11) has 11 + 55 = 66 vertices.
    rg = build_r(complete(11))
    assert rg.total.n == 66
    assert validate_r(rg) == []
