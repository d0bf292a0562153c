import pytest

from gdiff.census import canonical_form, connected_census
from gdiff.core import CAPACITY, CapacityError, Graph
from gdiff.families import (
    FamilySpec,
    complete,
    complete_bipartite,
    complete_bipartite_parts,
    cycle,
    empty_graph,
    generate,
    is_complete,
    is_cycle,
    is_path,
    kprime,
    kprime_order,
    path,
    star,
    star_center,
    star_plus_edge,
    star_plus_edge_center,
    wheel,
    wheel_apex,
)


def test_wheel4_is_k4():
    assert canonical_form(wheel(4)) == canonical_form(complete(4))


def test_kprime_labeling():
    g = kprime(2)
    assert g.n == 6 and g.m == 10
    # P = {0,1} complete to Q = {2..5}; matching {2,4}, {3,5}
    for i in (0, 1):
        assert g.open_neighborhood(i).members == (2, 3, 4, 5)
    assert g.has_edge(2, 4) and g.has_edge(3, 5)
    assert not g.has_edge(2, 3) and not g.has_edge(4, 5)


def test_star_plus_edge():
    g = star_plus_edge(4)
    assert g.m == 4
    assert g.degree(0) == 3
    assert g.has_edge(1, 2)


def test_edge_count_arithmetic():
    for n in range(2, 9):
        assert complete(n).m == n * (n - 1) // 2
    for n in range(4, 9):
        assert wheel(n).m == 2 * (n - 1)
    for r in range(2, 5):
        assert kprime(r).m == 2 * r * r + r
    for n in range(3, 8):
        assert cycle(n).m == n
        assert star(n).m == n - 1


def test_generate_dispatch():
    assert generate(FamilySpec("wheel", n=5)) == wheel(5)
    assert generate(FamilySpec("complete_bipartite", p=2, q=3)) == complete_bipartite(2, 3)
    assert generate(FamilySpec("kprime", r=2)) == kprime(2)
    assert generate(FamilySpec("empty", n=3)) == empty_graph(3)
    assert FamilySpec("path", n=4).build() == path(4)


def test_generate_refuses_orders_beyond_capacity(monkeypatch):
    # CAPACITY bounds input only: generate checks the spec's order before it
    # builds anything, so a huge spec is refused at once.
    assert generate(FamilySpec("complete", n=CAPACITY)).n == CAPACITY

    def refuse(*args):
        raise AssertionError("generate built a graph")

    monkeypatch.setattr(Graph, "from_edges", refuse)
    for spec in (
        FamilySpec("complete", n=CAPACITY + 1),
        FamilySpec("complete_bipartite", p=30, q=35),
        FamilySpec("kprime", r=22),
    ):
        with pytest.raises(CapacityError):
            generate(spec)


def test_parameter_validation():
    with pytest.raises(ValueError):
        wheel(3)
    with pytest.raises(ValueError):
        kprime(1)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        star_plus_edge(2)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        generate(FamilySpec("mystery", n=3))
    with pytest.raises(ValueError):
        generate(FamilySpec("kprime", n=3))  # r missing


def test_detectors_positive():
    assert is_complete(complete(5))
    assert is_cycle(cycle(6))
    assert is_path(path(5)) and is_path(path(1))
    assert star_center(star(6)) == 0
    assert star_plus_edge_center(star_plus_edge(5)) == 0
    assert star_plus_edge_center(complete(3)) is not None  # K_3 is the n=3 case
    assert wheel_apex(wheel(6)) == 5
    assert kprime_order(kprime(3)) == 3
    parts = complete_bipartite_parts(complete_bipartite(2, 4))
    assert parts is not None
    assert parts[0].members == (0, 1) and parts[1].members == (2, 3, 4, 5)


def test_detectors_negative():
    assert not is_complete(path(3))
    assert not is_cycle(path(4))
    assert not is_path(cycle(4))
    assert star_center(path(4)) is None
    assert star_plus_edge_center(cycle(4)) is None
    assert wheel_apex(complete(5)) is None  # removing any vertex leaves K_4, not a cycle
    assert kprime_order(complete_bipartite(2, 4)) is None
    assert complete_bipartite_parts(cycle(5)) is None  # odd cycle
    assert complete_bipartite_parts(path(4)) is None  # bipartite but not complete


def test_detectors_survive_relabeling():
    perm = [3, 0, 4, 1, 5, 2]
    g = kprime(2).relabel(perm)
    assert kprime_order(g) == 2
    h = complete_bipartite(2, 3).relabel([4, 2, 0, 1, 3])
    parts = complete_bipartite_parts(h)
    assert parts is not None and len(parts[0]) == 2


def test_star_detectors_match_canonical_form_census():
    # P08 recognizes stars and stars plus an edge by these detectors alone
    for n in range(3, 7):
        star_form = canonical_form(star(n))
        spe_form = canonical_form(star_plus_edge(n))
        for g in connected_census(n):
            form = canonical_form(g)
            assert (star_center(g) is not None) == (form == star_form)
            assert (star_plus_edge_center(g) is not None) == (form == spe_form)
