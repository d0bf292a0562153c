import functools
import os
import pytest
from hypothesis import given, settings, strategies as st
from pathlib import Path
from random import Random

from gdiff.census import connected_census
from gdiff.codecs import parse_graph6, write_graph6
from gdiff.core import BudgetExceededError, Graph, VertexSet, bits
from gdiff.families import (
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    kprime,
    path,
    star,
    wheel,
)
from gdiff.roperator import build_r
from gdiff.solvers import (
    InstanceContext,
    _r_maximizers,
    differential_exact,
    differential_of_r,
    domination_number,
    enclaveless_number,
    full_record,
    independence_number,
    is_dominating,
    is_vertex_cover,
    mu_invariant,
    roman_domination_number,
    vertex_cover_number,
)

from oracles import (
    card_lex_order,
    naive_differential,
    naive_differential_sets,
    naive_domination,
    naive_enclaveless,
    naive_independence,
    naive_minimum_dominating_sets,
    naive_r_differentials,
    naive_r_maximizers,
    naive_roman,
    naive_roman_labeling,
    naive_vertex_cover,
    random_connected_graph,
    random_graph,
    random_graphs,
    sparse_connected_graphs,
)

FIXTURES = Path(__file__).parent / "fixtures"


# -- differential -------------------------------------------------------------


def first_of_largest(ordered):
    """The first mask of the largest cardinality in a card_lex_order list."""
    return next(m for m in ordered if m.bit_count() == ordered[-1].bit_count())


def test_differential_known_values():
    assert differential_exact(complete(5)).value == 3
    assert differential_exact(star(5)).value == 3  # K_{1,4}
    assert differential_exact(path(7)).value == 2


def test_differential_witness_is_valid():
    for g in (complete(5), path(7), cycle(6), kprime(2)):
        res = differential_exact(g)
        assert g.set_differential(res.witness) == res.value


def test_differential_pruned_equals_naive_census():
    # The search, with its 2-packing rule, against the full scan
    # on the census to order 7: the value and the witness, the first
    # maximizer of the largest cardinality.
    for n in range(1, 8):
        for g in connected_census(n):
            res = differential_exact(g)
            assert res.value == naive_differential(g)
            top = first_of_largest(card_lex_order(naive_differential_sets(g)))
            assert res.witness.mask == top, write_graph6(g)


def _recorded_counters(monkeypatch) -> list:
    """The node counters the solvers make from now on, in order."""
    import gdiff.solvers as solvers

    made = []

    class Recording(solvers._NodeCounter):
        __slots__ = ()

        def __init__(self, solver, budget):
            super().__init__(solver, budget)
            made.append(self)

    monkeypatch.setattr(solvers, "_NodeCounter", Recording)
    return made


def test_set_cover_units_on_the_census(monkeypatch):
    # The set-cover kernel keeps its branch order and so its units: summed
    # over the census to order 7, gamma(G) and gamma(R(G)) spend what they
    # spent before the kernel took its dominator rows from the caller, and
    # diff(G) what it spent once the 2-packing rule cut its search (56,938
    # units before the rule).
    made = _recorded_counters(monkeypatch)
    spent = {"diff": 0, "gamma": 0, "gamma_r": 0}
    for n in range(1, 8):
        for g in connected_census(n):
            searches = {
                "diff": lambda: differential_exact(g),
                "gamma": lambda: domination_number(g),
                "gamma_r": lambda: InstanceContext(g).gamma_r,
            }
            for name, search in searches.items():
                if name == "gamma_r" and n < 3:
                    continue
                made.clear()
                search()
                spent[name] += made[-1].nodes
    assert (spent["gamma"], spent["gamma_r"]) == (17_595, 48_200)
    assert spent["diff"] == 55_396


def test_choice_search_units_on_the_census(monkeypatch):
    # The choice search, the walk and the closure add their units to the
    # counter and call spend only past the budget; summed over the census
    # to order 7 they spend what they spent when every node called it: the
    # list of R(G)'s maximizers, the value search of diff(R(G)) and alpha.
    made = _recorded_counters(monkeypatch)
    spent = {"list": 0, "value": 0, "alpha": 0}
    for n in range(1, 8):
        for g in connected_census(n):
            made.clear()
            independence_number(g)
            spent["alpha"] += made[-1].nodes
            if n < 3:
                continue
            for key, search in (("list", _r_maximizers), ("value", differential_of_r)):
                made.clear()
                search(g)
                spent[key] += made[-1].nodes
    assert spent == {"list": 74_074, "value": 28_643, "alpha": 6_883}


def test_differential_pruned_equals_naive_random():
    rng = Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7))
        assert differential_exact(g).value == naive_differential(g)


def test_differential_enumeration_complete():
    # Every maximizer the full scan lists attains the search's value, and
    # the witness is the first of them of the largest cardinality.
    g = path(7)
    res = differential_exact(g)
    expected = card_lex_order(naive_differential_sets(g))
    assert {g.set_differential(VertexSet(7, m)) for m in expected} == {res.value}
    assert res.witness.mask == first_of_largest(expected)


def test_differential_enumeration_matches_naive_random():
    # The value and the witness against the full scan's maximizers in
    # (cardinality, lex) order.
    for g in random_graphs(seed=61, count=60, nmin=1):
        res = differential_exact(g)
        expected = card_lex_order(naive_differential_sets(g))
        assert res.value == naive_differential(g)
        assert res.witness.mask == first_of_largest(expected)


def test_differential_rejects_empty_graph():
    with pytest.raises(ValueError):
        differential_exact(empty_graph(0))


def test_differential_budget():
    with pytest.raises(BudgetExceededError):
        differential_exact(complete(10), budget=5)


def test_differential_component_additivity():
    # diff, gamma and alpha each add up over the two parts of a disjoint
    # union. diff(R(G)) needs a connected base, so it has no such test.
    rng = Random(43)
    searches = {
        "diff": lambda g: differential_exact(g).value,
        "gamma": lambda g: domination_number(g)[0],
        "alpha": lambda g: independence_number(g)[0],
    }
    for _ in range(20):
        g1 = random_graph(rng, rng.randint(1, 4))
        g2 = random_graph(rng, rng.randint(1, 4))
        both = g1.disjoint_union(g2)
        for name, search in searches.items():
            assert search(both) == search(g1) + search(g2), (name, write_graph6(both))


# -- differential of the R-graph ----------------------------------------------


def test_differential_of_r_known_values():
    assert differential_of_r(complete(4)).value == 5
    assert differential_of_r(wheel(5)).value == 7
    assert differential_of_r(complete_bipartite(2, 3)).value == 7


def test_differential_of_r_modes_agree():
    # The list of _r_maximizers, read from the choice search's optima and
    # their closure, against the differential in R(G) of every subset of V,
    # computed from G by the oracle: the same value, witness and maximizers
    # in cardinality-then-lexicographic order, and differential_of_r gives
    # the list's value and witness.
    for g, in_r in r_oracle_cases():
        check_r_maximizers(g, in_r)


def check_r_maximizers(g, in_r):
    value = max(in_r)
    expected = card_lex_order(m for m, d in enumerate(in_r) if d == value)
    res, masks = _r_maximizers(g)
    assert masks == expected, write_graph6(g)
    assert (res.value, res.witness.mask) == (value, first_of_largest(expected))
    lone = differential_of_r(g)
    assert (lone.value, lone.witness) == (value, res.witness), write_graph6(g)


def test_differential_searches_match_the_oracles_beyond_order_10():
    # Both searches against the full scans on sparse and dense connected
    # graphs of order 11-13: value and witness, the first maximizer of the
    # largest cardinality in cardinality-then-lexicographic order, and for
    # diff(R(G)) the list of every maximizer in that order.
    rng = Random(113)
    graphs = []
    while len(graphs) < 6:
        g = random_graph(rng, rng.randint(11, 13), rng.uniform(0.2, 0.5))
        if g.is_connected:
            graphs.append(g)
    for g in graphs:
        expected = card_lex_order(naive_differential_sets(g))
        res = differential_exact(g)
        assert res.value == naive_differential(g), write_graph6(g)
        assert res.witness.mask == first_of_largest(expected)
        check_r_maximizers(g, naive_r_differentials(g))


@functools.cache
def r_oracle_cases():
    """The census of orders 3-7 and 200 seeded random connected graphs of
    order 3-12, each with the differential in R(G) of every subset of V."""
    graphs = [g for n in range(3, 8) for g in connected_census(n)]
    rng = Random(127)
    graphs += [random_connected_graph(rng, rng.randint(3, 12)) for _ in range(200)]
    return [(g, naive_r_differentials(g)) for g in graphs]


def test_differential_gives_the_first_largest_maximizer():
    # On G, against the full scans: the value and the witness, the first
    # maximizer of the largest cardinality in cardinality-then-lexicographic
    # order. test_differential_of_r_modes_agree and
    # test_largest_r_search_matches_the_oracle check the list and the value
    # search of diff(R(G)) on the same graphs.
    for g, _ in r_oracle_cases():
        value = naive_differential(g)
        top = first_of_largest(card_lex_order(naive_differential_sets(g)))
        res = differential_exact(g)
        assert (res.value, res.witness.mask) == (value, top), write_graph6(g)


def test_largest_r_search_matches_the_oracle():
    # The weighted choice search behind differential_of_r
    # against the scan of every subset of V: the value, the witness (the
    # first maximizer of the largest cardinality) and mu. Its T = V - S is
    # 1-dependent and holds no edge with an end of degree 1 (the lemma in
    # the solvers docstring).
    for g, in_r in r_oracle_cases():
        value = max(in_r)
        top = first_of_largest(card_lex_order(m for m, d in enumerate(in_r) if d == value))
        res = differential_of_r(g)
        assert (res.value, res.witness.mask) == (value, top), write_graph6(g)
        assert InstanceContext(g).mu == top.bit_count()
        t = g.full_mask & ~top
        assert g.is_k_dependent(VertexSet(g.n, t), 1)
        assert all(g.degree(v) > 1 for v in bits(t) if g.adj[v] & t), write_graph6(g)


def test_largest_r_searches_agree_beyond_the_oracle():
    # The weighted choice search against the scan of every subset of V on
    # sparse and denser connected graphs of order 13-20, beyond the orders
    # of r_oracle_cases: the same value and witness.
    rng = Random(149)
    graphs = sparse_connected_graphs(151, range(13, 21))
    while len(graphs) < 16:
        g = random_graph(rng, rng.randint(13, 16), rng.uniform(0.2, 0.4))
        if g.is_connected:
            graphs.append(g)
    for g in graphs:
        in_r = naive_r_differentials(g)
        value = max(in_r)
        top = first_of_largest(card_lex_order(m for m, d in enumerate(in_r) if d == value))
        res = differential_of_r(g)
        assert (res.value, res.witness.mask) == (value, top), write_graph6(g)


def test_r_maximizers_agree_beyond_the_oracle():
    # The walk of _r_maximizers reads its exact memo for
    # parts of at most SMALL_PART vertices and the choice search above
    # that. Against the scan of every subset of V on sparse and denser
    # connected graphs of order 13-20, where the walk crosses SMALL_PART:
    # the same value, witness and maximizers.
    rng = Random(157)
    graphs = sparse_connected_graphs(163, range(13, 21))
    while len(graphs) < 20:
        g = random_graph(rng, rng.randint(13, 20), rng.uniform(0.2, 0.4))
        if g.is_connected:
            graphs.append(g)
    for g in graphs:
        check_r_maximizers(g, naive_r_differentials(g))


def test_gamma_r_inside_v_matches_the_search_over_r():
    # gamma(R(G)) from the search over the sets inside V alone, against
    # domination_number over all n + m vertices of R(G) and against tau(G)
    # = n - alpha, from the independence search: equal by the V lemma in
    # the solvers docstring. The witness lies inside V and dominates R(G).
    for g, _ in r_oracle_cases():
        check_gamma_r(g)


def check_gamma_r(g):
    ctx = InstanceContext(g)
    gamma, witness = ctx.gamma_r
    r = build_r(g)
    assert gamma == domination_number(r)[0] == ctx.tau[0], write_graph6(g)
    assert (witness.n, len(witness), witness.mask >> g.n) == (r.n, gamma, 0)
    assert is_dominating(r, witness)


@pytest.mark.skipif(not os.environ.get("GDIFF_SLOW"), reason="set GDIFF_SLOW=1; takes about 4 s")
def test_r_searches_on_the_order8_census():
    # Both checks above on the 11,117 connected graphs of order 8.
    for g in connected_census(8):
        check_r_maximizers(g, naive_r_differentials(g))
        check_gamma_r(g)


# -- the set-cover kernel at order 64 and under relabeling ----------------------


def relabeled(g, perm):
    """``g`` with each vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


@functools.cache
def original(g6):
    """The context of the graph with graph6 ``g6``, which searches each
    quantity once for all the relabelings of that graph."""
    return InstanceContext(parse_graph6(g6))


def check_kernel_relabeled(g, perm, choice=True):
    # The set-cover kernel's three callers keep their values on the
    # relabeled graph, and each witness attains its value there; with
    # ``choice``, so do the choice search behind diff(R(G)) and the
    # independence search.
    h = relabeled(g, perm)
    want = original(write_graph6(g))
    ctx = InstanceContext(h)
    res = ctx.diff()
    assert res.value == want.diff().value, (write_graph6(g), perm)
    assert h.set_differential(res.witness) == res.value
    found, dominating = ctx.gamma
    assert found == want.gamma[0] == len(dominating)
    assert is_dominating(h, dominating)
    found, cover = ctx.gamma_r
    r = build_r(h)
    assert found == want.gamma_r[0] == len(cover)
    assert is_dominating(r, cover)
    if not choice:
        return
    res = ctx.diff_r()
    assert res.value == want.diff_r().value
    assert r.set_differential(VertexSet(r.n, res.witness.mask)) == res.value
    found, independent = ctx.alpha
    assert found == want.alpha[0] == len(independent)
    assert h.is_k_dependent(independent, 0)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_kernel_answers_are_invariant_under_relabeling(data):
    kind = data.draw(st.sampled_from([cycle, path, wheel]))
    g = kind(32)
    check_kernel_relabeled(g, data.draw(st.permutations(range(g.n))))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_kernel_answers_on_random_graphs_are_invariant_under_relabeling(data):
    # Dense G(n, 1/2) and sparse G(n, 3 / (n - 1)) connected graphs.
    n = data.draw(st.integers(3, 24))
    seed = data.draw(st.integers(0, 2**32 - 1))
    if data.draw(st.booleans()):
        g = random_connected_graph(Random(seed), n)
    else:
        g = sparse_connected_graphs(seed, [n])[0]
    check_kernel_relabeled(g, data.draw(st.permutations(range(n))))


@pytest.mark.skipif(not os.environ.get("GDIFF_SLOW"), reason="set GDIFF_SLOW=1; takes about 6 s")
@settings(max_examples=3, deadline=None, database=None, derandomize=True)
@given(perm=st.permutations(range(64)))
def test_kernel_relabeling_on_the_order64_fixture(perm):
    # The set-cover searches alone: diff(R(G)) takes about 5 s on this graph.
    g = parse_graph6((FIXTURES / "gnp64_domination.g6").read_text().strip())
    check_kernel_relabeled(g, perm, choice=False)


@pytest.mark.skipif(not os.environ.get("GDIFF_SLOW"), reason="set GDIFF_SLOW=1; takes about 15 s")
def test_differential_answers_order64_graphs():
    # The 2-packing rule keeps each G(64, p) search within half the default
    # budget (G(64, 0.1) with seed 1 spent 9.92 M units without it), and it
    # answers the sparse order-64 graphs of seeds 1 and 2, where the search
    # without it ran out. The G(64, p) values are the ones the search found
    # without the rule.
    values = iter([42, 42, 43, 48, 47, 48, 50, 50, 52, 54, 54, 54])
    for p in (0.1, 0.15, 0.2, 0.3):
        for seed in (1, 2, 3):
            g = random_graph(Random(seed), 64, p)
            res = differential_exact(g, budget=5 * 10**6)
            assert res.value == next(values), (p, seed)
            assert g.set_differential(res.witness) == res.value
    for seed in (1, 2):
        g = sparse_connected_graphs(seed, [64])[0]
        res = differential_exact(g)
        assert res.value == 30, seed
        assert g.set_differential(res.witness) == 30


def test_mu_matches_the_oracle():
    # mu and its witness, from the largest-maximizer search alone, against
    # the differential in R(G) of every subset of V
    rng = Random(131)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(3, 10))
        in_r = naive_r_differentials(g)
        value = max(in_r)
        mu = max(m.bit_count() for m, d in enumerate(in_r) if d == value)
        first = card_lex_order(m for m, d in enumerate(in_r) if d == value and m.bit_count() == mu)
        res = InstanceContext(g).diff_r()
        assert (res.value, res.witness) == (value, VertexSet(g.n, first[0])), write_graph6(g)
        assert mu_invariant(g) == (mu, VertexSet(g.n, first[0]))


def test_diff_r_reuses_the_enumeration(monkeypatch):
    # Once the list of maximizers over V has answered, diff_r takes the
    # list's value and witness and starts no search of its own. Where the
    # list ran out of budget, diff_r runs its own search once and answers;
    # the list's error stays cached.
    import gdiff.solvers as solvers

    def refuse(*args, **kwargs):
        raise AssertionError("a second search ran")

    g = wheel(7)
    alone = InstanceContext(g).diff_r()
    listed = _r_maximizers(g)[0]
    # The two spend different units, so a result tells which one ran.
    assert listed.search_space_size != alone.search_space_size
    ctx = InstanceContext(g)
    failed = InstanceContext(cycle(16), budget=1000)
    assert ctx.diff_r_partitions
    with pytest.raises(BudgetExceededError):
        failed.diff_r_partitions
    answered = failed.diff_r()
    assert (answered.value, len(answered.witness)) == (16, 8)
    monkeypatch.setattr(solvers, "differential_of_r", refuse)
    monkeypatch.setattr(solvers, "_r_maximizers", refuse)
    assert ctx.diff_r() == listed
    assert (listed.value, listed.witness) == (alone.value, alone.witness)
    assert failed.diff_r() is answered
    with pytest.raises(BudgetExceededError):
        failed.diff_r_partitions
    assert ctx.mu == len(ctx.diff_r_partitions[-1][0])


def test_r_differential_sets_match_the_exhaustive_search():
    # The differential sets of R(G) over all its subsets, derived from those
    # inside V, against every maximizer over all of R(G)'s vertices
    # (naive_r_maximizers): the value, each set A inside V with the sizes
    # of the differential sets meeting V in A, the realized sizes, and
    # whether the differential set is unique (and which it is).
    graphs = [g for n in range(3, 8) for g in connected_census(n)]
    rng = Random(103)
    graphs += [random_connected_graph(rng, rng.randint(3, 8)) for _ in range(60)]
    checked = 0
    for g in graphs:
        if g.n + g.m > 22:
            continue
        checked += 1
        ctx = InstanceContext(g)
        sets = [a for a, _, _ in ctx.diff_r_partitions]
        vres = ctx.diff_r()
        value, maximizers = naive_r_maximizers(g)
        assert vres.value == value, write_graph6(g)
        by_a = {}
        for s in maximizers:
            by_a.setdefault(s & g.full_mask, set()).add(s.bit_count())
        sizes = {}
        for a in sets:
            sizes[a.mask] = set(range(len(a), len(a) + len(g.exterior(a)) + 1))
        assert sizes == by_a, write_graph6(g)
        assert ctx.diff_r_sizes == {s.bit_count() for s in maximizers}
        unique = len(sets) == 1 and ctx.diff_r_sizes == {len(vres.witness)}
        assert unique == (len(maximizers) == 1), write_graph6(g)
        if unique:
            assert maximizers[0] == vres.witness.mask
    assert checked > 950


def test_r_maximizer_oracle_matches_the_full_scan():
    # naive_r_maximizers' two cuts and its bound against a scan of every
    # subset of R(G) on the connected census graphs of order 3-7 with
    # n + m <= 12: the same value and the same maximizers.
    graphs = [g for n in range(3, 8) for g in connected_census(n) if g.n + g.m <= 12]
    assert len(graphs) == 44
    for g in graphs:
        r = build_r(g)
        value, maximizers = naive_r_maximizers(g)
        assert value == naive_differential(r), write_graph6(g)
        assert maximizers == naive_differential_sets(r), write_graph6(g)


def test_differential_of_r_budget_bounds_the_work():
    # Each node is charged the vertices it examines, not 1, so a budget
    # bounds the time: listing the maximizers of R(C64), of which there
    # are millions, runs out of 10^6 units in well under a second, while
    # R(K'_21)'s one maximizer is listed within 10^4. The value search
    # over R(C64) visits about a thousand nodes, but each is charged for its
    # passes over up to the 64 vertices of C64, so it runs out of 10^4
    # units and answers in 10^6.
    with pytest.raises(BudgetExceededError, match="^differential_of_r search exceeded"):
        _r_maximizers(cycle(64), budget=10**6)
    assert len(_r_maximizers(kprime(21), budget=10**4)[1]) == 1
    with pytest.raises(BudgetExceededError):
        differential_of_r(cycle(64), budget=10**4)
    assert differential_of_r(cycle(64), budget=10**6).value == 64


def test_differential_of_r_guards():
    disconnected = complete(3).disjoint_union(complete(3))
    for search in (differential_of_r, _r_maximizers):
        with pytest.raises(ValueError, match="require order >= 3"):
            search(path(2))
        with pytest.raises(ValueError, match="require a connected graph"):
            search(disconnected)
    ctx = InstanceContext(cycle(5))
    assert (ctx.diff().value, ctx.diff_r().value) == (1, 5)
    # the full-space search still works on the same instance
    assert differential_exact(build_r(disconnected)).value > 0


# -- domination / cover / independence -----------------------------------------


def test_domination_known_values():
    gamma, witness = domination_number(star(5))
    assert gamma == 1 and witness.members == (0,)
    assert domination_number(cycle(6))[0] == 2
    assert domination_number(build_r(kprime(2)))[0] == 4


def test_domination_matches_naive():
    graphs = [g for n in range(1, 6) for g in connected_census(n)]
    # orders 11-14 go past the census, where the 2^n oracle still answers fast
    graphs += random_graphs(seed=67, count=60, nmin=1)
    graphs += random_graphs(seed=71, count=20, nmin=11, nmax=14)
    for g in graphs:
        gamma, witness = domination_number(g)
        assert gamma == naive_domination(g)
        # the oracle's list holds exactly the dominating sets of gamma members
        assert witness.mask in naive_minimum_dominating_sets(g)


def test_minimum_dominating_sets_of_r_inside_v_are_minimum_covers():
    # A set inside V dominates R(G) iff it covers every edge of G, so the
    # minimum dominating sets of R(G) inside V have tau(G) members and the
    # vertex cover witness is one of them: why P11's tau = gamma(R) holds.
    rng = Random(89)
    graphs = [g for n in range(3, 7) for g in connected_census(n)]
    graphs += [random_connected_graph(rng, rng.randint(3, 10)) for _ in range(60)]
    for g in graphs:
        inside = naive_minimum_dominating_sets(build_r(g), g.full_mask)
        tau, cover = vertex_cover_number(g)
        assert {m.bit_count() for m in inside} == {tau}
        assert cover.mask in inside


def test_domination_budget_guard():
    with pytest.raises(BudgetExceededError, match="^domination_number search exceeded"):
        domination_number(build_r(cycle(9)), budget=5)


def test_domination_of_cycles_and_paths():
    # gamma(C_n) = gamma(P_n) = ceil(n / 3) up to order 64, far past the
    # orders where a k-subset scan answers within this budget
    for n in range(1, 65):
        graphs = (path(n), cycle(n)) if n >= 3 else (path(n),)
        for g in graphs:
            gamma, witness = domination_number(g, budget=2_000_000)
            assert gamma == len(witness) == -(-n // 3)
            assert is_dominating(g, witness)


def test_domination_budget_is_the_nodes_of_one_search():
    # One search answers, and each node is charged its work: one unit plus
    # one per allowed and per undominated vertex. So a budget of exactly the
    # units an unbounded run spends answers with the same set, and one unit
    # less runs out having spent them all.
    g = build_r(cycle(9))
    answer = domination_number(g)
    assert answer == (5, VertexSet(g.n, 0b11010101))
    assert domination_number(g, budget=282) == answer
    with pytest.raises(BudgetExceededError, match="budget of 281 after 282 units$"):
        domination_number(g, budget=281)


def test_domination_of_r_on_a_dense_random_graph_is_bounded():
    # R(G) of a connected G(64, 0.2), 64 + 383 vertices: a minimum
    # dominating set needs a long search, and since its nodes are charged
    # their work a budget of 10^6 units stops it within seconds.
    g = parse_graph6((FIXTURES / "gnp64_domination.g6").read_text().strip())
    assert (g.n, g.is_connected) == (64, True)
    with pytest.raises(BudgetExceededError, match="^domination_number search exceeded"):
        domination_number(build_r(g), budget=10**6)


def test_domination_on_large_sparse_graphs():
    # The graphs of test_compute_on_large_sparse_graphs_ends_within_budget:
    # orders 32-56 answer at a budget of 2e6 nodes, where the k-subset scan
    # ran out, and order 64 answers or runs out of budget.
    for g in sparse_connected_graphs(109, (24, 32, 40, 48, 56, 64))[1:]:
        try:
            gamma, witness = domination_number(g, budget=2_000_000)
        except BudgetExceededError:
            assert g.n == 64
            continue
        assert len(witness) == gamma and is_dominating(g, witness)


def test_vertex_cover_known_values():
    for p, q in ((1, 2), (2, 3), (3, 4)):
        tau, witness = vertex_cover_number(complete_bipartite(p, q))
        assert tau == p
        assert is_vertex_cover(complete_bipartite(p, q), witness)
    assert vertex_cover_number(cycle(5))[0] == 3
    assert vertex_cover_number(empty_graph(6))[0] == 0


def test_vertex_cover_matches_naive():
    for n in range(1, 6):
        for g in connected_census(n):
            assert vertex_cover_number(g)[0] == naive_vertex_cover(g)
    for g in random_graphs(seed=71, count=60):
        tau, cover = vertex_cover_number(g)
        assert tau == naive_vertex_cover(g)
        assert len(cover) == tau and is_vertex_cover(g, cover)
        # derived from alpha: the witness is the complement of its witness
        assert cover == independence_number(g)[1].complement()


def test_independence_known_values():
    assert independence_number(complete_bipartite(2, 4))[0] == 4
    assert independence_number(path(7))[0] == 4
    for n in (2, 4, 6):
        assert independence_number(complete(n))[0] == 1


def test_independence_witness_and_oracle():
    rng = Random(47)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 8))
        alpha, witness = independence_number(g)
        assert alpha == naive_independence(g)
        assert len(witness) == alpha
        assert all(not g.adj[v] & witness.mask for v in witness)


def test_independence_beyond_order_12():
    # Parts of more than SMALL_PART (12) vertices are bounded and split:
    # alpha and the lexicographically smallest maximum set against the full
    # scan on random graphs of order 13-15.
    rng = Random(139)
    for _ in range(12):
        g = random_graph(rng, rng.randint(13, 15), rng.uniform(0.15, 0.5))
        sets = [m for m in range(1 << g.n) if all(not g.adj[v] & m for v in bits(m))]
        alpha = max(m.bit_count() for m in sets)
        first = min((m for m in sets if m.bit_count() == alpha), key=lambda m: tuple(bits(m)))
        assert independence_number(g) == (alpha, VertexSet(g.n, first)), write_graph6(g)


def test_gallai_identity_census():
    # alpha + tau = n on the oracles; the solver derives tau from it
    for n in range(1, 7):
        for g in connected_census(n):
            tau = naive_vertex_cover(g)
            assert naive_independence(g) + tau == g.n
            assert vertex_cover_number(g)[0] == tau


def test_slater_identity_census():
    # psi = n - gamma on the oracles; the solver derives psi from it
    for n in range(1, 7):
        for g in connected_census(n):
            psi = naive_enclaveless(g)
            assert naive_domination(g) + psi == g.n
            assert enclaveless_number(g)[0] == psi


def test_independence_and_vertex_cover_budget():
    g = cycle(9)
    for solver in (independence_number, vertex_cover_number):
        with pytest.raises(BudgetExceededError):
            solver(g, budget=1)
    assert independence_number(g, budget=1000)[0] == 4
    assert vertex_cover_number(g, budget=1000)[0] == 5


def test_independence_takes_low_degree_vertices_without_branching():
    # A vertex with at most one candidate neighbour is taken outright, so
    # the sparse and tight families answer in about one node per vertex.
    alpha, witness = independence_number(cycle(64), budget=100)
    assert (alpha, witness.members) == (32, tuple(range(0, 64, 2)))
    alpha, witness = independence_number(kprime(21), budget=100)
    assert (alpha, witness.members) == (21, tuple(range(21)))


def test_enclaveless_and_domination_budget():
    # a budget of 5 units: R(C_9) needs 282, cycle(9) 19
    for solver in (domination_number, enclaveless_number):
        with pytest.raises(BudgetExceededError):
            solver(build_r(cycle(9)), budget=5)
    assert enclaveless_number(cycle(9), budget=1000)[0] == 9 - 3


def test_order_zero_derived_quantities():
    g = empty_graph(0)
    assert vertex_cover_number(g) == (0, VertexSet(0))
    assert enclaveless_number(g) == (0, VertexSet(0))
    record = full_record(g)
    assert record.tau == 0 and record.psi == 0 and record.alpha == 0
    assert record.gamma is None and "gamma" in record.skipped
    assert "psi" not in record.skipped and "tau" not in record.skipped
    assert record.roman is None and record.skipped["roman"] == record.skipped["diff"]


def test_is_dominating_is_vertex_cover():
    c4 = cycle(4)
    assert is_dominating(c4, [0, 2]) and is_vertex_cover(c4, [0, 2])
    assert not is_dominating(path(5), [0])
    assert not is_vertex_cover(complete(3), [0])


# -- Roman domination -----------------------------------------------------------


def test_roman_known_values():
    for n in (2, 3, 5):
        assert roman_domination_number(complete(n))[0] == 2
    assert roman_domination_number(cycle(5))[0] == 4
    assert roman_domination_number(path(7))[0] == 5


def assert_roman_witness(g, weight, labels):
    assert len(labels) == g.n and set(labels) <= {0, 1, 2}
    assert sum(labels) == weight
    two_mask = sum(1 << v for v, lab in enumerate(labels) if lab == 2)
    for v, lab in enumerate(labels):
        if lab == 0:
            assert g.adj[v] & two_mask


def test_roman_witness_is_valid():
    for g in (cycle(5), path(7), star(6)):
        assert_roman_witness(g, *roman_domination_number(g))


def test_roman_matches_independent_oracle():
    for n in range(1, 6):
        for g in connected_census(n):
            assert roman_domination_number(g)[0] == naive_roman(g)
    for g in random_graphs(seed=97, count=60, nmin=1):
        weight, labels = roman_domination_number(g)
        assert weight == naive_roman(g)
        assert_roman_witness(g, weight, labels)


def test_roman_differential_identity_census():
    # the theorem against the definition: neither side uses the Roman solver
    for n in range(3, 6):
        for g in connected_census(n):
            assert differential_exact(g).value + naive_roman_labeling(g)[0] == g.n


def test_roman_differential_identity_census_order7():
    for g in connected_census(7):
        assert differential_exact(g).value + naive_roman_labeling(g)[0] == g.n


def test_roman_guards():
    with pytest.raises(ValueError):
        roman_domination_number(empty_graph(0))
    # no order cap: the value comes from the differential search
    assert roman_domination_number(empty_graph(13))[0] == 13
    g = path(16)
    weight, labels = roman_domination_number(g)
    assert weight == naive_roman(g)
    assert_roman_witness(g, weight, labels)


# -- enclaveless, lambda, mu -----------------------------------------------------


def test_enclaveless_known_values():
    assert enclaveless_number(complete(3))[0] == 2
    assert enclaveless_number(path(4))[0] == 2
    assert enclaveless_number(star(5))[0] == 4


def test_enclaveless_matches_naive_and_domination_bound():
    for n in range(1, 6):
        for g in connected_census(n):
            psi, witness = enclaveless_number(g)
            assert psi == naive_enclaveless(g)
            assert len(g.boundary(witness)) == psi
    for g in random_graphs(seed=73, count=60):
        psi, witness = enclaveless_number(g)
        assert psi == naive_enclaveless(g)
        assert len(g.boundary(witness)) == psi
        # the witness is a minimum dominating set, whose boundary is V - D
        if g.n:
            assert witness == domination_number(g)[1]


def test_lambda_known_values():
    assert InstanceContext(complete_bipartite(2, 4)).lam == 10
    assert InstanceContext(kprime(2)).lam == 8
    assert InstanceContext(path(7)).lam == 7


def test_mu_known_values():
    mu, witness = mu_invariant(complete_bipartite(2, 4))
    assert mu == 2 and witness.members == (0, 1)  # the smaller part
    assert mu_invariant(kprime(2))[0] == 2
    assert mu_invariant(complete(3))[0] == 1


def test_mu_guards():
    with pytest.raises(ValueError):
        mu_invariant(path(2))
    with pytest.raises(ValueError):
        mu_invariant(complete(2).disjoint_union(complete(2)))


# -- full record -------------------------------------------------------------


def test_full_record_k4():
    record = full_record(complete(4))
    assert record.n == 4 and record.m == 6
    assert record.diff == 2
    assert record.diff_r == 5
    assert record.gamma == 1
    assert record.tau == 3
    assert record.alpha == 1
    assert record.roman == 2
    assert record.lam == 6 - 4 + 2
    assert record.skipped == {}


def test_full_record_k23():
    record = full_record(complete_bipartite(2, 3))
    assert record.tau == 2
    assert record.diff_r == 7
    # cover/domination duality: gamma of the R-graph equals tau
    assert domination_number(build_r(complete_bipartite(2, 3)))[0] == record.tau


def test_full_record_p7():
    record = full_record(path(7))
    assert record.diff == 2
    assert record.roman == 5
    assert record.lam == 7


def test_full_record_derived_fields_share_skips():
    # an order-7 census graph on which all nine searched or derived fields skip
    record = full_record(parse_graph6("F{H?_"), budget=1)
    assert len(record.skipped) == 9
    for derived, source in (
        ("tau", "alpha"),
        ("lambda", "alpha"),
        ("psi", "gamma"),
        ("mu", "diff_r"),
        ("roman", "diff"),
    ):
        assert "budget" in record.skipped[derived]
        assert record.skipped[derived] == record.skipped[source]
    assert record.tau is record.lam is record.psi is record.mu is record.roman is None


def test_full_record_roman_beyond_order_12():
    g = path(16)
    record = full_record(g)
    assert record.roman == g.n - record.diff == naive_roman(g)
    assert "roman" not in record.skipped


def test_full_record_answers_the_64_vertex_families():
    # The largest-maximizer search over R(G) answers diff_r and mu at the
    # default budget on the families where the Roman search over V ran out
    # of 10^7 units. Each value is m - n plus the best weight: 2 per
    # vertex of I and 3 per edge of M (32 vertices on C64; 31 vertices and
    # one edge on P64; one edge on K64; 30 vertices and one edge on the rim
    # of W64; the 42 large-side vertices of K_{21,42}; the 21 matching
    # edges of K'_21).
    families = (
        (cycle(64), 64, 32),
        (path(64), 64, 31),
        (complete(64), 1955, 62),
        (wheel(64), 125, 32),
        (complete_bipartite(21, 42), 903, 21),
        (kprime(21), 903, 21),
    )
    for g, diff_r, mu in families:
        record = full_record(g)
        assert "diff_r" not in record.skipped and "mu" not in record.skipped
        assert (record.diff_r, record.mu) == (diff_r, mu), write_graph6(g)
        assert record.lam <= diff_r <= record.lam + (g.n - mu) // 2


def test_full_record_matches_separate_solvers():
    for g in (wheel(7), path(6), complete_bipartite(2, 4), kprime(2)):
        record = full_record(g)
        assert record.diff_r == differential_of_r(g).value
        assert record.mu == mu_invariant(g)[0]
        assert record.tau == naive_vertex_cover(g)
        assert record.psi == naive_enclaveless(g)
        assert record.lam == InstanceContext(g).lam
    # every field of the shared-cache record against the oracles
    rng = Random(89)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(1, 10))
        record = full_record(g)
        assert record.diff == naive_differential(g)
        assert record.gamma == naive_domination(g)
        assert record.alpha == naive_independence(g)
        assert record.tau == naive_vertex_cover(g)
        assert record.psi == naive_enclaveless(g)
        assert record.roman == naive_roman(g)
        assert record.lam == g.m - g.n + 2 * naive_independence(g)
        if g.n < 3:
            assert record.diff_r is record.mu is None
            assert set(record.skipped) == {"diff_r", "mu"}
            continue
        in_r = naive_r_differentials(g)
        assert record.diff_r == max(in_r)
        assert record.mu == max(m.bit_count() for m, d in enumerate(in_r) if d == record.diff_r)
        assert record.skipped == {}


def test_full_record_answers_c32_and_w64_at_the_default_budget():
    # Enumerating the maximizers of R(C_32) or R(W_64) runs out of the
    # default budget; the largest-maximizer search does not. W_64 takes
    # P10's wheel form 2n - 3. The witness is rechecked on R(G) itself.
    for g, diff_r, mu in ((cycle(32), 32, 16), (wheel(64), 2 * 64 - 3, 32)):
        record = full_record(g)
        assert (record.diff_r, record.mu, record.skipped) == (diff_r, mu, {})
        res = InstanceContext(g).diff_r()
        value, top = res.value, res.witness
        r = build_r(g)
        assert (value, len(top)) == (diff_r, mu)
        assert r.set_differential(VertexSet(r.n, top.mask)) == diff_r


def test_full_record_skips():
    record = full_record(empty_graph(4))
    assert record.diff_r is None and record.mu is None
    assert "connected" in record.skipped["diff_r"]
    # R(G) would have order 72, but only the connectivity reason applies
    record = full_record(complete(8).disjoint_union(complete(8)))
    assert record.skipped["mu"] == record.skipped["diff_r"] == (
        "R-graph invariants require a connected graph"
    )
    record = full_record(path(2))
    assert "order >= 3" in record.skipped["diff_r"]
    d = record.to_dict()
    assert d["lambda"] == record.lam
    assert "diff_r" in d["skipped"]


def test_full_record_builds_no_r_graph(monkeypatch):
    # diff_r and mu come from a search over V, so full_record never builds R(G)
    # (order 66 and 78 here); P10's closed form for K_n is
    # n(n-1)/2 - n + 3, attained at n - 3 and n - 2 vertices.
    for n, diff_r in ((11, 47), (12, 57)):
        record = full_record(complete(n))
        assert (record.diff_r, record.mu, record.skipped) == (diff_r, n - 2, {})
    import gdiff.solvers as solvers

    expected = full_record(wheel(7))

    def refuse(g):
        raise AssertionError("full_record built R(G)")

    monkeypatch.setattr(solvers, "build_r", refuse)
    assert full_record(wheel(7)) == expected


def test_witnesses_recheck_on_random_graphs():
    rng = Random(53)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 6))
        res = differential_exact(g)
        assert g.set_differential(res.witness) == res.value
        gamma, dom = domination_number(g)
        assert is_dominating(g, dom) and len(dom) == gamma
        tau, cover = vertex_cover_number(g)
        assert is_vertex_cover(g, cover) and len(cover) == tau
