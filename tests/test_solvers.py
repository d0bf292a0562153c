import pytest
from random import Random

from gdiff.census import connected_census
from gdiff.codecs import write_graph6
from gdiff.core import BudgetExceededError, VertexSet, bits
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
    differential_exact,
    differential_of_r,
    domination_number,
    enclaveless_number,
    full_record,
    independence_number,
    is_dominating,
    is_vertex_cover,
    lambda_invariant,
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
    naive_roman,
    naive_roman_labeling,
    naive_vertex_cover,
    random_connected_graph,
    random_graph,
    random_graphs,
    sparse_connected_graphs,
)


# -- differential -------------------------------------------------------------


def test_differential_known_values():
    assert differential_exact(complete(5)).value == 3
    assert differential_exact(star(5)).value == 3  # K_{1,4}
    assert differential_exact(path(7)).value == 2


def test_differential_witness_is_valid():
    for g in (complete(5), path(7), cycle(6), kprime(2)):
        res = differential_exact(g)
        assert g.set_differential(res.witness) == res.value


def test_differential_pruned_equals_naive_census():
    for n in range(1, 7):
        for g in connected_census(n):
            assert differential_exact(g).value == naive_differential(g)


def test_differential_pruned_equals_naive_random():
    rng = Random(41)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7))
        assert differential_exact(g).value == naive_differential(g)


def test_differential_enumeration_complete():
    g = path(7)
    res = differential_exact(g, enumerate_all=True)
    expected = {VertexSet(7, m) for m in naive_differential_sets(g)}
    assert set(res.all_sets) == expected
    assert res.min_card == min(len(s) for s in expected)
    assert res.max_card == max(len(s) for s in expected)
    assert res.witness == res.all_sets[0]


def test_differential_enumeration_matches_naive_random():
    # one pass finds the value and every maximizer, in (cardinality, lex) order
    for g in random_graphs(seed=61, count=60, nmin=1):
        res = differential_exact(g, enumerate_all=True)
        expected = card_lex_order(naive_differential_sets(g))
        assert res.value == naive_differential(g)
        assert [s.mask for s in res.all_sets] == expected
        assert res.witness.mask == expected[0]
        assert differential_exact(g).witness == res.witness
        assert res.min_card == expected[0].bit_count()
        assert res.max_card == expected[-1].bit_count()


def test_differential_restricted_search():
    g = complete_bipartite(2, 4)
    # restricted to the larger part, the best is that whole part's boundary
    res = differential_exact(g, restrict=VertexSet(6, 0b111100))
    assert res.value == g.set_differential([2])  # singleton of Q: boundary is P
    assert res.witness.issubset(VertexSet(6, 0b111100))


def test_differential_rejects_empty_graph():
    with pytest.raises(ValueError):
        differential_exact(empty_graph(0))


def test_differential_budget():
    with pytest.raises(BudgetExceededError):
        differential_exact(complete(10), budget=5)


def test_differential_component_additivity():
    rng = Random(43)
    for _ in range(20):
        g1 = random_graph(rng, rng.randint(1, 4))
        g2 = random_graph(rng, rng.randint(1, 4))
        both = g1.disjoint_union(g2)
        assert (
            differential_exact(both).value
            == differential_exact(g1).value + differential_exact(g2).value
        )


# -- differential of the R-graph ----------------------------------------------


def test_differential_of_r_known_values():
    assert differential_of_r(complete(4)).value == 5
    assert differential_of_r(wheel(5)).value == 7
    assert differential_of_r(complete_bipartite(2, 3)).value == 7


def test_differential_of_r_modes_agree():
    # the scan of V with R(G)'s rows built from G is the V-restricted search
    # in R(G) itself: same value, witness and maximizers in the same order
    graphs = [g for n in range(3, 7) for g in connected_census(n)]
    rng = Random(101)
    graphs += [random_connected_graph(rng, rng.randint(3, 9)) for _ in range(40)]
    for g in graphs:
        rg = build_r(g)
        in_r = differential_exact(rg.total, restrict=rg.v_part, enumerate_all=True)
        vres = differential_of_r(g, enumerate_all=True)
        assert vres.value == in_r.value, write_graph6(g)
        assert vres.witness.members == in_r.witness.members
        assert [s.members for s in vres.all_sets] == [s.members for s in in_r.all_sets]


def test_r_differential_sets_match_the_exhaustive_search():
    # The differential sets of R(G) over all its subsets, derived from those
    # inside V, against every subset of R(G): the value, each set A inside V
    # with the sizes of the differential sets meeting V in A, the realized
    # sizes, and whether the differential set is unique (and which it is).
    graphs = [g for n in range(3, 8) for g in connected_census(n)]
    rng = Random(103)
    graphs += [random_connected_graph(rng, rng.randint(3, 8)) for _ in range(60)]
    checked = 0
    for g in graphs:
        if g.n + g.m > 22:
            continue
        checked += 1
        ctx = InstanceContext(g)
        vres = ctx.diff_r_v
        brute = differential_exact(build_r(g).total, enumerate_all=True)
        assert vres.value == brute.value, write_graph6(g)
        by_a = {}
        for s in brute.all_sets:
            by_a.setdefault(s.mask & g.full_mask, set()).add(len(s))
        sizes = {}
        for a in vres.all_sets:
            sizes[a.mask] = set(range(len(a), len(a) + len(g.exterior(a)) + 1))
        assert sizes == by_a, write_graph6(g)
        assert ctx.diff_r_sizes == {len(s) for s in brute.all_sets}
        unique = len(vres.all_sets) == 1 and ctx.diff_r_sizes == {vres.min_card}
        assert unique == (len(brute.all_sets) == 1), write_graph6(g)
        if unique:
            assert brute.all_sets[0].mask == vres.witness.mask
    assert checked > 950


def test_differential_of_r_guards():
    with pytest.raises(ValueError, match="require order >= 3"):
        differential_of_r(path(2))
    disconnected = complete(3).disjoint_union(complete(3))
    with pytest.raises(ValueError, match="require a connected graph"):
        differential_of_r(disconnected)
    # the full-space search still works on the same instance
    assert differential_exact(build_r(disconnected).total).value > 0


# -- domination / cover / independence -----------------------------------------


def test_domination_known_values():
    gamma, witness, _ = domination_number(star(5))
    assert gamma == 1 and witness.members == (0,)
    assert domination_number(cycle(6))[0] == 2
    assert domination_number(build_r(kprime(2)).total)[0] == 4


def test_domination_enumerate_min():
    gamma, witness, all_min = domination_number(cycle(4), enumerate_min=True)
    assert gamma == 2
    assert witness == all_min[0]
    assert all(is_dominating(cycle(4), s) for s in all_min)
    assert {s.members for s in all_min} == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_domination_matches_naive():
    for n in range(1, 6):
        for g in connected_census(n):
            assert domination_number(g)[0] == naive_domination(g)
    # orders 11-14 go past the census, where the 2^n oracle still answers fast
    graphs = random_graphs(seed=67, count=60, nmin=1)
    graphs += random_graphs(seed=71, count=20, nmin=11, nmax=14)
    for g in graphs:
        gamma, witness, all_min = domination_number(g, enumerate_min=True)
        expected = card_lex_order(naive_minimum_dominating_sets(g))
        assert gamma == naive_domination(g)
        assert [s.mask for s in all_min] == expected
        assert witness.mask == expected[0]
        assert domination_number(g)[1] == witness


def test_domination_restricted_matches_naive():
    rng = Random(79)
    graphs = random_graphs(seed=83, count=60, nmin=1)
    graphs += random_graphs(seed=73, count=20, nmin=11, nmax=14)
    for g in graphs:
        within = rng.getrandbits(g.n)
        covered = within
        for v in bits(within):
            covered |= g.adj[v]
        within |= g.full_mask & ~covered  # the undominated vertices dominate themselves
        gamma, witness, all_min = domination_number(
            g, restrict=VertexSet(g.n, within), enumerate_min=True
        )
        expected = card_lex_order(naive_minimum_dominating_sets(g, within))
        assert gamma == expected[0].bit_count()
        assert [s.mask for s in all_min] == expected
        assert witness.mask == expected[0]
        assert domination_number(g, restrict=bits(within))[:2] == (gamma, witness)


def test_domination_restricted_to_v_part_of_r():
    rng = Random(89)
    for _ in range(40):
        rg = build_r(random_connected_graph(rng, rng.randint(3, 7)))
        v_mask = rg.v_part.mask
        gamma_v, witness, _ = domination_number(rg.total, restrict=rg.v_part)
        expected = card_lex_order(naive_minimum_dominating_sets(rg.total, v_mask))
        assert (gamma_v, witness.mask) == (expected[0].bit_count(), expected[0])
        # the first V-inside minimum of the full search, when gamma is reached inside V
        gamma, _, all_min = domination_number(rg.total, enumerate_min=True)
        inside = [s for s in all_min if not s.mask & ~v_mask]
        assert gamma_v >= gamma
        if inside:
            assert gamma_v == gamma and witness == inside[0]


def test_domination_restrict_guards():
    with pytest.raises(ValueError):
        domination_number(path(3), restrict=[0])
    with pytest.raises(ValueError):
        domination_number(path(3), restrict=[])
    with pytest.raises(BudgetExceededError):
        domination_number(cycle(16), restrict=range(15), budget=5)
    assert domination_number(path(3), restrict=[0, 2])[0] == 2


def test_domination_of_cycles_and_paths():
    # gamma(C_n) = gamma(P_n) = ceil(n / 3) up to order 64, far past the
    # orders where a k-subset scan answers within this budget
    for n in range(1, 65):
        graphs = (path(n), cycle(n)) if n >= 3 else (path(n),)
        for g in graphs:
            gamma, witness, _ = domination_number(g, budget=2_000_000)
            assert gamma == len(witness) == -(-n // 3)
            assert is_dominating(g, witness)


def test_domination_spends_one_budget_on_every_pass(monkeypatch):
    # On cycle(10) the value pass ends on a minimum set that is not the
    # first one, so the witness pass searches too. A budget the value pass
    # uses up exactly runs out in the witness pass; one node less runs out
    # before it starts. The enumeration pass spends from the same budget.
    import gdiff.solvers as solvers

    entered = []
    first_minimum = solvers._DominatingSets.first_minimum

    def recording(self, best):
        entered.append(self.counter.nodes)
        return first_minimum(self, best)

    monkeypatch.setattr(solvers._DominatingSets, "first_minimum", recording)
    g = cycle(10)
    assert domination_number(g)[1].members == (0, 1, 4, 7)
    value_nodes = entered.pop()
    with pytest.raises(BudgetExceededError):
        domination_number(g, budget=value_nodes - 1)
    assert entered == []
    with pytest.raises(BudgetExceededError):
        domination_number(g, budget=value_nodes)
    assert entered == [value_nodes]
    with pytest.raises(BudgetExceededError):
        domination_number(g, enumerate_min=True, budget=value_nodes)


def test_domination_on_large_sparse_graphs():
    # The graphs of test_compute_on_large_sparse_graphs_ends_within_budget:
    # orders 32-56 answer at a budget of 2e6 nodes, where the k-subset scan
    # ran out, and order 64 answers or runs out of budget. Up to order 48
    # the witness is the first set of the enumeration.
    for g in sparse_connected_graphs(109, (24, 32, 40, 48, 56, 64))[1:]:
        try:
            gamma, witness, _ = domination_number(g, budget=2_000_000)
        except BudgetExceededError:
            assert g.n == 64
            continue
        assert len(witness) == gamma and is_dominating(g, witness)
        if g.n <= 48:
            _, first, all_min = domination_number(g, enumerate_min=True, budget=2_000_000)
            assert first == witness == all_min[0]
            assert all(len(s) == gamma and is_dominating(g, s) for s in all_min)


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


def test_enclaveless_and_domination_budget():
    # a budget of 5 nodes: cycle(16) needs 14, cycle(9) only 5
    for solver in (domination_number, enclaveless_number):
        with pytest.raises(BudgetExceededError):
            solver(cycle(16), budget=5)
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
    assert lambda_invariant(complete_bipartite(2, 4)) == 10
    assert lambda_invariant(kprime(2)) == 8
    assert lambda_invariant(path(7)) == 7


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
    assert domination_number(build_r(complete_bipartite(2, 3)).total)[0] == record.tau


def test_full_record_p7():
    record = full_record(path(7))
    assert record.diff == 2
    assert record.roman == 5
    assert record.lam == 7


def test_full_record_derived_fields_share_skips():
    record = full_record(wheel(6), budget=1)
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


def test_full_record_matches_separate_solvers():
    for g in (wheel(7), path(6), complete_bipartite(2, 4), kprime(2)):
        record = full_record(g)
        assert record.diff_r == differential_of_r(g).value
        assert record.mu == mu_invariant(g)[0]
        assert record.tau == naive_vertex_cover(g)
        assert record.psi == naive_enclaveless(g)
        assert record.lam == lambda_invariant(g)
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
    # diff_r and mu come from a scan of V, so full_record never builds R(G)
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
        gamma, dom, _ = domination_number(g)
        assert is_dominating(g, dom) and len(dom) == gamma
        tau, cover = vertex_cover_number(g)
        assert is_vertex_cover(g, cover) and len(cover) == tau
