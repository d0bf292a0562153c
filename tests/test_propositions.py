import pytest
from random import Random

from gdiff.census import connected_census
from gdiff.codecs import parse_graph6, write_graph6
from gdiff.core import Graph, VertexSet
from gdiff.families import (
    complete,
    complete_bipartite,
    cycle,
    kprime,
    path,
    star,
    star_plus_edge,
    wheel,
)
from gdiff.propositions import (
    PROPOSITIONS,
    run_all,
    run_census,
    run_proposition,
)
from gdiff.roperator import RGraph, build_r
from gdiff.solvers import (
    differential_exact,
    differential_of_r,
    domination_number,
    mu_invariant,
)

from oracles import naive_p12, random_graph, random_graphs


def test_registry_is_complete():
    assert list(PROPOSITIONS) == [f"P{i:02d}" for i in range(1, 19)]


def test_p11_on_k23():
    report = run_proposition("P11", complete_bipartite(2, 3))
    assert report.status == "pass"
    assert "tau = gamma(R) = 2" in report.note


def test_p15_on_k24_lower_bound_tight():
    report = run_proposition("P15", complete_bipartite(2, 4))
    assert report.status == "pass"
    assert "10 <= 10" in report.note


def test_p10_on_w6():
    report = run_proposition("P10", wheel(6))
    assert report.status == "pass"
    assert differential_of_r(wheel(6)).value == 9


def test_p16_families():
    assert run_proposition("P16", complete_bipartite(2, 4)).status == "pass"
    assert run_proposition("P16", kprime(2)).status == "pass"
    assert run_proposition("P16", kprime(3)).status == "pass"
    assert run_proposition("P16", path(5)).status == "vacuous"


def test_p05_vacuous_on_min_degree_one():
    report = run_proposition("P05", path(4))
    assert report.status == "vacuous"


def test_p09_on_bipartite_families():
    for p, q in ((1, 3), (2, 3), (2, 4), (1, 8)):
        report = run_proposition("P09", complete_bipartite(p, q))
        assert report.status == "pass", (p, q, report)
        assert report.witness_sets == (tuple(range(p)),)


def test_p09_skipped_beyond_budget_size():
    # R(K_{4,5}) has order 29; the scan of V answers it, and only a budget
    # too small for that scan skips it.
    report = run_proposition("P09", complete_bipartite(4, 5))
    assert (report.status, report.witness_sets) == ("pass", ((0, 1, 2, 3),))
    report = run_proposition("P09", complete_bipartite(4, 5), budget=20)
    assert report.status == "skipped"
    assert "budget" in report.note


def test_full_space_checks_answer_beyond_the_exhaustive_search():
    # R(C_16) has 32 vertices; the exhaustive search over it runs past this
    # budget, the scan of V does not.
    for pid in ("P03", "P06"):
        assert run_proposition(pid, cycle(16), budget=2_000_000).status == "pass"


def test_full_space_fail_paths_run_the_exhaustive_search(monkeypatch):
    # When the sets inside V do not confirm P03, P06 or P09, the exhaustive
    # search over R(G) decides and lists the sets. Here a stand-in V search
    # finds only the empty set, with differential 0 instead of 7.
    import gdiff.propositions as props
    import gdiff.solvers as solvers

    empty = VertexSet(5, 0)
    low = solvers.DifferentialResult(0, empty, 0, (empty,), 0, 0)
    monkeypatch.setattr(solvers, "differential_of_r", lambda g, enumerate_all, budget: low)
    runs = []
    exhaustive = props.differential_exact
    monkeypatch.setattr(
        props, "differential_exact", lambda *a, **k: runs.append(a) or exhaustive(*a, **k)
    )
    reports = run_all(complete_bipartite(2, 3), ["P03", "P06", "P09"])
    assert [(r.status, r.witness_sets, r.note) for r in reports] == [
        ("fail", ((0, 1), ()), "full value 7 != V-restricted value 0"),
        ("pass", (), ""),
        ("pass", ((0, 1),), ""),
    ]
    assert len(runs) == 3


def test_p18_verdict_is_definitive():
    report = run_proposition("P18", path(7))
    # the audit must end either way with an exhaustive certificate
    assert report.status in ("pass", "fail")
    assert "searched all 128 subsets" in report.note
    assert report.witness_sets  # witness or the full list of differential sets


def test_p18_counterexample_replays():
    report = run_proposition("P18", path(7))
    g = parse_graph6(report.instance)
    rg = build_r(g)
    diff_g = differential_exact(g).value
    diff_r = differential_exact(rg.total).value
    if report.status == "fail":
        # every witness attains the differential of the path but not of the R-graph
        for members in report.witness_sets:
            s = VertexSet(g.n, sum(1 << v for v in members))
            assert g.set_differential(s) == diff_g
            assert rg.total.set_differential(VertexSet(rg.total.n, s.mask)) < diff_r
    else:
        members = report.witness_sets[0]
        s = VertexSet(g.n, sum(1 << v for v in members))
        assert g.set_differential(s) == diff_g
        assert rg.total.set_differential(VertexSet(rg.total.n, s.mask)) == diff_r


def test_p18_vacuous_elsewhere():
    assert run_proposition("P18", path(6)).status == "vacuous"
    assert run_proposition("P18", cycle(7)).status == "vacuous"


def test_skipped_on_tiny_budget():
    report = run_proposition("P03", complete(5), budget=3)
    assert report.status == "skipped"
    assert "budget" in report.note


def test_p08_builds_no_r_graph(monkeypatch):
    # order(R) is n + m, so P08 reads it from G, also where R(G) is large.
    import gdiff.solvers as solvers

    def refuse(g):
        raise AssertionError("P08 built R(G)")

    monkeypatch.setattr(solvers, "build_r", refuse)
    for g in (star(6), star_plus_edge(6), wheel(7), complete(12)):
        assert run_proposition("P08", g).status == "pass"


def test_failed_search_runs_once_per_instance(monkeypatch):
    # A search that runs out of budget is cached with its error: run_all
    # starts each search at most once per graph, and every check that needs
    # it gets the note it would get in a context of its own. Calls are
    # counted per (search, graph): domination_number runs on R(K7), the
    # differential searches and independence_number on K7 itself.
    import gdiff.solvers as solvers

    calls = {}

    def counting(fn):
        def wrapper(*args, **kwargs):
            key = (fn.__name__, write_graph6(args[0]))
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    g = complete(7)
    alone = [run_proposition(pid, g, budget=50).row() for pid in PROPOSITIONS]
    searches = ("differential_exact", "differential_of_r", "domination_number", "independence_number")
    for name in searches:
        monkeypatch.setattr(solvers, name, counting(getattr(solvers, name)))
    shared = run_all(g, budget=50)
    assert [r.row() for r in shared] == alone
    assert sum(r.status == "skipped" for r in shared) >= 5
    assert {name for name, _ in calls} == set(searches)
    assert set(calls.values()) == {1}


def test_p17_certifies_the_roman_labeling(monkeypatch):
    import gdiff.propositions as props

    report = run_proposition("P17", path(7))
    assert (report.status, report.note) == ("pass", "2 + 5 = 7")
    # a labeling that leaves a 0 undominated, then one of the wrong weight
    monkeypatch.setattr(props, "roman_labeling", lambda g, s: (0,) * g.n)
    report = run_proposition("P17", path(7))
    assert report.status == "fail" and "not Roman dominating" in report.note
    monkeypatch.setattr(props, "roman_labeling", lambda g, s: (1,) * g.n)
    report = run_proposition("P17", path(7))
    assert (report.status, report.note) == ("fail", "diff + roman = 9 != n = 7")
    assert report.witness_sets[1] == (1,) * 7


def test_p02_p11_witnesses_on_census():
    # P02's witness is the first minimum dominating set of R(G), in
    # cardinality-then-lexicographic order, that lies inside V; P11 passes
    # with the shared value in its note.
    for n in range(3, 7):
        for g in connected_census(n):
            total = build_r(g).total
            gamma, _, all_min = domination_number(total, enumerate_min=True)
            inside = [w for w in all_min if w.mask < 1 << g.n]
            p02, p11 = run_all(g, ["P02", "P11"])
            assert (p02.status, p02.witness_sets, p02.note) == ("pass", (inside[0].members,), "")
            assert (p11.status, p11.witness_sets, p11.note) == ("pass", (), f"tau = gamma(R) = {gamma}")


def test_p02_p11_pass_beyond_the_census():
    # Connected graphs of order 11-14 with R-order 32-48. P11 pairs the
    # domination search on R(G) with independence_number on G, which share
    # no code.
    rng = Random(97)
    checked = 0
    while checked < 20:
        n = rng.randint(11, 14)
        g = random_graph(rng, n, rng.uniform(0.2, 0.5))
        if not g.is_connected or not 32 <= n + g.m <= 48:
            continue
        p02, p11 = run_all(g, ["P02", "P11"])
        assert (p02.status, p11.status) == ("pass", "pass")
        checked += 1


def test_p02_on_hand_built_operator_graphs(monkeypatch):
    # On a real R(G) P02 always passes, and the first minimum overall has so
    # far always lain inside V; hand-built stand-ins reach the other
    # branches. V = {0, 1, 2}, U = {3, 4}.
    import gdiff.solvers as solvers

    def stand_in(edges):
        return lambda g: RGraph(
            base=g,
            total=Graph.from_edges(5, edges),
            v_part=VertexSet(5, 0b00111),
            u_part=VertexSet(5, 0b11000),
            edge_map=((0, 1), (1, 2)),
        )

    # minima {0, 3} and {1, 2}: the witness is the first one inside V
    monkeypatch.setattr(solvers, "build_r", stand_in([(0, 1), (1, 4), (2, 3), (3, 4)]))
    report = run_proposition("P02", path(3))
    assert (report.status, report.witness_sets) == ("pass", ((1, 2),))
    # minima {0, 3} and {3, 4}; V needs 3 vertices: every minimum is the witness
    monkeypatch.setattr(solvers, "build_r", stand_in([(0, 4), (1, 3), (2, 3)]))
    report = run_proposition("P02", path(3))
    assert (report.status, report.witness_sets, report.note) == (
        "fail",
        ((0, 3), (3, 4)),
        "no minimum dominating set lies inside V",
    )


def test_p12_matches_the_subset_scan():
    # P12 reads the enumerated differential sets of G instead of scanning
    # every subset; the scan is the reference for status and count.
    graphs = [g for n in range(3, 7) for g in connected_census(n)]
    graphs += random_graphs(seed=83, count=60, nmin=3)
    for g in graphs:
        report = run_proposition("P12", g)
        status, qualifying = naive_p12(g) if g.is_connected else ("vacuous", 0)
        assert report.status == status, write_graph6(g)
        if status == "pass":
            assert report.note == f"{qualifying} qualifying cover(s)"


def test_run_all_shares_context():
    reports = run_all(complete(4), ["P01", "P11", "P15"])
    assert [r.prop_id for r in reports] == ["P01", "P11", "P15"]
    assert all(r.status == "pass" for r in reports)


def test_census_nmax4_p01():
    summary, reports = run_census(4, ["P01"])
    assert summary.instances == 8  # 2 + 6 connected classes
    assert len(reports) == 8
    assert all(r.status == "pass" for r in reports)


def test_census_nmax5_no_failures():
    summary, reports = run_census(5)
    assert summary.instances == 29  # 2 + 6 + 21
    assert len(reports) == 29 * len(PROPOSITIONS)
    failures = [r for r in reports if r.status == "fail"]
    assert failures == []
    # counts in the summary add up to instances x propositions
    total = sum(c for by_status in summary.counts.values() for c in by_status.values())
    assert total == len(reports)


def test_census_parallel_matches_serial():
    serial_summary, serial = run_census(4, ["P01", "P11", "P17"], jobs=1)
    parallel_summary, parallel = run_census(4, ["P01", "P11", "P17"], jobs=2)
    assert [r.row() for r in serial] == [r.row() for r in parallel]
    assert serial_summary.counts == parallel_summary.counts


def test_census_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_census(2)
    with pytest.raises(ValueError):
        run_census(9)
    with pytest.raises(ValueError):
        run_census(4, ["P99"])


def test_report_rows_have_schema_fields():
    report = run_proposition("P11", complete(4))
    row = report.row()
    assert set(row) == {"prop", "instance_g6", "status", "witness_sets", "note"}


def test_bipartite_differential_set_shapes_recorded():
    # Observed structure of the differential sets of K_{p,q}, 3 <= p < q <= 5:
    # cross-part pairs always; for p = 3 the singletons of the small part tie.
    for p, q in ((3, 4), (3, 5), (4, 5)):
        g = complete_bipartite(p, q)
        res = differential_exact(g, enumerate_all=True)
        shapes = set()
        for s in res.all_sets:
            in_p = sum(1 for v in s if v < p)
            shapes.add((in_p, len(s) - in_p))
        if p == 3:
            assert shapes == {(1, 0), (1, 1)}
        else:
            assert shapes == {(1, 1)}


def test_mu_versus_gamma_observation():
    # Nothing in the checked claims bounds mu below; record the observed
    # relation on the small census without asserting it as a theorem.
    observed = []
    for n in range(3, 6):
        for g in connected_census(n):
            observed.append(mu_invariant(g)[0] >= domination_number(g)[0])
    print(f"mu >= gamma on {sum(observed)}/{len(observed)} census graphs (n <= 5)")
