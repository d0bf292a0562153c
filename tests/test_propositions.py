import csv
import hashlib
import io
import json
import os
from pathlib import Path

import pytest
from random import Random

from gdiff import census, propositions
from gdiff.census import census_runs, connected_census
from gdiff.codecs import parse_graph6, write_graph6
from gdiff.core import VertexSet, bits
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
    CensusSummary,
    run_all,
    run_census,
    run_proposition,
)
from gdiff.reports import JsonWriter
from gdiff.roperator import build_r
from gdiff.solvers import (
    DEFAULT_BUDGET,
    DifferentialResult,
    InstanceContext,
    differential_exact,
    differential_of_r,
    domination_number,
    is_dominating,
    is_vertex_cover,
    mu_invariant,
)

from oracles import (
    naive_differential,
    naive_independence,
    naive_minimum_dominating_sets,
    naive_p12,
    random_connected_graph,
    random_graph,
    random_graphs,
)


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
    # R(K_{4,5}) has order 29; the search over V answers it, and only a
    # budget too small for that search skips it.
    report = run_proposition("P09", complete_bipartite(4, 5))
    assert (report.status, report.witness_sets) == ("pass", ((0, 1, 2, 3),))
    report = run_proposition("P09", complete_bipartite(4, 5), budget=20)
    assert report.status == "skipped"
    assert "budget" in report.note


def test_full_space_checks_answer_beyond_the_exhaustive_search():
    # R(C_24) has 48 vertices; the search over V takes 457,901 units, the
    # exhaustive search over all subsets of R(C_24) 3,573,165.
    for pid in ("P03", "P06"):
        assert run_proposition(pid, cycle(24), budget=1_000_000).status == "pass"


def _stand_in_sets(monkeypatch, n, sets):
    # A stand-in V search, with differential 0, that lists ``sets``; the
    # last is the witness.
    import gdiff.solvers as solvers

    found = tuple(VertexSet.of(n, s) for s in sets)
    res = DifferentialResult(0, found[-1], 0, found)
    monkeypatch.setattr(solvers, "differential_of_r", lambda g, key, budget: res)


def test_full_space_fail_paths_read_the_sets_inside_v(monkeypatch):
    # P03, P06 and P09 derive the differential sets of R(G) from those
    # inside V (diff_r_sizes); they neither build R(G) nor search it.
    import gdiff.solvers as solvers

    g = complete_bipartite(2, 3)
    _stand_in_sets(monkeypatch, g.n, [[]])
    runs = []
    for name in ("build_r", "differential_exact"):
        fn = getattr(solvers, name)
        monkeypatch.setattr(
            solvers, name, lambda h, *a, name=name, fn=fn: runs.append((name, h.n)) or fn(h, *a)
        )
    reports = run_all(g, ["P03", "P06", "P09"])
    assert [(r.status, r.witness_sets, r.note) for r in reports] == [
        (
            "fail",
            ((), (0, 1, 2, 3, 4)),
            "no differential set of R(G) inside V has size 1; A plus one "
            "edge-vertex at each of 1 of C(A)'s vertices is one",
        ),
        ("fail", ((0,), ()), "|Y| = 0 < |X| = 1"),
        (
            "fail",
            ((),),
            "expected the single maximizer (0, 1); the differential sets inside V "
            "are listed, and those of R(G) have sizes [0, 1, 2, 3, 4, 5]",
        ),
    ]
    # Only P06's search over G runs.
    assert runs == [("differential_exact", g.n)]


def test_full_space_fails_are_reported_beyond_the_exhaustive_search(monkeypatch):
    # A fail needs no search over R(C_24), so it is not lost to the budget.
    _stand_in_sets(monkeypatch, 24, [[]])
    reports = run_all(cycle(24), ["P03", "P06"], budget=1_000_000)
    assert [r.status for r in reports] == ["fail", "fail"]


def test_p18_verdict_is_definitive():
    report = run_proposition("P18", path(7))
    # the audit must end either way with an exhaustive certificate
    assert report.status in ("pass", "fail")
    assert "searched all 128 subsets" in report.note
    assert report.witness_sets  # witness or the full list of differential sets


def test_p18_counterexample_replays():
    report = run_proposition("P18", path(7))
    g = parse_graph6(report.instance)
    r = build_r(g)
    diff_g = differential_exact(g).value
    diff_r = differential_exact(r).value
    if report.status == "fail":
        # every witness attains the differential of the path but not of the R-graph
        for members in report.witness_sets:
            s = VertexSet(g.n, sum(1 << v for v in members))
            assert g.set_differential(s) == diff_g
            assert r.set_differential(VertexSet(r.n, s.mask)) < diff_r
    else:
        members = report.witness_sets[0]
        s = VertexSet(g.n, sum(1 << v for v in members))
        assert g.set_differential(s) == diff_g
        assert r.set_differential(VertexSet(r.n, s.mask)) == diff_r


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


def test_set_checks_build_no_r_graph_when_they_pass(monkeypatch):
    # P02 reads gamma(R(G))'s set as a cover of G's edges, and P03, P05,
    # P13 and P14 read the sets inside V with their boundaries and
    # exteriors in G, so none builds R(G) on its way to a pass.
    import gdiff.solvers as solvers

    def refuse(g):
        raise AssertionError("a check built R(G)")

    monkeypatch.setattr(solvers, "build_r", refuse)
    for g in (star(6), wheel(7), complete(6), cycle(24)):
        for pid in ("P02", "P03", "P05", "P13", "P14"):
            # P05 needs minimum degree 2, which a star does not have.
            want = "vacuous" if pid == "P05" and g.degree_stats().minimum < 2 else "pass"
            assert run_proposition(pid, g).status == want, (pid, write_graph6(g))


def test_the_lemmas_of_p02_and_p14_on_the_census():
    # For every S inside V of each census graph of order 3-7: R(G)'s
    # exterior of S is C(S) plus one edge-vertex per edge of G[V - S] (P14),
    # and S dominates R(G) iff it covers G's edges (P02, the V lemma).
    for g in [g for n in range(3, 8) for g in connected_census(n)]:
        r = build_r(g)
        edges = g.edges()
        for mask in range(1 << g.n):
            s = VertexSet(g.n, mask)
            inside = sum(1 for a, b in edges if not (mask >> a | mask >> b) & 1)
            in_r = VertexSet(r.n, mask)
            assert len(r.exterior(in_r)) == len(g.exterior(s)) + inside
            assert is_vertex_cover(g, s) == is_dominating(r, in_r)


def census_body(n_max):
    """Status counts and the sha256 of the JSON report body of a census run.

    The body is the ``census --json`` text as the writer streams it, with
    its volatile header, the last member, cut off: every report and the
    summary.
    """
    out = io.StringIO()
    writer = JsonWriter(out, "reports")
    summary = CensusSummary(n_min=3, n_max=n_max)
    for reports in census_runs(n_max):
        summary.add(reports)
        writer.reports(reports)
    writer.close("census", None, summary)
    text = out.getvalue()
    body = text[: text.index(',\n  "header": ')] + "\n}\n"
    return json.loads(body)["summary"]["counts"], hashlib.sha256(body.encode()).hexdigest()


# A change that means to alter census report bodies updates these and says
# so; any other change to a witness, status or note fails the tests below.
CENSUS_ORDER7 = (
    {
        "P01": {"pass": 994},
        "P02": {"pass": 994},
        "P03": {"pass": 994},
        "P04": {"pass": 994},
        "P05": {"pass": 583, "vacuous": 411},
        "P06": {"pass": 583, "vacuous": 411},
        "P07": {"pass": 994},
        "P08": {"pass": 994},
        "P09": {"pass": 8, "vacuous": 986},
        "P10": {"pass": 17, "vacuous": 977},
        "P11": {"pass": 994},
        "P12": {"pass": 15, "vacuous": 979},
        "P13": {"pass": 994},
        "P14": {"pass": 994},
        "P15": {"pass": 994},
        "P16": {"pass": 2, "vacuous": 992},
        "P17": {"pass": 994},
        "P18": {"fail": 1, "vacuous": 993},
    },
    "2041984e2b52fcd249597e2d71e286ccdd0b052ea065f3c11f2999acb085444b",
)


CENSUS_ORDER8 = (
    {
        "P01": {"pass": 12111},
        "P02": {"pass": 12111},
        "P03": {"pass": 12111},
        "P04": {"pass": 12111},
        "P05": {"pass": 8025, "vacuous": 4086},
        "P06": {"pass": 8025, "vacuous": 4086},
        "P07": {"pass": 12111},
        "P08": {"pass": 12111},
        "P09": {"pass": 11, "vacuous": 12100},
        "P10": {"pass": 23, "vacuous": 12088},
        "P11": {"pass": 12111},
        "P12": {"pass": 30, "vacuous": 12081},
        "P13": {"pass": 12111},
        "P14": {"pass": 12111},
        "P15": {"pass": 12111},
        "P16": {"pass": 2, "vacuous": 12109},
        "P17": {"pass": 12111},
        "P18": {"fail": 1, "vacuous": 12110},
    },
    "df89e4b754e9700aad96b67565b8e846a00498e522761f6e2bd285d7641ef03b",
)


def test_census_order7_is_pinned():
    # All 18 checks on the 994 connected graphs of order 3-7. P18's one
    # fail is its audit refuting the paper's Figure 2 claim on P_7.
    assert census_body(7) == CENSUS_ORDER7


def test_census_order7_summary_fixture_matches_the_pin():
    # CI diffs `gdiff census --nmax 7 --props all --csv` against this file.
    path = Path(__file__).parent / "fixtures" / "census_order7_summary.csv"
    header, *body = csv.reader(path.read_text().splitlines())
    assert header == ["prop", "pass", "fail", "vacuous", "skipped", "total"]
    counts = {}
    for pid, *cells, total in body:
        assert int(total) == 994
        counts[pid] = {status: int(c) for status, c in zip(header[1:5], cells) if c != "0"}
    assert counts == CENSUS_ORDER7[0]


@pytest.mark.skipif(not os.environ.get("GDIFF_SLOW"), reason="set GDIFF_SLOW=1; takes about 11 s")
def test_census_order8_is_pinned():
    # All 18 checks on the 12,111 connected graphs of order 3-8.
    assert census_body(8) == CENSUS_ORDER8


def test_failed_search_runs_once_per_instance(monkeypatch):
    # A search that runs out of budget is cached with its error: run_all
    # starts each search at most once per graph and key, and every check
    # that needs it gets the note it would get in a context of its own.
    # Calls are counted per (search, graph, key): the domination search
    # covers K7's 21 edges with its 7 vertices, the differential searches
    # and independence_number run on K7 itself. At 30 units both keys of
    # differential_of_r run out on K7 (the "largest" one needs 33), and so
    # does the domination search: its first node is charged 1 + 7 + 21 and
    # its second node more than the one unit left.
    import gdiff.solvers as solvers

    calls = {}

    def counting(fn):
        def wrapper(*args, **kwargs):
            if fn.__name__ == "_dominate":  # covers, dominators: the order is len(dominators)
                key = (fn.__name__, tuple(args[0]), len(args[1]))
            else:
                key = (fn.__name__, write_graph6(args[0]), *args[1:2])
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    g = complete(7)
    alone = [run_proposition(pid, g, budget=30).row() for pid in PROPOSITIONS]
    searches = ("differential_exact", "differential_of_r", "_dominate", "independence_number")
    for name in searches:
        monkeypatch.setattr(solvers, name, counting(getattr(solvers, name)))
    shared = run_all(g, budget=30)
    assert [r.row() for r in shared] == alone
    assert sum(r.status == "skipped" for r in shared) >= 5
    assert {key[0] for key in calls} == set(searches)
    assert ("differential_of_r", write_graph6(g), "largest") in calls
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
    # P02's witness lies inside V and is among the oracle's minimum
    # dominating sets of R(G); P11 passes with the shared value in its note.
    # The scan of all 2^(n+m) sets of R(G) is fast up to order 5; at order
    # 6 it scans the sets inside V, whose minima are minimum overall when
    # P11 passes.
    for n in range(3, 7):
        for g in connected_census(n):
            within = None if n <= 5 else g.full_mask
            minima = naive_minimum_dominating_sets(build_r(g), within)
            p02, p11 = run_all(g, ["P02", "P11"])
            assert (p02.status, p02.note) == ("pass", "")
            (witness,) = p02.witness_sets
            assert all(v < n for v in witness)
            assert sum(1 << v for v in witness) in minima
            gamma = minima[0].bit_count()
            assert (p11.status, p11.witness_sets, p11.note) == ("pass", (), f"tau = gamma(R) = {gamma}")


def test_p02_p11_run_one_domination_search(monkeypatch):
    # P02 reads the witness of the domination search that P11 needs for its
    # value: one search per graph, in which G's n vertices cover its m
    # edges, never domination_number on R(G); and P02 alone needs no
    # independence search.
    import gdiff.solvers as solvers

    calls = []

    def counting(fn):
        def wrapper(subject, *args, **kwargs):
            if fn.__name__ == "_dominate":
                calls.append((fn.__name__, len(subject), len(args[0])))
            else:
                calls.append((fn.__name__, write_graph6(subject)))
            return fn(subject, *args, **kwargs)

        return wrapper

    for name in ("_dominate", "domination_number", "independence_number"):
        monkeypatch.setattr(solvers, name, counting(getattr(solvers, name)))
    graphs = [g for n in range(3, 6) for g in connected_census(n)]
    graphs += [cycle(9), wheel(8), kprime(3), complete_bipartite(2, 5)]
    for g in graphs:
        calls.clear()
        assert run_proposition("P02", g).status == "pass"
        assert calls == [("_dominate", g.n, g.m)]
        calls.clear()
        p02, p11 = run_all(g, ["P02", "P11"])
        assert (p02.status, p11.status) == ("pass", "pass")
        assert sorted(calls) == [
            ("_dominate", g.n, g.m),
            ("independence_number", write_graph6(g)),
        ]


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


def test_p02_checks_the_set_found_inside_v(monkeypatch):
    # Stand-in searches reach both failures: a set that leaves a vertex of
    # R(G) undominated, and one with an edge-vertex. In R(K_3), V = {0, 1, 2}
    # and 3, 4, 5 are the edge-vertices of (0, 1), (0, 2) and (1, 2). The
    # search returns a mask, which gamma_r reads as a set of R(G).
    import gdiff.solvers as solvers

    def stand_in(*members):
        return lambda covers, order, budget: sum(1 << v for v in members)

    # {0, 1} covers every edge of K_3, so it dominates R(K_3)
    monkeypatch.setattr(solvers, "_dominate", stand_in(0, 1))
    report = run_proposition("P02", complete(3))
    assert (report.status, report.witness_sets) == ("pass", ((0, 1),))
    note = "the set found is not a dominating set of R(G) inside V"
    # {0} leaves the edge-vertex 5 undominated; {0, 5} dominates R(K_3)
    # but holds an edge-vertex
    for members in ((0,), (0, 5)):
        monkeypatch.setattr(solvers, "_dominate", stand_in(*members))
        report = run_proposition("P02", complete(3))
        assert (report.status, report.witness_sets, report.note) == ("fail", (members,), note)


def test_budget_notes_name_the_search():
    # At 5 units every search runs out on C_9 (domination on R(C_9) inside
    # V, a cover of C_9's 9 edges by its 9 vertices, whose first node is
    # charged 1 + 9 + 9), and each skip note starts
    # with the solver that ran out. The note ends with the units spent; the
    # searches are deterministic.
    reports = run_all(cycle(9), ["P02", "P04", "P07", "P11"], budget=5)
    spent = (
        ("domination_number", 19),
        ("differential_of_r", 10),
        ("differential_exact", 19),
        ("independence_number", 6),
    )
    for report, (solver, units) in zip(reports, spent):
        assert (report.status, report.note) == (
            "skipped",
            f"budget: {solver} search exceeded its node budget of 5 after {units} units",
        ), report.prop_id


def test_p12_matches_the_subset_scan():
    # P12 decides from four numbers, n - 2 tau = diff(G) and then diff(R(G))
    # against m + n - 2 tau, instead of scanning covers; the scan of every
    # subset is the reference for the status.
    rng = Random(83)
    graphs = [g for n in range(3, 8) for g in connected_census(n)]
    graphs += [random_connected_graph(rng, rng.randint(3, 11)) for _ in range(200)]
    graphs += random_graphs(seed=83, count=60, nmin=3)
    for g in graphs:
        check_p12(g)


def check_p12(g):
    report = run_proposition("P12", g)
    status = naive_p12(g)[0] if g.is_connected else "vacuous"
    assert report.status == status, write_graph6(g)
    if status == "pass":
        diff, lam = naive_differential(g), g.m - g.n + 2 * naive_independence(g)
        assert report.note == f"n - 2 tau = diff(G) = {diff} and m + n - 2 tau = diff(R) = {lam}"


@pytest.mark.skipif(not os.environ.get("GDIFF_SLOW"), reason="set GDIFF_SLOW=1; takes about 11 s")
def test_p12_four_numbers_on_the_order8_census():
    # The four-number P12 against the subset scan on the 11,117 connected
    # graphs of order 8.
    for g in connected_census(8):
        check_p12(g)


def test_p12_fail_row_lists_a_minimum_cover(monkeypatch):
    # A stand-in search over V with differential 0 in R(G). On K_{1,3}, n -
    # 2 tau = 4 - 2 = diff(G), so the minimum covers attain diff(G) and give
    # m + n - 2 tau = 5 in R(G); the fail lists V - (alpha witness) = {0}.
    _stand_in_sets(monkeypatch, 4, [[0]])
    report = run_proposition("P12", star(4))
    assert (report.status, report.witness_sets, report.note) == (
        "fail",
        ((0,),),
        "cover attains diff(G) but gives 5 != diff(R) = 0",
    )


def test_run_all_searches_the_differential_of_g_for_its_value_only(monkeypatch):
    # No check enumerates the maximizers of diff(G): over the census of
    # order 3-6, run_all calls differential_exact with the key "largest"
    # alone, once per instance that needs it.
    import gdiff.solvers as solvers

    keys = []
    search = solvers.differential_exact

    def recording(g, key="largest", budget=DEFAULT_BUDGET):
        keys.append(key)
        return search(g, key, budget)

    monkeypatch.setattr(solvers, "differential_exact", recording)
    graphs = [g for n in range(3, 7) for g in connected_census(n)]
    for g in graphs:
        run_all(g)
    assert keys == ["largest"] * len(graphs)


def test_p04_certificate_agrees_with_the_enumeration():
    # P04 reads one set: by the lemma in solvers, every differential set of
    # R(G) inside V of the largest cardinality dominates G. The enumeration
    # checks that claim, and that the witness is the first of those sets.
    rng = Random(101)
    graphs = [g for n in range(3, 8) for g in connected_census(n)]
    graphs += [random_connected_graph(rng, rng.randint(3, 11)) for _ in range(200)]
    for g in graphs:
        ctx = InstanceContext(g)
        witness = ctx.diff_r().witness
        sets = ctx.diff_r("all").all_sets
        largest = [s for s in sets if len(s) == len(sets[-1])]
        assert witness == largest[0], write_graph6(g)
        assert all(is_dominating(g, s) for s in largest), write_graph6(g)
        report = run_proposition("P04", g)
        assert (report.status, report.witness_sets) == ("pass", (witness.members,))


def test_p04_fails_when_the_largest_set_does_not_dominate(monkeypatch):
    # A stand-in search whose witness {0} leaves 2 and 3 of P_4 undominated.
    _stand_in_sets(monkeypatch, 4, [[0]])
    report = run_proposition("P04", path(4))
    assert (report.status, report.witness_sets, report.note) == (
        "fail",
        ((0,),),
        "the largest differential set inside V does not dominate the base graph",
    )


def test_p13_maximality_matches_the_r_graph_scan():
    # P13 reads each listed set S inside V as masks of G: B(S), its largest
    # inner degree, and maximality from C(S) and the list. The references
    # are the set primitives on G and, for maximality, adding each vertex
    # of R(G) outside S and evaluating it.
    rng = Random(107)
    graphs = [g for n in range(3, 8) for g in connected_census(n)]
    graphs += [random_connected_graph(rng, rng.randint(3, 11)) for _ in range(200)]
    outcomes = set()
    for g in graphs:
        ctx = InstanceContext(g)
        res = ctx.diff_r("all")
        r = build_r(g)
        partitions = ctx.diff_r_partitions
        assert [(b, c) for _, b, c in partitions] == [
            (g.boundary(s).mask, g.exterior(s).mask) for s in res.all_sets
        ]
        profiles = list(propositions._boundaries(g, partitions))
        assert [p[0] for p in profiles] == list(res.all_sets)
        for s, bound, inner, maximal in profiles:
            scan = all(
                r.set_differential(VertexSet(r.n, s.mask | 1 << w)) < res.value
                for w in range(r.n)
                if w not in s
            )
            assert bound == g.boundary(s).mask
            assert inner == max((g.adj[v] & bound).bit_count() for v in bits(bound))
            assert maximal == scan, (write_graph6(g), s)
            outcomes.add(scan)
    assert outcomes == {True, False}


def test_p13_fail_rows(monkeypatch):
    # P13 reads G and the list alone; it builds no R(G).
    import gdiff.solvers as solvers

    monkeypatch.setattr(solvers, "build_r", lambda g: pytest.fail("P13 built R(G)"))
    # K_5: B({0}) is a K_4, not 2-dependent.
    _stand_in_sets(monkeypatch, 5, [[0]])
    report = run_proposition("P13", complete(5))
    assert (report.status, report.witness_sets, report.note) == (
        "fail",
        ((0,), (1, 2, 3, 4)),
        "boundary is not 2-dependent",
    )
    # K_4: B({0}) is a triangle, and {0} is maximal: C({0}) is empty and
    # neither {0, w} is listed.
    _stand_in_sets(monkeypatch, 4, [[0]])
    report = run_proposition("P13", complete(4))
    assert (report.status, report.witness_sets, report.note) == (
        "fail",
        ((0,), (1, 2, 3)),
        "maximal differential set with boundary not 1-dependent",
    )
    # With {0, 1} listed, {0} is not maximal, so its triangle is allowed.
    _stand_in_sets(monkeypatch, 4, [[0], [0, 1]])
    assert run_proposition("P13", complete(4)).status == "pass"
    # P_4: the largest set {1} leaves C({1}) = {3}, so it is not maximal.
    _stand_in_sets(monkeypatch, 4, [[1]])
    report = run_proposition("P13", path(4))
    assert (report.status, report.witness_sets, report.note) == (
        "fail",
        ((1,),),
        "maximum-cardinality differential set is not maximal",
    )


def test_p05_fail_row(monkeypatch):
    # C_5 and {0}: C({0}) = {2, 3} is not empty, so {0} does not dominate,
    # and the first listed set that fails is reported.
    _stand_in_sets(monkeypatch, 5, [[0, 2], [0]])
    report = run_proposition("P05", cycle(5))
    assert (report.status, report.witness_sets, report.note) == (
        "fail",
        ((0,),),
        "differential set inside V does not dominate",
    )


def test_p14_fail_row(monkeypatch):
    # P_4 and {0}: C({0}) in R(P_4) is {2, 3} and the edge-vertices 5 and 6
    # of the edges 12 and 23.
    _stand_in_sets(monkeypatch, 4, [[0]])
    report = run_proposition("P14", path(4))
    assert (report.status, report.witness_sets, report.note) == (
        "fail",
        ((0,), (2, 3, 5, 6)),
        "|C(S)| = 4 > (4 - 1)/2",
    )


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


def test_census_parallel_matches_serial(monkeypatch):
    # Batches of 3 make 10 batches at order 5, more than the 8 kept in flight.
    monkeypatch.setattr(census, "CENSUS_BATCH", 3)
    serial_summary, serial = run_census(5, ["P01", "P11", "P17"], jobs=1)
    parallel_summary, parallel = run_census(5, ["P01", "P11", "P17"], jobs=2)
    assert [r.row() for r in serial] == [r.row() for r in parallel]
    assert serial_summary.counts == parallel_summary.counts


def test_census_workers_are_capped_at_the_available_cpus(monkeypatch):
    # A stand-in pool records its size and runs each batch inline, so no
    # process starts. With one CPU no pool is made at all.
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    assert census._available_cpus() >= 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    serial = [r.row() for chunk in census_runs(4, ["P01", "P04"]) for r in chunk]
    for cpus, made in ((3, [3]), (1, [])):
        sizes.clear()
        monkeypatch.setattr(census, "_available_cpus", lambda: cpus)
        runs = census_runs(4, ["P01", "P04"], jobs=10**6)
        assert [r.row() for chunk in runs for r in chunk] == serial
        assert sizes == made


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
        res = differential_exact(g, "all")
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
