"""Acceptance suite: every criterion with its stated bound, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines. All equalities are exact integer equalities.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

from gdiff.census import canonical_form, connected_census
from gdiff.cli import cli
from gdiff.codecs import parse_graph6, write_graph6
from gdiff.families import complete, complete_bipartite, kprime, path, star, star_plus_edge, wheel
from gdiff.propositions import run_census, run_proposition
from gdiff.roperator import build_r
from gdiff.solvers import (
    InstanceContext,
    differential_exact,
    differential_of_r,
    domination_number,
    mu_invariant,
    vertex_cover_number,
)

from oracles import (
    naive_differential,
    naive_r_maximizers,
    naive_roman_labeling,
    random_connected_graph,
)
from test_codecs import MALFORMED_GRAPH6

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(label: str, limit: float | None = None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None:
            assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds the {limit}s bound"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


def census_3_to_6():
    return [g for n in range(3, 7) for g in connected_census(n)]


def test_criterion_01_complete_graphs():
    with criterion("01 diff(R(K_n)) = n(n-1)/2 - n + 3", limit=10):
        for n in (3, 4, 5, 6):
            expected = n * (n - 1) // 2 - n + 3
            assert differential_of_r(complete(n)).value == expected
            if n in (3, 4):
                assert differential_exact(build_r(complete(n))).value == expected


def test_criterion_02_wheels():
    with criterion("02 diff(R(W_n)) = 2n - 3", limit=10):
        for n in (4, 5, 6, 7):
            assert differential_of_r(wheel(n)).value == 2 * n - 3


def test_criterion_03_complete_bipartite():
    with criterion("03 diff(R(K_pq)) = q(p+1) - p", limit=30):
        for p in range(1, 5):
            for q in range(p + 1, 10 - p):
                assert differential_of_r(complete_bipartite(p, q)).value == q * (p + 1) - p


def test_criterion_04_uniqueness():
    with criterion("04 unique differential set of R(K_pq) is P", limit=120):
        for p, q in ((1, 3), (2, 3), (2, 4), (3, 4), (2, 5)):
            _, maximizers = naive_r_maximizers(complete_bipartite(p, q))
            assert maximizers == [(1 << p) - 1], (p, q, maximizers)


def test_criterion_05_cover_domination_duality():
    with criterion("05 tau(G) = gamma(R(G)) on census and families", limit=300):
        instances = census_3_to_6()
        instances += [complete(n) for n in (3, 4, 5, 6)]
        instances += [wheel(n) for n in (4, 5, 6, 7)]
        instances += [
            complete_bipartite(p, q)
            for p in range(1, 5)
            for q in range(p + 1, 10 - p)
        ]
        for g in instances:
            tau = vertex_cover_number(g)[0]
            gamma = domination_number(build_r(g))[0]
            assert tau == gamma, write_graph6(g)


def test_criterion_06_main_bounds():
    with criterion("06 lambda <= diff(R) <= lambda + floor((n - mu)/2)", limit=600):
        for g in census_3_to_6():
            res = differential_of_r(g)
            lam = InstanceContext(g).lam
            mu = len(res.witness)
            assert lam <= res.value <= lam + (g.n - mu) // 2, write_graph6(g)


def test_criterion_07_tightness():
    with criterion("07 tight families K_{r,2r} and K'_{r,2r}", limit=300):
        # r = 2
        assert differential_of_r(complete_bipartite(2, 4)).value == 10
        assert InstanceContext(complete_bipartite(2, 4)).lam == 10
        assert differential_of_r(kprime(2)).value == 10
        assert InstanceContext(kprime(2)).lam == 8
        assert mu_invariant(kprime(2))[0] == 2
        assert 8 + (6 - 2) // 2 == 10
        # r = 3
        assert differential_of_r(complete_bipartite(3, 6)).value == 21
        assert InstanceContext(complete_bipartite(3, 6)).lam == 21
        assert differential_of_r(kprime(3)).value == 21
        assert InstanceContext(kprime(3)).lam == 18
        assert mu_invariant(kprime(3))[0] == 3
        assert 18 + (9 - 3) // 2 == 21


def test_criterion_08_roman_identity():
    with criterion("08 diff(G) + roman(G) = n on the census", limit=300):
        for g in census_3_to_6():
            diff = differential_exact(g).value
            roman = naive_roman_labeling(g)[0]
            assert diff + roman == g.n, write_graph6(g)


def test_criterion_09_characterizations():
    with criterion("09 order(R)-2 / order(R)-3 and max-degree characterizations", limit=300):
        star_forms = {n: canonical_form(star(n)) for n in range(3, 7)}
        spe_forms = {n: canonical_form(star_plus_edge(n)) for n in range(3, 7)}
        for g in census_3_to_6():
            m_r = build_r(g).n
            diff_r = differential_of_r(g).value
            form = canonical_form(g)
            assert (diff_r == m_r - 2) == (form == star_forms[g.n]), write_graph6(g)
            assert (diff_r == m_r - 3) == (form == spe_forms[g.n]), write_graph6(g)
            # max-degree characterizations of diff(G)
            n = g.n
            delta_max = g.degree_stats().maximum
            diff = differential_exact(g).value
            assert (delta_max == n - 1) == (diff == n - 2), write_graph6(g)
            assert (delta_max == n - 2) == (diff == n - 3), write_graph6(g)
            if delta_max == n - 3:
                assert diff == n - 4, write_graph6(g)


def test_criterion_10_property_suites():
    with criterion("10 P01-P05, P12-P14 clean on census n<=5; pruned = naive", limit=600):
        props = ["P01", "P02", "P03", "P04", "P05", "P12", "P13", "P14"]
        summary, reports = run_census(5, props)
        assert summary.instances == 29
        assert len(reports) == 29 * len(props)
        assert all(r.status != "fail" for r in reports)
        assert all(r.status != "skipped" for r in reports)  # full scale reached
        rng = Random(97)
        for _ in range(500):
            g = random_connected_graph(rng, rng.randint(1, 6))
            assert differential_exact(g).value == naive_differential(g)


def test_criterion_11_census_counts():
    with criterion("11 census counts 2, 6, 21, 112, 853 (A001349)", limit=300):
        for n, count in ((3, 2), (4, 6), (5, 21), (6, 112), (7, 853)):
            assert len(connected_census(n)) == count


def test_criterion_12_graph6_roundtrip_and_rejection(tmp_path, capsys, monkeypatch):
    import io

    with criterion("12 graph6 round-trip on census; 20 malformed rejected", limit=300):
        for n in range(3, 7):
            for g in connected_census(n):
                text = write_graph6(g)
                assert parse_graph6(text) == g
                assert write_graph6(parse_graph6(text)) == text
        assert len(MALFORMED_GRAPH6) == 20
        for i, bad in enumerate(MALFORMED_GRAPH6):
            target = tmp_path / f"bad_{i}.g6"
            target.write_text(bad + "\n" if bad else bad)
            monkeypatch.setattr("sys.stdin", io.StringIO(""))
            code = cli(["compute", "--input", str(target)])
            capsys.readouterr()
            assert code == 2, repr(bad)


def test_criterion_13_figure_audit_verdict():
    with criterion("13 definitive machine-checked figure audit", limit=300):
        report = run_proposition("P18", path(7))
        # definitive either way, with witness or exhaustion certificate
        assert report.status in ("pass", "fail")
        assert "searched all 128 subsets" in report.note
        assert report.witness_sets
        fixture = json.loads((FIXTURES / "p18_figure2_audit.json").read_text())
        assert fixture["reports"] == [report.row()]
