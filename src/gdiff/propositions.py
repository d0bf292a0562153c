"""Executable proposition checks P01..P18 and the census runner.

Each check pairs a hypothesis predicate with a verdict procedure. A check
never evaluates its conclusion when the hypothesis fails: it reports
``vacuous``, so summary tables expose hypothesis coverage. Searches that
would overrun the configured budget produce ``skipped`` reports, never
partial answers, and every ``fail`` report carries the violating sets
verbatim so the counterexample can be replayed through the set primitives.
The checks on one instance read every solver result from one
``solvers.InstanceContext``, so each search runs at most once per instance.
The differential sets of R(G) over its full subset space follow from those
inside V (``InstanceContext.diff_r_sizes``); only when they do not confirm
P03, P06 or P09 does the exhaustive search over R(G) decide and list them.

Registry overview (V/U is the canonical partition of the R-graph):

P01  structural identities of the R-graph construction
P02  some minimum dominating set of R(G) lies inside V
P03  V contains a differential set of R(G) of every realized cardinality
P04  some differential set of R(G) inside V dominates G
P05  min degree >= 2 forces every differential set inside V to dominate G
P06  min degree >= 2 forces |Y| >= |X| for differential sets Y of R(G), X of G
P07  max-degree characterizations of the differential of G itself
P08  differential of R(G) equals order(R)-2 / -3 exactly for stars / stars+edge
P09  the smaller part is the unique differential set of R(K_{p,q}), p < q
P10  closed forms for complete graphs, wheels, complete bipartite graphs
P11  vertex cover number of G equals domination number of R(G)
P12  vertex covers attaining the differential of G are differential sets of R(G)
P13  boundaries of differential sets inside V are 2-dependent (1- if maximal)
P14  exterior of a maximum differential set inside V is at most (n - mu)/2
P15  lambda(G) <= diff(R(G)) <= lambda(G) + floor((n - mu)/2)
P16  both P15 bounds are attained on the matched bipartite families
P17  diff(G) + roman(G) = n, certified by the Roman labeling of a differential set
P18  audit: does some set attain the differential of both P_7 and R(P_7)?
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from .census import CANONICAL_MAX, connected_census
from .codecs import parse_graph6, write_graph6
from .core import BudgetExceededError, Graph, VertexSet
from .families import (
    complete_bipartite_parts,
    is_complete,
    is_path,
    kprime_order,
    star_center,
    star_plus_edge_center,
    wheel_apex,
)
from .roperator import validate_r
from .solvers import (
    DEFAULT_BUDGET,
    DifferentialResult,
    InstanceContext,
    differential_exact,
    domination_number,
    is_dominating,
    is_vertex_cover,
    roman_labeling,
)

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one proposition check on one instance."""

    prop_id: str
    instance: str  # graph6 of the instance
    status: str
    witness_sets: tuple[tuple[int, ...], ...] = ()
    note: str = ""
    elapsed: float = 0.0

    def row(self) -> dict:
        """The serialized form; elapsed stays out so output is reproducible."""
        return {
            "prop": self.prop_id,
            "instance_g6": self.instance,
            "status": self.status,
            "witness_sets": [list(s) for s in self.witness_sets],
            "note": self.note,
        }


@dataclass(frozen=True)
class PropositionCheck:
    prop_id: str
    title: str
    applies: Callable[["InstanceContext"], bool]
    run: Callable[["InstanceContext"], tuple[str, tuple, str]]


def _full_space_sets(ctx: InstanceContext) -> DifferentialResult:
    """Every differential set of R(G), by the exhaustive search over R(G)."""
    return differential_exact(ctx.rg.total, enumerate_all=True, budget=ctx.budget)


def _single_vertex_maximal(ctx: InstanceContext, s: VertexSet) -> bool:
    """No single added vertex keeps the differential of the R-graph."""
    total = ctx.rg.total
    value = ctx.diff_r_v.value
    for w in range(total.n):
        if w in s:
            continue
        if total.set_differential(VertexSet(total.n, s.mask | 1 << w)) >= value:
            return False
    return True


PROPOSITIONS: dict[str, PropositionCheck] = {}


def _register(prop_id: str, title: str, applies):
    def deco(fn):
        PROPOSITIONS[prop_id] = PropositionCheck(prop_id, title, applies, fn)
        return fn

    return deco


def _connected3(ctx: InstanceContext) -> bool:
    return ctx.g.n >= 3 and ctx.g.is_connected


def _min_degree2(ctx: InstanceContext) -> bool:
    stats = ctx.g.degree_stats()
    return _connected3(ctx) and stats.minimum is not None and stats.minimum >= 2


@_register("P01", "structural identities of the R-graph", lambda ctx: ctx.g.n >= 3)
def _p01(ctx):
    violations = validate_r(ctx.rg)
    if violations:
        return FAIL, (), "violated: " + ", ".join(violations)
    return PASS, (), ""


@_register("P02", "minimum dominating set of R(G) inside V", _connected3)
def _p02(ctx):
    total, budget = ctx.rg.total, ctx.budget
    gamma, _, _ = ctx.gamma_r
    gamma_v, inside, _ = domination_number(total, restrict=ctx.rg.v_part, budget=budget)
    if gamma_v == gamma:
        return PASS, (inside.members,), ""
    _, _, all_min = domination_number(total, enumerate_min=True, budget=budget)
    return (
        FAIL,
        tuple(w.members for w in all_min),
        "no minimum dominating set lies inside V",
    )


@_register("P03", "differential set of R(G) inside V of every realized size", _connected3)
def _p03(ctx):
    vres = ctx.diff_r_v
    v_sizes = {len(s) for s in vres.all_sets}
    if ctx.diff_r_sizes <= v_sizes:
        return PASS, (), ""
    full = _full_space_sets(ctx)
    if full.value != vres.value:
        return (
            FAIL,
            (full.witness.members, vres.witness.members),
            f"full value {full.value} != V-restricted value {vres.value}",
        )
    for d in full.all_sets:
        if len(d) not in v_sizes:
            return (
                FAIL,
                (d.members,),
                f"no V-restricted differential set of size {len(d)}",
            )
    return PASS, (), ""


@_register("P04", "some differential set of R(G) inside V dominates G", _connected3)
def _p04(ctx):
    for s in ctx.diff_r_v.all_sets:
        if is_dominating(ctx.g, s):
            return PASS, (s.members,), ""
    return (
        FAIL,
        tuple(s.members for s in ctx.diff_r_v.all_sets),
        "no differential set inside V dominates the base graph",
    )


@_register("P05", "min degree >= 2 forces differential sets inside V to dominate", _min_degree2)
def _p05(ctx):
    for s in ctx.diff_r_v.all_sets:
        if not is_dominating(ctx.g, s):
            return FAIL, (s.members,), "differential set inside V does not dominate"
    return PASS, (), ""


@_register("P06", "min degree >= 2 forces |Y| >= |X| across differential sets", _min_degree2)
def _p06(ctx):
    biggest_x = max(ctx.diff_g.all_sets, key=len)
    if min(ctx.diff_r_sizes) >= len(biggest_x):
        return PASS, (), ""
    smallest_y = min(_full_space_sets(ctx).all_sets, key=len)
    if len(smallest_y) >= len(biggest_x):
        return PASS, (), ""
    return (
        FAIL,
        (biggest_x.members, smallest_y.members),
        f"|Y| = {len(smallest_y)} < |X| = {len(biggest_x)}",
    )


@_register("P07", "max-degree characterizations of the differential", _connected3)
def _p07(ctx):
    n = ctx.g.n
    delta_max = ctx.g.degree_stats().maximum
    diff = ctx.diff_g.value
    clauses = []
    if (delta_max == n - 1) != (diff == n - 2):
        clauses.append("(a)")
    if (delta_max == n - 2) != (diff == n - 3):
        clauses.append("(b)")
    if delta_max == n - 3 and diff != n - 4:
        clauses.append("(c)")
    if clauses:
        return FAIL, (), f"violated {', '.join(clauses)}: Delta={delta_max}, diff={diff}"
    return PASS, (), ""


@_register("P08", "order(R)-2 / order(R)-3 characterizations", _connected3)
def _p08(ctx):
    g = ctx.g
    m_r = g.n + g.m
    diff_r = ctx.diff_r_v.value
    is_star = star_center(g) is not None
    is_spe = star_plus_edge_center(g) is not None
    problems = []
    if (diff_r == m_r - 2) != is_star:
        problems.append(f"star: diff_r={diff_r}, order(R)-2={m_r - 2}, iso={is_star}")
    if (diff_r == m_r - 3) != is_spe:
        problems.append(f"star+edge: diff_r={diff_r}, order(R)-3={m_r - 3}, iso={is_spe}")
    if problems:
        return FAIL, (), "; ".join(problems)
    return PASS, (), ""


def _p09_applies(ctx):
    if not _connected3(ctx):
        return False
    parts = complete_bipartite_parts(ctx.g)
    return parts is not None and len(parts[0]) < len(parts[1]) and ctx.g.n >= 4


@_register("P09", "unique differential set of R(K_{p,q}) is the smaller part", _p09_applies)
def _p09(ctx):
    parts = complete_bipartite_parts(ctx.g)
    p_set = parts[0]
    # A differential set of R(G) is one inside V, A, plus up to |C(A)|
    # edge-vertices, so it is unique iff A is and C(A) is empty.
    if ctx.diff_r_v.all_sets == (p_set,) and ctx.diff_r_sizes == {len(p_set)}:
        return PASS, (p_set.members,), ""
    full = _full_space_sets(ctx)
    if len(full.all_sets) == 1 and full.all_sets[0].mask == p_set.mask:
        return PASS, (p_set.members,), ""
    return (
        FAIL,
        tuple(s.members for s in full.all_sets),
        f"expected the single maximizer {p_set.members}",
    )


def _p10_applies(ctx):
    if not _connected3(ctx) or ctx.g.n < 4:
        return False
    return (
        is_complete(ctx.g)
        or wheel_apex(ctx.g) is not None
        or complete_bipartite_parts(ctx.g) is not None
    )


@_register("P10", "closed forms for complete, wheel, complete bipartite", _p10_applies)
def _p10(ctx):
    g = ctx.g
    n = g.n
    total = ctx.rg.total
    diff_r = ctx.diff_r_v.value
    problems = []
    if is_complete(g):
        expected = n * (n - 1) // 2 - n + 3
        if diff_r != expected:
            problems.append(f"complete: got {diff_r}, expected {expected}")
        table = {
            n - 3: n * (n - 1) // 2 - n + 3,
            n - 2: n * (n - 1) // 2 - n + 3,
            n - 1: n * (n - 1) // 2 - n + 2,
            n: n * (n - 1) // 2 - n,
        }
        for k, want in table.items():
            got = total.set_differential(VertexSet(total.n, (1 << k) - 1))
            if got != want:
                problems.append(f"complete case |S|={k}: got {got}, expected {want}")
    if wheel_apex(g) is not None:
        expected = 2 * n - 3
        if diff_r != expected:
            problems.append(f"wheel: got {diff_r}, expected {expected}")
    parts = complete_bipartite_parts(g)
    if parts is not None:
        p, q = len(parts[0]), len(parts[1])
        expected = q * (p + 1) - p
        if diff_r != expected:
            problems.append(f"bipartite ({p},{q}): got {diff_r}, expected {expected}")
    if problems:
        return FAIL, (), "; ".join(problems)
    return PASS, (), ""


@_register("P11", "vertex cover of G equals domination of R(G)", _connected3)
def _p11(ctx):
    tau, cover = ctx.tau
    gamma, dom, _ = ctx.gamma_r
    if tau == gamma:
        return PASS, (), f"tau = gamma(R) = {tau}"
    return (
        FAIL,
        (cover.members, dom.members),
        f"tau = {tau} but gamma(R) = {gamma}",
    )


@_register("P12", "differential-attaining vertex covers are differential sets of R", _connected3)
def _p12(ctx):
    # A cover that attains diff(G) is a maximizer, so the enumerated
    # differential sets of G are the only candidates.
    g = ctx.g
    res = ctx.diff_g
    diff_r = ctx.diff_r_v.value
    total = ctx.rg.total
    qualifying = 0
    for s in res.all_sets:
        if not is_vertex_cover(g, s):
            continue
        qualifying += 1
        value = total.set_differential(VertexSet(total.n, s.mask))
        if value != diff_r:
            return (
                FAIL,
                (s.members,),
                f"cover attains diff(G) but gives {value} != diff(R) = {diff_r}",
            )
    if qualifying == 0:
        return VACUOUS, (), "no vertex cover attains the differential of G"
    return PASS, (), f"{qualifying} qualifying cover(s)"


@_register("P13", "boundaries of differential sets inside V are 2-dependent", _connected3)
def _p13(ctx):
    g = ctx.g
    res = ctx.diff_r_v
    for s in res.all_sets:
        bound = g.boundary(s)
        if not g.is_k_dependent(bound, 2):
            return FAIL, (s.members, bound.members), "boundary is not 2-dependent"
        maximal = _single_vertex_maximal(ctx, s)
        if maximal and not g.is_k_dependent(bound, 1):
            return (
                FAIL,
                (s.members, bound.members),
                "maximal differential set with boundary not 1-dependent",
            )
        if len(s) == res.max_card and not maximal:
            return (
                FAIL,
                (s.members,),
                "maximum-cardinality differential set is not maximal",
            )
    return PASS, (), ""


@_register("P14", "exterior bound for maximum differential sets inside V", _connected3)
def _p14(ctx):
    res = ctx.diff_r_v
    total = ctx.rg.total
    mu = res.max_card
    for s in res.all_sets:
        if len(s) != mu:
            continue
        ext = total.exterior(VertexSet(total.n, s.mask))
        if 2 * len(ext) > ctx.g.n - mu:
            return (
                FAIL,
                (s.members, ext.members),
                f"|C(S)| = {len(ext)} > ({ctx.g.n} - {mu})/2",
            )
    return PASS, (), ""


@_register("P15", "two-sided bound on the differential of R(G)", _connected3)
def _p15(ctx):
    lam = ctx.lam
    diff_r = ctx.diff_r_v.value
    upper = lam + (ctx.g.n - ctx.mu) // 2
    if lam <= diff_r <= upper:
        return PASS, (), f"{lam} <= {diff_r} <= {upper}"
    return FAIL, (), f"bound violated: lambda={lam}, diff_r={diff_r}, upper={upper}"


def _p16_applies(ctx):
    if not _connected3(ctx):
        return False
    parts = complete_bipartite_parts(ctx.g)
    if parts is not None and 2 * len(parts[0]) == len(parts[1]) and len(parts[0]) >= 2:
        return True
    return kprime_order(ctx.g) is not None


@_register("P16", "both bounds are attained on the matched bipartite families", _p16_applies)
def _p16(ctx):
    diff_r = ctx.diff_r_v.value
    lam = ctx.lam
    parts = complete_bipartite_parts(ctx.g)
    if parts is not None:
        if diff_r == lam:
            return PASS, (), f"lower bound tight: diff_r = lambda = {lam}"
        return FAIL, (), f"diff_r = {diff_r} != lambda = {lam}"
    r = kprime_order(ctx.g)
    expected = lam + (3 * r - ctx.mu) // 2
    if diff_r == expected:
        return PASS, (), f"upper bound tight: diff_r = {diff_r}"
    return FAIL, (), f"diff_r = {diff_r} != lambda + floor((3r - mu)/2) = {expected}"


@_register("P17", "differential plus Roman domination equals the order", _connected3)
def _p17(ctx):
    # gamma_R = n - diff (Bermudo, Fernau and Sigarreta): check the certificate
    # it rests on, the Roman labeling of a differential set.
    g, res = ctx.g, ctx.diff_g
    labels = roman_labeling(g, res.witness)
    roman = sum(labels)
    twos = sum(1 << v for v, lab in enumerate(labels) if lab == 2)
    witnesses = (res.witness.members, labels)
    if any(lab == 0 and not g.adj[v] & twos for v, lab in enumerate(labels)):
        return FAIL, witnesses, "the labeling of a differential set is not Roman dominating"
    if res.value + roman != g.n:
        return FAIL, witnesses, f"diff + roman = {res.value + roman} != n = {g.n}"
    return PASS, (), f"{res.value} + {roman} = {g.n}"


@_register("P18", "audit: common differential set of P_7 and R(P_7)", lambda ctx: ctx.g.n == 7 and is_path(ctx.g))
def _p18(ctx):
    g = ctx.g
    total = ctx.rg.total
    diff_g = ctx.diff_g.value
    diff_r = ctx.diff_r_v.value
    common = [
        s.members
        for s in ctx.diff_g.all_sets
        if total.set_differential(VertexSet(total.n, s.mask)) == diff_r
    ]
    searched = f"searched all {1 << g.n} subsets of V(P_7)"
    if common:
        return (
            PASS,
            tuple(common),
            f"common differential set exists (diff={diff_g}, diff_R={diff_r}); {searched}",
        )
    return (
        FAIL,
        tuple(s.members for s in ctx.diff_g.all_sets),
        f"no common differential set: diff(P_7)={diff_g}, diff(R(P_7))={diff_r}; "
        f"{searched}; every differential set of P_7 listed as witness",
    )


def run_proposition(prop_id: str, g: Graph, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Evaluate one registered proposition on one graph."""
    ctx = InstanceContext(g, budget)
    return _run_with_ctx(PROPOSITIONS[prop_id], ctx)


def _run_with_ctx(check: PropositionCheck, ctx: InstanceContext) -> CheckReport:
    start = time.perf_counter()
    instance = write_graph6(ctx.g)
    try:
        if not check.applies(ctx):
            status, witnesses, note = VACUOUS, (), "hypothesis not satisfied"
        else:
            status, witnesses, note = check.run(ctx)
    except BudgetExceededError as exc:
        status, witnesses, note = SKIPPED, (), f"budget: {exc}"
    return CheckReport(
        prop_id=check.prop_id,
        instance=instance,
        status=status,
        witness_sets=tuple(tuple(w) for w in witnesses),
        note=note,
        elapsed=time.perf_counter() - start,
    )


def run_all(
    g: Graph, prop_ids: list[str] | None = None, budget: int = DEFAULT_BUDGET
) -> list[CheckReport]:
    """Evaluate several propositions on one graph, sharing solver results."""
    ctx = InstanceContext(g, budget)
    ids = prop_ids or list(PROPOSITIONS)
    return [_run_with_ctx(PROPOSITIONS[pid], ctx) for pid in ids]


@dataclass(frozen=True)
class CensusSummary:
    """Per-proposition status counts over one census run."""

    n_min: int
    n_max: int
    instances: int
    counts: dict[str, dict[str, int]]
    total_runtime: float

    def to_dict(self) -> dict:
        return {
            "n_min": self.n_min,
            "n_max": self.n_max,
            "instances": self.instances,
            "counts": {pid: dict(sorted(c.items())) for pid, c in sorted(self.counts.items())},
        }


def _census_worker(args: tuple[str, list[str], int]) -> list[CheckReport]:
    g6, prop_ids, budget = args
    return run_all(parse_graph6(g6), prop_ids, budget)


def run_census(
    n_max: int,
    prop_ids: list[str] | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> tuple[CensusSummary, list[CheckReport]]:
    """Evaluate propositions over every connected census graph of order 3..n_max.

    Reports come back in deterministic (instance, proposition) order
    regardless of the worker count.
    """
    if not 3 <= n_max <= CANONICAL_MAX:
        raise ValueError(f"census runs support 3 <= n_max <= {CANONICAL_MAX}")
    ids = list(prop_ids) if prop_ids else list(PROPOSITIONS)
    for pid in ids:
        if pid not in PROPOSITIONS:
            raise ValueError(f"unknown proposition id {pid!r}")

    start = time.perf_counter()
    instances = [g for n in range(3, n_max + 1) for g in connected_census(n)]
    reports: list[CheckReport] = []
    if jobs > 1:
        payload = [(write_graph6(g), ids, budget) for g in instances]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(_census_worker, payload, chunksize=8):
                reports.extend(chunk)
    else:
        for g in instances:
            reports.extend(run_all(g, ids, budget))

    counts: dict[str, dict[str, int]] = {pid: {} for pid in ids}
    for report in reports:
        by_status = counts[report.prop_id]
        by_status[report.status] = by_status.get(report.status, 0) + 1
    summary = CensusSummary(
        n_min=3,
        n_max=n_max,
        instances=len(instances),
        counts=counts,
        total_runtime=time.perf_counter() - start,
    )
    return summary, reports
