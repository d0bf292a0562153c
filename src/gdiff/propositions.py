"""Executable proposition checks P01..P18.

Each check pairs a hypothesis predicate with a verdict procedure. A check
never evaluates its conclusion when the hypothesis fails: it reports
``vacuous``, so summary tables expose hypothesis coverage. Searches that
would overrun the configured budget produce ``skipped`` reports, never
partial answers, and every ``fail`` report carries the violating sets
verbatim so the counterexample can be replayed through the set primitives.
The checks on one instance read every solver result from one
``solvers.InstanceContext``, so each search runs at most once per instance.
A search shared by several checks is timed in the ``elapsed`` of the first
check that reads it, and so are the benchmark's per-check layers
(``propositions.P*.s``): which check reads first moves time between
checks with no change in work.
The differential sets of R(G) over its full subset space follow from those
inside V (``InstanceContext.diff_r_sizes``), so P03, P06 and P09 decide from
those alone. P03, P05, P13 and P14 read every set A inside V through one
pass (``InstanceContext.diff_r_partitions``) that gives B(A) and C(A) in G:
A dominates G iff C(A) is empty (P05), and the exterior of A in R(G) is
C(A) plus the edge-vertex of each edge of G[V - A], so P14 counts
|C(A)| + e(G[V - A]) and builds R(G) only to list a failing exterior. A
passing instance builds R(G) only in P01, P10 (complete graphs) and P18.
The lemma in ``solvers`` also says that the largest differential set of
R(G) inside V dominates G, so P04 checks that one set and enumerates none.
P02 reads the minimum dominating set of R(G) that P11's search found. That
search runs over the sets inside V alone, which hold a minimum since
N[v_ab] lies inside N[a], and there the sets that dominate R(G) are G's
vertex covers (the V lemma in ``solvers``), so it is a search for a least
cover of G's edges. P02 checks that the found set lies inside V and covers
G's edges, which by the lemma is to dominate R(G); that its size is
gamma(R(G)) rests on the lemma, not on a second search.
P12 follows from four numbers: n, m, tau and diff(G), with diff(R(G)) to
compare. Let G be connected of order n >= 3 and S a vertex cover of it,
T = V - S. T is independent and each of its vertices has a neighbour, so
B(S) = T in G, and in R(G) B(S) is T plus every edge-vertex, each edge
having an end in S. So diff_G(S) = n - 2|S| and diff_R(S) = m + n - 2|S|.
As n - 2|S| <= n - 2 tau <= diff(G), some cover attains diff(G) exactly
when n - 2 tau = diff(G), and those that do are the minimum covers, each
giving m + n - 2 tau in R(G). So P12 holds exactly when n - 2 tau = diff(G)
implies diff(R(G)) = m + n - 2 tau, and is vacuous otherwise; a fail lists
the cover V - (alpha witness). It enumerates nothing and builds no R(G).
P13 calls a differential set S inside V maximal when no one vertex of R(G)
added to it keeps the value, and decides that from G and the list of those
sets. S is a maximizer over all of R(G) (see ``diff_r_sizes``). Adding the
edge-vertex v_ab costs 2 when ab has an end in S, and otherwise changes the
value by -1 + |{a, b} & C(S)|. A maximizer has no edge inside C(S), so some
edge-vertex keeps the value iff an edge joins B(S) to C(S): on a connected G,
iff C(S) is non-empty. A vertex w of V keeps it iff S + w is in the list.
So P13 reads B(S) and C(S) from the shared pass, the largest number of
neighbours a vertex of B(S) has inside B(S), and maximality: C(S) empty and
no S + w among the listed masks.

Registry overview (R(G) is laid out as in ``roperator``: V = 0..n-1, then U):

P01  structural identities of the R-graph construction
P02  some minimum dominating set of R(G) lies inside V: the one the search finds
P03  V contains a differential set of R(G) of every realized cardinality
P04  some differential set of R(G) inside V dominates G: the largest one does
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
from typing import Callable, NamedTuple

from .codecs import write_graph6
from .core import BudgetExceededError, Graph, VertexSet, bits
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
    InstanceContext,
    is_dominating,
    is_vertex_cover,
    roman_labeling,
)

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
SKIPPED = "skipped"


class CheckReport(NamedTuple):
    """Outcome of one proposition check on one instance.

    ``elapsed`` is the check's wall time, including every search it is the
    first on its instance to read; a later check that reads the same
    result is charged only its own work.
    """

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


class PropositionCheck(NamedTuple):
    prop_id: str
    title: str
    applies: Callable[["InstanceContext"], bool]
    run: Callable[["InstanceContext"], tuple[str, tuple, str]]


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


def _recognized(ctx: InstanceContext, recognizer):
    """``recognizer(G)``, run once per instance on the context's cache."""
    return ctx.cached(recognizer, lambda: recognizer(ctx.g))


@_register("P01", "structural identities of the R-graph", lambda ctx: ctx.g.n >= 3)
def _p01(ctx):
    violations = validate_r(ctx.g, ctx.rg)
    if violations:
        return FAIL, (), "violated: " + ", ".join(violations)
    return PASS, (), ""


@_register("P02", "minimum dominating set of R(G) inside V", _connected3)
def _p02(ctx):
    # The search runs over the sets inside V, which hold a minimum, and
    # there a set dominates R(G) iff it covers G's edges (the V lemma in
    # ``solvers``), so a found cover inside V is a minimum dominating set.
    g = ctx.g
    _, dom = ctx.gamma_r
    if not dom.mask >> g.n and is_vertex_cover(g, VertexSet(g.n, dom.mask)):
        return PASS, (dom.members,), ""
    return FAIL, (dom.members,), "the set found is not a dominating set of R(G) inside V"


@_register("P03", "differential set of R(G) inside V of every realized size", _connected3)
def _p03(ctx):
    partitions = ctx.diff_r_partitions
    missing = ctx.diff_r_sizes - {len(a) for a, _, _ in partitions}
    if not missing:
        return PASS, (), ""
    size = min(missing)
    for a, _, ext in partitions:
        if len(a) <= size <= len(a) + ext.bit_count():
            return (
                FAIL,
                (a.members, tuple(bits(ext))),
                f"no differential set of R(G) inside V has size {size}; A plus one "
                f"edge-vertex at each of {size - len(a)} of C(A)'s vertices is one",
            )


@_register("P04", "some differential set of R(G) inside V dominates G", _connected3)
def _p04(ctx):
    # By the lemma in ``solvers``, every vertex outside the largest maximizer
    # has a neighbour in it, so the witness is the certificate.
    s = ctx.diff_r().witness
    if is_dominating(ctx.g, s):
        return PASS, (s.members,), ""
    return FAIL, (s.members,), "the largest differential set inside V does not dominate the base graph"


@_register("P05", "min degree >= 2 forces differential sets inside V to dominate", _min_degree2)
def _p05(ctx):
    # S dominates G iff its exterior C(S) is empty.
    for s, _, ext in ctx.diff_r_partitions:
        if ext:
            return FAIL, (s.members,), "differential set inside V does not dominate"
    return PASS, (), ""


@_register("P06", "min degree >= 2 forces |Y| >= |X| across differential sets", _min_degree2)
def _p06(ctx):
    biggest_x = ctx.diff().witness
    # A smallest differential set of R(G) is the first set inside V (see
    # diff_r_sizes).
    smallest_y = ctx.diff_r("all").all_sets[0]
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
    diff = ctx.diff().value
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
    diff_r = ctx.diff_r().value
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
    parts = _recognized(ctx, complete_bipartite_parts)
    return parts is not None and len(parts[0]) < len(parts[1]) and ctx.g.n >= 4


@_register("P09", "unique differential set of R(K_{p,q}) is the smaller part", _p09_applies)
def _p09(ctx):
    p_set = _recognized(ctx, complete_bipartite_parts)[0]
    # A differential set of R(G) is one inside V, A, plus up to |C(A)|
    # edge-vertices, so it is unique iff A is and C(A) is empty.
    sets = ctx.diff_r("all").all_sets
    sizes = ctx.diff_r_sizes
    if sets == (p_set,) and sizes == {len(p_set)}:
        return PASS, (p_set.members,), ""
    return (
        FAIL,
        tuple(s.members for s in sets),
        f"expected the single maximizer {p_set.members}; the differential sets "
        f"inside V are listed, and those of R(G) have sizes {sorted(sizes)}",
    )


def _p10_applies(ctx):
    if not _connected3(ctx) or ctx.g.n < 4:
        return False
    return (
        is_complete(ctx.g)
        or _recognized(ctx, wheel_apex) is not None
        or _recognized(ctx, complete_bipartite_parts) is not None
    )


@_register("P10", "closed forms for complete, wheel, complete bipartite", _p10_applies)
def _p10(ctx):
    g = ctx.g
    n = g.n
    diff_r = ctx.diff_r().value
    problems = []
    if is_complete(g):
        r = ctx.rg
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
            got = r.set_differential(VertexSet(r.n, (1 << k) - 1))
            if got != want:
                problems.append(f"complete case |S|={k}: got {got}, expected {want}")
    if _recognized(ctx, wheel_apex) is not None:
        expected = 2 * n - 3
        if diff_r != expected:
            problems.append(f"wheel: got {diff_r}, expected {expected}")
    parts = _recognized(ctx, complete_bipartite_parts)
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
    gamma, dom = ctx.gamma_r
    if tau == gamma:
        return PASS, (), f"tau = gamma(R) = {tau}"
    return (
        FAIL,
        (cover.members, dom.members),
        f"tau = {tau} but gamma(R) = {gamma}",
    )


@_register("P12", "differential-attaining vertex covers are differential sets of R", _connected3)
def _p12(ctx):
    # Four numbers decide it (see the module docstring): some vertex cover
    # attains diff(G) iff n - 2 tau = diff(G), and each gives m + n - 2 tau.
    g = ctx.g
    tau, cover = ctx.tau
    diff = ctx.diff().value
    if g.n - 2 * tau != diff:
        return VACUOUS, (), "no vertex cover attains the differential of G"
    value = g.m + g.n - 2 * tau
    diff_r = ctx.diff_r().value
    if value != diff_r:
        return (
            FAIL,
            (cover.members,),
            f"cover attains diff(G) but gives {value} != diff(R) = {diff_r}",
        )
    return PASS, (), f"n - 2 tau = diff(G) = {diff} and m + n - 2 tau = diff(R) = {diff_r}"


def _boundaries(g: Graph, partitions: tuple[tuple[VertexSet, int, int], ...]):
    """For each differential set S inside V of ``partitions``, listed with
    B(S) and C(S) as masks (``InstanceContext.diff_r_partitions``): B(S),
    the largest number of neighbours a vertex of B(S) has in B(S), and
    whether S is maximal (C(S) is empty and no S + w is listed)."""
    adj = g.adj
    masks = {s.mask for s, _, _ in partitions}
    for s, bound, ext in partitions:
        inner = 0
        rest = bound
        while rest:
            low = rest & -rest
            rest ^= low
            k = (adj[low.bit_length() - 1] & bound).bit_count()
            if k > inner:
                inner = k
        # With C(S) empty, the vertices outside S are B(S).
        maximal = not ext
        rest = bound
        while maximal and rest:
            low = rest & -rest
            rest ^= low
            maximal = s.mask | low not in masks
        yield s, bound, inner, maximal


@_register("P13", "boundaries of differential sets inside V are 2-dependent", _connected3)
def _p13(ctx):
    mu = len(ctx.diff_r("all").witness)
    for s, bound, inner, maximal in _boundaries(ctx.g, ctx.diff_r_partitions):
        if inner > 2:
            return FAIL, (s.members, tuple(bits(bound))), "boundary is not 2-dependent"
        if maximal and inner > 1:
            return (
                FAIL,
                (s.members, tuple(bits(bound))),
                "maximal differential set with boundary not 1-dependent",
            )
        if len(s) == mu and not maximal:
            return (
                FAIL,
                (s.members,),
                "maximum-cardinality differential set is not maximal",
            )
    return PASS, (), ""


@_register("P14", "exterior bound for maximum differential sets inside V", _connected3)
def _p14(ctx):
    # C_R(S) is C(S) plus the edge-vertex of each edge of G[V - S].
    g = ctx.g
    adj = g.adj
    mu = len(ctx.diff_r("all").witness)
    for s, _, ext in ctx.diff_r_partitions:
        if len(s) != mu:
            continue
        t = g.full_mask & ~s.mask
        doubled = sum((adj[v] & t).bit_count() for v in bits(t))
        if 2 * ext.bit_count() + doubled > g.n - mu:
            r = ctx.rg
            ext_r = r.exterior(VertexSet(r.n, s.mask))
            return (
                FAIL,
                (s.members, ext_r.members),
                f"|C(S)| = {len(ext_r)} > ({g.n} - {mu})/2",
            )
    return PASS, (), ""


@_register("P15", "two-sided bound on the differential of R(G)", _connected3)
def _p15(ctx):
    lam = ctx.lam
    diff_r = ctx.diff_r().value
    upper = lam + (ctx.g.n - ctx.mu) // 2
    if lam <= diff_r <= upper:
        return PASS, (), f"{lam} <= {diff_r} <= {upper}"
    return FAIL, (), f"bound violated: lambda={lam}, diff_r={diff_r}, upper={upper}"


def _p16_applies(ctx):
    if not _connected3(ctx):
        return False
    parts = _recognized(ctx, complete_bipartite_parts)
    if parts is not None and 2 * len(parts[0]) == len(parts[1]) and len(parts[0]) >= 2:
        return True
    return _recognized(ctx, kprime_order) is not None


@_register("P16", "both bounds are attained on the matched bipartite families", _p16_applies)
def _p16(ctx):
    diff_r = ctx.diff_r().value
    lam = ctx.lam
    if _recognized(ctx, complete_bipartite_parts) is not None:
        if diff_r == lam:
            return PASS, (), f"lower bound tight: diff_r = lambda = {lam}"
        return FAIL, (), f"diff_r = {diff_r} != lambda = {lam}"
    r = _recognized(ctx, kprime_order)
    expected = lam + (3 * r - ctx.mu) // 2
    if diff_r == expected:
        return PASS, (), f"upper bound tight: diff_r = {diff_r}"
    return FAIL, (), f"diff_r = {diff_r} != lambda + floor((3r - mu)/2) = {expected}"


@_register("P17", "differential plus Roman domination equals the order", _connected3)
def _p17(ctx):
    # gamma_R = n - diff (Bermudo, Fernau and Sigarreta): check the certificate
    # it rests on, the Roman labeling of a differential set.
    g, res = ctx.g, ctx.diff()
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
    r = ctx.rg
    diff_r = ctx.diff_r().value
    subsets = [VertexSet(g.n, mask) for mask in range(1 << g.n)]
    diff_g = max(map(g.set_differential, subsets))
    maximizers = sorted(
        (s for s in subsets if g.set_differential(s) == diff_g), key=lambda s: (len(s), s.members)
    )
    common = [
        s.members
        for s in maximizers
        if r.set_differential(VertexSet(r.n, s.mask)) == diff_r
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
        tuple(s.members for s in maximizers),
        f"no common differential set: diff(P_7)={diff_g}, diff(R(P_7))={diff_r}; "
        f"{searched}; every differential set of P_7 listed as witness",
    )


def run_proposition(prop_id: str, g: Graph, budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Evaluate one registered proposition on one graph."""
    return run_all(g, [prop_id], budget)[0]


def _run_with_ctx(check: PropositionCheck, ctx: InstanceContext, instance: str) -> CheckReport:
    """Run one check on ``ctx``, whose graph has the graph6 ``instance``."""
    start = time.perf_counter()
    try:
        if not check.applies(ctx):
            status, witnesses, note = VACUOUS, (), "hypothesis not satisfied"
        else:
            status, witnesses, note = check.run(ctx)
    except BudgetExceededError as exc:
        status, witnesses, note = SKIPPED, (), f"budget: {exc}"
    return CheckReport(
        check.prop_id,
        instance,
        status,
        tuple(map(tuple, witnesses)) if witnesses else (),
        note,
        time.perf_counter() - start,
    )


def run_all(
    g: Graph, prop_ids: list[str] | None = None, budget: int = DEFAULT_BUDGET
) -> list[CheckReport]:
    """Evaluate several propositions on one graph, sharing solver results."""
    ctx = InstanceContext(g, budget)
    instance = write_graph6(g)
    ids = prop_ids or list(PROPOSITIONS)
    return [_run_with_ctx(PROPOSITIONS[pid], ctx, instance) for pid in ids]


class CensusSummary:
    """Per-proposition status counts over one census run, one instance at a time."""

    def __init__(self, n_min: int, n_max: int):
        self.n_min = n_min
        self.n_max = n_max
        self.instances = 0
        self.counts: dict[str, dict[str, int]] = {}

    def add(self, reports: list[CheckReport]) -> None:
        """Count the reports of one instance."""
        self.instances += 1
        for report in reports:
            by_status = self.counts.setdefault(report.prop_id, {})
            by_status[report.status] = by_status.get(report.status, 0) + 1

    def to_dict(self) -> dict:
        return {
            "n_min": self.n_min,
            "n_max": self.n_max,
            "instances": self.instances,
            "counts": {pid: dict(sorted(c.items())) for pid, c in sorted(self.counts.items())},
        }


def run_census(
    n_max: int,
    prop_ids: list[str] | None = None,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> tuple[CensusSummary, list[CheckReport]]:
    """Every report of ``census.census_runs`` in one list, with their counts."""
    from .census import census_runs

    summary = CensusSummary(n_min=3, n_max=n_max)
    reports: list[CheckReport] = []
    for chunk in census_runs(n_max, prop_ids, jobs, budget):
        summary.add(chunk)
        reports.extend(chunk)
    return summary, reports
