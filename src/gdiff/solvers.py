"""Exact solvers for the differential and its companion invariants.

Every solver is an exhaustive search; no heuristics, no approximation.
For a graph of order n:

* differential: the kernel ``_subsets`` yields each k-subset of a universe
  together with the union of its members' adjacency rows and spends one
  node on it; a k-set has differential at most n - 2k, so one pass over
  cardinalities stops once that bound drops below the incumbent (or meets
  it, when only the value is wanted), collecting maximizers as it goes;
* domination: set-cover branch and bound (``_DominatingSets``) on an
  undominated vertex with the fewest dominators, pruned by a coverage and a
  packing lower bound (after Fomin, Grandoni and Kratsch, J. ACM 56, 2009,
  and van Rooij and Bodlaender, Discrete Appl. Math. 159, 2011);
* independence: branch on a highest-degree vertex with memoization.

``InstanceContext`` is the single per-instance cache: it runs each search
on one graph at most once, and ``full_record``, the proposition checks and
the public one-quantity solvers all read from it. The identities live on it
and nowhere else. Four quantities are derived instead of searched: the
Roman domination number gamma_R = n - diff (Bermudo, Fernau and
Sigarreta, 2014), the vertex cover number tau = n - alpha (Gallai), the
enclaveless number psi = n - gamma (Slater, "Enclaveless sets and
MK-systems", 1977) and lambda = m - n + 2 alpha. The witnesses of the first
three are the Roman labeling of the differential witness (see
``roman_labeling``), the complement of the independence witness and the
minimum dominating set witness. The oracles in tests/ check the identities
against the definitions. The differential of R(G) comes from a scan of V
with R(G)'s rows, built from G; its differential sets over the full subset
space follow from the sets inside V (see ``InstanceContext.diff_r_sizes``).

Ties among searched witnesses are broken toward the lexicographically
smallest member tuple among minimum-cardinality optima, which keeps
reports reproducible. Searches that would exceed their node budget raise
BudgetExceededError rather than returning a partial answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .core import BudgetExceededError, Graph, VertexSet, _union, bits
from .roperator import RGraph, build_r, r_v_rows

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of an exact differential search.

    ``all_sets``, ``min_card`` and ``max_card`` are filled only when
    enumeration of every maximizer was requested. ``search_space_size``
    counts candidate sets examined, for instrumentation.
    """

    value: int
    witness: VertexSet
    search_space_size: int
    all_sets: tuple[VertexSet, ...] | None = None
    min_card: int | None = None
    max_card: int | None = None


class _NodeCounter:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int):
        self.nodes = 0
        self.budget = budget

    def spend(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"search exceeded its node budget of {self.budget}"
            )


def _subsets(
    universe: tuple[int, ...], rows: tuple[int, ...], k: int, counter: _NodeCounter
) -> Iterator[tuple[int, int]]:
    """Yield ``(mask, union of rows over mask)`` for every k-subset of ``universe``.

    Subsets come in itertools.combinations order. The mask and union of the
    first k - 1 members are built once and shared by every choice of the
    last member; those subsets are charged together, one node each, before
    the first of them is yielded.
    """
    if k == 0:
        counter.spend()
        yield 0, 0
        return
    members = [(1 << v, rows[v]) for v in universe]
    for head in combinations(range(len(members) - 1), k - 1):
        head_mask = head_union = 0
        for i in head:
            head_mask |= members[i][0]
            head_union |= members[i][1]
        tail = members[head[-1] + 1 if head else 0 :]
        counter.spend(len(tail))
        for bit, row in tail:
            yield head_mask | bit, head_union | row


def _max_differential(
    n: int,
    universe: tuple[int, ...],
    rows: tuple[int, ...],
    order: int,
    enumerate_all: bool,
    counter: _NodeCounter,
) -> DifferentialResult:
    """Maximize |N(S) - S| - |S| over subsets S of ``universe``, a part of 0..n-1.

    ``rows`` are adjacency rows of a graph on ``order`` vertices, where a
    k-set scores at most order - 2k.
    """
    best = None
    maximizers: list[int] = []
    for k in range(len(universe) + 1):
        # Reaching only a tie adds maximizers, which only enumeration wants.
        bound = order - 2 * k
        if best is not None and (bound < best or (bound == best and not enumerate_all)):
            break
        for smask, union in _subsets(universe, rows, k, counter):
            d = (union & ~smask).bit_count() - k
            if best is None or d > best:
                best, maximizers = d, [smask]
            elif d == best and enumerate_all:
                maximizers.append(smask)
    assert best is not None

    witness = VertexSet(n, maximizers[0])
    if not enumerate_all:
        return DifferentialResult(best, witness, counter.nodes)
    return DifferentialResult(
        best,
        witness,
        counter.nodes,
        all_sets=tuple(VertexSet(n, m) for m in maximizers),
        min_card=maximizers[0].bit_count(),
        max_card=maximizers[-1].bit_count(),
    )


def differential_exact(
    g: Graph,
    restrict: VertexSet | Iterable[int] | None = None,
    enumerate_all: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> DifferentialResult:
    """Maximize |B(S)| - |S| over subsets S of ``restrict`` (default: all of V).

    The boundary is always taken in ``g`` itself, so with ``restrict`` this
    computes the maximum over a restricted search space of the same
    objective. With ``enumerate_all`` every maximizer in the search space is
    collected, in the same single pass that finds the value.
    """
    if g.n == 0:
        raise ValueError("differential is undefined on the empty graph")
    if restrict is None:
        universe: tuple[int, ...] = tuple(range(g.n))
    else:
        universe = tuple(bits(g._coerce(restrict)))
    return _max_differential(g.n, universe, g.adj, g.n, enumerate_all, _NodeCounter(budget))


def _require_r_base(g: Graph) -> None:
    if g.n < 3:
        raise ValueError("R-graph invariants require order >= 3")
    if not g.is_connected:
        raise ValueError("R-graph invariants require a connected graph")


def differential_of_r(
    g: Graph,
    enumerate_all: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> DifferentialResult:
    """Differential of R(g) over subsets of V(g), as sets of g's vertices.

    A 2^n scan of V with R(g)'s rows, built from g, so R(g) itself is never
    built. It requires a connected g of order at least 3.
    """
    _require_r_base(g)
    return _max_differential(
        g.n, tuple(range(g.n)), r_v_rows(g), g.n + g.m, enumerate_all, _NodeCounter(budget)
    )


def is_dominating(g: Graph, s: VertexSet | Iterable[int]) -> bool:
    """True iff every vertex is in S or adjacent to a member of S."""
    return _union(g.closed_adj, g._coerce(s)) == g.full_mask


def is_vertex_cover(g: Graph, s: VertexSet | Iterable[int]) -> bool:
    """True iff every edge has at least one end in S."""
    smask = g._coerce(s)
    outside = g.full_mask & ~smask
    return all(not g.adj[v] & outside for v in bits(outside))


class _DominatingSets:
    """Set-cover branch and bound over the dominating sets of one graph.

    Only members of ``universe`` may be chosen. Every search spends from one
    node budget.
    """

    def __init__(self, g: Graph, universe: int, budget: int):
        self.full = g.full_mask
        self.rows = g.closed_adj
        self.universe = universe
        self.counter = _NodeCounter(budget)

    def covers(self, undominated: int, allowed: int, chosen: int, limit: int) -> Iterator[int]:
        """Yield dominating sets ``chosen`` + T, T inside ``allowed``, |T| <= ``limit``.

        Branch on the undominated vertex with the fewest allowed dominators,
        taking each of them in turn and excluding the earlier ones from the
        later branches, so every yielded set is reached in exactly one
        branch. A dominator that reaches no undominated vertex is dropped: no
        minimum set contains it. Prune when one of two lower bounds on |T|
        exceeds ``limit``: the undominated count over the most undominated
        vertices one vertex reaches, rounded up, and the number of
        undominated vertices with pairwise disjoint dominators, taken fewest
        dominators first, since each needs its own. So every minimum
        dominating set within ``limit`` is yielded, and other dominating sets
        may be. Each call spends one node.
        """
        self.counter.spend()
        if not undominated:
            yield chosen
            return
        rows = self.rows
        reach = [0] * len(rows)
        useful = 0
        for v in bits(allowed):
            k = (rows[v] & undominated).bit_count()
            if k:
                reach[v] = k
                useful |= 1 << v
        options = []
        for u in bits(undominated):
            dominators = rows[u] & useful
            if not dominators:
                return
            options.append((dominators.bit_count(), dominators))
        options.sort()
        packed = taken = 0
        for _, dominators in options:
            if not dominators & taken:
                packed += 1
                taken |= dominators
        if max(packed, -(-undominated.bit_count() // max(reach))) > limit:
            return
        for d in sorted(bits(options[0][1]), key=reach.__getitem__, reverse=True):
            useful &= ~(1 << d)
            yield from self.covers(undominated & ~rows[d], useful, chosen | 1 << d, limit - 1)

    def minimum(self) -> int:
        """A minimum dominating set: ask for a smaller one until there is none.

        The first set is greedy: each step takes the vertex that dominates
        the most vertices still undominated. Often it is already minimum, and
        one search proves it.
        """
        rows = self.rows
        best = 0
        undominated = self.full
        while undominated:
            v = max(bits(self.universe), key=lambda v: (rows[v] & undominated).bit_count())
            best |= 1 << v
            undominated &= ~rows[v]
        while True:
            smaller = next(self.covers(self.full, self.universe, 0, best.bit_count() - 1), None)
            if smaller is None:
                return best
            best = smaller

    def all_minima(self, gamma: int) -> list[int]:
        """Every dominating set of ``gamma`` members, the minimum, in lex order."""
        minima = self.covers(self.full, self.universe, 0, gamma)
        return sorted(minima, key=lambda m: tuple(bits(m)))

    def first_minimum(self, best: int) -> int:
        """The first minimum in itertools.combinations order, given the minimum ``best``.

        Walk the universe in index order and keep a vertex when some minimum
        set agrees with every decision so far and contains it. ``best``, kept
        agreeing, answers when it contains the vertex; else a search over the
        later vertices does, and its set becomes ``best``.
        """
        gamma = best.bit_count()
        kept = 0
        later = self.universe
        for v in bits(self.universe):
            if kept.bit_count() == gamma:
                break
            later &= ~(1 << v)
            trial = kept | 1 << v
            if not best >> v & 1:
                undominated = self.full & ~_union(self.rows, trial)
                limit = gamma - trial.bit_count()
                agreeing = next(self.covers(undominated, later, trial, limit), None)
                if agreeing is None:
                    continue
                best = agreeing
            kept = trial
        return best


def domination_number(
    g: Graph,
    restrict: VertexSet | Iterable[int] | None = None,
    enumerate_min: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, VertexSet, tuple[VertexSet, ...] | None]:
    """Minimum dominating set size, one witness, optionally all minima.

    With ``restrict`` only dominating sets inside that universe count; it
    must dominate ``g`` itself. The witness is the first minimum in
    itertools.combinations order. So when the restricted minimum equals
    the unrestricted one, the witness is the first unrestricted minimum
    that lies inside ``restrict``. A value pass finds some minimum set;
    then either a witness pass finds the first one, or one search bounded
    at the value collects them all (see ``_DominatingSets``).
    """
    if g.n == 0:
        raise ValueError("domination is undefined on the empty graph")
    if restrict is None:
        universe = g.full_mask
    else:
        universe = g._coerce(restrict)
        if _union(g.closed_adj, universe) != g.full_mask:
            raise ValueError("the restricted universe does not dominate the graph")
    search = _DominatingSets(g, universe, budget)
    best = search.minimum()
    gamma = best.bit_count()
    if enumerate_min:
        found = tuple(VertexSet(g.n, m) for m in search.all_minima(gamma))
        return gamma, found[0], found
    return gamma, VertexSet(g.n, search.first_minimum(best)), None


def vertex_cover_number(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
    """Minimum vertex cover size and one witness (see ``InstanceContext.tau``)."""
    return InstanceContext(g, budget).tau


def independence_number(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
    """Maximum independent set size and its lexicographically smallest witness."""
    adj = g.adj
    memo: dict[int, int] = {}
    counter = _NodeCounter(budget)

    def size(candidates: int) -> int:
        if candidates == 0:
            return 0
        cached = memo.get(candidates)
        if cached is not None:
            return cached
        counter.spend()
        pivot = -1
        pivot_deg = -1
        for v in bits(candidates):
            d = (adj[v] & candidates).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        if pivot_deg == 0:
            result = candidates.bit_count()
        else:
            with_pivot = 1 + size(candidates & ~(adj[pivot] | 1 << pivot))
            without_pivot = size(candidates & ~(1 << pivot))
            result = max(with_pivot, without_pivot)
        memo[candidates] = result
        return result

    alpha = size(g.full_mask)
    # Rebuild the lexicographically smallest maximum set greedily.
    chosen = 0
    candidates = g.full_mask
    for v in range(g.n):
        if not candidates >> v & 1:
            continue
        rest = candidates & ~(adj[v] | 1 << v)
        if chosen.bit_count() + 1 + size(rest) == alpha:
            chosen |= 1 << v
            candidates = rest
        else:
            candidates &= ~(1 << v)
    return alpha, VertexSet(g.n, chosen)


def roman_labeling(g: Graph, s: VertexSet | Iterable[int]) -> tuple[int, ...]:
    """The labeling of V that puts 2 on S, 0 on B(S) and 1 elsewhere.

    Every 0-labeled vertex has a neighbor in S, so it is a Roman dominating
    function, and its weight 2|S| + (n - |S| - |B(S)|) is n minus the
    differential of S.
    """
    smask = g._coerce(s)
    boundary = _union(g.adj, smask) & ~smask
    return tuple(
        2 if smask >> v & 1 else 0 if boundary >> v & 1 else 1 for v in range(g.n)
    )


def roman_domination_number(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Minimum weight of a Roman dominating function and a minimum labeling.

    A labeling V -> {0, 1, 2} is Roman dominating when every 0-labeled
    vertex has a 2-labeled neighbor; the weight is the label sum. See
    ``InstanceContext.roman``.
    """
    return InstanceContext(g, budget).roman


def enclaveless_number(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
    """Maximum of |B(S)| over all subsets S and one witness (see ``InstanceContext.psi``)."""
    return InstanceContext(g, budget).psi


def lambda_invariant(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """m - n + 2 * (independence number)."""
    return InstanceContext(g, budget).lam


def mu_invariant(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
    """Largest cardinality of a differential set of R(g) inside the V part.

    Requires a connected base of order at least 3.
    """
    result = InstanceContext(g, budget).diff_r_v
    top = next(s for s in result.all_sets if len(s) == result.max_card)
    return result.max_card, top


class InstanceContext:
    """One graph plus lazily computed, shared solver results.

    Every reader of the same instance reuses the R-graph, the enumerated
    differential sets and the domination and independence numbers instead
    of re-solving. A search that runs out of budget is not run again: its
    error is cached and raised to every later reader.
    """

    def __init__(self, g: Graph, budget: int = DEFAULT_BUDGET):
        self.g = g
        self.budget = budget
        self._cache: dict[str, object] = {}

    def _get(self, key: str, fn):
        if key not in self._cache:
            try:
                self._cache[key] = fn()
            except BudgetExceededError as exc:
                self._cache[key] = exc
        if isinstance(self._cache[key], Exception):
            raise self._cache[key]
        return self._cache[key]

    @property
    def rg(self) -> RGraph:
        return self._get("rg", lambda: build_r(self.g))

    @property
    def diff_g(self) -> DifferentialResult:
        """Differential of the instance, all maximizers enumerated."""
        return self._get(
            "diff_g",
            lambda: differential_exact(
                self.g, enumerate_all=True, budget=self.budget
            ),
        )

    @property
    def diff_r_v(self) -> DifferentialResult:
        """Differential of the R-graph over subsets of V, all maximizers."""
        return self._get(
            "diff_r_v",
            lambda: differential_of_r(self.g, enumerate_all=True, budget=self.budget),
        )

    @property
    def diff_r_sizes(self) -> set[int]:
        """Every size of a differential set of the R-graph over all its subsets.

        Write a set of R(G) as A + E' (A in V, E' edge-vertices). An edge-vertex
        at A costs 2 and any other gains the ends it newly reaches outside
        N[A], minus 1, so the best E' gains the matching number of G - N[A].
        That is 0 at an optimum: for an edge uv there, adding u or v to A (one
        has degree >= 2, G being connected of order >= 3) gains more than the
        matching loses. So the value is diff_r_v's, and the differential sets
        are A + E' with A among diff_r_v's sets and E' one edge-vertex at each
        of any vertices of the exterior C(A): |A| to |A| + |C(A)| members.
        """
        return {
            k
            for a in self.diff_r_v.all_sets
            for k in range(len(a), len(a) + len(self.g.exterior(a)) + 1)
        }

    @property
    def gamma(self) -> tuple[int, VertexSet, None]:
        """Domination number of the instance and its first minimum set."""
        return self._get(
            "gamma", lambda: domination_number(self.g, budget=self.budget)
        )

    @property
    def gamma_r(self) -> tuple[int, VertexSet, None]:
        """Domination number of the R-graph and its first minimum set."""
        return self._get(
            "gamma_r",
            lambda: domination_number(self.rg.total, budget=self.budget),
        )

    @property
    def alpha(self) -> tuple[int, VertexSet]:
        """Independence number of the instance and its witness."""
        return self._get(
            "alpha", lambda: independence_number(self.g, budget=self.budget)
        )

    @property
    def tau(self) -> tuple[int, VertexSet]:
        """Vertex cover number by Gallai's tau = n - alpha.

        The witness is the complement of the independence witness.
        """
        alpha, independent = self.alpha
        return self.g.n - alpha, independent.complement()

    @property
    def psi(self) -> tuple[int, VertexSet]:
        """Enclaveless number by Slater's psi = n - gamma.

        S together with its exterior dominates, so |B(S)| <= n - gamma; a
        minimum dominating set D has B(D) = V - D and is the witness. On the
        empty graph gamma is undefined, but the empty set has an empty
        boundary, so psi = 0.
        """
        if self.g.n == 0:
            return 0, VertexSet(0)
        gamma, dominating, _ = self.gamma
        return self.g.n - gamma, dominating

    @property
    def roman(self) -> tuple[int, tuple[int, ...]]:
        """Roman domination number by gamma_R = n - diff.

        The witness is the Roman labeling of the differential witness.
        """
        res = self.diff_g
        return self.g.n - res.value, roman_labeling(self.g, res.witness)

    @property
    def lam(self) -> int:
        """m - n + 2 * alpha."""
        return self.g.m - self.g.n + 2 * self.alpha[0]

    @property
    def mu(self) -> int:
        """Largest cardinality of a differential set of R(G) inside V."""
        return self.diff_r_v.max_card


@dataclass(frozen=True)
class InvariantRecord:
    """Every invariant of one graph; fields are None when skipped.

    ``skipped`` maps each skipped field name to the reason it was not
    computed, so a record is always total.
    """

    n: int
    m: int
    delta_min: int | None
    delta_max: int | None
    diff: int | None
    diff_r: int | None
    gamma: int | None
    tau: int | None
    alpha: int | None
    roman: int | None
    psi: int | None
    lam: int | None
    mu: int | None
    skipped: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "delta_min": self.delta_min,
            "delta_max": self.delta_max,
            "diff": self.diff,
            "diff_r": self.diff_r,
            "gamma": self.gamma,
            "tau": self.tau,
            "alpha": self.alpha,
            "roman": self.roman,
            "psi": self.psi,
            "lambda": self.lam,
            "mu": self.mu,
            "skipped": dict(sorted(self.skipped.items())),
        }


def full_record(g: Graph, budget: int = DEFAULT_BUDGET) -> InvariantRecord:
    """Compute every invariant of ``g``, marking infeasible ones as skipped.

    Each field is read from one ``InstanceContext``, so four searches run:
    diff, gamma, alpha and one scan of V for both diff_r and mu; R(g) is
    never built.
    A field derived from a search that failed is skipped with its reason.
    """
    ctx = InstanceContext(g, budget)
    skipped: dict[str, str] = {}

    def read(name, fn):
        try:
            return fn()
        except (ValueError, BudgetExceededError) as exc:
            skipped[name] = str(exc)
            return None

    stats = g.degree_stats()
    return InvariantRecord(
        n=g.n,
        m=g.m,
        delta_min=stats.minimum,
        delta_max=stats.maximum,
        diff=read("diff", lambda: ctx.diff_g.value),
        diff_r=read("diff_r", lambda: ctx.diff_r_v.value),
        gamma=read("gamma", lambda: ctx.gamma[0]),
        tau=read("tau", lambda: ctx.tau[0]),
        alpha=read("alpha", lambda: ctx.alpha[0]),
        roman=read("roman", lambda: ctx.roman[0]),
        psi=read("psi", lambda: ctx.psi[0]),
        lam=read("lambda", lambda: ctx.lam),
        mu=read("mu", lambda: ctx.mu),
        skipped=skipped,
    )
