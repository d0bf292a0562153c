"""Exact solvers for the differential and its companion invariants.

Every solver is an exhaustive search; no heuristics, no approximation.
For a graph of order n:

* differential: by gamma_R = n - diff, a minimum of the Roman weight
  2|T| + |V - N[T]| (``differential_exact``) by the weighted set-cover
  branch and bound ``_min_cover`` over G's closed neighbourhoods: branch on
  an uncovered vertex with the fewest dominators, where the last branch
  leaves it uncovered, pruned by a coverage lower bound and by keeping the
  uncovered set a 2-packing (below); one search finds the value and the
  first maximizer of the largest cardinality;
* the differential of R(G): a maximum-weight choice of G's vertices and
  non-pendant edges (the lemma below), by the memoized weighted search
  ``_ChoiceSearch`` (``differential_of_r``); ``_r_maximizers`` lists the
  maximizers from the optimal choices and their closure (below), reading
  the largest weight on at most ``SMALL_PART`` undecided vertices from an
  exact memo that its own walk fills;
* domination: ``_min_cover`` over the closed neighbourhoods from the
  greedy set, with a member priced 1 and an undominated vertex n + 1, so
  every vertex must be covered and a packing lower bound joins the
  coverage one (after Fomin, Grandoni and Kratsch, J. ACM 56, 2009, and
  van Rooij and Bodlaender, Discrete Appl. Math. 159, 2011); on R(G) the
  same search covers G's edges with G's vertices (the V lemma below);
* independence: ``_ChoiceSearch`` with every vertex an item of weight 1.

The lemma. Let G be connected of order n >= 3 with m edges, S a subset of
V and T = V - S. In R(G) the boundary of S is its boundary in G plus one
edge-vertex per edge with an end in S, so

    diff_R(S) = m - n + 2|T| - e(G[T]) - |{v in T : N[v] inside T}|.

Moving a vertex v with d_T(v) >= 2 from T into S never lowers diff_R: 2|T|
drops by 2, e(G[T]) by d_T(v) >= 2, and no vertex becomes closed (N[x]
inside T) while v and its neighbours in T may stop being closed. So every
maximizer of the largest cardinality leaves T 1-dependent: G[T] is an
induced matching M plus vertices I with no neighbour in T. No edge uv of M
is pendant either: for d(u) = 1, moving u into S costs 2, frees one edge
of G[T] and ends u being closed, so the value stays and S grows. A vertex
of I has a neighbour in S, as does an end of a non-pendant M-edge, so none
is closed and diff_R(S) = m - n + 2|I| + 3|M|. Hence diff(R(G)) is m - n
plus the largest 2|I| + 3|M|, with I alone worth 2 and an edge of M
worth 3, and the first maximizer of the largest cardinality is the choice
of largest weight, then smallest |T|, then whose S has the smallest member
tuple (``differential_of_r``).

The maximizers. The two moves above need only that S is a maximizer: a
T-vertex with two T-neighbours, or the degree-1 end of an edge of G[T],
goes into S and the value stays. Each move shrinks T, so from any
maximizer they lead, through maximizers, to one whose T is 1-dependent
with no pendant edge: a choice, of the largest weight. Read backwards,
every maximizer is reached from an optimal choice by moving one vertex at a
time from S into T with the value kept at its maximum, and every set so
reached is a maximizer. So the maximizers are exactly the closure of the
optimal choices under that move (``_r_maximizers``).

The V lemma. In R(G), N[v_ab] = {v_ab, a, b} lies inside N[a], so putting
a in place of each edge-vertex v_ab of a dominating set keeps it
dominating and no larger: some minimum dominating set lies inside V, and
gamma(R(G)) is the least size of a set inside V that dominates R(G).
Let G be connected of order n >= 3 and S a subset of V. The only
dominators of v_ab inside V are a and b, so S dominates every edge-vertex
exactly when S is a vertex cover of G. A vertex cover dominates V too: a
vertex v outside it has a neighbour, G being connected of order >= 2, and
that neighbour is in the cover, since the edge to it has an end there. So
the sets inside V that dominate R(G) are G's vertex covers, and
gamma(R(G)) = tau (P11). ``InstanceContext.gamma_r`` searches for a least
cover of G's edges: v covers the edges at v.

The 2-packing rule. The differential search minimizes one packed cost
(see ``differential_exact``): with card = 2^n and the unit (n + 1) card, an
uncovered vertex costs one unit and a member v costs 2 units - card -
2^(n - 1 - v). Let S be the minimum and U = V - N[S] the vertices it
leaves uncovered. If some z outside S had two vertices of U in N[z], S + z
would pay 2 units - card - 2^(n - 1 - z) for z and save at least 2 units
on the vertices z covers, so it would cost card + 2^(n - 1 - z) less than
S: a contradiction. So no closed neighbourhood holds two vertices of
U: U is a 2-packing (Cockayne, Dreyer, Hedetniemi and Hedetniemi, "Roman
domination in graphs", Discrete Math. 278, 2004). The search leaves a
vertex u uncovered in its last branch at u, and when no kept dominator of
u is left; from then on every vertex of N[N[u]] - u must end covered, so
it gets no last branch (and so is branched on sooner), and a node that
leaves one uncovered ends. Every S is reached in exactly one branch and
the cut branches hold no S with a 2-packing U, so the minimum, the
witness, is the one the search without the rule finds.

P15 follows. I alone, with M empty, gives diff(R(G)) >= m - n + 2 alpha =
lambda. I plus one end of each M-edge is independent, so 2|I| + 3|M| <=
2 alpha + |M|, and |M| <= |T| / 2 = (n - mu) / 2 for the witness, whose S
has the largest cardinality mu. So lambda <= diff(R(G)) <= lambda +
floor((n - mu) / 2).

``InstanceContext`` is the single per-instance cache: it runs each search
on one graph at most once and reads diff(R(G)) from the list of its
maximizers once that has answered. ``full_record``, the proposition checks
and the public one-quantity solvers all read from it. The identities live
on it and nowhere else. Four quantities are derived instead of searched: the
Roman domination number gamma_R = n - diff (Bermudo, Fernau and
Sigarreta, 2014), the vertex cover number tau = n - alpha (Gallai), the
enclaveless number psi = n - gamma (Slater, "Enclaveless sets and
MK-systems", 1977) and lambda = m - n + 2 alpha. The witnesses of the first
three are the Roman labeling of the differential witness (see
``roman_labeling``), the complement of the independence witness and the
minimum dominating set witness. The oracles in tests/ check the identities
against the definitions. The differential of R(G) comes from the choice
search on G; its differential sets over the full subset space follow from
the sets inside V (see ``InstanceContext.diff_r_sizes``). One pass over
the list of those sets takes each one's boundary and exterior in G
(``InstanceContext.diff_r_partitions``), and the sizes and every check
that reads the list read that pass.

Ties among searched witnesses are broken toward the lexicographically
smallest member tuple, which keeps reports reproducible. A differential
witness has the largest cardinality among the maximizers, an independence
witness is a maximum set. A domination witness is the first minimum the
search finds; the search is deterministic, so it too is reproducible.
Searches that would exceed their node budget raise BudgetExceededError,
naming the public solver that ran out and the units it spent, rather than
returning a partial answer.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .core import DEFAULT_BUDGET, BudgetExceededError, Graph, VertexSet, _union, bits
from .roperator import build_r

#: Largest set of undecided vertices that ``_ChoiceSearch`` searches
#: without its bound and component split, and that the walk of
#: ``_r_maximizers`` reads from its exact memo.
SMALL_PART = 12


class DifferentialResult(NamedTuple):
    """Outcome of an exact differential search.

    ``witness`` is the first maximizer of the largest cardinality.
    ``search_space_size`` counts the units the search spent, the work its
    nodes did (see ``differential_exact`` and ``_ChoiceSearch``), for
    instrumentation.
    """

    value: int
    witness: VertexSet
    search_space_size: int


class _NodeCounter:
    """The units a search has spent against its budget.

    The searches add to ``nodes`` themselves and call ``spend`` only on the
    charge that crosses the budget, where it raises; a method call per node
    would cost more than the node's own work on small graphs.
    """

    __slots__ = ("nodes", "budget", "solver")

    def __init__(self, solver: str, budget: int):
        self.nodes = 0
        self.budget = budget
        self.solver = solver

    def spend(self, amount: int) -> None:
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"{self.solver} search exceeded its node budget of {self.budget}"
                f" after {self.nodes} units"
            )


def _min_cover(
    covers: Sequence[int], dominators: Sequence[int], price: list[int], unit: int,
    counter: _NodeCounter, best: float, found: int,
) -> tuple[float, int]:
    """The least cost of a subset S of 0..n-1, n = len(covers), and the
    first set of that cost the search finds, as a mask.

    ``covers[v]`` is the set of elements 0..order-1, order =
    len(``dominators``), that candidate v covers: N[v] for domination and
    the differential, the edges at v for a vertex cover (see
    ``InstanceContext.gamma_r``). ``dominators`` is its transpose, which
    the caller passes as it has it: ``dominators[u]`` holds exactly the
    candidates v whose ``covers[v]`` holds u, N[u] again for closed
    neighbourhoods and the two ends of an edge. The cost of S is the sum
    of its members' ``price``, which the caller lists cheapest first and
    all between the same two multiples of ``unit``, plus ``unit`` for each
    element S leaves uncovered. The callers give the cost model: a member
    costs 2 units, less a part that orders sets of one Roman weight, and
    an uncovered vertex one unit for the Roman weight 2|S| + |V - N[S]|
    (see ``differential_exact``), a member 1 and an uncovered element
    order + 1 for domination and covers. Set-cover branch and bound:
    branch on an uncovered element with the fewest allowed dominators, the
    candidates covering it, taking each of them in turn by reach and
    excluding the earlier ones from the later branches; the last branch
    leaves the element uncovered and forbids all of them. So every S
    is reached in exactly one branch. A dominator is kept while its price
    is at most ``unit`` times the uncovered elements it reaches, and an
    element with no kept dominator pays ``unit``. The bound adds to the cost
    so far the cheapest prices paired with the largest reaches, stopping at
    the first member that pays at least ``unit`` times what it covers, and
    ``unit`` for every uncovered element left. When ``unit`` exceeds every
    price, the bound is also at least the cheapest prices of as many
    uncovered elements with pairwise disjoint dominators, taken fewest
    dominators first, since each pays for a member of its own or its
    ``unit`` (the packing bound of van Rooij and Bodlaender, Discrete Appl.
    Math. 159, 2011); the search then branches on the first of them, and
    otherwise on the lowest-index element with the fewest dominators. The
    last branch is entered only when the cost so far plus ``unit`` can
    still beat ``best``.

    The search runs the 2-packing rule: the least cost must leave its
    uncovered elements a 2-packing, so that no candidate covers two of
    them. The module docstring proves it for the differential's packed
    cost. So once an element u is left uncovered, by the last branch or
    for want of a kept dominator, every other element that shares a
    dominator with u must end covered: a node that leaves one of them
    uncovered ends, and an element that must be covered gets no last
    branch, so the search branches on the lowest-index element with the
    fewest branches, its dominators plus the last branch if it has one.
    Those elements are the union of ``covers`` over ``dominators[u]``,
    N[N[u]] for closed neighbourhoods, taken when u is first left
    uncovered. The domination and cover searches start from a full cover
    that costs less than ``unit``, so their least cost leaves nothing
    uncovered: the rule holds for them, they open no last branch, and it
    cuts nothing.

    The search starts from the incumbent ``best``, reached by ``found``. It
    prunes when the bound meets the incumbent, so ``found`` ends as the
    first set of the least cost. Each call spends one unit plus one per
    allowed candidate and per uncovered element, the work it does.
    """
    n = len(covers)
    must_cover = unit > max(price)
    units, budget = counter.nodes, counter.budget
    sharing = [-1] * len(dominators)  # filled as each element is first left uncovered
    # Every price lies between the same two multiples of ``unit``, so for a
    # whole number k, price[v] <= unit * k exactly when k >= least, and
    # price[v] >= unit * k exactly when k <= most.
    least, most = -(-price[0] // unit), price[0] // unit
    assert (-(-price[-1] // unit), price[-1] // unit) == (least, most)

    def shared(low: int) -> int:
        u = low.bit_length() - 1
        if sharing[u] < 0:
            sharing[u] = _union(covers, dominators[u]) & ~low
        return sharing[u]

    def search(uncovered: int, allowed: int, chosen: int, cost: int, forced: int) -> None:
        # ``forced``: the elements the 2-packing rule keeps from being left
        # uncovered.
        nonlocal best, found, units
        units += 1 + allowed.bit_count() + uncovered.bit_count()
        if units > budget:
            counter.spend(units - counter.nodes)
        ranked = []  # (-reach, v) of each kept dominator
        prices = []
        useful = reached = 0
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            k = (covers[v] & uncovered).bit_count()
            if k >= least:
                ranked.append((-k, v))
                prices.append(price[v])
                useful |= low
                reached |= covers[v]
        left = uncovered & ~reached
        if left:
            cost += unit * left.bit_count()
            # The bound below is at least ``cost``, so prune before the
            # 2-packing bookkeeping; a search that must cover everything
            # always ends here once it leaves an element uncovered.
            if cost >= best:
                return
            uncovered ^= left
            while left:
                low = left & -left
                if low & forced:
                    return
                left ^= low
                forced |= shared(low)
        if not uncovered:
            if cost < best:
                best, found = cost, chosen
            return
        # Prices come cheapest first and reaches largest first, so each
        # further member gains no more than the one before; stop at the
        # first that pays at least what it covers.
        ranked.sort()
        left = uncovered.bit_count()
        bound = cost
        for p, (k, _) in zip(prices, ranked):
            k = -k
            if k > left:
                k = left
            if k <= most:
                break
            bound += p
            left -= k
        bound += unit * left
        if bound >= best:
            return
        if must_cover:
            options = []
            rest = uncovered
            while rest:
                low = rest & -rest
                rest ^= low
                d = dominators[low.bit_length() - 1] & useful
                options.append((d.bit_count(), d, low))
            options.sort()
            packed = taken = 0
            for _, d, _ in options:
                if not d & taken:
                    packed += 1
                    taken |= d
            if cost + sum(prices[:packed]) >= best:
                return
            _, candidates, branch = options[0]
        else:
            # The branches an element makes: one per dominator, and the
            # last one unless it must end covered.
            fewest = n + 2
            rest = uncovered
            while rest:
                low = rest & -rest
                rest ^= low
                options = dominators[low.bit_length() - 1] & useful
                k = options.bit_count() + (not low & forced)
                if k < fewest:
                    branch, candidates, fewest = low, options, k
                    if k == 1:
                        break
        leave = cost + unit < best and not branch & forced
        for _, d in ranked:
            if candidates >> d & 1:
                useful &= ~(1 << d)
                search(uncovered & ~covers[d], useful, chosen | 1 << d, cost + price[d], forced)
        if leave:
            search(uncovered ^ branch, useful, chosen, cost + unit, forced | shared(branch))

    search((1 << len(dominators)) - 1, (1 << n) - 1, 0, 0, 0)
    counter.nodes = units
    return best, found


class _ChoiceSearch:
    """A memoized search for the largest key of a choice of items.

    A choice, in the graph with rows ``adj``, puts every vertex in S or in
    T, and T is made of items: a vertex alone, with no neighbour in T, of
    weight ``alone``, or an edge of two ``pairable`` vertices, with no other
    neighbour of either in T, of weight ``pair``, where ``alone`` < ``pair``
    < 2 ``alone`` when any vertex is pairable. Its key is
    ``unit`` times its weight plus ``tie[v]`` for each v in T, where the
    ties all have one sign and total less than ``unit`` over any T, so keys
    order choices by weight, then by the ties. ``best`` maps a set U of
    undecided vertices to the largest key of a choice on G[U]; its memo
    serves every later call.

    Putting a vertex in T sends its undecided neighbours, but its partner,
    to S. In each node:

    * a vertex with no neighbour in U goes to T alone;
    * a vertex v with one neighbour u in U, tie[v] >= tie[u] and no pair uv
      goes to T alone: where v is in S, u is in T (else v could join it),
      and v alone in place of u alone, or of u's pair with w beside w
      alone, has a key at least as large;
    * G[U] in several components is solved one component at a time;
    * otherwise a vertex v with the most neighbours in U goes to T alone,
      to T paired with each pairable neighbour, and to S. If that is one
      neighbour u, every vertex has one and none went to T by the rule
      above, so u and v are pairable and their pair beats v in S.

    Each call below the top gets a threshold and answers exactly when it
    can beat it; otherwise it returns an upper bound no higher than the
    threshold, which the memo keeps as a bound. The bound: an edge of G[U]
    touches at most one item of a choice, a vertex alone touches its d(v)
    edges and a pair uv d(u) + d(v) - 1, so the weight is at most a
    fractional knapsack of capacity |E(G[U])| in which v, alone, costs
    d(v), or, as an end of a pair, has half the pair's weight for
    d(v) - 1/2. A U of at most ``SMALL_PART`` vertices is neither bounded
    nor split: there the memo over its subsets costs less than either. Each
    node spends one unit, and ``examined`` per vertex for each pass it makes
    over U: the scan, the bound and the split.
    """

    __slots__ = ("adj", "alone", "pair", "tie", "unit", "pairable", "counter",
                 "examined", "gain", "pair_cost", "memo", "bounded")

    def __init__(
        self, adj: tuple[int, ...], alone: int, pair: int, tie: list[int],
        unit: int, pairable: int, counter: _NodeCounter, examined: int,
    ):
        self.adj = adj
        self.alone = alone
        self.pair = pair
        self.tie = tie
        self.unit = unit
        self.pairable = pairable
        self.counter = counter
        self.examined = examined
        self.gain = [alone * unit + t for t in tie]
        self.pair_cost = (2 * alone - pair) * unit
        # Every key of a nonempty U is positive: the memo holds a key as it
        # is and an upper bound b as ~b, which is negative.
        self.memo: dict[int, int] = {}
        self.bounded = 0  # how often a bound stood in for a search

    def best(self, undecided: int, need: int = -1) -> int:
        """The largest key on G[``undecided``] when it beats ``need``, else
        an upper bound no higher than ``need``."""
        if not undecided:
            return 0
        memo = self.memo
        known = memo.get(undecided)
        if known is not None:
            if known >= 0:
                return known
            if ~known <= need:
                self.bounded += 1
                return ~known
        adj, gain, tie, pairable = self.adj, self.gain, self.tie, self.pairable
        size = undecided.bit_count()
        counter = self.counter
        counter.nodes += 1 + self.examined * size
        if counter.nodes > counter.budget:
            counter.spend(0)
        mark = self.bounded
        taken = most = 0
        left = rest = undecided
        while rest:
            low = rest & -rest
            rest ^= low
            x = low.bit_length() - 1
            around = adj[x] & undecided
            d = around.bit_count()
            if d == 0:
                taken += gain[x]
                left ^= low
            elif d == 1 and tie[x] >= tie[around.bit_length() - 1] and not (
                low & pairable and around & pairable
            ):
                taken += gain[x]
                result = taken + self.best(left & ~(around | low), need - taken)
                break
            elif d > most:
                v, most = x, d
        else:
            result = taken
            need -= taken
            if not left:
                pass
            elif size > SMALL_PART and need >= 0 and (top := self._bound(left)) <= need:
                self.bounded += 1
                result += top
            elif size > SMALL_PART and (part := self._component(left, v)) != left:
                result += self._both(part, left ^ part, need)
            else:
                # v alone, v with each pairable neighbour, and v in S; the
                # best option when one beats ``need``, else the largest
                # bound.
                low = 1 << v
                around = adj[v] & left
                best, top = need, -1
                value = gain[v]
                value += self.best(left & ~(around | low), best - value)
                if value > best:
                    best = value
                else:
                    top = value
                if low & pairable:
                    for u in bits(around & pairable):
                        value = gain[v] + gain[u] - self.pair_cost
                        value += self.best(left & ~(around | adj[u] | low), best - value)
                        if value > best:
                            best = value
                        elif value > top:
                            top = value
                if most > 1:
                    value = self.best(left ^ low, best)
                    if value > best:
                        best = value
                    elif value > top:
                        top = value
                result += best if best > need else top
            need += taken
        memo[undecided] = result if result > need or self.bounded == mark else ~result
        return result

    def _bound(self, part: int) -> int:
        # In doubled units: capacity 2|E|, costs 2d and 2d - 1. A pair end
        # that beats the vertex alone per unit of cost is the first segment
        # of the vertex, and the rest of the vertex alone its second.
        counter = self.counter
        counter.nodes += self.examined * part.bit_count()
        if counter.nodes > counter.budget:
            counter.spend(0)
        adj, pairable, alone, pair = self.adj, self.pairable, self.alone, self.pair
        segments = []
        capacity = 0
        rest = part
        while rest:
            low = rest & -rest
            rest ^= low
            around = adj[low.bit_length() - 1] & part
            d = around.bit_count()
            capacity += d
            if low & pairable and around & pairable and pair * d > alone * (2 * d - 1):
                segments.append((-pair / (2 * d - 1), 2 * d - 1, pair))
                segments.append((pair - 2 * alone, 1, 2 * alone - pair))
            else:
                segments.append((-alone / d, 2 * d, 2 * alone))
        segments.sort()
        doubled = 0
        for _, cost, value in segments:
            if cost > capacity:
                doubled += capacity * value // cost
                break
            capacity -= cost
            doubled += value
        return (doubled // 2 + 1) * self.unit - 1

    def _component(self, within: int, v: int) -> int:
        # The vertices of ``within`` joined to v by a path inside it.
        counter = self.counter
        counter.nodes += self.examined * within.bit_count()
        if counter.nodes > counter.budget:
            counter.spend(0)
        adj = self.adj
        part = adj[v] & within | 1 << v
        frontier = part ^ 1 << v
        while frontier and part != within:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adj[low.bit_length() - 1]
            frontier = reach & within & ~part
            part |= frontier
        return part

    def _both(self, first: int, second: int, need: int) -> int:
        # Two parts with no edge between them, the second bounded while
        # the first is searched.
        if need < 0:
            return self.best(first, need) + self.best(second, need)
        later = self._bound(second)
        got = self.best(first, need - later)
        if got <= need - later:
            self.bounded += 1
            return got + later
        return got + self.best(second, need - got)


def differential_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> DifferentialResult:
    """Maximize |B(S)| - |S| over all subsets S of V, with the first
    maximizer of the largest cardinality, in cardinality-then-member-tuple
    order, as the witness.

    The search minimizes the Roman weight 2|S| + |V - N[S]| by
    ``_min_cover`` over the closed neighbourhoods; a dominator it keeps
    reaches at least two uncovered vertices. The weight, |S| and the member
    tuple are packed into one integer (see below) whose minimum is the set
    sought, and the weight is that minimum in whole units, rounded up.
    """
    if g.n == 0:
        raise ValueError("differential is undefined on the empty graph")
    n = g.n
    # An uncovered vertex costs `unit` and a member v 2 units less
    # 2^n + 2^(n - 1 - v); over a set these parts stay under one unit.
    # Of two sets of one weight the larger is kept; of two k-sets, the
    # one holding the least vertex they do not share, which has the
    # larger sum of 2^(n - 1 - v).
    card = 1 << n
    unit = (n + 1) * card
    price = [2 * unit - card - (1 << n - 1 - v) for v in range(n)]
    closed = g.closed_adj
    counter = _NodeCounter("differential_exact", budget)
    best, found = _min_cover(closed, closed, price, unit, counter, math.inf, 0)
    return DifferentialResult(n - -(-best // unit), VertexSet(n, found), counter.nodes)


def _require_r_base(g: Graph) -> None:
    if g.n < 3:
        raise ValueError("R-graph invariants require order >= 3")
    if not g.is_connected:
        raise ValueError("R-graph invariants require a connected graph")


def differential_of_r(g: Graph, budget: int = DEFAULT_BUDGET) -> DifferentialResult:
    """Differential of R(g) over subsets of V(g), as sets of g's vertices,
    with the first maximizer of the largest cardinality as the witness.

    It requires a connected g of order at least 3; R(g) itself is never
    built. It runs ``_ChoiceSearch`` on g (see the lemma in the module
    docstring): a vertex alone weighs 2 and a non-pendant edge 3. With
    A = (n + 1) 2^n as the unit, each v in T ties at -(2^n + 2^(n - 1 - v)),
    so the largest key has the largest weight, then the smallest |T|, then
    the T whose complement has the smallest member tuple: it is the first
    maximizer of the largest cardinality, and its ties, mod 2^n, spell T.
    ``_r_maximizers`` lists every maximizer.
    """
    _require_r_base(g)
    n = g.n
    pairable = sum(1 << v for v, row in enumerate(g.adj) if row & row - 1)
    counter = _NodeCounter("differential_of_r", budget)
    card = 1 << n
    unit = (n + 1) * card
    tie = [-card - (1 << n - 1 - v) for v in range(n)]
    best = _ChoiceSearch(g.adj, 2, 3, tie, unit, pairable, counter, 1).best(g.full_mask)
    chosen = _reversed_bits(-best % card, n)
    return DifferentialResult(
        g.m - n - (-best // unit), VertexSet(n, g.full_mask & ~chosen), counter.nodes
    )


def _r_maximizers(g: Graph, budget: int = DEFAULT_BUDGET) -> tuple[DifferentialResult, list[int]]:
    """Every maximizer of the differential of R(g) inside V (see the closure
    in the module docstring), as masks sorted by cardinality, then member
    tuple, with the value and witness ``differential_of_r`` gives.

    It requires a connected g of order at least 3, and it spends its units,
    and names itself when they run out, as ``differential_of_r``. A walk
    branches on the lowest undecided vertex v: alone in T, paired with each
    pairable undecided neighbour, or in S when it has an undecided
    neighbour (else v alone in T would add 2). It descends where
    the largest weight of a choice on the vertices still undecided is the
    weight still to place, so it ends on the optimal choices alone. For a
    set U of at most ``SMALL_PART`` vertices that weight is a lookup in an
    exact memo filled by the walk's own branching, which also gives the top
    value when g has at most ``SMALL_PART`` vertices. A larger U asks one
    ``_ChoiceSearch`` without ties, whose keys are the choice weights, so
    ``best(U, r - 1) == r`` exactly when the largest weight of a choice on
    G[U] is r. The closure then moves one vertex at a time from S into T
    where the value stays. Each walk node spends one unit plus one per
    undecided vertex, and each set the closure takes up one plus one per
    vertex of g, the vertices they examine. Each memo node spends one unit:
    it reads one row and makes one lookup per branch, at most
    ``SMALL_PART`` + 1 of them.
    """
    _require_r_base(g)
    adj, full = g.adj, g.full_mask
    pairable = sum(1 << v for v, row in enumerate(adj) if row & row - 1)
    counter = _NodeCounter("differential_of_r", budget)
    # Only a part of more than SMALL_PART vertices asks the search.
    search = None
    if g.n > SMALL_PART:
        search = _ChoiceSearch(adj, 2, 3, [0] * g.n, 1, pairable, counter, 1).best
    exact = {0: 0}

    def weight(undecided: int) -> int:
        # The largest weight of a choice on G[undecided], by the walk's
        # branching.
        known = exact.get(undecided)
        if known is None:
            counter.nodes += 1
            if counter.nodes > budget:
                counter.spend(0)
            low = undecided & -undecided
            around = adj[low.bit_length() - 1] & undecided
            rest = undecided & ~(around | low)
            known = 2 + weight(rest)
            mates = around & pairable if low & pairable else 0
            while mates:
                mate = mates & -mates
                mates ^= mate
                value = 3 + weight(rest & ~adj[mate.bit_length() - 1])
                if value > known:
                    known = value
            if around:
                value = weight(undecided ^ low)
                if value > known:
                    known = value
            exact[undecided] = known
        return known

    def fits(undecided: int, left: int) -> bool:
        # Whether the largest weight of a choice on G[undecided] is ``left``.
        if undecided.bit_count() > SMALL_PART:
            return search(undecided, left - 1) == left
        # Most reads hit the memo; reading it here saves the walk a call.
        known = exact.get(undecided)
        return (weight(undecided) if known is None else known) == left

    top = weight(full) if g.n <= SMALL_PART else search(full)
    optima = []
    walk = [(full, top, full)]  # undecided, weight still to place, S so far
    while walk:
        undecided, left, s = walk.pop()
        counter.nodes += 1 + undecided.bit_count()
        if counter.nodes > budget:
            counter.spend(0)
        if not undecided:
            optima.append(s)
            continue
        low = undecided & -undecided
        around = adj[low.bit_length() - 1] & undecided
        rest = undecided & ~(around | low)
        if fits(rest, left - 2):
            walk.append((rest, left - 2, s ^ low))
        # A pair weighs 3, so it fits only where at least 3 is left.
        if low & pairable and left >= 3:
            for u in bits(around & pairable):
                part = rest & ~adj[u]
                if fits(part, left - 3):
                    walk.append((part, left - 3, s ^ low ^ 1 << u))
        if around and fits(undecided ^ low, left):
            walk.append((undecided ^ low, left, s))
    # Moving w from S into T gains 2 and loses its edges into T, itself if
    # it has no neighbour left in S, and each T-neighbour whose one
    # S-neighbour it was (a ``private`` one); the value stays when they
    # cancel.
    found = set(optima)
    closing = optima
    while closing:
        s = closing.pop()
        counter.nodes += 1 + g.n
        if counter.nodes > budget:
            counter.spend(0)
        t = full ^ s
        private = 0
        rest = t
        while rest:
            low = rest & -rest
            rest ^= low
            near = adj[low.bit_length() - 1] & s
            if not near & near - 1:
                private |= low
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            row = adj[low.bit_length() - 1]
            loss = (row & t).bit_count()
            if loss > 2:
                continue
            loss += (row & private).bit_count() + (not row & s)
            if loss == 2 and s ^ low not in found:
                found.add(s ^ low)
                closing.append(s ^ low)
    ordered = _card_lex(found, g.n)
    witness = VertexSet(g.n, max(ordered, key=int.bit_count))
    return DifferentialResult(g.m - g.n + top, witness, counter.nodes), ordered


def _reversed_bits(packed: int, n: int) -> int:
    """The mask holding v exactly where ``packed`` holds bit n - 1 - v."""
    return int(format(packed, f"0{n}b")[::-1], 2)


def _card_lex(masks: Iterable[int], n: int) -> list[int]:
    """Subsets of 0..n-1 sorted by cardinality, then member tuple: of two
    k-sets, the one holding the least vertex they do not share, whose bits
    reversed are the larger number, comes first."""
    return sorted(masks, key=lambda m: (m.bit_count(), -_reversed_bits(m, n)))


def is_dominating(g: Graph, s: VertexSet | Iterable[int]) -> bool:
    """True iff every vertex is in S or adjacent to a member of S."""
    return _union(g.closed_adj, g._coerce(s)) == g.full_mask


def is_vertex_cover(g: Graph, s: VertexSet | Iterable[int]) -> bool:
    """True iff every edge has at least one end in S."""
    outside = g.full_mask & ~g._coerce(s)
    return not _union(g.adj, outside) & outside


def domination_number(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
    """Minimum dominating set size and the first minimum the search finds
    (``_dominate`` over the closed neighbourhoods of g)."""
    if g.n == 0:
        raise ValueError("domination is undefined on the empty graph")
    closed = g.closed_adj
    found = _dominate(closed, closed, budget)
    return found.bit_count(), VertexSet(g.n, found)


def _dominate(covers: Sequence[int], dominators: Sequence[int], budget: int) -> int:
    """A least S among candidates 0..k-1, k = len(covers), whose ``covers``
    together hold all of 0..order-1, order = len(``dominators``), the
    transpose of ``covers`` (see ``_min_cover``): the first such S found,
    as a mask.

    ``_min_cover`` with a member priced 1 and an uncovered element
    ``order`` + 1 starts from the greedy set, which takes in turn the
    first candidate covering the most elements still uncovered; often it is
    already minimum, and the search proves it.
    """
    order = len(dominators)
    greedy = 0
    uncovered = (1 << order) - 1
    while uncovered:
        most = -1
        for v, row in enumerate(covers):
            k = (row & uncovered).bit_count()
            if k > most:
                pick, most = v, k
        greedy |= 1 << pick
        uncovered &= ~covers[pick]
    counter = _NodeCounter("domination_number", budget)
    _, found = _min_cover(
        covers, dominators, [1] * len(covers), order + 1, counter, greedy.bit_count(), greedy
    )
    return found


def vertex_cover_number(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
    """Minimum vertex cover size and one witness (see ``InstanceContext.tau``)."""
    return InstanceContext(g, budget).tau


def independence_number(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
    """Maximum independent set size and its lexicographically smallest witness.

    The items of ``_ChoiceSearch`` are single vertices of weight 1, with
    no ties, so a vertex with at most one undecided neighbour is taken
    without branching. One search finds alpha, and its memo then answers,
    vertex by vertex in order, whether a maximum set takes that vertex with
    the ones already taken. Each node spends one unit.
    """
    adj = g.adj
    counter = _NodeCounter("independence_number", budget)
    size = _ChoiceSearch(adj, 1, 0, [0] * g.n, 1, 0, counter, 0).best
    alpha = size(g.full_mask)
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


def mu_invariant(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, VertexSet]:
    """Largest cardinality of a differential set of R(g) inside the V part.

    The witness is the first such set of that cardinality. Requires a
    connected base of order at least 3.
    """
    top = InstanceContext(g, budget).diff_r().witness
    return len(top), top


class InstanceContext:
    """One graph plus lazily computed, shared solver results.

    Every reader of the same instance reuses R(G) (a plain ``Graph``, built
    only when a check inspects it), the differential searches and the
    domination and independence numbers instead of re-solving. ``diff`` (on
    G) runs ``differential_exact``, ``diff_r`` (on R(G) over V)
    ``differential_of_r``, and ``diff_r_partitions`` lists the maximizers by
    ``_r_maximizers``, which gives the same value and witness: once the list
    has answered, ``diff_r`` reads them from it and starts no search. A
    search that runs out of budget is not run again: its error is cached
    and raised to every later reader. A ``diff_r`` read whose list ran out
    runs its own search, which does less work and may answer.
    """

    def __init__(self, g: Graph, budget: int = DEFAULT_BUDGET):
        self.g = g
        self.budget = budget
        self._cache: dict[object, object] = {}

    def cached(self, key, fn):
        """``fn()``, computed once per context and kept under ``key``; a budget
        error is kept too and raised again to every later reader."""
        try:
            value = self._cache[key]
        except KeyError:
            try:
                value = fn()
            except BudgetExceededError as exc:
                value = exc
            self._cache[key] = value
        if isinstance(value, BudgetExceededError):
            raise value
        return value

    @property
    def rg(self) -> Graph:
        return self.cached("rg", lambda: build_r(self.g))

    def diff(self) -> DifferentialResult:
        """Differential of the instance and its first maximizer of the largest
        cardinality."""
        return self.cached("diff", lambda: differential_exact(self.g, self.budget))

    def diff_r(self) -> DifferentialResult:
        """Differential of the R-graph over subsets of V and its first
        maximizer of the largest cardinality."""
        return self.cached("diff_r", lambda: differential_of_r(self.g, self.budget))

    @property
    def diff_r_partitions(self) -> tuple[tuple[VertexSet, int, int], ...]:
        """Each differential set A of the R-graph inside V, sorted by
        cardinality, then member tuple, with its boundary B(A) and exterior
        C(A) in G as masks.

        It is the one reader of ``_r_maximizers``' list: one pass over it
        takes N(A) once per set, and ``diff_r_sizes`` and the checks that
        read the sets (P03, P05, P06, P09 and P13) read that pass.
        """

        def partitions():
            g = self.g
            res, masks = _r_maximizers(g, self.budget)
            # The same value and witness as differential_of_r's: diff_r
            # reads them from here on.
            self._cache["diff_r"] = res
            out = []
            for a in masks:
                near = _union(g.adj, a)
                out.append((VertexSet(g.n, a), near & ~a, g.full_mask & ~(near | a)))
            return tuple(out)

        return self.cached("diff_r_partitions", partitions)

    @property
    def diff_r_sizes(self) -> set[int]:
        """Every size of a differential set of the R-graph over all its subsets.

        Write a set of R(G) as A + E' (A in V, E' edge-vertices). An edge-vertex
        at A costs 2 and any other gains the ends it newly reaches outside
        N[A], minus 1, so the best E' gains the matching number of G - N[A].
        That is 0 at an optimum: for an edge uv there, adding u or v to A (one
        has degree >= 2, G being connected of order >= 3) gains more than the
        matching loses. So the value is diff_r's, and the differential sets
        are A + E' with A among diff_r's sets and E' one edge-vertex at each
        of any vertices of the exterior C(A): |A| to |A| + |C(A)| members.
        The maximizers repeat a few (|A|, |C(A)|) pairs, so the ranges are
        expanded once each.
        """

        def sizes():
            pairs = {(len(a), c.bit_count()) for a, _, c in self.diff_r_partitions}
            return {k for size, c in pairs for k in range(size, size + c + 1)}

        return self.cached("diff_r_sizes", sizes)

    @property
    def gamma(self) -> tuple[int, VertexSet]:
        """Domination number of the instance and the first minimum the search finds."""
        return self.cached(
            "gamma", lambda: domination_number(self.g, budget=self.budget)
        )

    @property
    def gamma_r(self) -> tuple[int, VertexSet]:
        """Domination number of the R-graph and the first minimum the search
        finds inside V, as a set of R(G).

        It requires a connected base of order at least 3. There the sets
        inside V that dominate R(G) are G's vertex covers (the V lemma in
        the module docstring), so the search covers G's edges: vertex v
        covers the edges at v.
        """
        g = self.g

        def search():
            _require_r_base(g)
            covers = [0] * g.n
            ends = []
            for i, (a, b) in enumerate(g.edges()):
                covers[a] |= 1 << i
                covers[b] |= 1 << i
                ends.append(1 << a | 1 << b)
            found = _dominate(covers, ends, self.budget)
            return found.bit_count(), VertexSet(g.n + g.m, found)

        return self.cached("gamma_r", search)

    @property
    def alpha(self) -> tuple[int, VertexSet]:
        """Independence number of the instance and its witness."""
        return self.cached(
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
        gamma, dominating = self.gamma
        return self.g.n - gamma, dominating

    @property
    def roman(self) -> tuple[int, tuple[int, ...]]:
        """Roman domination number by gamma_R = n - diff.

        The witness is the Roman labeling of the differential witness.
        """
        res = self.diff()
        return self.g.n - res.value, roman_labeling(self.g, res.witness)

    @property
    def lam(self) -> int:
        """m - n + 2 * alpha."""
        return self.g.m - self.g.n + 2 * self.alpha[0]

    @property
    def mu(self) -> int:
        """Largest cardinality of a differential set of R(G) inside V."""
        return len(self.diff_r().witness)


class InvariantRecord(NamedTuple):
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
    skipped: dict[str, str]

    def to_dict(self) -> dict:
        d = {"lambda" if k == "lam" else k: v for k, v in self._asdict().items()}
        d["skipped"] = dict(sorted(self.skipped.items()))
        return d


def full_record(g: Graph, budget: int = DEFAULT_BUDGET) -> InvariantRecord:
    """Compute every invariant of ``g``, marking infeasible ones as skipped.

    Each field is read from one ``InstanceContext``, so four searches run:
    diff (which roman shares), gamma, alpha and one weighted choice over
    V for both diff_r and mu. None enumerates maximizers. R(g) is never built. A field
    derived from a search that failed is skipped with its reason.
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
        diff=read("diff", lambda: ctx.diff().value),
        diff_r=read("diff_r", lambda: ctx.diff_r().value),
        gamma=read("gamma", lambda: ctx.gamma[0]),
        tau=read("tau", lambda: ctx.tau[0]),
        alpha=read("alpha", lambda: ctx.alpha[0]),
        roman=read("roman", lambda: ctx.roman[0]),
        psi=read("psi", lambda: ctx.psi[0]),
        lam=read("lambda", lambda: ctx.lam),
        mu=read("mu", lambda: ctx.mu),
        skipped=skipped,
    )
