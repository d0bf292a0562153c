"""Exact toolkit for the graph differential and the edge-vertex operator R.

The package computes, exactly and at desk scale, the differential of a
graph (the maximum of |B(S)| - |S| over vertex subsets S), the graph R(G)
obtained by adding one new vertex per edge joined to that edge's ends, and
the web of invariants connecting the two: domination, vertex cover,
independence, Roman domination, and the enclaveless number. A census
harness re-verifies the structural propositions relating them on every
small connected graph.
"""

from .census import canonical_form, connected_census
from .codecs import FormatError, parse_edgelist, parse_graph6, write_edgelist, write_graph6
from .core import (
    CAPACITY,
    BudgetExceededError,
    CapacityError,
    DegreeStats,
    Graph,
    VertexSet,
)
from .families import (
    FamilySpec,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    generate,
    kprime,
    path,
    star,
    star_plus_edge,
    wheel,
)
from .propositions import (
    PROPOSITIONS,
    CensusSummary,
    CheckReport,
    run_all,
    run_census,
    run_proposition,
)
from .roperator import build_r, validate_r
from .solvers import (
    DEFAULT_BUDGET,
    DifferentialResult,
    InvariantRecord,
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

__version__ = "0.1.0"

__all__ = [
    "CAPACITY",
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "CapacityError",
    "CensusSummary",
    "CheckReport",
    "DegreeStats",
    "DifferentialResult",
    "FamilySpec",
    "FormatError",
    "Graph",
    "InvariantRecord",
    "PROPOSITIONS",
    "VertexSet",
    "build_r",
    "canonical_form",
    "complete",
    "complete_bipartite",
    "connected_census",
    "cycle",
    "differential_exact",
    "differential_of_r",
    "domination_number",
    "empty_graph",
    "enclaveless_number",
    "full_record",
    "generate",
    "independence_number",
    "is_dominating",
    "is_vertex_cover",
    "kprime",
    "mu_invariant",
    "parse_edgelist",
    "parse_graph6",
    "path",
    "roman_domination_number",
    "run_all",
    "run_census",
    "run_proposition",
    "star",
    "star_plus_edge",
    "validate_r",
    "vertex_cover_number",
    "wheel",
    "write_edgelist",
    "write_graph6",
]
