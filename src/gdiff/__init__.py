"""Exact toolkit for the graph differential and the edge-vertex operator R.

The package computes, exactly and at desk scale, the differential of a
graph (the maximum of |B(S)| - |S| over vertex subsets S), the graph R(G)
obtained by adding one new vertex per edge joined to that edge's ends, and
the web of invariants connecting the two: domination, vertex cover,
independence, Roman domination, and the enclaveless number. A census
harness re-verifies the structural propositions relating them on every
small connected graph.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it. Importing the package
# loads none of them: a name's module is imported on its first read, so a
# command pays only for the modules it runs.
_MODULE_OF = {
    name: module
    for module, names in {
        "census": ("canonical_form", "connected_census"),
        "codecs": ("FormatError", "parse_edgelist", "parse_graph6", "write_edgelist", "write_graph6"),
        "core": (
            "CAPACITY",
            "DEFAULT_BUDGET",
            "BudgetExceededError",
            "CapacityError",
            "DegreeStats",
            "Graph",
            "VertexSet",
        ),
        "families": (
            "FamilySpec",
            "complete",
            "complete_bipartite",
            "cycle",
            "empty_graph",
            "generate",
            "kprime",
            "path",
            "star",
            "star_plus_edge",
            "wheel",
        ),
        "propositions": (
            "PROPOSITIONS",
            "CensusSummary",
            "CheckReport",
            "run_all",
            "run_census",
            "run_proposition",
        ),
        "roperator": ("build_r", "validate_r"),
        "solvers": (
            "DifferentialResult",
            "InvariantRecord",
            "differential_exact",
            "differential_of_r",
            "domination_number",
            "enclaveless_number",
            "full_record",
            "independence_number",
            "is_dominating",
            "is_vertex_cover",
            "mu_invariant",
            "roman_domination_number",
            "vertex_cover_number",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
