"""Outside-in tracing of gdiff's layers, with no edit to the program.

``Tracer.install`` rebinds each traced public function, wherever a loaded
``gdiff`` module holds it as an attribute (``from .solvers import
domination_number`` makes a copy in the importing module), to a wrapper
that records a span: name, start, end and the span that caused it.
``uninstall`` puts the originals back. Spans stay in memory;
``layer_metrics`` reduces them to the per-layer figures named in
``PER_LAYER``.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs to trace; the span name is "<module>.<function>".
TRACED = (
    ("cli", "cli"),
    ("census", "connected_census"),
    ("census", "canonical_form"),
    ("roperator", "build_r"),
    ("roperator", "validate_r"),
    ("solvers", "full_record"),
    ("solvers", "differential_exact"),
    ("solvers", "differential_of_r"),
    ("solvers", "domination_number"),
    ("solvers", "vertex_cover_number"),
    ("solvers", "independence_number"),
    ("solvers", "roman_domination_number"),
    ("solvers", "enclaveless_number"),
    ("solvers", "mu_invariant"),
    ("propositions", "run_census"),
    ("propositions", "run_all"),
    ("codecs", "parse_graph6"),
    ("codecs", "write_graph6"),
    ("reports", "reports_to_json"),
    ("reports", "reports_to_csv"),
    ("reports", "summary_to_csv"),
    ("reports", "records_to_json"),
    ("reports", "records_to_csv"),
)

SOLVERS = (
    "differential_exact",
    "differential_of_r",
    "domination_number",
    "vertex_cover_number",
    "independence_number",
    "roman_domination_number",
    "enclaveless_number",
    "mu_invariant",
)
SOLVER_SPANS = frozenset(f"solvers.{s}" for s in SOLVERS)

# differential_of_r hands its whole search to differential_exact on R(G);
# that inner call is the same search and is counted once, under the caller.
DELEGATES = {("solvers.differential_of_r", "solvers.differential_exact")}

# Spans whose result carries a node count in ``search_space_size``.
NODE_SPANS = ("solvers.differential_exact", "solvers.differential_of_r")

PROPS = tuple(f"P{i:02d}" for i in range(1, 19))
LAYERS = ("census", "roperator", "solvers", "propositions", "codecs", "reports", "cli")
STATUSES = ("pass", "vacuous", "skipped", "fail")

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [
        ("census.generate_s", "s"),
        ("census.canonical_form.calls", "count"),
        ("census.canonical_form.s", "s"),
        ("census.classes", "count"),
        ("census.dedup_yield", "ratio"),
        ("roperator.build_r.calls", "count"),
        ("roperator.build_r.s", "s"),
    ]
    + [(f"solvers.{s}.{k}", u) for s in SOLVERS for k, u in (("calls", "count"), ("s", "s"))]
    + [(f"{name}.nodes", "count") for name in NODE_SPANS]
    + [("solvers.budget_exceeded", "count")]
    + [(f"propositions.{p}.s", "s") for p in PROPS]
    + [(f"propositions.{st}", "count") for st in STATUSES]
    + [
        ("propositions.solver_calls_per_instance", "count"),
        ("codecs.parse_graph6.s", "s"),
        ("codecs.write_graph6.calls", "count"),
        ("codecs.write_graph6.s", "s"),
        ("reports.serialize_s", "s"),
        ("cli.instance_p50_ms", "ms"),
        ("cli.instance_p90_ms", "ms"),
        ("cli.instance_samples", "count"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.total_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Spans and counts of one traced repetition."""

    def __init__(self, budget_error: type):
        self.budget_error = budget_error
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.nodes: Counter = Counter()
        self.classes = 0
        self.budget_exceeded = 0
        self.status: Counter = Counter()
        self.prop_s: defaultdict = defaultdict(float)
        self._bound: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "gdiff" or key.startswith("gdiff.")]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"gdiff.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        on_result = getattr(self, "_on_" + name.split(".", 1)[1], None)
        is_solver = name in SOLVER_SPANS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and (spans[parent][0], name) in DELEGATES:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except self.budget_error:
                if is_solver and (parent < 0 or spans[parent][0] not in SOLVER_SPANS):
                    self.budget_exceeded += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if name in NODE_SPANS:
                self.nodes[name] += result.search_space_size
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_connected_census(self, graphs) -> None:
        self.classes += len(graphs)

    def _on_run_all(self, reports) -> None:
        for r in reports:
            self.status[r.status] += 1
            self.prop_s[r.prop_id] += r.elapsed

    # -- reducing -----------------------------------------------------------

    def counts(self) -> dict:
        """Everything that must repeat exactly between two traced repetitions."""
        calls = Counter(span[0] for span in self.spans)
        return {
            "calls": dict(sorted(calls.items())),
            "nodes": dict(sorted(self.nodes.items())),
            "status": dict(sorted(self.status.items())),
            "classes": self.classes,
            "budget_exceeded": self.budget_exceeded,
        }

    def times(self) -> dict:
        """Per-layer seconds of this repetition (names as in PER_LAYER)."""
        spans = self.spans
        inclusive: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for name, start, end, parent in spans:
            inclusive[name] += end - start
            self_s[name.split(".")[0]] += end - start
            if parent >= 0:
                self_s[spans[parent][0].split(".")[0]] -= end - start
        out = {
            "census.generate_s": inclusive["census.connected_census"],
            "census.canonical_form.s": inclusive["census.canonical_form"],
            "roperator.build_r.s": inclusive["roperator.build_r"],
            "codecs.parse_graph6.s": inclusive["codecs.parse_graph6"],
            "codecs.write_graph6.s": inclusive["codecs.write_graph6"],
            "reports.serialize_s": sum(v for k, v in inclusive.items() if k.startswith("reports.")),
            "trace.total_s": inclusive["cli.cli"],
        }
        out.update({f"solvers.{s}.s": inclusive[f"solvers.{s}"] for s in SOLVERS})
        out.update({f"propositions.{p}.s": self.prop_s[p] for p in PROPS})
        out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
        return out

    def instance_ms(self) -> list[float]:
        """Milliseconds per input graph: one run_all or full_record span each."""
        unit = "propositions.run_all" if self.status else "solvers.full_record"
        return [1000 * (end - start) for name, start, end, _ in self.spans if name == unit]

    def count_within(self, outer: str, names) -> int:
        """Spans named in ``names`` that run inside a span named ``outer``."""
        inside = set()
        total = 0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == outer or parent in inside:
                inside.add(i)
                total += name in names
        return total


def layer_metrics(tracers: list[Tracer], untraced_s: float) -> dict[str, float]:
    """Per-layer metrics from repeated traced runs: times are medians, counts from the first."""
    first = tracers[0]
    calls = first.counts()["calls"]
    times = [t.times() for t in tracers]
    out = {key: statistics.median(t[key] for t in times) for key in times[0]}
    samples = [ms for t in tracers for ms in t.instance_ms()]
    gen_calls = first.count_within("census.connected_census", {"census.canonical_form"})
    instances = calls.get("propositions.run_all", 0)
    solver_calls_in_checks = first.count_within("propositions.run_all", SOLVER_SPANS)
    out.update(
        {
            "census.canonical_form.calls": calls.get("census.canonical_form", 0),
            "census.classes": first.classes,
            "census.dedup_yield": first.classes / gen_calls if gen_calls else 0.0,
            "roperator.build_r.calls": calls.get("roperator.build_r", 0),
            "solvers.budget_exceeded": first.budget_exceeded,
            "propositions.solver_calls_per_instance": (
                solver_calls_in_checks / instances if instances else 0.0
            ),
            "codecs.write_graph6.calls": calls.get("codecs.write_graph6", 0),
            "cli.instance_p50_ms": statistics.median(samples) if samples else 0.0,
            "cli.instance_p90_ms": (
                statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else 0.0
            ),
            "cli.instance_samples": len(samples),
            "trace.overhead_s": out["trace.total_s"] - untraced_s,
        }
    )
    out.update({f"solvers.{s}.calls": calls.get(f"solvers.{s}", 0) for s in SOLVERS})
    out.update({f"{name}.nodes": first.nodes[name] for name in NODE_SPANS})
    out.update({f"propositions.{st}": first.status[st] for st in STATUSES})
    return out

