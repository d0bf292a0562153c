"""The three benchmark workloads: their command lines, inputs and output checks.

Inputs are built from the committed reference graphs in ``reference/``:
each ``--seed`` relabels every graph by a seeded random permutation and
shuffles their order. Every proposition status and invariant is
isomorphism-invariant, so one reference, made and cross-checked once by
``make_reference.py``, checks the output of every seed, and the amount of
search work stays nearly the same from seed to seed.

The graph6 reader and writer here are deliberately independent of gdiff's
own codec, so a codec defect cannot hide itself from the checks.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# gdiff exit codes: 0 all pass, 1 a check failed, 2 usage error, 3 budget/skips.
EXIT_OK = 0
EXIT_SKIPS = 3

# The invariant fields a compute record attempts; n, m and degrees are inputs.
RECORD_FIELDS = ("diff", "diff_r", "gamma", "tau", "alpha", "roman", "psi", "lambda", "mu")


# -- graph6 for n <= 62, independent of gdiff.codecs ---------------------------


def g6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and edge list (i < j) of a graph6 string of order at most 62."""
    n = ord(text[0]) - 63
    bitstring = "".join(format(ord(ch) - 63, "06b") for ch in text[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [pair for pair, bit in zip(pairs, bitstring) if bit == "1"]


def g6_encode(n: int, edges) -> str:
    present = {(min(a, b), max(a, b)) for a, b in edges}
    bitstring = "".join(
        "1" if (i, j) in present else "0" for j in range(1, n) for i in range(j)
    )
    bitstring += "0" * (-len(bitstring) % 6)
    return chr(n + 63) + "".join(
        chr(63 + int(bitstring[k : k + 6], 2)) for k in range(0, len(bitstring), 6)
    )


def relabel(g6: str, rng: random.Random) -> str:
    n, edges = g6_decode(g6)
    perm = list(range(n))
    rng.shuffle(perm)
    return g6_encode(n, [(perm[a], perm[b]) for a, b in edges])


# -- checks -------------------------------------------------------------------


@dataclass
class Tally:
    """Work attempted and its outcome over one or more CLI invocations."""

    attempted: int = 0
    skipped: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.skipped += other.skipped
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def identity_violations(record: dict) -> list[str]:
    """Theorems relating fields computed by independent solvers.

    diff + roman = n (Bermudo et al.), psi = n - gamma (Slater), and
    lambda <= diff_r <= lambda + floor((n - mu)/2). A field that was
    skipped (None) leaves its identities unchecked.
    """
    n = record["n"]
    out = []
    if None not in (record["diff"], record["roman"]) and record["diff"] + record["roman"] != n:
        out.append("diff + roman != n")
    if None not in (record["psi"], record["gamma"]) and record["psi"] != n - record["gamma"]:
        out.append("psi != n - gamma")
    lam, diff_r, mu = record["lambda"], record["diff_r"], record["mu"]
    if None not in (lam, diff_r, mu) and not lam <= diff_r <= lam + (n - mu) // 2:
        out.append("lambda <= diff_r <= lambda + floor((n - mu)/2) violated")
    return out


def _expect_exit(tally: Tally, exit_code: int, any_skipped: bool) -> None:
    want = EXIT_SKIPS if any_skipped else EXIT_OK
    if exit_code != want:
        tally.fail(f"exit code {exit_code}, expected {want}")


def check_census(payload: dict, exit_code: int, inputs, ref: dict) -> Tally:
    reports = payload["reports"]
    tally = Tally(attempted=len(reports))
    classes: Counter = Counter()
    seen = set()
    answered: Counter = Counter()
    for r in reports:
        if r["instance_g6"] not in seen:
            seen.add(r["instance_g6"])
            classes[str(ord(r["instance_g6"][0]) - 63)] += 1
        if r["status"] in ("pass", "vacuous"):
            answered[r["prop"]] += 1
        elif r["status"] == "skipped":
            tally.skipped += 1
        else:
            tally.fail(f"{r['prop']} {r['status']} on {r['instance_g6']}")
    if dict(classes) != ref["classes"]:
        tally.fail(f"census classes {dict(classes)}, expected {ref['classes']}")
    for pid, floor in ref["answered"].items():
        if answered[pid] < floor:
            tally.fail(f"{pid}: pass+vacuous {answered[pid]} < reference {floor}")
    _expect_exit(tally, exit_code, tally.skipped > 0)
    return tally


def check_verify(payload: dict, exit_code: int, inputs, ref: dict) -> Tally:
    reports = payload["reports"]
    props = ref["props"]
    tally = Tally(attempted=len(inputs) * len(props))
    if len(reports) != tally.attempted:
        tally.fail(f"{len(reports)} reports, expected {tally.attempted}", tally.attempted)
        return tally
    for line, (index, g6) in enumerate(inputs):
        expected = ref["graphs"][index]["statuses"].split(",")
        for k, pid in enumerate(props):
            r = reports[line * len(props) + k]
            got, want = r["status"], expected[k]
            where = f"line {line} {pid}"
            if r["prop"] != pid or r["instance_g6"] != g6:
                tally.fail(f"{where}: report is for {r['prop']} on {r['instance_g6']}")
            elif got == "skipped":
                tally.skipped += 1
                if want != "skipped":
                    tally.fail(f"{where}: {want} in the reference, now skipped")
            elif got != want and want != "skipped":
                tally.fail(f"{where}: {got}, reference {want}")
            elif got == "fail":
                tally.fail(f"{where}: fail")
    _expect_exit(tally, exit_code, tally.skipped > 0)
    return tally


def check_compute(payload: dict, exit_code: int, inputs, ref: dict) -> Tally:
    records = payload["records"]
    tally = Tally(attempted=len(inputs) * len(RECORD_FIELDS))
    if len(records) != len(inputs):
        tally.fail(f"{len(records)} records, expected {len(inputs)}", tally.attempted)
        return tally
    budget_skip = False
    for line, ((index, g6), rec) in enumerate(zip(inputs, records)):
        want = ref["graphs"][index]["record"]
        if rec["instance_g6"] != g6:
            tally.fail(f"line {line}: record is for {rec['instance_g6']}, input {g6}")
            continue
        for name in ("n", "m", "delta_min", "delta_max") + RECORD_FIELDS:
            if rec[name] is None and name in RECORD_FIELDS:
                tally.skipped += 1
                budget_skip |= "budget" in rec["skipped"].get(name, "")
                if want[name] is not None:
                    tally.fail(f"line {line} {name}: reference {want[name]}, now skipped")
            elif want[name] is not None and rec[name] != want[name]:
                tally.fail(f"line {line} {name}: {rec[name]}, reference {want[name]}")
        for problem in identity_violations(rec):
            tally.fail(f"line {line}: {problem}")
    _expect_exit(tally, exit_code, budget_skip)
    return tally


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    check: Callable[[dict, int, list, dict], Tally]
    reads_input: bool = True

    def reference(self) -> dict:
        return json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())

    def make_input(self, seed: int, ref: dict) -> list[tuple[int, str]]:
        """(reference index, graph6 line) per input graph; same seed, same input."""
        if not self.reads_input:
            return []
        rng = random.Random(f"{self.name}:{seed}")
        graphs = ref["graphs"]
        order = list(range(len(graphs)))
        rng.shuffle(order)
        return [(i, relabel(graphs[i]["g6"], rng)) for i in order]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census_n6", ("census", "--nmax", "6", "--props", "all", "--jobs", "1"),
                 check_census, reads_input=False),
        Workload("verify_rand", ("verify", "--props", "all"), check_verify),
        Workload("compute_mix", ("compute", "--json"), check_compute),
    )
}
