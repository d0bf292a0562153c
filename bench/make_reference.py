"""Draw the benchmark's base graphs and record gdiff's answers on them.

Run from the repository root, once, when the workloads are defined or
deliberately changed:

    python3 bench/make_reference.py

It writes ``bench/reference/{census_n6,verify_rand,compute_mix}.json``.
The answers come from the gdiff in ``src/``. Before they are written they
are cross-checked with identities that do not reuse the solver under
check (see ``workloads.identity_violations``), and no proposition may
``fail``; the script exits non-zero rather than write a doubtful reference.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from workloads import REFERENCE_DIR, g6_encode, identity_violations

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gdiff import (  # noqa: E402
    PROPOSITIONS,
    complete,
    complete_bipartite,
    cycle,
    full_record,
    kprime,
    parse_graph6,
    path,
    run_all,
    run_census,
    star,
    star_plus_edge,
    wheel,
)

DRAW_SEED = 20230804  # fixed once; per-run variety comes from relabeling
VERIFY_ORDERS = ((7, 0.45), (8, 0.40), (9, 0.35), (10, 0.30))
VERIFY_PER_ORDER = 30
COMPUTE_ORDERS = (12, 14, 16, 18)
COMPUTE_PER_ORDER = 4
COMPUTE_FAMILIES = (
    ("wheel(12)", wheel(12)),
    ("cycle(16)", cycle(16)),
    ("path(16)", path(16)),
    ("kprime(4)", kprime(4)),
    ("K_{4,8}", complete_bipartite(4, 8)),
    ("K_10", complete(10)),
    ("star(12)", star(12)),
    ("star_plus_edge(12)", star_plus_edge(12)),
)


def connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, todo = {0}, [0]
    while todo:
        for u in adj[todo.pop()] - seen:
            seen.add(u)
            todo.append(u)
    return len(seen) == n


def random_connected(rng: random.Random, n: int, p: float, max_total: int = 64) -> str:
    """A connected G(n, p) draw with n + m <= max_total, as graph6."""
    while True:
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
        if n + len(edges) <= max_total and connected(n, edges):
            return g6_encode(n, edges)


def census_reference() -> dict:
    summary, reports = run_census(6, jobs=1)
    if any(r.status == "fail" for r in reports):
        raise SystemExit("census: a proposition failed; no reference written")
    classes: dict[str, int] = {}
    for g6 in dict.fromkeys(r.instance for r in reports):
        key = str(ord(g6[0]) - 63)
        classes[key] = classes.get(key, 0) + 1
    answered = {
        pid: c.get("pass", 0) + c.get("vacuous", 0) for pid, c in summary.counts.items()
    }
    return {"classes": classes, "answered": answered}


def verify_reference(rng: random.Random) -> dict:
    props = list(PROPOSITIONS)
    graphs = []
    for n, p in VERIFY_ORDERS:
        for _ in range(VERIFY_PER_ORDER):
            g6 = random_connected(rng, n, p)
            g = parse_graph6(g6)
            statuses = [r.status for r in run_all(g, props)]
            if "fail" in statuses:
                raise SystemExit(f"verify: a proposition failed on {g6}")
            problems = identity_violations(_record(g))
            if problems:
                raise SystemExit(f"verify: {g6}: {problems}")
            graphs.append({"g6": g6, "statuses": ",".join(statuses)})
    return {"props": props, "graphs": graphs}


def compute_reference(rng: random.Random) -> dict:
    graphs = [(name, g6_encode(g.n, g.edges())) for name, g in COMPUTE_FAMILIES]
    for n in COMPUTE_ORDERS:
        for k in range(COMPUTE_PER_ORDER):
            graphs.append((f"gnp({n})#{k}", random_connected(rng, n, 3 / (n - 1))))
    out = []
    for name, g6 in graphs:
        record = _record(parse_graph6(g6))
        problems = identity_violations(record)
        if problems:
            raise SystemExit(f"compute: {name}: {problems}")
        out.append({"name": name, "g6": g6, "record": record})
    return {"graphs": out}


def _record(g) -> dict:
    d = full_record(g).to_dict()
    return {k: v for k, v in d.items() if k != "skipped"}


def main() -> None:
    rng = random.Random(DRAW_SEED)
    refs = {
        "census_n6": census_reference(),
        "verify_rand": verify_reference(rng),
        "compute_mix": compute_reference(rng),
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, ref in refs.items():
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote reference/{name}.json")


if __name__ == "__main__":
    main()
