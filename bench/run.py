"""Benchmark of the gdiff command line: one workload per run, or all of them.

    python3 bench/run.py --workload census_n6 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the repository root; gdiff is imported from ``src/``, nothing is
installed. With ``--trace 0`` the run times whole CLI processes (closed
loop, one client, ``--jobs 1``) for ``--seconds`` and at least
``MIN_SAMPLES`` times, scales each time to nominal machine speed with a
calibration run, and reports the end-to-end metrics. With ``--trace 1`` it
runs the same command in-process ``TRACED_REPS`` times untraced and as many
times traced, alternately (see ``tracer.py``), and reports the per-layer
metrics. Every output is checked against ``reference/``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. A fuller result file, with the machine, the Python version
and the commit, goes to ``.bench_out/``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import PER_LAYER, SOLVERS, Tracer, layer_metrics
from workloads import WORKLOADS, Tally, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_SAMPLES = 3
SETUPS_PER_ROUND = 2
TRACED_REPS = 2

# What the installed ``gdiff`` console script runs.
LAUNCH = "import sys; sys.argv[0] = 'gdiff'; from gdiff.cli import main; main()"
# Everything a CLI run does before solving: start, import, parse arguments and input.
SETUP = """\
import sys
import gdiff
from gdiff.cli import build_parser
from gdiff.codecs import parse_graph6
args = build_parser().parse_args(sys.argv[1:])
if args.input != "-":
    graphs = [parse_graph6(line) for line in open(args.input).read().split()]
"""

# A fixed pure-Python scan, the kind of loop gdiff's solvers run, that
# shares no code with gdiff: it measures how fast the machine is right now.
# Timed samples are reported at the speed where it takes CAL_NOMINAL_S.
CAL_NOMINAL_S = 0.6
CALIBRATE = """\
from itertools import combinations
rows = [(0x9E3779B97F4A7C15 >> i) & 0xFFFFFF for i in range(24)]
total = 0
for k in range(1, 8):
    for combo in combinations(range(24), k):
        covered = 0
        for v in combo:
            covered |= rows[v]
        total += covered.bit_count()
"""

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("answered_share", "ratio"),
)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("GDIFF_JOBS", None)
    return env


def spawn(code: str, argv: list[str], stdout: Path) -> tuple[float, float, int]:
    """Run one fresh interpreter; return wall seconds, peak RSS in MB, exit code."""
    with open(stdout, "w") as out, open(stdout.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def check_output(w: Workload, path: Path, exit_code: int, inputs, ref) -> Tally:
    try:
        payload = json.loads(path.read_text())
        return w.check(payload, exit_code, inputs, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        tally = Tally(attempted=1)
        tally.fail(f"unreadable output (exit {exit_code}): {exc!r}")
        return tally


def run_untraced(w: Workload, argv, inputs, ref, seconds: float, work: Path) -> tuple[dict, Tally, dict]:
    """Rounds of two set-up probes, one CLI run and one calibration run.

    Each timed sample is scaled to nominal machine speed by the calibration
    runs next to it: ``CAL_NOMINAL_S`` over the calibration time.
    """
    spawn(SETUP, argv, work / "setup.out")  # compiles bytecode; untimed
    tally = Tally()
    cals = [spawn(CALIBRATE, [], work / "calibrate.out")[0]]
    walls, setups, rss, scaled_walls, scaled_setups = [], [], [], [], []
    start = time.perf_counter()
    round_s = 0.0
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start + round_s <= seconds:
        before = cals[-1]
        probes = [spawn(SETUP, argv, work / "setup.out")[0] for _ in range(SETUPS_PER_ROUND)]
        wall, peak, code = spawn(LAUNCH, argv, work / "cli.out")
        cals.append(spawn(CALIBRATE, [], work / "calibrate.out")[0])
        setups += probes
        scaled_setups += [t * CAL_NOMINAL_S / before for t in probes]
        walls.append(wall)
        scaled_walls.append(wall * CAL_NOMINAL_S / ((before + cals[-1]) / 2))
        rss.append(peak)
        tally.add(check_output(w, work / "cli.out", code, inputs, ref))
        round_s = (time.perf_counter() - start) / len(walls)
    metrics = {
        "wall_s": statistics.median(scaled_walls),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": statistics.median(rss),
        "answered_share": 1 - tally.skipped / tally.attempted,
    }
    detail = {
        "unscaled_median": {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups)},
        "samples": {"wall_s": walls, "setup_s": setups, "calibrate_s": cals, "peak_rss_mb": rss},
    }
    return metrics, tally, detail


def run_traced(w: Workload, argv, inputs, ref, work: Path) -> tuple[dict, Tally, dict]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gdiff.census
    import gdiff.cli
    from gdiff.core import BudgetExceededError

    tally = Tally()

    def once(tracer: Tracer | None) -> float:
        gdiff.census.connected_census.cache_clear()  # time generation, not the cache
        out = work / "cli.out"
        if tracer is not None:
            tracer.install()
        try:
            with open(out, "w") as f, contextlib.redirect_stdout(f):
                start = time.perf_counter()
                try:
                    code = gdiff.cli.cli(argv)
                except Exception:  # a crash is a failed run, not a benchmark error
                    traceback.print_exc()
                    code = -1
                elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        tally.add(check_output(w, out, code, inputs, ref))
        return elapsed

    tracers = [Tracer(BudgetExceededError) for _ in range(TRACED_REPS)]
    untraced_s, traced_s = [], []
    for tracer in tracers:  # alternate, so both sides see the same machine
        untraced_s.append(once(None))
        traced_s.append(once(tracer))
    counts = [t.counts() for t in tracers]
    if any(c != counts[0] for c in counts):
        tally.fail("traced repetitions gave different call or node counts")
    metrics = layer_metrics(tracers, statistics.median(untraced_s))
    total = metrics["trace.total_s"]
    shares = {
        key: metrics[key] / total
        for key in ["census.generate_s", "roperator.build_r.s"]
        + [f"solvers.{s}.s" for s in SOLVERS]
        + [f"{layer}.self_s" for layer in ("census", "solvers", "propositions", "codecs", "reports", "cli")]
    }
    t0 = tracers[0].spans[0][1] if tracers[0].spans else 0.0
    extra = {
        "untraced_inprocess_s": untraced_s,
        "traced_s": traced_s,
        "counts": counts[0],
        "shares_of_trace_total": shares,
        "spans": [
            [name, round(s - t0, 6), round(e - t0, 6), parent]
            for name, s, e, parent in tracers[0].spans
        ],
    }
    return metrics, tally, extra


def environment() -> dict:
    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    ref = w.reference()
    inputs = w.make_input(seed, ref)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    argv = list(w.args)
    if w.reads_input:
        input_path = work / f"{name}.g6"
        input_path.write_text("".join(g6 + "\n" for _, g6 in inputs))
        argv += ["--input", str(input_path)]
    if trace:
        values, tally, extra = run_traced(w, argv, inputs, ref, work)
        units = dict(PER_LAYER)
    else:
        values, tally, extra = run_untraced(w, argv, inputs, ref, seconds, work)
        units = dict(END_TO_END)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "result": result,
        "problems": tally.problems,
        "detail": extra,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record) + "\n")
    for problem in tally.problems:
        print(f"{name}: FAILED CHECK: {problem}")
    for key, m in result["metrics"].items():
        print(f"{name:12s} {key:45s} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        for key, value in extra["unscaled_median"].items():
            print(f"{name:12s} {key + ' (unscaled)':45s} {value:>14.6g} s")
    if trace:
        for key, share in sorted(extra["shares_of_trace_total"].items(), key=lambda kv: -kv[1]):
            print(f"{name:12s} share of trace.total_s {key:29s} {share:>8.1%}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end, 1 per-layer; default both with --workload all")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "gdiff" / "cli.py").is_file():
        print(f"bench: no gdiff sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # One CPU for the benchmark and every process it starts, so each calibration
    # run measures the CPU the CLI runs next to it used.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in modes:
            result = run_one(name, args.seed, args.seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}.{key}": m for key, m in result["metrics"].items()}
            )
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
