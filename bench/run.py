"""rgsolve benchmark: certified solves and simulation audits.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the program from
``src/``. With ``--trace 0`` it times the import five times (four in child
interpreters) and the workload's set-up, with the first op's input, three
times. Then it runs ops back to back for S seconds with no tracing, each on
an input built just before it, and reports the end-to-end metrics. With
``--trace 1`` it sets up once under tracing and runs a fixed number of ops
twice each, once plain and once traced, so that its counts repeat exactly
for a given seed; it reports the per-layer metrics and the tracing
overhead. Every op's output is checked. Human-readable lines come
first; the last line of standard output is one JSON object. See README.md
in this directory for the workloads and metrics.
"""

import os
import sys
import time

T0 = time.perf_counter()
# one thread everywhere: BLAS and OpenMP pools would add noise on a small box
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "rgsolve" / "__init__.py").is_file():
    sys.exit(f"error: no program sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import rgsolve  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_REPEATS = 5
SETUP_REPEATS = 3

# metric name -> unit; the final JSON line carries exactly these
END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lp.solve_lp.calls": "count",
    "lp.solve_lp.busy_s": "s",
    "lp.highs_run.busy_s": "s",
    "lp.overhead_share": "ratio",
    "values.stage.stage_lower_lp.calls": "count",
    "values.stage.stage_lower_lp.self_s": "s",
    "values.stage.stage_upper_lp.calls": "count",
    "values.stage.stage_upper_lp.self_s": "s",
    "values.stage.one_shot_lp.calls": "count",
    "values.stage.one_shot_lp.hit_ratio": "ratio",
    "values.engine._sweep.calls": "count",
    "values.engine._sweep.self_s": "s",
    "values.engine.sweeps_per_op": "1/op",
    "values.engine.gap_added.max": "payoff",
    "values.grid.concave_majorant.calls": "count",
    "values.grid.concave_majorant.busy_s": "s",
    "values.grid.lower_value.calls": "count",
    "values.grid.lower_value.busy_s": "s",
    "strategies.lookup.calls": "count",
    "strategies.lookup.busy_share": "%",
    "simulator.simulate.calls": "count",
    "simulator.simulate.self_share": "%",
    "strategies.extract.calls": "count",
    "strategies.extract.busy_share": "%",
    "game_model.auxiliary_game.calls": "count",
    "game_model.auxiliary_game.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def commit_id() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_import_s() -> float:
    """Wall time of ``import rgsolve`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import rgsolve; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(proc.stdout)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(durations: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when that percentile is below the median."""
    n = len(durations)
    k = n - 10  # 1-based rank with exactly ten samples above it
    if k < 1 or 100.0 * k / n < 50.0:
        return None
    return 100.0 * k / n, sorted(durations)[k - 1]


def run_op(work, i, inp, results, failures, durations, tracer=None) -> None:
    """Run one op and record its time and output; an op that raises fails."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = work.run(inp)
        else:
            with tracer.recording():
                out = work.run(inp)
    except Exception:  # the benchmark records the failure and goes on
        out = None
        failures.append(f"op {i} raised:\n{traceback.format_exc()}")
    durations.append(time.perf_counter() - start)
    results.append((work, i, inp, out))


def check_all(results, failures) -> int:
    """Check every op's output; return the number of failed ops."""
    failed = 0
    for work, i, inp, out in results:
        errs = ["raised"] if out is None else work.check(inp, out)
        if errs:
            failed += 1
            if out is not None:
                failures.extend(f"op {i}: {e}" for e in errs)
    return failed


def timed_run(name: str, seed: int, seconds: float):
    # the import happens once per process; more in child interpreters give
    # set-up time a median too
    import_times = [IMPORT_S] + [child_import_s() for _ in range(IMPORT_REPEATS - 1)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        work = WORKLOADS[name](seed)
        start = time.perf_counter()
        work.setup()
        work.make_input(0)
        setup_times.append(time.perf_counter() - start)

    results, failures, durations = [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        run_op(work, i, work.make_input(i), results, failures, durations)
        i += 1
    wall = time.perf_counter() - start

    failed = check_all(results, failures)
    ok = [(w, out) for w, _, _, out in results if out is not None]
    gaps = [w.gap(out) for w, out in ok]
    steps = sum(w.steps(out) for w, out in ok)
    metrics = {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "op_s.p50": statistics.median(durations),
        "ops_per_s": len(durations) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = [
        ("import_s.repeats", " ".join(f"{t:.4f}" for t in import_times), "s"),
        ("setup_s.repeats", " ".join(f"{t:.4f}" for t in setup_times), "s"),
        ("ops", len(durations), "count"),
        ("op_s.samples", " ".join(f"{d:.3f}" for d in durations), "s"),
        ("timed_wall_s", wall, "s"),
        ("fail_share", ratio(failed, len(durations)), "ratio"),
        ("gap.p50", statistics.median(gaps) if gaps else float("nan"), "payoff"),
        ("gap.max", max(gaps) if gaps else float("nan"), "payoff"),
    ]
    t = tail(durations)
    info.append(
        ("op_s.tail", f"p{t[0]:.0f} {t[1]:.6f}" if t else "none (fewer than 20 ops)", "s")
    )
    if steps:
        info.append(("steps_per_s", steps / wall, "1/s"))
        margins = [m for w, out in ok for m in w.margins(out)]
        info.append(("audit.margin_min", min(margins), "payoff"))
    return metrics, END_TO_END, info, len(durations), failed, failures


def traced_run(name: str, seed: int):
    tracer = Tracer()
    traced = WORKLOADS[name](seed)
    plain = WORKLOADS[name](seed)
    n = traced.trace_ops
    start = time.perf_counter()
    with tracer.recording():
        traced.setup()
        inputs = [traced.make_input(i) for i in range(n)]
    traced_s = time.perf_counter() - start
    plain.setup()

    results, failures, plain_times, traced_times = [], [], [], []
    sweeps_before = tracer.stat("values.engine._sweep").calls
    for i in range(n):
        run_op(plain, i, plain.make_input(i), results, failures, plain_times)
        run_op(traced, i, inputs[i], results, failures, traced_times, tracer)
    traced_s += sum(traced_times)
    sweeps_in_ops = tracer.stat("values.engine._sweep").calls - sweeps_before

    failed = check_all(results, failures)
    missing = [key for key in traced.expected if tracer.total(key).calls == 0]
    for key in missing:
        failures.append(f"trace self-check: wrapper {key} recorded no calls")

    lp = tracer.total("lp.solve_lp")
    highs = tracer.stat("lp.highs_run")
    one_shot = tracer.stat("values.stage.one_shot_lp")
    sweep = tracer.stat("values.engine._sweep")
    plain_p50 = statistics.median(plain_times)
    overhead = statistics.median(traced_times) - plain_p50
    metrics = {
        "lp.solve_lp.calls": lp.calls,
        "lp.solve_lp.busy_s": lp.busy_s,
        "lp.highs_run.busy_s": highs.busy_s,
        "lp.overhead_share": 1.0 - ratio(highs.busy_s, lp.busy_s),
        "values.stage.one_shot_lp.hit_ratio": ratio(one_shot.hits, one_shot.calls),
        "values.engine.sweeps_per_op": sweeps_in_ops / n,
        "values.engine.gap_added.max": sweep.max_value if sweep.calls else 0.0,
        "trace.overhead_s": overhead,
        "trace.overhead_share": ratio(overhead, plain_p50),
    }
    for key in ("stage_lower_lp", "stage_upper_lp"):
        st = tracer.stat(f"values.stage.{key}")
        metrics[f"values.stage.{key}.calls"] = st.calls
        metrics[f"values.stage.{key}.self_s"] = st.self_s
    metrics["values.stage.one_shot_lp.calls"] = one_shot.calls
    metrics["values.engine._sweep.calls"] = sweep.calls
    metrics["values.engine._sweep.self_s"] = sweep.self_s
    for key in ("values.grid.concave_majorant", "values.grid.lower_value",
                "game_model.auxiliary_game"):
        st = tracer.stat(key)
        metrics[f"{key}.calls"] = st.calls
        metrics[f"{key}.busy_s"] = st.busy_s
    # shares of traced time: these layers run only on audit-am
    for key, field in (("strategies.lookup", "busy"), ("simulator.simulate", "self"),
                       ("strategies.extract", "busy")):
        st = tracer.stat(key)
        metrics[f"{key}.calls"] = st.calls
        metrics[f"{key}.{field}_share"] = 100.0 * ratio(getattr(st, f"{field}_s"), traced_s)

    info = [
        ("trace.ops", n, "count"),
        ("trace.traced_s", traced_s, "s"),
        ("op_s.p50.plain", plain_p50, "s"),
        ("op_s.p50.traced", statistics.median(traced_times), "s"),
    ]
    for key in sorted(tracer.stats):
        st = tracer.stats[key]
        if st.calls:
            info.append((f"{key}.calls", st.calls, "count"))
            info.append((f"{key}.busy_s", st.busy_s, "s"))
            info.append((f"{key}.self_s", st.self_s, "s"))
    attempted = len(plain_times) + len(traced_times)
    return metrics, PER_LAYER, info, attempted, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the grid engine warns on every coarse K >= 3 grid; the gap is reported
    logging.getLogger("rgsolve").setLevel(logging.ERROR)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rgsolve": rgsolve.__version__,
        "commit": commit_id(),
    }
    print("env " + json.dumps(env))
    if args.trace:
        metrics, units, info, attempted, failed, failures = traced_run(args.workload, args.seed)
    else:
        metrics, units, info, attempted, failed, failures = timed_run(
            args.workload, args.seed, args.seconds
        )
    for line in failures:
        print("FAIL " + line)
    for key, unit in units.items():
        print(f"metric {key} = {metrics[key]!r} {unit}")
    for key, value, unit in info:
        print(f"info {key} = {value} {unit}")
    correct = not failures and failed == 0
    print(f"correct = {correct} ({attempted - failed}/{attempted} ops passed their checks)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
