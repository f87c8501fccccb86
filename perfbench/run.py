"""mutvis benchmark: exact-search workloads, end-to-end timings and a traced
per-layer breakdown.

    python3 perfbench/run.py --workload mut-products --seed 1000 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload runs in a worker process, a closed loop
with one caller: passes over the workload's calls repeat until ``--seconds``
have elapsed (``verify-all`` starts a fresh worker for every pass, because
its corpora are cached at module level).  The parent checks every result
outside the timed region and prints the metrics by name, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead; the spans
of the last traced pass are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
WORKLOADS = ("mut-products", "mu-graphs", "large-graphs", "verify-all")
DEFAULT_SEED = 1000
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0  # every worker must end this long after the run starts


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, dead worker)."""


def import_program():
    """Put the checkout's src first on sys.path and import mutvis from it."""
    if not (SRC / "mutvis" / "__init__.py").is_file():
        raise BenchError(f"no mutvis sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import mutvis

    if Path(mutvis.__file__).resolve().parent != SRC / "mutvis":
        raise BenchError(f"imported mutvis from {mutvis.__file__}, not from {SRC}")
    return mutvis


def percentile(values, q):
    """Nearest-rank percentile: always one of the measured values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- worker: runs the calls, measures, reports raw results --------------------


def worker(args) -> dict:
    import_program()
    import workloads

    calls = workloads.make_calls(args.workload, args.seed, args.size == "tiny")
    ready = time.monotonic()
    if args.probe:
        return {"ready": ready}
    schedule = ("untraced", "traced") if args.trace else ("untraced",)
    passes = []
    start = time.perf_counter()
    last_round = 0.0
    while len(passes) < args.max_passes and another_round(
        len(passes), time.perf_counter() - start, last_round, args.seconds
    ):
        began = time.perf_counter()
        for mode in schedule:
            passes.append(run_pass(workloads, calls, args, traced=mode == "traced"))
        last_round = time.perf_counter() - began
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ready": ready, "passes": passes, "peak_rss_mib": peak_kib / 1024}


def another_round(done: int, elapsed: float, last_round: float, seconds: float) -> bool:
    """Closed-loop stopping rule: a second pass while time remains, then
    another round only while it is expected to end within ``seconds``."""
    if done < 2:
        return elapsed < seconds
    return elapsed + last_round <= seconds


def run_pass(workloads, calls, args, traced: bool) -> dict:
    from mutvis import cli, verify

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        cli.run_all = workloads.run_all_by_suite
    # Graphs and their oracles reference each other, so only the cycle
    # collector frees them; collect the last pass's before timing this one.
    gc.collect()
    results = []
    t0 = time.perf_counter()
    try:
        for i, call in enumerate(calls):
            if tracer:
                tracer.call_id = i
            c0 = time.perf_counter()
            try:
                value, witness = workloads.run(call)
                error = None
            except (Exception, SystemExit) as exc:  # a failed call is a result
                value, witness, error = None, None, f"{type(exc).__name__}: {exc}"
            results.append([value, witness, error, time.perf_counter() - c0])
        elapsed = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
            cli.run_all = verify.run_all
    layers = None
    if tracer:
        layers = tracer.layer_metrics(verify.suite_ids())
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return {"traced": traced, "elapsed": elapsed, "results": results, "layers": layers}


# -- parent: spawns workers, checks results, reports metrics ------------------


def spawn(args, deadline: float, *, probe=False, max_passes=0) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        "--max-passes", str(max_passes or 1_000_000),
    ]
    if probe:
        cmd.append("--probe")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {args.workload} exceeded the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def collect(args) -> tuple[list[dict], list[dict]]:
    """Run the workload; returns (workers, setup probes)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = [spawn(args, deadline, probe=True) for _ in range(SETUP_SAMPLES - 1)]
    if args.workload != "verify-all":
        return [spawn(args, deadline)], probes
    # One fresh worker per round, with the same stopping rule as worker().
    workers = []
    start = time.monotonic()
    last_round = 0.0
    while another_round(len(workers), time.monotonic() - start, last_round, args.seconds):
        began = time.monotonic()
        workers.append(spawn(args, deadline, max_passes=2 if args.trace else 1))
        last_round = time.monotonic() - began
    return workers, probes


def check_results(calls, passes, pins) -> tuple[int, int, list[str]]:
    import checks

    attempted = failed = 0
    problems: list[str] = []
    first: dict[int, tuple] = {}
    verdict: dict[tuple, list[str]] = {}
    for p in passes:
        for i, (value, witness, error, _) in enumerate(p["results"]):
            attempted += 1
            call = calls[i]
            if error is not None:
                failed += 1
                problems.append(f"{call.key}: {error}")
                continue
            result = (value, witness)
            # Every pass must repeat the first pass's result exactly.
            if first.setdefault(i, result) != result:
                failed += 1
                problems.append(f"{call.key}: result differs between passes")
                continue
            key = (i, json.dumps(result))
            if key not in verdict:
                verdict[key] = checks.check(call, value, witness, pins)
            if verdict[key]:
                failed += 1
                problems += [f"{call.key}: {msg}" for msg in verdict[key]]
    return attempted, failed, problems


def end_to_end(calls, workers, probes, passes) -> tuple[dict, dict]:
    """The end-to-end metrics, and figures printed alongside them.

    Call latency is printed, not reported as a metric: the short calls of a
    pass run within a fraction of a second of each other, so a run samples
    the machine's speed at only a few instants; on a shared host their
    percentiles spread by up to 21 % over ten runs and 34 % over five.
    """
    pass_s = [p["elapsed"] for p in passes]
    # Latency over the seed-independent calls, so that it compares across
    # seeds; verify-all has none, and one call per pass.
    timed = [i for i, c in enumerate(calls) if c.anchor] or range(len(calls))
    call_s = [p["results"][i][3] for p in passes for i in timed]
    setup_s = [w["setup_s"] for w in workers + probes]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "pass_s": (statistics.median(pass_s), "s"),
        "pass_s.p90": (percentile(pass_s, 0.9), "s"),
        "peak_rss_mib": (statistics.median(w["peak_rss_mib"] for w in workers), "MiB"),
    }
    info = {
        "passes": len(pass_s),
        "setup samples": len(setup_s),
        "timed calls": len(call_s),
        "s call p50": f"{percentile(call_s, 0.5):.6g}",
        "s call p90": f"{percentile(call_s, 0.9):.6g}",
        "s each pass": " ".join(f"{t:.3f}" for t in pass_s[:20]),
    }
    return metrics, info


def per_layer(passes) -> tuple[dict, list[str]]:
    from tracing import layer_unit

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    problems = []
    metrics = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        unit = layer_unit(name)
        if unit in ("count", "ratio"):
            # Counters must repeat exactly from traced pass to traced pass.
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    overhead = statistics.median(p["elapsed"] for p in traced) - statistics.median(
        p["elapsed"] for p in untraced
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, problems


def bench(args, pins=None) -> dict:
    import_program()
    import checks
    import workloads

    calls = workloads.make_calls(args.workload, args.seed, args.size == "tiny")
    workers, probes = collect(args)
    passes = [p for w in workers for p in w["passes"]]
    attempted, failed, problems = check_results(calls, passes, checks.load_pins() if pins is None else pins)
    if args.trace:
        metrics, trace_problems = per_layer(passes)
        if trace_problems:
            failed += 1
            attempted += 1
            problems += trace_problems
        counts = {"traced passes": sum(p["traced"] for p in passes)}
    else:
        metrics, counts = end_to_end(calls, workers, probes, passes)
    for msg in problems[:20]:
        print("FAIL", msg)
    print(f"workload {args.workload} seed {args.seed}: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small calls of the workload, for smoke tests")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--max-passes", type=int, default=1_000_000, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.worker:
            print(json.dumps(worker(args)))
            return 0
        result = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
