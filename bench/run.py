"""Benchmark of resselect's select -> simulate -> report pipeline.

Run from the repository root:

    python3 bench/run.py --workload bag-homog-8k --seed 1 --seconds 35 --trace 0

The workload's inputs are generated from ``--seed`` into
``bench/out/<workload>/inputs``.  One client runs repetitions of the pipeline
back to back (a closed loop, no extra threads) until ``--seconds`` have
passed, and at least three repetitions.  Each end-to-end timing is the
median over the repetitions of the stage's time at the reference speed: its
wall time divided by a calibration kernel timed next to it (see speed.py).
The wall times are printed too.  Every metric is printed with its unit; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from the
traced ones, plus the tracing overhead; its spans are written to
``bench/out/<workload>/spans.jsonl``.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import gen  # noqa: E402
import pipeline  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("select_s", "s", "lower"),
    ("simulate_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("queuewait.ingest_csv_s", "s", "lower"),
    ("queuewait.ingest_rows", "count", "higher"),
    ("queuewait.ingest_rows_per_s", "1/s", "higher"),
    ("queuewait.estimate_tq_calls", "count", "lower"),
    ("queuewait.estimate_tq_s", "s", "lower"),
    ("queuewait.estimate_tq_p50_ms", "ms", "lower"),
    ("queuewait.estimate_tq_p99_ms", "ms", "lower"),
    ("queuewait.fallback_frac", "ratio", "lower"),
    ("queuewait.distinct_query_ratio", "ratio", "higher"),
    ("queuewait.self_s", "s", "lower"),
    ("match.viable_set_calls", "count", "lower"),
    ("match.viable_set_s", "s", "lower"),
    ("match.viable_set_mean_size", "count", "lower"),
    ("match.res_select_calls", "count", "lower"),
    ("match.res_select_s", "s", "lower"),
    ("match.self_s", "s", "lower"),
    ("model.aggregate_calls", "count", "lower"),
    ("model.aggregate_s", "s", "lower"),
    ("model.canonical_dumps_calls", "count", "lower"),
    ("model.canonical_dumps_s", "s", "lower"),
    ("model.bytes_out", "bytes", "lower"),
    ("model.self_s", "s", "lower"),
    ("predict.predict_sequential_cycles_calls", "count", "lower"),
    ("predict.predict_sequential_cycles_s", "s", "lower"),
    ("predict.predict_tx_calls", "count", "lower"),
    ("predict.predict_tx_s", "s", "lower"),
    ("predict.distinct_profile_ratio", "ratio", "higher"),
    ("predict.self_s", "s", "lower"),
    ("plan.plan_model_s", "s", "lower"),
    ("plan.plan_model_self_s", "s", "lower"),
    ("plan.plan_random_s", "s", "lower"),
    ("plan.task_estimates_calls", "count", "lower"),
    ("plan.self_s", "s", "lower"),
    ("sim.simulate_model_s", "s", "lower"),
    ("sim.simulate_random_s", "s", "lower"),
    ("sim.compare_s", "s", "lower"),
    ("sim.draws", "count", "lower"),
    ("sim.draws_per_s", "1/s", "higher"),
    ("sim.task_trials_uncapped_single", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("cli.select_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_total_s", "s", "lower"),
    ("trace.traced_total_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

MIN_REPS = 3


class SourcesMissing(Exception):
    pass


def import_resselect(root: str):
    """Import resselect from ``root``/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "resselect", "__init__.py")):
        raise SourcesMissing(f"no resselect sources under {src}")
    if not os.path.isdir(os.path.join(root, "scenarios", "bundled")):
        raise SourcesMissing(f"no bundled scenario under {root}/scenarios")
    sys.path.insert(0, src)
    rs = importlib.import_module("resselect")
    for name in ("cli", "config", "match", "model", "plan", "predict", "queuewait", "sim"):
        importlib.import_module(f"resselect.{name}")
    if not os.path.abspath(rs.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SourcesMissing(f"resselect was imported from {rs.__file__}, not {src}")
    return rs


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _total(times: Dict[str, float], stages=pipeline.STAGES) -> float:
    return sum(times[s] for s in stages)


def end_to_end(reps: List[Dict[str, float]]) -> Dict[str, float]:
    """The median over repetitions of each stage's reference time and of the
    whole pipeline's."""
    med = statistics.median
    return {
        "setup_s": med(t["ref_setup"] for t in reps),
        "select_s": med(t["ref_select"] for t in reps),
        "simulate_s": med(t["ref_simulate"] for t in reps),
        "total_s": med(_total(t, pipeline.REF_STAGES) for t in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: tracing.Tracer, traced_reps: List[int], untraced, traced,
              runner: pipeline.Runner) -> Dict[str, float]:
    selfs = tracing.self_times(tracer.spans)
    by_rep: Dict[int, List[list]] = {}
    for span in tracer.spans:
        by_rep.setdefault(span[tracing.REP], []).append(span)
    m = tracing.fastest(
        [tracing.rep_metrics(by_rep[r], selfs) for r in traced_reps])
    behaviors = {b["resource_id"]: b for b in pipeline.read_json(
        runner.inputs.files["behaviors"])}
    draws = uncapped = 0
    for key in ("plan_model", "plan_random"):
        d, u = checks.sim_counts(runner.outputs[key], behaviors, runner.inputs.trials)
        draws, uncapped = draws + d, uncapped + u
    # rates from the fastest times, not the slowest rate of any repetition
    ingest_s = m["queuewait.ingest_csv_s"]
    m["queuewait.ingest_rows_per_s"] = m["queuewait.ingest_rows"] / ingest_s if ingest_s else 0.0
    m["sim.draws"] = draws
    m["sim.task_trials_uncapped_single"] = uncapped
    sim_s = m["sim.simulate_model_s"] + m["sim.simulate_random_s"]
    m["sim.draws_per_s"] = draws / sim_s if sim_s else 0.0
    base = min(_total(t) for t in untraced)
    with_tracing = min(_total(t) for t in traced)
    m["trace.untraced_total_s"] = base
    m["trace.traced_total_s"] = with_tracing
    m["trace.overhead_pct"] = (with_tracing - base) / base * 100.0
    return m


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(BENCH_DIR)
    try:
        rs = import_resselect(root)
    except SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = os.path.join(BENCH_DIR, "out", args.workload)
    inputs = gen.generate(args.workload, root, os.path.join(work, "inputs"), args.seed)
    runner = pipeline.Runner(rs, inputs, root, lambda msg: print(msg, file=sys.stderr))
    tracer = tracing.Tracer()
    untraced: List[Optional[dict]] = []
    traced: List[Optional[dict]] = []
    traced_reps: List[int] = []
    started = perf_counter()
    rep = 0
    while rep < MIN_REPS or perf_counter() - started < args.seconds:
        gc.collect()
        if args.trace and rep % 2 == 1:
            tracer.rep = rep
            with tracer.installed(tracing.targets(rs)):
                traced.append(runner.rep(tracer))
            traced_reps.append(rep)
        else:
            untraced.append(runner.rep())
        rep += 1

    ok_untraced = [t for t in untraced if t is not None]
    ok_traced = [t for t in traced if t is not None]
    correct = runner.failed == 0 and bool(ok_untraced) and (not args.trace or bool(ok_traced))
    metrics: Dict[str, float] = {}
    wanted = ()
    if correct and args.trace:
        metrics = per_layer(tracer, [r for r, t in zip(traced_reps, traced) if t],
                            ok_untraced, ok_traced, runner)
        tracer.dump(os.path.join(work, "spans.jsonl"))
        wanted = PER_LAYER
    elif correct:
        metrics = end_to_end(ok_untraced)
        wanted = END_TO_END

    env = environment(args)
    env["repetitions"] = rep
    # how fast this host ran, against the reference speed (see speed.py)
    env["kernel_reference_s"] = speed.REFERENCE_S
    env["kernel_median_s"] = {name: statistics.median(t[name] for t in runner.kernel_times)
                              for name in speed.KERNELS}
    env["trace_overhead_pct"] = metrics.get("trace.overhead_pct")
    print(f"resselect benchmark: {json.dumps(env, sort_keys=True)}")
    print(f"inputs: {json.dumps(inputs.sizes, sort_keys=True)}; "
          f"why: {gen.WORKLOADS[args.workload].why}")
    print(f"operations: attempted {runner.attempted}, failed {runner.failed}, "
          f"failed_frac {runner.failed / runner.attempted:.6g}")
    for stage in pipeline.STAGES + pipeline.REF_STAGES:
        times = sorted(t[stage] for t in ok_untraced)
        if times and times[-1]:
            print(f"untraced {stage:<12} over {len(times)} repetitions: fastest "
                  f"{times[0]:.6g} s, median {statistics.median(times):.6g} s, "
                  f"slowest {times[-1]:.6g} s")
    for name, unit, _ in wanted:
        print(f"  {name:<42} {_fmt(metrics[name]):>14} {unit}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in wanted},
    }
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "sizes": inputs.sizes, "stage_times": {
            "untraced": untraced, "traced": traced}, **result}, fh, indent=2,
            sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
