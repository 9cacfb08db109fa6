"""Spans recorded from outside the program, around resselect's public
functions, and the per-layer metrics derived from them.

A traced repetition replaces module attributes (``resselect.plan.viable_set``
and so on) with wrappers for its duration and puts the originals back
afterwards.  Spans stay in memory until the run ends.  A span's self time is
its duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional

# span fields, in order
ID, PARENT, NAME, START, END, REP, ATTRS = range(7)


class Tracer:
    """Single-threaded span recorder.  ``rep`` tags every span with the
    workload repetition it belongs to."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.rep: Optional[int] = None

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                perf_counter_ns(), None, self.rep, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``attrs(args, kwargs,
        result)`` may attach a dict of attributes after the span has closed."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: Iterable[tuple]):
        """Patch ``(owner, attribute, span name, attrs)`` targets for the
        duration of the block; the originals are always restored."""
        saved = []
        try:
            for owner, attr, name, attrs in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        fields = ("id", "parent", "name", "start_ns", "end_ns", "rep", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span)), sort_keys=True))
                fh.write("\n")


def self_times(spans: List[list]) -> Dict[int, int]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the parent's own interval), in nanoseconds."""
    children: Dict[int, List[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(c[START], start), min(c[END], end)) for c in children.get(span[ID], ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[span[ID]] = end - start - covered
    return out


# --- what to wrap -------------------------------------------------------------


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def targets(resselect) -> List[tuple]:
    """Wrap points, keyed by layer.  A function imported by name into another
    module is patched where it is looked up (``resselect.plan.viable_set``,
    ``resselect.cli.plan_model``), so each call records exactly one span."""
    cli, match, model, plan, queuewait, sim = (
        resselect.cli, resselect.match, resselect.model, resselect.plan,
        resselect.queuewait, resselect.sim,
    )
    store = queuewait.QueueWaitStore
    tq_args = _bound(store.estimate_tq)

    def tq_attrs(args, kwargs, result):
        a = tq_args(args, kwargs)
        buckets = a["buckets"]
        key = (a["machine"], a["queue"], buckets.walltime_bucket(a["walltime_req_s"]),
               buckets.cores_bucket(a["cores_req"]), a["now"], a["window_s"])
        return {"key": list(key), "fallback": result.fallback_used}

    def profile_attrs(args, kwargs, result):
        profiles = args[0] if args else kwargs["profiles"]
        return {"profile": profiles[0].task_id, "n": len(profiles)}

    def strategy_attrs(args, kwargs, result):
        return {"strategy": (args[0] if args else kwargs["plan"]).strategy}

    def argv_attrs(args, kwargs, result):
        argv = args[0] if args else kwargs["argv"]
        return {"command": argv[0], "exit": result}

    return [
        (store, "ingest_csv", "queuewait.ingest_csv",
         lambda a, k, r: {"rows": r[0], "rejected": len(r[1])}),
        (store, "estimate_tq", "queuewait.estimate_tq", tq_attrs),
        (plan, "viable_set", "match.viable_set",
         lambda a, k, r: {"size": len(r.resource_ids)}),
        (plan, "res_select", "match.res_select", None),
        (match, "aggregate", "model.aggregate", None),
        (model, "canonical_dumps", "model.canonical_dumps",
         lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
        (plan, "predict_sequential_cycles", "predict.predict_sequential_cycles",
         profile_attrs),
        (plan, "predict_tx", "predict.predict_tx", None),
        (plan, "task_estimates", "plan.task_estimates", None),
        (plan, "plan_model", "plan.plan_model", None),
        (cli, "plan_model", "plan.plan_model", None),
        (plan, "plan_random", "plan.plan_random", None),
        (cli, "plan_random", "plan.plan_random", None),
        (sim, "simulate", "sim.simulate", strategy_attrs),
        (cli, "simulate", "sim.simulate", strategy_attrs),
        (sim, "compare", "sim.compare", None),
        (cli, "compare", "sim.compare", None),
        (cli, "main", "cli.main", argv_attrs),
    ]


LAYERS = ("queuewait", "match", "model", "predict", "plan", "sim", "cli", "bench")


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def rep_metrics(spans: List[list], selfs: Dict[int, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.  Times are seconds of
    inclusive span time unless named ``self``."""
    s = 1e-9
    by_name: Dict[str, List[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, pred=None):
        return s * sum(sp[END] - sp[START] for sp in by_name.get(name, ())
                       if pred is None or pred(sp[ATTRS]))

    m: Dict[str, float] = {}
    m["queuewait.ingest_csv_s"] = total("queuewait.ingest_csv")
    m["queuewait.ingest_rows"] = sum(
        sp[ATTRS]["rows"] for sp in by_name.get("queuewait.ingest_csv", ()))
    tq = by_name.get("queuewait.estimate_tq", [])
    tq_ms = [(sp[END] - sp[START]) * 1e-6 for sp in tq]
    m["queuewait.estimate_tq_calls"] = len(tq)
    m["queuewait.estimate_tq_s"] = total("queuewait.estimate_tq")
    m["queuewait.estimate_tq_p50_ms"] = _percentile(tq_ms, 50) if tq else 0.0
    m["queuewait.estimate_tq_p99_ms"] = _percentile(tq_ms, 99) if tq else 0.0
    m["queuewait.fallback_frac"] = (
        sum(sp[ATTRS]["fallback"] for sp in tq) / len(tq) if tq else 0.0)
    m["queuewait.distinct_query_ratio"] = (
        len({tuple(sp[ATTRS]["key"]) for sp in tq}) / len(tq) if tq else 0.0)

    vs = by_name.get("match.viable_set", [])
    m["match.viable_set_calls"] = len(vs)
    m["match.viable_set_s"] = total("match.viable_set")
    m["match.viable_set_mean_size"] = (
        sum(sp[ATTRS]["size"] for sp in vs) / len(vs) if vs else 0.0)
    m["match.res_select_calls"] = calls("match.res_select")
    m["match.res_select_s"] = total("match.res_select")

    m["model.aggregate_calls"] = calls("model.aggregate")
    m["model.aggregate_s"] = total("model.aggregate")
    m["model.canonical_dumps_calls"] = calls("model.canonical_dumps")
    m["model.canonical_dumps_s"] = total("model.canonical_dumps")
    m["model.bytes_out"] = sum(sp[ATTRS]["bytes"] for sp in by_name.get(
        "model.canonical_dumps", ()))

    psc = by_name.get("predict.predict_sequential_cycles", [])
    m["predict.predict_sequential_cycles_calls"] = len(psc)
    m["predict.predict_sequential_cycles_s"] = total("predict.predict_sequential_cycles")
    m["predict.predict_tx_calls"] = calls("predict.predict_tx")
    m["predict.predict_tx_s"] = total("predict.predict_tx")
    m["predict.distinct_profile_ratio"] = (
        len({sp[ATTRS]["profile"] for sp in psc}) / len(psc) if psc else 0.0)

    m["plan.plan_model_s"] = total("plan.plan_model")
    m["plan.plan_model_self_s"] = s * sum(
        selfs[sp[ID]] for sp in by_name.get("plan.plan_model", ()))
    m["plan.plan_random_s"] = total("plan.plan_random")
    m["plan.task_estimates_calls"] = calls("plan.task_estimates")

    m["sim.simulate_model_s"] = total("sim.simulate", lambda a: a["strategy"] == "model")
    m["sim.simulate_random_s"] = total("sim.simulate", lambda a: a["strategy"] == "random")
    m["sim.compare_s"] = total("sim.compare")

    for command in ("select", "simulate", "report"):
        m[f"cli.{command}_s"] = total("cli.main", lambda a, c=command: a["command"] == c)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = s * sum(
            selfs[sp[ID]] for sp in spans if sp[NAME].startswith(layer + "."))
    m["trace.spans"] = len(spans)
    return m


def fastest(per_rep: List[Dict[str, float]]) -> Dict[str, float]:
    """Each metric's smallest value over the traced repetitions; counts and
    ratios are the same in every repetition."""
    return {k: min(r[k] for r in per_rep) for k in per_rep[0]}
