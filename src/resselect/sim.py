"""Monte-Carlo simulation of distributed workload execution.

Per trial, each resource with assigned tasks gets one sampled pilot queue
wait (or one per task, for pools submitting single-core pilots); task
durations are sampled per task.  Workload metrics come from the resulting
timeline: TTC is the last task end, execution time is the span during which
at least one task runs, and queue time is everything else (the span before
the first start plus any zero-running-task gaps).

Each sample is keyed by (seed, trial, resource, task) and counter-based:
the top 52 bits of a blake2b digest of the key are the draw, mapped by
``DistSpec.at_each`` through the normal's inverse CDF or to an empirical
index.  Results therefore do not depend on iteration order, and two plans
that put a task on the same resource see the same draws for it.

Draws are taken a list at a time, in two loops with no call of a Python
function per key: the hash loop copies the hash of the ``seed|`` head,
updates it with each key's tail and keeps the digest's top bits, and the
sample loop maps those integers to samples.

Only ``simulate`` draws, so ``hashlib`` is imported when it is called and
``statistics`` by the first normal draw, which builds the standard normal.
"""

from __future__ import annotations

import csv
import heapq
import math
from operator import add, itemgetter, ne, sub
from typing import Dict, Iterator, List, Optional, Tuple

from .model import Value, mean_and_stddev
from .plan import SelectionPlan


class MissingBehaviorError(ValueError):
    """Raised when a plan assigns a task to a resource with no behavior."""


# the fields each distribution kind reads; giving any other is an error
_DIST_FIELDS = {
    "constant": ("value",),
    "normal": ("mean", "stddev"),
    "empirical": ("samples",),
}


# a draw is the top _BITS bits of its key's 8-byte digest, read as a uniform
# in units of _ULP
_BITS = 52
_SHIFT = 64 - _BITS
_ULP = 2.0 ** -_BITS
_Z = None  # the standard normal, which the first normal draw builds

# a single pilot's activations are drawn this many trials at a time, so the
# call of _draws is paid once per block and a pilot holds one block of keys
# and samples; drawn all at once, they raised the ru_maxrss growth of a
# 100k-trial simulate of the bundled random plan from 12.4 MB to 24.3 MB
_BLOCK = 512


def _finite(values) -> bool:
    """Whether every value is finite; an int past the float range is not."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


class DistSpec(Value):
    """A sampling distribution: constant, normal truncated at 0, or empirical."""

    kind: str  # "constant" | "normal" | "empirical"
    value: Optional[float] = None
    mean: Optional[float] = None
    stddev: Optional[float] = None
    samples: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.value is None or self.value < 0:
                raise ValueError("constant distribution needs value >= 0")
        elif self.kind == "normal":
            if self.mean is None or self.stddev is None or self.stddev < 0:
                raise ValueError("normal distribution needs mean and stddev >= 0")
        elif self.kind == "empirical":
            if not self.samples:
                raise ValueError("empirical distribution needs a non-empty sample list")
            object.__setattr__(self, "samples", tuple(self.samples))
            if any(s < 0 for s in self.samples):
                raise ValueError("empirical samples must be >= 0")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        unread = [f for f in ("value", "mean", "stddev", "samples")
                  if f not in _DIST_FIELDS[self.kind] and getattr(self, f) is not None]
        if unread:
            raise ValueError(f"{self.kind} distribution does not read {', '.join(unread)}")
        for f in _DIST_FIELDS[self.kind]:  # NaN passes every comparison above
            values = self.samples if f == "samples" else (getattr(self, f),)
            if not _finite(values):
                raise ValueError(f"{self.kind} distribution needs a finite {f}")

    def at_each(self, ks: List[int]) -> List[float]:
        """The sample at each 52-bit integer ``k`` of ``ks``: the normal's
        inverse CDF at the uniform ``(k + 0.5) / 2**52``, strictly inside
        (0, 1), truncated at 0; or the empirical sample at the exact index
        ``k * n >> 52``.  ``x if x > 0.0 else 0.0`` is ``max(0.0, x)`` bit for
        bit, -0.0 included, without a call per sample."""
        if self.kind == "constant":
            return [self.value] * len(ks)
        if self.kind == "normal":
            global _Z
            if _Z is None:
                from statistics import NormalDist

                _Z = NormalDist()
            mean, stddev, inv_cdf = self.mean, self.stddev, _Z.inv_cdf
            xs = [mean + stddev * inv_cdf((k + 0.5) * _ULP) for k in ks]
            return [x if x > 0.0 else 0.0 for x in xs]
        samples, n = self.samples, len(self.samples)
        return [samples[k * n >> _BITS] for k in ks]


class ResourceBehavior(Value):
    """Stochastic behavior of one resource during simulation.

    pilot_mode "single" samples one queue wait per resource per trial (one
    pilot acquires everything); "per_task" samples an independent wait per
    task (single-core pilots, staggered starts).
    """

    resource_id: str
    tq_dist: DistSpec
    tx_dist: DistSpec
    capacity_cores: Optional[int] = None
    pilot_mode: str = "single"

    def __post_init__(self):
        if self.capacity_cores is not None and self.capacity_cores < 1:
            raise ValueError("capacity_cores must be >= 1 when set")
        if self.pilot_mode not in ("single", "per_task"):
            raise ValueError("pilot_mode must be 'single' or 'per_task'")
        if self.pilot_mode == "per_task" and self.capacity_cores is not None:
            raise ValueError("per_task pilot mode does not read capacity_cores")

    @classmethod
    def from_json(cls, obj: dict) -> "ResourceBehavior":
        from .codec import BEHAVIOR

        return BEHAVIOR.decode(obj)


# the per-trial workload metrics, in the order every output lists them
METRICS = ("ttc_wkd_s", "tq_wkd_s", "tx_wkd_s")


class SimulationResult(Value):
    """Per-trial workload metrics plus their means and sample stddevs."""

    workload_id: str
    strategy: str
    trials: int
    ttc_wkd_s: Tuple[float, ...]
    tq_wkd_s: Tuple[float, ...]
    tx_wkd_s: Tuple[float, ...]

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for m in METRICS:
            values = getattr(self, m)
            if len(values) != self.trials:
                raise ValueError(f"{m} holds {len(values)} values, not trials = {self.trials}")
            if not _finite(values):
                raise ValueError(f"{m} values must be finite")
        ttc, tq, tx = self.ttc_wkd_s, self.tq_wkd_s, self.tx_wkd_s
        for m, values in (("ttc_wkd_s", ttc), ("tx_wkd_s", tx)):
            if min(values) < 0:
                trial = next(i for i, v in enumerate(values) if v < 0)
                raise ValueError(f"trial {trial}: {m} {values[trial]!r} is below 0")
        # tq is exactly what simulate computes: below 0 where rounding takes tx past ttc
        if any(map(ne, tq, map(sub, ttc, tx))):
            trial = next(i for i, t in enumerate(map(sub, ttc, tx)) if tq[i] != t)
            raise ValueError(f"trial {trial}: tq_wkd_s {tq[trial]!r} is not "
                             f"ttc_wkd_s - tx_wkd_s = {ttc[trial] - tx[trial]!r}")

    @property
    def mean_ttc_s(self) -> float:
        return mean_and_stddev(self.ttc_wkd_s)[0]

    def to_json(self) -> dict:
        from .codec import RESULT

        return RESULT.encode(self)

    def write_trials_csv(self, stream) -> None:
        writer = csv.writer(stream)
        writer.writerow(["trial", *METRICS])
        for i, row in enumerate(zip(*(getattr(self, m) for m in METRICS))):
            writer.writerow([i, *map(repr, row)])


def _draws(dist: DistSpec, prefix, suffixes: List[bytes]) -> List[float]:
    """The samples of ``dist`` keyed by the token head hashed in ``prefix``
    (copied, never updated) followed by each of ``suffixes``: the hash loop
    keeps every key's top 52 bits, then ``at_each`` maps them to samples."""
    if dist.kind == "constant":
        return [dist.value] * len(suffixes)
    copy, from_bytes = prefix.copy, int.from_bytes
    ks = []
    for suffix in suffixes:
        h = copy()
        h.update(suffix)
        ks.append(from_bytes(h.digest(), "big") >> _SHIFT)
    return dist.at_each(ks)


def _activations(dist: DistSpec, head, rid: str, trials: int) -> Iterator[float]:
    """The activation of ``rid``'s single pilot in each trial, drawn with
    tails ``trial|rid|tq`` after the ``seed|`` hash ``head``, a block of
    trials at a time."""
    for lo in range(0, trials, _BLOCK):
        block = range(lo, min(lo + _BLOCK, trials))
        yield from _draws(dist, head, [f"{trial}|{rid}|tq".encode() for trial in block])


def _timeline(intervals: List[Tuple[float, float]]) -> Tuple[float, float]:
    """(TTC, execution time) of busy intervals, each starting at or after 0
    and ending at or after its start: the last end of their union, which is
    the largest end, and its length.

    Sorts ``intervals`` in place on start alone.  Intervals that share a
    start fall into one merged span whatever their order, as each end is at
    least that start, so the merged spans, and their lengths added in start
    order, are those of a sort on (start, end).  When every end is ±0, so
    is every start: the stable sort keeps list order, and TTC is the first
    end, with the sign that ``max`` would give."""
    intervals.sort(key=itemgetter(0))
    tx = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals:
        if start > cur_end:
            tx += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return cur_end, tx + (cur_end - cur_start)


def simulate(
    plan: SelectionPlan,
    behaviors: Dict[str, ResourceBehavior],
    trials: int,
    seed: int,
) -> SimulationResult:
    """Run ``trials`` independent executions of the plan and collect
    TTC / queue-time / execution-time metrics per trial."""
    if not plan.assignments:
        raise ValueError("zero-task plan: nothing to simulate")
    tasks_by_res: Dict[str, List[str]] = {}
    for task_id, a in plan.assignments.items():
        tasks_by_res.setdefault(a.resource_id, []).append(task_id)
    for rid in tasks_by_res:
        if rid not in behaviors:
            raise MissingBehaviorError(f"no behavior for resource {rid!r}")
    from hashlib import blake2b

    head = blake2b(f"{seed}|".encode(), digest_size=8)
    # per resource, in id order: a single pilot's activations; a fixed
    # duration, for a single pilot with a core per task and a constant
    # duration, which is busy for exactly that long from activation; and the
    # task key tails after "seed|trial|resource|" that are drawn, encoded once
    pilots = []
    for rid in sorted(tasks_by_res):
        beh = behaviors[rid]
        task_ids = sorted(tasks_by_res[rid])
        acts = fixed = None
        if beh.pilot_mode == "single":
            acts = _activations(beh.tq_dist, head, rid, trials)
            if beh.tx_dist.kind == "constant" and (
                    beh.capacity_cores is None or beh.capacity_cores >= len(task_ids)):
                fixed = beh.tx_dist.value
        tq_keys = [f"{tid}|tq".encode() for tid in task_ids] if acts is None else None
        tx_keys = [f"{tid}|tx".encode() for tid in task_ids] if fixed is None else None
        pilots.append((rid, beh, tq_keys, tx_keys, acts, fixed))

    ttc_list: List[float] = []
    tx_list: List[float] = []
    for trial in range(trials):
        intervals: List[Tuple[float, float]] = []
        for rid, beh, tq_keys, tx_keys, acts, fixed in pilots:
            if fixed is not None:
                activation = next(acts)
                intervals.append((activation, activation + fixed))
                continue
            prefix = head.copy()
            prefix.update(f"{trial}|{rid}|".encode())
            durations = _draws(beh.tx_dist, prefix, tx_keys)
            if acts is None:
                starts = _draws(beh.tq_dist, prefix, tq_keys)
                intervals.extend(zip(starts, map(add, starts, durations)))
                continue
            # Each task starts at activation or when an earlier task frees its
            # core, so with durations >= 0 the pilot is busy from activation to
            # its last task end: one interval.
            activation = next(acts)
            capacity = beh.capacity_cores
            if capacity is None or capacity >= len(durations):
                intervals.append((activation, activation + max(durations)))
                continue
            busy_ends = [activation + dur for dur in durations[:capacity]]  # one per core
            heapq.heapify(busy_ends)
            for dur in durations[capacity:]:  # the next task takes the core freed first
                heapq.heapreplace(busy_ends, busy_ends[0] + dur)
            # when the last end is ±0 every task's is: the first task's end
            # has the sign that max over the tasks' ends in task order gives
            intervals.append((activation, max(busy_ends) or activation + durations[0]))
        ttc, tx = _timeline(intervals)
        if not math.isfinite(ttc):
            raise ValueError(f"trial {trial}: waits plus durations overflow to a TTC of {ttc!r}")
        ttc_list.append(ttc)
        tx_list.append(tx)
    return SimulationResult(
        workload_id=plan.workload_id,
        strategy=plan.strategy,
        trials=trials,
        ttc_wkd_s=tuple(ttc_list),
        tq_wkd_s=tuple(map(sub, ttc_list, tx_list)),
        tx_wkd_s=tuple(tx_list),
    )


def compare(model_result: SimulationResult, random_result: SimulationResult) -> dict:
    """Percent TTC reduction of the model strategy over random, with
    per-metric deltas.  Positive reduction means the model is faster."""
    if model_result.workload_id != random_result.workload_id:
        raise ValueError(
            "mismatched workloads: "
            f"{model_result.workload_id!r} vs {random_result.workload_id!r}"
        )
    metrics = {}
    for metric in METRICS:
        m_mean, m_stddev = mean_and_stddev(getattr(model_result, metric))
        r_mean, r_stddev = mean_and_stddev(getattr(random_result, metric))
        metrics[metric] = {"model_mean": m_mean, "random_mean": r_mean, "delta": r_mean - m_mean,
                           "model_sample_stddev": m_stddev, "random_sample_stddev": r_stddev}
    ttc = metrics["ttc_wkd_s"]
    r_mean = ttc["random_mean"]
    reduction = ttc["delta"] / r_mean * 100.0 if r_mean else math.inf
    if not math.isfinite(reduction):
        raise ValueError(f"random strategy has a mean TTC of {r_mean:g}: no reduction to report")
    return {"workload_id": model_result.workload_id, "ttc_reduction_pct": reduction,
            "metrics": metrics}
