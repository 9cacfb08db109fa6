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

A pilot's draws are taken a list at a time, in two loops with no call of a
Python function per key: the hash loop copies the hash of the pilot's
``seed|trial|resource|`` head, updates it with each task's tail and keeps the
digest's top bits, and the sample loop maps those integers to samples.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import math
import statistics
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Dict, List, Optional, Tuple

from .model import mean_and_stddev
from .plan import SelectionPlan


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
_Z = statistics.NormalDist()


@dataclass(frozen=True)
class DistSpec:
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
            if not all(map(math.isfinite, values)):
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
            mean, stddev, inv_cdf = self.mean, self.stddev, _Z.inv_cdf
            xs = [mean + stddev * inv_cdf((k + 0.5) * _ULP) for k in ks]
            return [x if x > 0.0 else 0.0 for x in xs]
        samples, n = self.samples, len(self.samples)
        return [samples[k * n >> _BITS] for k in ks]

    def at(self, k: int) -> float:
        """The sample at the 52-bit integer ``k``, by ``at_each``."""
        return self.at_each([k])[0]


@dataclass(frozen=True)
class ResourceBehavior:
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


@dataclass(frozen=True)
class SimulationResult:
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
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{m} values must be finite")

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


def _draw(dist: DistSpec, seed: int, *key) -> float:
    """The sample of ``dist`` keyed by (seed, trial, resource, task), with
    the token hashed in one piece: what ``simulate`` draws, hashing the
    head once per pilot, and the reference tests compare it with."""
    if dist.kind == "constant":
        return dist.value
    token = "|".join(str(p) for p in (seed, *key))
    digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
    return dist.at(int.from_bytes(digest, "big") >> _SHIFT)


def _draws(dist: DistSpec, prefix, suffixes: List[bytes]) -> List[float]:
    """``_draw``'s samples of ``dist`` for the keys ``prefix`` (a hash of the
    token's head) then each of ``suffixes``: the head is hashed once, and
    each tail's bits are kept before any is mapped to a sample."""
    if dist.kind == "constant":
        return [dist.value] * len(suffixes)
    copy, from_bytes = prefix.copy, int.from_bytes
    ks = []
    for suffix in suffixes:
        h = copy()
        h.update(suffix)
        ks.append(from_bytes(h.digest(), "big") >> _SHIFT)
    return dist.at_each(ks)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = -math.inf
    for start, end in sorted(intervals):
        if start > cur_end:
            total += cur_end - cur_start if cur_end > cur_start else 0.0
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end > cur_start:
        total += cur_end - cur_start
    return total


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
    # each task's key suffixes after "seed|trial|resource|", encoded once
    tq_keys: Dict[str, List[bytes]] = {}
    tx_keys: Dict[str, List[bytes]] = {}
    for rid, task_ids in tasks_by_res.items():
        if rid not in behaviors:
            raise ValueError(f"missing behavior for resource {rid!r}")
        task_ids.sort()
        tq_keys[rid] = [f"{tid}|tq".encode() for tid in task_ids]
        tx_keys[rid] = [f"{tid}|tx".encode() for tid in task_ids]
    resource_ids = sorted(tasks_by_res)

    ttc_list: List[float] = []
    tq_list: List[float] = []
    tx_list: List[float] = []
    for trial in range(trials):
        intervals: List[Tuple[float, float]] = []
        for rid in resource_ids:
            beh = behaviors[rid]
            prefix = hashlib.blake2b(f"{seed}|{trial}|{rid}|".encode(), digest_size=8)
            durations = _draws(beh.tx_dist, prefix, tx_keys[rid])
            if beh.pilot_mode == "per_task":
                starts = _draws(beh.tq_dist, prefix, tq_keys[rid])
                intervals.extend(zip(starts, map(add, starts, durations)))
                continue
            # Each task starts at activation or when an earlier task frees its
            # core, so with durations >= 0 the pilot is busy from activation to
            # its last task end: one interval.
            activation = _draws(beh.tq_dist, prefix, [b"tq"])[0]
            capacity = beh.capacity_cores
            if capacity is None or capacity >= len(durations):
                intervals.append((activation, activation + max(durations)))
                continue
            busy_ends = [activation + dur for dur in durations[:capacity]]  # one per core
            heapq.heapify(busy_ends)
            for dur in durations[capacity:]:  # the next task takes the core freed first
                heapq.heapreplace(busy_ends, busy_ends[0] + dur)
            intervals.append((activation, max(busy_ends)))
        ttc = max(map(itemgetter(1), intervals))
        if not math.isfinite(ttc):
            raise ValueError(f"trial {trial}: waits plus durations overflow to a TTC of {ttc!r}")
        tx = _union_length(intervals)
        ttc_list.append(ttc)
        tx_list.append(tx)
        tq_list.append(ttc - tx)
    return SimulationResult(
        workload_id=plan.workload_id,
        strategy=plan.strategy,
        trials=trials,
        ttc_wkd_s=tuple(ttc_list),
        tq_wkd_s=tuple(tq_list),
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
    if ttc["random_mean"] == 0:
        raise ValueError("random strategy has a mean TTC of 0: no reduction to report")
    return {"workload_id": model_result.workload_id,
            "ttc_reduction_pct": ttc["delta"] / ttc["random_mean"] * 100.0, "metrics": metrics}
