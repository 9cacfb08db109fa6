"""Workload planning: combine predicted execution time and queue wait into
per-task time-to-completion estimates and assign each task a resource.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .config import Config
from .match import EmptyViableSetError, get_affinity, res_select, viable_set
from .model import ResourceSpec, WorkloadSpec
from .predict import (
    BaselineProfile,
    ClockSpec,
    UnknownTaskError,
    predict_sequential_cycles,
    predict_tx,
    profiles_by_task,
)
from .queuewait import NoQueueHistoryError, QueueWaitStore


@dataclass(frozen=True)
class TtcEstimate:
    """Predicted queue wait, execution time and their sum for one
    (task, resource) pair.  walltime_s is the walltime the queue-wait query
    asked for; a plan read back from a file does not carry it."""

    task_id: str
    resource_id: str
    tq_s: float
    tx_s: float
    walltime_s: Optional[float] = None

    @property
    def ttc_s(self) -> float:
        return self.tq_s + self.tx_s


@dataclass(frozen=True)
class Assignment:
    resource_id: str
    estimate: Optional[TtcEstimate] = None


@dataclass(frozen=True)
class SelectionPlan:
    """Per-task resource assignment for a workload.

    resource_requests aggregates per resource what a single acquisition
    (e.g. one pilot) would need: task count, cores, and the longest
    requested walltime among its tasks (model strategy only).
    """

    workload_id: str
    strategy: str  # "model" | "random"
    assignments: Dict[str, Assignment]
    resource_requests: Dict[str, dict]
    rng_seed: Optional[int] = None

    def to_json(self) -> dict:
        from .codec import PLAN

        return PLAN.encode(self)


def _resource_requests(
    assignments: Dict[str, Assignment], cores_per_task: int, walltimes: Dict[str, float]
) -> Dict[str, dict]:
    requests: Dict[str, dict] = {}
    for task_id, a in assignments.items():
        entry = requests.setdefault(
            a.resource_id, {"task_count": 0, "cores": 0, "max_walltime_s": None}
        )
        entry["task_count"] += 1
        entry["cores"] += cores_per_task
        wt = walltimes.get(task_id)
        if wt is not None:
            prev = entry["max_walltime_s"]
            entry["max_walltime_s"] = wt if prev is None else max(prev, wt)
    return requests


def task_estimates(
    task,
    viable_ids: Sequence[str],
    profiles: Dict[str, List[BaselineProfile]],
    clocks: Dict[str, ClockSpec],
    queue_store: QueueWaitStore,
    config: Config,
    now: float,
    _tq_cache: Optional[dict] = None,
) -> List[TtcEstimate]:
    """Per-viable-resource TTC estimates for one task."""
    profile_id = config.profile_id(task.task_id)
    task_profiles = profiles.get(profile_id)
    if not task_profiles:
        raise UnknownTaskError(
            f"missing prediction inputs: no baseline profile {profile_id!r} "
            f"for task {task.task_id!r}"
        )
    cycles = predict_sequential_cycles(task_profiles)
    estimates = []
    for rid in viable_ids:
        if rid not in clocks:
            raise ValueError(f"missing clock specification for resource {rid!r}")
        report = predict_tx(
            cycles.mean, clocks[rid], inflation=config.inflation_factors.get(rid, 1.0)
        )
        tx = report.tx_base_s if config.frequency_choice == "base" else report.tx_max_s
        walltime = report.tx_base_s * config.walltime_safety_factor
        machine, queue = config.machine_queue(rid)
        cache_key = (
            machine,
            queue,
            config.buckets.walltime_bucket(walltime),
            config.buckets.cores_bucket(config.cores_per_task),
        )
        if _tq_cache is not None and cache_key in _tq_cache:
            tq = _tq_cache[cache_key]
        else:
            try:
                tq = queue_store.estimate_tq(
                    machine,
                    queue,
                    walltime_req_s=walltime,
                    cores_req=config.cores_per_task,
                    now=now,
                    window_s=config.window_s,
                    buckets=config.buckets,
                ).mean_wait_s
            except NoQueueHistoryError as exc:
                raise NoQueueHistoryError(
                    f"missing queue inputs for resource {rid!r}: {exc}"
                ) from exc
            if _tq_cache is not None:
                _tq_cache[cache_key] = tq
        estimates.append(TtcEstimate(task.task_id, rid, tq, tx, walltime))
    return estimates


def plan_model(
    workload: WorkloadSpec,
    pool: Sequence[ResourceSpec],
    profiles: Sequence[BaselineProfile],
    clocks: Dict[str, ClockSpec],
    queue_store: QueueWaitStore,
    config: Config,
    now: float,
) -> SelectionPlan:
    """Assign every task the viable resource with the highest affinity
    (by default the smallest predicted TTC).  Ties go to pool order."""
    affinity = get_affinity(config.affinity)
    by_task = profiles_by_task(profiles)
    assignments: Dict[str, Assignment] = {}
    walltimes: Dict[str, float] = {}
    tq_cache: dict = {}
    for task in sorted(workload.tasks, key=lambda t: t.task_id):
        vs = viable_set(task, pool)
        if not vs.resource_ids:
            raise EmptyViableSetError(
                f"empty viable set: task {task.task_id!r} cannot run on any pool resource"
            )
        estimates = task_estimates(
            task, vs.resource_ids, by_task, clocks, queue_store, config, now, tq_cache
        )
        payloads = [{"tq_s": e.tq_s, "tx_s": e.tx_s} for e in estimates]
        chosen = res_select(vs.resource_ids, payloads, affinity)
        chosen_est = next(e for e in estimates if e.resource_id == chosen)
        assignments[task.task_id] = Assignment(chosen, chosen_est)
        walltimes[task.task_id] = chosen_est.walltime_s
    return SelectionPlan(
        workload_id=workload.workload_id,
        strategy="model",
        assignments=assignments,
        resource_requests=_resource_requests(
            assignments, config.cores_per_task, walltimes
        ),
    )


def plan_random(
    workload: WorkloadSpec,
    pool: Sequence[ResourceSpec],
    seed: int,
    cores_per_task: int = 1,
) -> SelectionPlan:
    """Assign every task uniformly at random over its viable set using a
    Mersenne-Twister PRNG seeded with ``seed``; the plan records the seed."""
    rng = random.Random(seed)
    assignments: Dict[str, Assignment] = {}
    for task in sorted(workload.tasks, key=lambda t: t.task_id):
        vs = viable_set(task, pool)
        if not vs.resource_ids:
            raise EmptyViableSetError(
                f"empty viable set: task {task.task_id!r} cannot run on any pool resource"
            )
        assignments[task.task_id] = Assignment(rng.choice(vs.resource_ids))
    return SelectionPlan(
        workload_id=workload.workload_id,
        strategy="random",
        assignments=assignments,
        resource_requests=_resource_requests(assignments, cores_per_task, {}),
        rng_seed=seed,
    )
