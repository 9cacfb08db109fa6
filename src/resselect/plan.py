"""Workload planning: combine predicted execution time and queue wait into
time-to-completion estimates, one set per (profile id, viable resources)
pair of tasks, and assign each task a resource.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence

from .config import Config
from .match import EmptyViableSetError, res_select, viable_set
from .model import ResourceSpec, Value, WorkloadSpec
from .predict import (
    BaselineProfile,
    ClockSpec,
    UnknownTaskError,
    predict_sequential_cycles,
    predict_tx,
    profiles_by_task,
)
from .queuewait import NoQueueHistoryError, QueueWaitStore, QueueWindow


class MissingClockError(ValueError):
    """Raised when a viable resource has no clock specification."""


class WalltimeRangeError(ValueError):
    """Raised when walltime_safety_factor gives no positive finite walltime
    request."""


class TtcRangeError(ValueError):
    """Raised when a queue wait plus an execution time gives no finite TTC."""


class Assignment(Value):
    """A task's resource and, in a model plan, the predicted queue wait and
    execution time there.  walltime_s is the walltime the queue-wait query
    asked for; a plan read back from a file does not carry it.  Tasks of one
    profile id and viable set (`plan_model`) or drawn to one resource
    (`plan_random`) share one object."""

    resource_id: str
    tq_s: Optional[float] = None
    tx_s: Optional[float] = None
    walltime_s: Optional[float] = None

    def __post_init__(self):
        if (self.tq_s is None) != (self.tx_s is None):
            raise ValueError("tq_s and tx_s must be given together")
        for name in ("tq_s", "tx_s", "walltime_s"):
            value = getattr(self, name)
            if value is not None and not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, got {value!r}")

    @property
    def ttc_s(self) -> Optional[float]:
        """tq_s + tx_s, or None for an entry without an estimate."""
        return None if self.tq_s is None else self.tq_s + self.tx_s


class SelectionPlan(Value):
    """Per-task resource assignment for a workload.

    resource_requests aggregates per resource what a single acquisition
    (e.g. one pilot) would need: task count, cores, and the longest
    requested walltime among its tasks (model strategy only).
    """

    workload_id: str
    strategy: str  # "model" | "random"
    assignments: Dict[str, Assignment]
    resource_requests: Dict[str, dict] = dict
    rng_seed: Optional[int] = None

    def to_json(self) -> dict:
        """The plan file's JSON.  Tasks that share an `Assignment` share
        one dict, so copy an entry before editing it for one task."""
        from .codec import PLAN

        return PLAN.encode(self)


def _resource_requests(shared: Iterable[tuple], cores_per_task: int) -> Dict[str, dict]:
    """The requests of (`Assignment`, number of tasks that share it) pairs."""
    requests: Dict[str, dict] = {}
    for a, n in shared:
        entry = requests.setdefault(
            a.resource_id, {"task_count": 0, "cores": 0, "max_walltime_s": None}
        )
        entry["task_count"] += n
        entry["cores"] += n * cores_per_task
        wt = a.walltime_s  # None for random plans
        if wt is not None:
            prev = entry["max_walltime_s"]
            entry["max_walltime_s"] = wt if prev is None else max(prev, wt)
    return requests


def task_estimates(
    task_id: str,
    viable_ids: Sequence[str],
    profiles: Dict[str, List[BaselineProfile]],
    clocks: Dict[str, ClockSpec],
    queue_store: QueueWaitStore,
    config: Config,
    now: float,
) -> List[Assignment]:
    """One candidate `Assignment`, with its estimate, per viable resource of
    the task.  ``queue_store`` gives each query's window: the store, or one
    planning call's memo of windows."""
    profile_id = config.profile_id(task_id)
    task_profiles = profiles.get(profile_id)
    if not task_profiles:
        raise UnknownTaskError(f"no baseline profile {profile_id!r} for task {task_id!r}")
    cycles = predict_sequential_cycles(task_profiles)
    estimates = []
    for rid in viable_ids:
        if rid not in clocks:
            raise MissingClockError(f"no clock for resource {rid!r}")
        report = predict_tx(cycles.mean, clocks[rid],
                            inflation=config.inflation_factors.get(rid, 1.0))
        tx = report.tx_base_s if config.frequency_choice == "base" else report.tx_max_s
        walltime = report.tx_base_s * config.walltime_safety_factor
        if not 0 < walltime < math.inf:  # both factors are finite and > 0
            raise WalltimeRangeError(f"walltime_safety_factor {config.walltime_safety_factor:g} "
                                     f"gives no {'finite' if walltime else 'positive'} walltime "
                                     f"for the {report.tx_base_s:g} s that resource {rid!r} "
                                     "takes at its base clock")
        machine, queue = config.machine_queue(rid)
        try:
            tq = queue_store.window(machine, queue, now, config.window_s).mean_wait(
                walltime, config.cores_per_task, config.buckets)
        except NoQueueHistoryError as exc:
            raise NoQueueHistoryError(f"{exc}, for resource {rid!r}") from exc
        if tq + tx == math.inf:  # both are finite and >= 0
            raise TtcRangeError(f"no finite TTC: a {tq:g} s queue wait plus the {tx:g} s that "
                                f"resource {rid!r} takes at its {config.frequency_choice} clock")
        estimates.append(Assignment(rid, tq, tx, walltime))
    return estimates


class _Windows(dict):
    """A queue store's windows for one planning call, keyed by (machine,
    queue, now, window_s): each is bisected once, and memoizes its own
    means (`QueueWindow.mean_wait`)."""

    def __init__(self, store: QueueWaitStore):
        self._store = store

    def window(self, machine: str, queue: str, now: float, window_s: float) -> QueueWindow:
        key = (machine, queue, now, window_s)
        window = self.get(key)
        if window is None:
            window = self[key] = self._store.window(machine, queue, now, window_s)
        return window


def plan_model(
    workload: WorkloadSpec,
    pool: Sequence[ResourceSpec],
    profiles: Sequence[BaselineProfile],
    clocks: Dict[str, ClockSpec],
    queue_store: QueueWaitStore,
    config: Config,
    now: float,
) -> SelectionPlan:
    """Assign every task the viable resource with the smallest predicted
    TTC (`res_select`).  Ties go to pool order.

    Each kind is matched once and its tasks grouped by (profile id, viable
    ids), on which alone their estimates depend; ``profile_overrides`` can
    split a kind.  Each pair is estimated once, in order of its smallest
    task id (which an error names), and its tasks share one `Assignment`."""
    by_task = profiles_by_task(profiles)
    queries = _Windows(queue_store)
    overrides, default = config.profile_overrides, config.default_profile
    masks, pairs = {}, {}
    for task, ids in workload.kinds:
        viable = viable_set(task, pool, masks).resource_ids
        if default is not None and overrides.keys().isdisjoint(ids):
            pairs.setdefault((default, viable), []).extend(ids)
        else:
            for task_id in ids:
                pairs.setdefault((config.profile_id(task_id), viable), []).append(task_id)
    assignments = dict.fromkeys(sorted(chain.from_iterable(pairs.values())))
    shared = []
    for first, viable, ids in sorted((min(ids), v, ids) for (_, v), ids in pairs.items()):
        if not viable:
            raise EmptyViableSetError(f"no resource can run task {first!r}")
        chosen = res_select(task_estimates(first, viable, by_task, clocks, queries, config, now))
        assignments.update(dict.fromkeys(ids, chosen))
        shared.append((chosen, len(ids)))
    return SelectionPlan(
        workload_id=workload.workload_id,
        strategy="model",
        assignments=assignments,
        resource_requests=_resource_requests(shared, config.cores_per_task),
    )


def plan_random(
    workload: WorkloadSpec,
    pool: Sequence[ResourceSpec],
    seed: int,
    cores_per_task: int = 1,
) -> SelectionPlan:
    """Assign every task uniformly at random over its viable set using a
    Mersenne-Twister PRNG seeded with ``seed``; the plan records the seed.
    Tasks drawn to the same resource share one `Assignment` object.

    Tasks draw in task-id order, each by `Random.choice`'s draw (3.11 to 3.13)
    inlined: ``r = getrandbits(n.bit_length())`` until ``r < n`` picks ``ids[r]``."""
    from random import Random

    getrandbits = Random(seed).getrandbits
    by_resource = {r.resource_id: Assignment(r.resource_id) for r in pool}
    masks, viable_by_task, empty = {}, {}, []
    for task, ids in workload.kinds:
        viable = viable_set(task, pool, masks).resource_ids
        viable_by_task.update(dict.fromkeys(ids, viable))
        if not viable:
            empty.append(min(ids))
    if empty:
        raise EmptyViableSetError(f"no resource can run task {min(empty)!r}")
    assignments: Dict[str, Assignment] = {}
    drawn: Dict[str, int] = {}
    for task_id in sorted(viable_by_task):  # not .items(): a pair per task feeds the GC
        ids = viable_by_task[task_id]
        n = len(ids)
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        rid = ids[r]
        assignments[task_id] = by_resource[rid]
        drawn[rid] = drawn.get(rid, 0) + 1
    shared = [(by_resource[rid], n) for rid, n in drawn.items()]
    return SelectionPlan(
        workload_id=workload.workload_id,
        strategy="random",
        assignments=assignments,
        resource_requests=_resource_requests(shared, cores_per_task),
        rng_seed=seed,
    )
