"""Matchmaking: requirement/capability satisfaction, execution cost, viable
sets, selection.

ClassAd-style exact matching adapted to consumables.  Value comparison in
form conditions is exact (no numeric tolerance).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Dict, Optional, Sequence, Tuple

from .model import (
    Capability, ConsumableSpec, Requirement, ResourceSpec, TaskSpec, Value, aggregate,
)


class EmptyViableSetError(ValueError):
    """Raised when selecting from an empty viable set."""


class NotSatisfiableError(ValueError):
    """Raised when costing a task on a resource that cannot run it."""


class ViableSet(Value):
    """Resources on which a task can execute, in input pool order."""

    task_id: str
    resource_ids: Tuple[str, ...]


def satisfy_req(req: Requirement, cap: Capability) -> bool:
    """True iff the capability's consumable can satisfy the requirement.

    Checks: same type; every requirement form attribute present in the
    capability form; non-empty intersection of each shared condition set.
    """
    rc, cc = req.consumable, cap.consumable
    if rc.ctype != cc.ctype:
        return False
    for attr, cond in rc.form.items():
        if attr not in cc.form:
            return False
        if not (cc.form[attr] & cond):
            return False
    return True


def cost(task: TaskSpec, resource: ResourceSpec) -> float:
    """Total cost of running ``task`` on ``resource``: sum of amount/rate
    over matched (requirement, capability) pairs.

    Matching uses the full per-requirement satisfaction predicate, so a
    capability with a superset form can supply a requirement.  When several
    capabilities match one requirement, the one with the highest rate is
    charged (never more than one, to avoid double-charging).
    """
    total = 0.0
    for req in aggregate(task).requirements:
        best_rate = None
        for cap in resource.capabilities:
            if satisfy_req(req, cap) and (best_rate is None or cap.rate > best_rate):
                best_rate = cap.rate
        if best_rate is None:
            raise NotSatisfiableError(
                "task not satisfiable by resource: no capability matches "
                f"requirement for consumable {req.consumable.ctype!r} "
                f"(form {dict(req.consumable.form)!r})"
            )
        total += req.amount / best_rate
    return total


def viable_set(task: TaskSpec, pool: Sequence[ResourceSpec],
               masks: Optional[Dict[ConsumableSpec, int]] = None) -> ViableSet:
    """Filter the pool to resources that can execute the task (pool order
    kept).

    A resource can run a task iff it matches each consumable the task
    demands; amounts and instruction order play no part, so the task is not
    aggregated.  Each distinct consumable is matched once, as a bit mask
    over the pool whose bit *i* is set when ``pool[i]`` has a capability
    that `satisfy_req` accepts, and the viable set is the AND of the task's
    masks.  ``masks`` keeps those masks by consumable across calls, so it
    must only ever be passed with one pool."""
    reqs = (task.requirements if task.requirements is not None
            else chain.from_iterable(ins.requirements for ins in task.instructions))
    masks = {} if masks is None else masks
    viable = (1 << len(pool)) - 1
    for req in reqs:
        mask = masks.get(req.consumable)
        if mask is None:
            mask = masks[req.consumable] = sum(
                1 << i for i, r in enumerate(pool)
                if any(satisfy_req(req, cap) for cap in r.capabilities))
        viable &= mask
    ids = tuple(r.resource_id for i, r in enumerate(pool) if viable >> i & 1)
    return ViableSet(task.task_id, ids)


def res_select(
    vrs_ids: Sequence[str],
    inputs: Sequence,
    affinity: Callable[..., float],
) -> str:
    """Pick the candidate whose payload yields the highest affinity value.

    Ties go to the earliest candidate (strict improvement required).
    -inf affinities are skipped unless every candidate is -inf, in which
    case the first candidate is returned.
    """
    if not vrs_ids:
        raise EmptyViableSetError("empty viable set")
    if len(inputs) != len(vrs_ids):
        raise ValueError("one affinity input required per candidate resource")
    best_id = None
    best_val = -math.inf
    for rid, payload in zip(vrs_ids, inputs):
        val = affinity(payload)
        if best_val < val:
            best_val = val
            best_id = rid
    return best_id if best_id is not None else vrs_ids[0]


def neg_ttc(candidate) -> float:
    """The planner's affinity: a candidate `Assignment`'s negated predicted
    time-to-completion.  An affinity must be pure: same candidate, same
    value, no side effects."""
    return -candidate.ttc_s
