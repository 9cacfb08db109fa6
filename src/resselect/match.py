"""Matchmaking: requirement/capability satisfaction, viable sets, and
selection of the candidate with the smallest predicted TTC.

ClassAd-style exact matching adapted to consumables.  Value comparison in
form conditions is exact (no numeric tolerance).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional, Sequence, Tuple

from .model import Capability, ConsumableSpec, Requirement, ResourceSpec, TaskSpec, Value
from .model import aggregate  # unused here: bench/tracing.py patches match.aggregate by name


class EmptyViableSetError(ValueError):
    """Raised when selecting from an empty viable set."""


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


def res_select(candidates: Sequence):
    """The candidate `Assignment` with the smallest ``ttc_s``; ties go to
    the first (pool order)."""
    if not candidates:
        raise EmptyViableSetError("empty viable set")
    return min(candidates, key=lambda a: a.ttc_s)
