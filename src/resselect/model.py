"""Consumable algebra: tasks, resources, aggregation, and execution cost.

A consumable is a typed unit of work (e.g. an x86 CPU cycle) with optional
form conditions restricting where it can be consumed.  Tasks demand fixed
amounts of consumables (requirements); resources offer them at fixed rates
(capabilities).  All types here are immutable and hashable, and every
operation is a pure function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

Scalar = Union[int, float, str]


class EmptyTaskError(ValueError):
    """Raised when aggregating a task with no instructions."""


class NotSatisfiableError(ValueError):
    """Raised when costing a task on a resource that cannot run it."""


def _check_scalar(value: Scalar) -> None:
    # bool is an int subclass; reject it to keep value semantics unambiguous
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(
            f"condition values must be int, float or str, got {type(value).__name__}"
        )


def _value_key(value: Scalar):
    """Sort key for condition values: numbers first (numerically), then strings."""
    if isinstance(value, (int, float)):
        return (0, float(value), "")
    return (1, 0.0, value)


@dataclass(frozen=True, eq=False)
class ConsumableSpec:
    """A typed unit of work with form conditions.

    ``form`` maps attribute names to non-empty sets of allowed values.
    Numeric values compare numerically (2 == 2.0); strings compare exactly;
    a number never equals a string.
    """

    ctype: str
    form: Mapping[str, FrozenSet[Scalar]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.ctype:
            raise ValueError("consumable type must be non-empty")
        frozen = {}
        for attr, cond in dict(self.form).items():
            values = frozenset(cond)
            if not values:
                raise ValueError(f"empty condition set for attribute {attr!r}")
            for v in values:
                _check_scalar(v)
            frozen[attr] = values
        object.__setattr__(self, "form", frozen)
        # the hash, computed once: not a field, so repr and the encoding
        # never see it
        object.__setattr__(self, "_hash", hash((self.ctype, frozenset(frozen.items()))))

    def __eq__(self, other):
        if not isinstance(other, ConsumableSpec):
            return NotImplemented
        return self._hash == other._hash and self.ctype == other.ctype and self.form == other.form

    def __hash__(self):
        return self._hash

    def sorted_form(self) -> Dict[str, list]:
        """The form with each value set in canonical order."""
        return {a: sorted(vs, key=_value_key) for a, vs in sorted(self.form.items())}

    def sort_key(self) -> Tuple[str, str]:
        """Canonical ordering key: (type, serialized form)."""
        return (self.ctype, json.dumps(self.sorted_form(), sort_keys=True))


@dataclass(frozen=True)
class Requirement:
    """A fixed amount of a consumable demanded by a task."""

    consumable: ConsumableSpec
    amount: float

    def __post_init__(self):
        if isinstance(self.amount, bool) or not isinstance(self.amount, (int, float)):
            raise TypeError("amount must be a number")
        if not self.amount > 0:
            raise ValueError("requirement amount must be > 0")


@dataclass(frozen=True)
class Capability:
    """A fixed rate at which a resource offers a consumable."""

    consumable: ConsumableSpec
    rate: float

    def __post_init__(self):
        if isinstance(self.rate, bool) or not isinstance(self.rate, (int, float)):
            raise TypeError("rate must be a number")
        if not self.rate > 0:
            raise ValueError("capability rate must be > 0")


def _merge_requirements(reqs) -> Tuple[Requirement, ...]:
    """Merge duplicate consumables by summing amounts; canonical order."""
    totals = {}
    for req in reqs:
        totals[req.consumable] = totals.get(req.consumable, 0.0) + req.amount
    merged = [Requirement(c, amt) for c, amt in totals.items()]
    if len(merged) > 1:  # sort_key serializes the form: skip it when there is no order
        merged.sort(key=lambda r: r.consumable.sort_key())
    return tuple(merged)


@dataclass(frozen=True)
class Instruction:
    """One step of a task: a set of requirements, one per distinct consumable."""

    requirements: Tuple[Requirement, ...]

    def __post_init__(self):
        reqs = tuple(self.requirements)
        if not reqs:
            raise ValueError("instruction must have at least one requirement")
        object.__setattr__(self, "requirements", _merge_requirements(reqs))


@dataclass(frozen=True)
class TaskSpec:
    """A task, either as an ordered instruction sequence or in aggregated form."""

    task_id: str
    instructions: Optional[Tuple[Instruction, ...]] = None
    requirements: Optional[Tuple[Requirement, ...]] = None

    def __post_init__(self):
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if (self.instructions is None) == (self.requirements is None):
            raise ValueError("task body must be instructions or requirements, not both")
        if self.instructions is not None:
            object.__setattr__(self, "instructions", tuple(self.instructions))
        else:
            object.__setattr__(
                self, "requirements", _merge_requirements(self.requirements)
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """A bag of tasks with unique ids."""

    workload_id: str
    tasks: Tuple[TaskSpec, ...]

    def __post_init__(self):
        tasks = tuple(self.tasks)
        ids = [t.task_id for t in tasks]
        if len(ids) != len(set(ids)):
            raise ValueError("task_ids must be unique within a workload")
        object.__setattr__(self, "tasks", tasks)


@dataclass(frozen=True)
class ResourceSpec:
    """A resource: a non-empty set of capabilities."""

    resource_id: str
    capabilities: Tuple[Capability, ...]

    def __post_init__(self):
        caps = tuple(self.capabilities)
        if not caps:
            raise ValueError("resource must have at least one capability")
        if not self.resource_id:
            raise ValueError("resource_id must be non-empty")
        object.__setattr__(self, "capabilities", caps)


def aggregate(task: TaskSpec) -> TaskSpec:
    """Collapse a task's instruction sequence into per-consumable totals.

    Idempotent: an already-aggregated task is returned canonicalized.
    Ordering of instructions never affects the result.
    """
    if task.requirements is not None:
        return TaskSpec(task.task_id, requirements=task.requirements)
    if not task.instructions:
        raise EmptyTaskError("empty task")
    reqs = []
    for ins in task.instructions:
        reqs.extend(ins.requirements)
    return TaskSpec(task.task_id, requirements=_merge_requirements(reqs))


def cost(task: TaskSpec, resource: ResourceSpec) -> float:
    """Total cost of running ``task`` on ``resource``: sum of amount/rate
    over matched (requirement, capability) pairs.

    Matching uses the full per-requirement satisfaction predicate, so a
    capability with a superset form can supply a requirement.  When several
    capabilities match one requirement, the one with the highest rate is
    charged (never more than one, to avoid double-charging).
    """
    from .match import satisfy_req

    if task.requirements is None:
        task = aggregate(task)
    total = 0.0
    for req in task.requirements:
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


# --- JSON: the file formats live in resselect.codec; canonical output is
# sorted so identical inputs always serialize to identical bytes.


def canonical_dumps(obj) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
    return text + "\n"


def resource_from_json(obj: dict) -> ResourceSpec:
    from .codec import RESOURCE

    return RESOURCE.decode(obj)


def workload_from_json(obj: dict) -> WorkloadSpec:
    from .codec import WORKLOAD

    return WORKLOAD.decode(obj)
