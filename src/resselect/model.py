"""Consumable algebra: tasks, resources, aggregation, and execution cost.

A consumable is a typed unit of work (e.g. an x86 CPU cycle) with optional
form conditions restricting where it can be consumed.  Tasks demand fixed
amounts of consumables (requirements); resources offer them at fixed rates
(capabilities).  All types here are immutable and hashable, and every
operation is a pure function.

The module also holds `mean_and_stddev`, the one exact summary that every
reported mean and sample stddev comes from; it imports nothing from the
package, so every module can use it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring
from math import frexp, isfinite, isqrt, ldexp
from operator import mul
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

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

    def with_id(self, task_id: str) -> TaskSpec:
        """This task under ``task_id``, sharing its body objects: the body
        is already checked and merged, so it is not checked or merged again
        (``dataclasses.replace`` would merge it again)."""
        if not task_id:
            raise ValueError("task_id must be non-empty")
        task = object.__new__(type(self))
        fields = task.__dict__  # frozen: fill the fields as __init__ would
        fields.update(vars(self))
        fields["task_id"] = task_id
        return task


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
    """``obj`` as canonical JSON text: keys sorted, two-space indents,
    non-ASCII text kept as is, and a final newline.  The text equals
    ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
    allow_nan=False) + "\\n"`` byte for byte, and fails as it does: NaN
    and ±inf raise `ValueError`, as does a container that contains itself,
    and a value of any other type raises `TypeError`.  Keys must be strings;
    any other key raises `TypeError`.

    Each distinct dict, list or tuple is written once per indent level it
    appears at and its text reused, so a value that many keys share (a
    plan's assignments) costs one rendering, not one per key."""
    return _dumps(obj, 0, {}, set()) + "\n"


def _dumps(value, level: int, memo: Dict[tuple, str], open_ids: set) -> str:
    """The text of ``value`` at indent ``level``.  ``memo`` maps the
    (id, level) of every container written so far to its text, and
    ``open_ids`` holds the ids of the containers being written."""
    if isinstance(value, float):  # the most frequent scalar; no bool or int is a float
        if not isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):  # as json: subclasses such as IntEnum write as plain ints
        return int.__repr__(value)
    is_list = isinstance(value, (list, tuple))
    if not is_list and not isinstance(value, dict):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "[]" if is_list else "{}"
    memo_key = (id(value), level)
    text = memo.get(memo_key)
    if text is not None:
        return text
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(value))
    level += 1
    newline = "\n" + "  " * level
    if is_list:
        parts = [_dumps(item, level, memo, open_ids) for item in value]
        text = "[" + newline + ("," + newline).join(parts) + newline[:-2] + "]"
    else:
        # Shared values sit under dict keys (a plan's assignments), so each
        # value is looked up before the call.  No scalar shares an id with a
        # container, as the caller holds the whole tree alive.
        # encode_basestring raises TypeError for a key that is not a string.
        written = memo.get
        parts = [encode_basestring(k) + ": " + (
                     written((id(item), level)) or _dumps(item, level, memo, open_ids))
                 for k, item in sorted(value.items())]
        text = "{" + newline + ("," + newline).join(parts) + newline[:-2] + "}"
    open_ids.discard(id(value))
    memo[memo_key] = text
    return text


# --- summaries: every mean and sample stddev the package reports is exact,
# rounded once, so it depends neither on the order of the values nor on the
# Python version.


def mean_and_stddev(values: Sequence[float]) -> Tuple[float, Optional[float]]:
    """The mean and sample stddev (None below two values) of ``values``,
    each the float nearest the exact result.  Values are read as floats and
    must be finite.

    Every finite float is an integer times a power of two, so one scale
    ``2**k``, set by the smallest non-zero magnitude, makes every value an
    exact integer ``x``.  With ``S = sum(x)`` and ``Q = sum(x*x)``, the mean
    is ``S / (n * 2**k)`` and the variance ``(n*Q - S*S) / (n*(n-1) * 4**k)``:
    integer arithmetic up to one final rounding each."""
    n = len(values)
    if not n:
        raise ValueError("no values to summarize")
    smallest = min(filter(None, values), default=0.0)
    if smallest < 0:
        smallest = min(filter(None, map(abs, values)))
    elif not smallest:
        return 0.0, (0.0 if n > 1 else None)
    k = 53 - frexp(smallest)[1]  # smallest * 2**k is a 53-bit integer
    try:
        xs = list(map(int, map(mul, values, repeat(ldexp(1.0, k)))))
    except OverflowError:  # the scale or a scaled value leaves the float range
        xs, k = _exact_integers(values)
    total = sum(xs)
    mean = total / (n << k) if k >= 0 else (total << -k) / n
    if n < 2:
        return mean, None
    return mean, _sqrt_ratio(n * sum(map(mul, xs, xs)) - total * total, n * (n - 1), -k)


def _exact_integers(values: Sequence[float]) -> Tuple[List[int], int]:
    """``(xs, k)`` with ``float(v) == x / 2**k`` exactly for every value:
    the slow path for scales past the float range (subnormals, or values
    spread over more than about 970 binades)."""
    if not all(map(isfinite, values)):
        raise ValueError("cannot summarize non-finite values")
    ratios = [float(v).as_integer_ratio() for v in values]  # denominators are powers of two
    k = max(den.bit_length() for _, den in ratios) - 1
    return [num << (k + 1 - den.bit_length()) for num, den in ratios], k


def _sqrt_ratio(num: int, den: int, exp: int) -> float:
    """The float nearest ``sqrt(num / den) * 2**exp``, for integers
    ``num >= 0`` and ``den > 0``.

    The integer square root is taken at a scale ``4**shift`` that leaves it
    at least 55 bits, and an inexact root gets its last bit set (round to
    odd).  Two bits past the float's 53 make the one rounding of the final
    conversion the correct rounding of the exact root."""
    if not num:
        return 0.0
    shift = (num.bit_length() - den.bit_length() - 110) // 2
    if shift > 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = isqrt(num // den)
    root |= root * root * den != num
    exp += shift
    return float(root << exp) if exp >= 0 else root / (1 << -exp)


def resource_from_json(obj: dict) -> ResourceSpec:
    from .codec import RESOURCE

    return RESOURCE.decode(obj)


def workload_from_json(obj: dict) -> WorkloadSpec:
    from .codec import WORKLOAD

    return WORKLOAD.decode(obj)
