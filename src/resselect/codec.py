"""The on-disk JSON formats, declared once: one `Record` per record type
gives its keys, whether each is required, its JSON kind and the attribute it
fills, plus the few renames and GHz scalings the files use.  Decoding,
encoding and the ``--schema`` output all read these declarations.

Decoding is strict: an unknown key, a missing key, a wrong JSON type or a
non-finite number raises `DecodeError` naming the key path.  Value
invariants stay in each dataclass's ``__post_init__``; their errors gain
the key path here.
"""

from __future__ import annotations

import csv
import marshal
import sys
from itertools import chain, compress, count, islice, repeat
from math import isfinite, nan
from operator import attrgetter, itemgetter, mul, not_
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .config import Config
from .match import ViableSet
from .model import (
    Capability, ConsumableSpec, Instruction, Requirement, ResourceSpec, TaskSpec, WorkloadSpec,
    mean_and_stddev,
)
from .plan import Assignment, SelectionPlan, TtcEstimate
from .predict import GHZ, BaselineProfile, ClockSpec, PoolInventoryEntry, pool_clock_spec
from .queuewait import (
    QueueWaitEstimate, SimilarityBuckets, checked_columns, iso_times, one_row, parsed,
)
from .sim import METRICS, DistSpec, ResourceBehavior, SimulationResult


class DecodeError(ValueError):
    """Input that does not match its format.  ``path`` collects the keys,
    innermost first, while the error propagates, so valid input builds no
    location strings; ``source`` is the file, set by callers that know it."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason, self.path, self.source = reason, [], None

    def __str__(self) -> str:
        loc = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in reversed(self.path))
        return ": ".join(part for part in (self.source, loc.lstrip("."), self.reason) if part)


def _expected(what: str, value) -> DecodeError:
    got = {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}
    return DecodeError(f"expected {what}, got {got.get(type(value), 'number')}")


def numbers(bad: Dict[int, Optional[str]], texts: Sequence[str]) -> list:
    """Finite numbers parsed from CSV or command-line text; a text that is
    not one is noted in ``bad`` (see `queuewait.parsed`)."""
    values = parsed(bad, nan, float, texts)
    if not all(map(isfinite, values)):
        for i in compress(count(), map(not_, map(isfinite, values))):
            bad.setdefault(i, f"non-finite number {texts[i]!r}")
    return values


def number(text: str) -> float:
    return one_row(numbers, text)[0]


# --- kinds: each decodes parsed JSON and describes itself as a JSON schema;
# the kinds that outputs use also encode back to JSON

_PY_TYPES = {"string": (str,), "integer": (int,), "number": (int, float),
             "boolean": (bool,), "null": (type(None),)}
_FLOAT_MAX = sys.float_info.max


class Scalar:
    """A JSON scalar; types match exactly, so a boolean is not an integer."""

    def __init__(self, *names: str):
        types, self.names = sum((_PY_TYPES[n] for n in names), ()), names

        def decode(value):  # a plain function: scalars are the most frequent call
            t = type(value)
            if t in types:
                # NaN, ±Infinity and integers past the float range fail the bounds
                if t is str or value is None or -_FLOAT_MAX <= value <= _FLOAT_MAX:
                    return value
                raise DecodeError(f"non-finite number {value!r}")
            raise _expected(" or ".join(names), value)

        self.decode = decode

    def encode(self, value):
        return value

    def schema(self) -> dict:
        return {"type": self.names[0] if len(self.names) == 1 else list(self.names)}


class Arr:
    """A JSON array of one kind, decoded to a tuple.  With ``unique``, no
    two items may share that attribute (such as a resource id)."""

    def __init__(self, item, unique: Optional[str] = None):
        self.item, self.unique = item, unique

    def decode(self, value) -> tuple:
        if type(value) is not list:
            raise _expected("array", value)
        decode, out = self.item.decode, []
        try:
            for i, item in enumerate(value):
                out.append(decode(item))
            if self.unique:
                first = {}
                for i, item in enumerate(out):
                    key = getattr(item, self.unique)
                    if first.setdefault(key, i) != i:
                        raise DecodeError(
                            f"duplicate {self.unique} {key!r}, first at index {first[key]}")
        except DecodeError as exc:
            exc.path.append(i)
            raise
        return tuple(out)

    def encode(self, value) -> list:
        return [self.item.encode(v) for v in value]

    def schema(self) -> dict:
        return {"type": "array", "items": self.item.schema()}


class Map:
    """A JSON object with free keys and values of one kind."""

    def __init__(self, value):
        self.value = value

    def decode(self, value) -> dict:
        if type(value) is not dict:
            raise _expected("object", value)
        decode, out = self.value.decode, {}
        try:
            for key, item in value.items():
                out[key] = decode(item)
        except DecodeError as exc:
            exc.path.append(key)
            raise
        return out

    def encode(self, value) -> dict:
        """Each distinct value object is encoded once: values that many keys
        share (a plan's assignments) come out as one shared encoding."""
        encode, memo, out = self.value.encode, {}, {}
        for key, item in value.items():
            i = id(item)
            if i not in memo:
                memo[i] = encode(item)
            out[key] = memo[i]
        return out

    def schema(self) -> dict:
        return {"type": "object", "additionalProperties": self.value.schema()}


class OneOf:
    """One of several kinds, picked by ``choose`` from the value itself."""

    def __init__(self, choose: Callable, *kinds):
        self.choose, self.kinds = choose, kinds

    def decode(self, value):
        return self.choose(value).decode(value)

    def schema(self) -> dict:
        return {"oneOf": [k.schema() for k in self.kinds]}


class Field:
    """A record key that is optional, fills an attribute of another name, or
    whose file units are ``scale`` times larger than the attribute's (only
    input files have such keys, so encoding does not scale back)."""

    def __init__(self, kind, optional=False, attr: Optional[str] = None, scale=None):
        self.kind, self.optional, self.attr, self.scale = kind, optional, attr, scale


def opt(kind) -> Field:
    return Field(kind, optional=True)


def _scaled(decode: Callable, scale: float) -> Callable:
    return lambda value: decode(value) * scale


class Record:
    """A JSON object with a fixed set of keys, each a kind or a `Field`.
    ``build`` makes the value from the decoded attributes; ``view`` maps a
    value back to its attributes for encoding."""

    def __init__(self, build: Callable, fields: Dict[str, object], view: Callable = vars):
        self.build, self.view, self.fields = build, view, {}
        self._decoders = {}  # key -> (decode, attr), all the decoding loop needs
        for key, f in fields.items():
            f = f if isinstance(f, Field) else Field(f)
            f = self.fields[key] = Field(f.kind, f.optional, f.attr or key, f.scale)
            decode = _scaled(f.kind.decode, f.scale) if f.scale else f.kind.decode
            self._decoders[key] = (decode, f.attr)
        self._required = [k for k, f in self.fields.items() if not f.optional]
        self._required_keys = frozenset(self._required)

    def decode(self, value):
        if type(value) is not dict:
            raise _expected("object", value)
        decoders, attrs = self._decoders, {}
        try:
            for key, item in value.items():
                entry = decoders.get(key)
                if entry is None:
                    raise DecodeError(f"unknown key (expected one of: {', '.join(decoders)})")
                attrs[entry[1]] = entry[0](item)
        except DecodeError as exc:
            exc.path.append(key)
            raise
        if not value.keys() >= self._required_keys:
            missing = [repr(k) for k in self._required if k not in value]
            raise DecodeError(f"missing key {', '.join(missing)}")
        try:
            return self.build(**attrs)
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc

    def encode(self, obj) -> dict:
        attrs, out = self.view(obj), {}
        for key, f in self.fields.items():
            value = attrs.get(f.attr)
            if value is not None or not f.optional:
                out[key] = value if type(f.kind) is Scalar else f.kind.encode(value)
        return out

    def schema(self) -> dict:
        return {"type": "object", "additionalProperties": False, "required": self._required,
                "properties": {k: f.kind.schema() for k, f in self.fields.items()}}


STR, INT, NUM, BOOL = map(Scalar, ("string", "integer", "number", "boolean"))
NUM_OR_NULL = Scalar("number", "null")

# --- tasks and resources


def _consumable_record(cls, key: str) -> Record:
    """Requirements and capabilities carry their consumable's type and form
    inline, next to their ``key`` (amount or rate)."""
    return Record(
        lambda ctype, form=None, **amount: cls(ConsumableSpec(ctype, form or {}), **amount),
        {"type": Field(STR, attr="ctype"), "form": opt(Map(Arr(Scalar("number", "string")))),
         key: NUM},
        lambda x: {**vars(x), "ctype": x.consumable.ctype, "form": x.consumable.sorted_form()})


REQUIREMENT = _consumable_record(Requirement, "amount")
CAPABILITY = _consumable_record(Capability, "rate")


def _task(task_id, instructions=None, requirements=None):
    if instructions is not None:
        instructions = tuple(map(Instruction, instructions))
    return TaskSpec(task_id, instructions, requirements)


TASK = Record(
    _task, {"task_id": STR, "requirements": opt(Arr(REQUIREMENT)),
            "instructions": opt(Arr(Arr(REQUIREMENT)))},
    lambda t: {**vars(t), "instructions": t.instructions and [
        i.requirements for i in t.instructions]})


class Tasks(Arr):
    """A workload's task array, in which tasks with the same body (every key
    but ``task_id``) share one decoded body.  A body is keyed on its
    ``marshal`` bytes, which are exact: they tell ``1``, ``1.0`` and
    ``true`` apart, and ``-0.0`` from ``0.0``.  Format version 2 writes no
    back-references, so the bytes do not depend on which objects the body
    shares.  The first task with a body, and every task without a non-empty
    string ``task_id`` or with a value marshal cannot write, is decoded in
    full, so errors and their paths are those of `Arr`; a body that fails
    is never kept."""

    def decode(self, value) -> tuple:
        if type(value) is not list:
            raise _expected("array", value)
        decode, bodies, out = self.item.decode, {}, []
        for i, item in enumerate(value):
            key = None
            if type(item) is dict:
                body = dict(item)
                task_id = body.pop("task_id", None)
                if type(task_id) is str and task_id:
                    try:  # a quarter of the cost of repr(body)
                        key = marshal.dumps(body, 2)
                    except ValueError:  # not a JSON value
                        pass
                    first = bodies.get(key)
                    if first is not None:
                        out.append(first.with_id(task_id))
                        continue
            try:
                task = decode(item)
            except DecodeError as exc:
                exc.path.append(i)
                raise
            if key is not None:
                bodies[key] = task
            out.append(task)
        return tuple(out)


WORKLOAD = Record(WorkloadSpec, {"workload_id": STR, "tasks": Tasks(TASK)})
RESOURCE = Record(ResourceSpec, {"resource_id": STR, "capabilities": Arr(CAPABILITY)})
POOL = Arr(RESOURCE, unique="resource_id")
VIABLE_SET = Record(ViableSet, {"task_id": STR, "viable": Field(Arr(STR), attr="resource_ids")})

# --- clocks (in GHz on disk) and configuration


def _ghz(key: str) -> Field:
    return Field(NUM, attr=key.replace("_ghz", "_hz"), scale=GHZ)


_PLAIN_CLOCK = Record(ClockSpec, {
    "resource_id": STR, "base_ghz": _ghz("base_ghz"), "max_ghz": _ghz("max_ghz")})
# a pool described by its CPU inventory gets the node-weighted average clock
_POOL_CLOCK = Record(
    lambda resource_id, inventory: pool_clock_spec(inventory, resource_id),
    {"resource_id": STR, "inventory": Arr(Record(PoolInventoryEntry, {
        "cpu_model": STR, "node_count": INT, "base_ghz": _ghz("base_ghz"),
        "max_ghz": _ghz("max_ghz")}))})
CLOCK = OneOf(
    lambda v: _POOL_CLOCK if isinstance(v, dict) and "inventory" in v else _PLAIN_CLOCK,
    _PLAIN_CLOCK, _POOL_CLOCK)
CLOCKS = Arr(CLOCK, unique="resource_id")
CONFIG = Record(Config, {
    "inflation_factors": opt(Map(NUM)), "walltime_safety_factor": opt(NUM),
    "buckets": opt(Record(SimilarityBuckets, {"walltime_edges_s": Arr(NUM),
                                              "cores_edges": Arr(INT)})),
    "window_s": opt(NUM), "affinity": opt(STR), "frequency_choice": opt(STR),
    "resource_queues": opt(Map(Record(lambda machine, queue: (machine, queue),
                                      {"machine": STR, "queue": STR}))),
    "cores_per_task": opt(INT), "profile_overrides": opt(Map(STR)),
    "default_profile": opt(STR)})

# --- plans: ttc_s is written for readers and ignored on reading


def _assignment(resource_id, tq_s=None, tx_s=None, ttc_s=None):
    if (tq_s is None) != (tx_s is None):
        raise ValueError("tq_s and tx_s must be given together")
    return resource_id, tq_s, tx_s


def _assignment_view(a: Assignment) -> dict:
    e = a.estimate
    if e is None:
        return {"resource_id": a.resource_id}
    return {"resource_id": a.resource_id, "tq_s": e.tq_s, "tx_s": e.tx_s, "ttc_s": e.ttc_s}


def _plan(workload_id, strategy, assignments, resource_requests=None, rng_seed=None):
    return SelectionPlan(workload_id, strategy, {
        task_id: Assignment(rid, None if tq is None else TtcEstimate(rid, tq, tx))
        for task_id, (rid, tq, tx) in assignments.items()}, resource_requests or {}, rng_seed)


PLAN = Record(_plan, {
    "workload_id": STR, "strategy": STR,
    "assignments": Map(Record(_assignment, {
        "resource_id": STR, "tq_s": opt(NUM), "tx_s": opt(NUM), "ttc_s": opt(NUM)},
        _assignment_view)),
    "resource_requests": opt(Map(Record(dict, {
        "task_count": INT, "cores": INT, "max_walltime_s": NUM_OR_NULL}, dict))),
    "rng_seed": opt(INT)})

# --- simulation: a result's summary follows from per_trial; it is written
# for readers and ignored on reading

DIST = Record(DistSpec, {"kind": STR, "value": opt(NUM), "mean": opt(NUM),
                         "stddev": opt(NUM), "samples": opt(Arr(NUM))})
BEHAVIOR = Record(ResourceBehavior, {
    "resource_id": STR, "tq_dist": DIST, "tx_dist": DIST,
    "capacity_cores": opt(INT), "pilot_mode": opt(STR)})
SCENARIO = Record(dict, {
    "plan": OneOf(lambda v: STR if isinstance(v, str) else PLAN, STR, PLAN),  # path or plan
    "behaviors": Arr(BEHAVIOR, unique="resource_id"), "trials": INT, "seed": INT}, dict)
_STAT = Record(dict, {"mean": NUM, "sample_stddev": NUM_OR_NULL}, dict)


def _result_view(result: SimulationResult) -> dict:
    per_trial = {m: getattr(result, m) for m in METRICS}
    summary = {m: dict(zip(("mean", "sample_stddev"), mean_and_stddev(v)))
               for m, v in per_trial.items()}
    return {**vars(result), "per_trial": per_trial, "summary": summary}


RESULT = Record(
    lambda per_trial, summary=None, **head: SimulationResult(**head, **per_trial),
    {"workload_id": STR, "strategy": STR, "trials": INT,
     "per_trial": Record(dict, {m: Arr(NUM) for m in METRICS}, dict),
     "summary": opt(Record(dict, {m: _STAT for m in METRICS}, dict))},
    _result_view)

# --- CSV files: a header naming the columns, then one record per row

# Rows read and built at a time.  Each row is a list the garbage collector
# tracks, and 512 stays under CPython's default gen-0 threshold (700), so a
# chunk sets off no collection of its own; its rows are let go before the
# chunk's columns are handed on.  Chunks of 4096 rows set off 112 gen-0 and
# 10 gen-1 collections per 100k history rows, and read them 9 % slower.
_CHUNK = 512


class Csv:
    """A CSV format: its columns and ``build``.  ``build(bad, *columns)``
    takes the cells of a chunk's rows, one sequence per declared column in
    order, and returns a tuple of value columns with one entry per row; it
    notes each row it rejects in ``bad`` by index, with the message of the
    first check the row fails (the column checks of `queuewait`)."""

    def __init__(self, name: str, build: Optional[Callable], *columns: str):
        self.name, self.build, self.columns = name, build, columns

    def read(self, stream, warnings: List[str]) -> Iterator[tuple]:
        """Stream the value columns of the accepted rows of each chunk of up
        to `_CHUNK` rows of ``stream``.

        The header must name every declared column once; other columns are
        ignored.  Blank lines are skipped.  A row with more cells than the
        header, or one that ``build`` rejects, is skipped with a warning
        appended to ``warnings``, naming the physical line the row starts
        on; a short row reads its missing cells as empty.  A chunk is built
        whole however many of its rows are bad, and its bad rows are then
        dropped from its columns.  Text that is not CSV raises `ValueError`
        naming its line."""
        reader = csv.reader(stream)
        try:
            header = next(reader, [])
            missing = [c for c in self.columns if c not in header]
            if missing:
                raise ValueError(f"{self.name} CSV missing columns: {', '.join(missing)}")
            for c in self.columns:
                if header.count(c) > 1:
                    raise ValueError(f"{self.name} CSV repeats column {c!r}")
            indices = [header.index(c) for c in self.columns]
            build, width = self.build, len(header)
            # each row, noting in ``ends`` the line it ends on as it is read:
            # the stream counts the line breaks, which the cells may not show
            ends: List[int] = []
            noted = map(itemgetter(0), zip(
                reader, map(ends.append, map(attrgetter("line_num"), repeat(reader)))))
            line = reader.line_num  # the line before the chunk
            for chunk in iter(lambda: list(islice(noted, _CHUNK)), []):
                bad: Dict[int, Optional[str]] = {}  # row -> its warning; None for none
                if set(map(len, chunk)) != {width}:  # fit every row to the header
                    for i, row in enumerate(chunk):
                        if len(row) < width:
                            if not row:  # a blank line
                                bad[i] = None
                            row += [""] * (width - len(row))
                        elif len(row) > width:
                            bad[i] = f"{len(row) - width} more cells than the header"
                            del row[width:]
                # the declared columns; ``zip(*chunk)`` would hold an
                # iterator per row, each one counting toward gen 0
                cells = list(chain.from_iterable(chunk))
                columns = build(bad, *(cells[i::width] for i in indices))
                if bad:
                    keep = [True] * len(chunk)
                    for i in bad:
                        keep[i] = False
                    columns = tuple(list(compress(c, keep)) for c in columns)
                    warnings.extend(f"line {(ends[i - 1] if i else line) + 1}: {bad[i]}"
                                    for i in sorted(bad) if bad[i] is not None)
                line = ends[-1]
                ends.clear()
                del chunk, cells  # see _CHUNK
                yield columns
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from exc

    def schema(self) -> str:
        return "CSV: " + ",".join(self.columns)


def _profiles(bad, task_id, param, instructions, cycles, rate, ghz, tx_s) -> tuple:
    param = parsed(bad, 0, int, param)  # parsed in column order, as the checks run
    instructions, cycles, rate, ghz, tx_s = (
        numbers(bad, texts) for texts in (instructions, cycles, rate, ghz, tx_s))
    profiles = parsed(bad, None, BaselineProfile, task_id, param, instructions, cycles, rate,
                      map(mul, ghz, repeat(GHZ)), tx_s)
    return (profiles,)


def _history(bad, machine, queue, submit, wait, walltime, cores) -> tuple:
    return checked_columns(bad, machine, queue, iso_times(bad, submit), numbers(bad, wait),
                           numbers(bad, walltime), parsed(bad, 0, int, cores))


PROFILES = Csv("profile", _profiles, "task_id", "workload_param", "instructions", "cycles",
               "instr_rate", "avg_clock_ghz", "tx_s")
HISTORY = Csv("history", _history, "machine", "queue", "submit_time_iso8601", "wait_s",
              "walltime_req_s", "cores_req")

# --- command outputs; `report` writes REPORT and nothing reads it back

REPORT = Csv("report", None, "group", "metric", "mean", "sample_stddev")

QUEUE_ESTIMATE = Record(QueueWaitEstimate, {
    "machine": STR, "queue": STR, "mean_wait_s": NUM, "sample_stddev_s": NUM_OR_NULL,
    "n_samples": INT, "fallback_used": BOOL})
# one entry of `predict`'s output, from a (PredictionReport, CyclesEstimate) pair
PREDICTION = Record(dict, {
    "task_id": STR, "resource_id": STR, "pred_cycles": NUM, "tx_base_s": NUM,
    "tx_max_s": NUM, "inflation_factor": NUM, "pred_cycles_stddev": NUM_OR_NULL,
    "n_profiles": INT},
    lambda pair: {**vars(pair[0]), "pred_cycles_stddev": pair[1].stddev,
                  "n_profiles": pair[1].n_samples})
