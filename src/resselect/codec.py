"""The on-disk JSON formats, declared once: one `Record` per record type
gives its keys, whether each is required and its JSON kind.  A record's keys
are the keyword arguments of its build and the keys of its view, so a file
key that differs from the attribute it fills (``type``, ``viable``, the
clocks in GHz) is mapped in that record's build and view.  Decoding,
encoding and the ``--schema`` output all read these declarations.

Decoding is strict: an unknown key, a missing key, a wrong JSON type or a
non-finite number raises `DecodeError` naming the key path.  Value
invariants stay in each value class's ``__post_init__``; their errors gain
the key path here.
"""

from __future__ import annotations

import csv
import marshal
import sys
from collections import defaultdict
from functools import reduce
from itertools import chain, compress, count, islice, repeat
from math import isfinite, nan
from operator import attrgetter, iadd, itemgetter, mul, not_
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .config import Config
from .match import ViableSet
from .model import (
    Capability, ConsumableSpec, Instruction, Requirement, ResourceSpec, TaskSpec, WorkloadSpec,
    mean_and_stddev,
)
from .plan import Assignment, SelectionPlan
from .predict import GHZ, BaselineProfile, ClockSpec, PoolInventoryEntry, pool_clock_spec
from .queuewait import (
    QueueWaitEstimate, SimilarityBuckets, checked_columns, iso_times, one_row, parsed,
)
from .sim import METRICS, DistSpec, ResourceBehavior, SimulationResult


class DecodeError(ValueError):
    """Input that does not match its format.  ``path`` collects the keys,
    innermost first, while the error propagates, so valid input builds no
    location strings."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason, self.path = reason, []

    def __str__(self) -> str:
        loc = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in reversed(self.path))
        return ": ".join(part for part in (loc.lstrip("."), self.reason) if part)


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
        except DecodeError as exc:
            exc.path.append(i)
            raise
        if self.unique:
            _unique(self.unique, map(attrgetter(self.unique), out))
        return tuple(out)

    def encode(self, value) -> list:
        return [self.item.encode(v) for v in value]

    def schema(self) -> dict:
        return {"type": "array", "items": self.item.schema()}


def _unique(name: str, keys) -> None:
    """Raise `DecodeError` at the index of the first of ``keys`` that an
    earlier one repeats, naming the earlier one's index."""
    first: dict = {}
    for i, key in enumerate(keys):
        if first.setdefault(key, i) != i:
            exc = DecodeError(f"duplicate {name} {key!r}, first at index {first[key]}")
            exc.path.append(i)
            raise exc


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


class opt:
    """An optional record key of ``kind``: it may be missing on reading, and
    a value of None is not written."""

    def __init__(self, kind):
        self.kind = kind


class Record:
    """A JSON object with a fixed set of keys, each a kind or an `opt` kind.
    ``build`` makes the value from the decoded keys, passed as keyword
    arguments; ``view`` maps a value to a dict holding the keys to encode."""

    def __init__(self, build: Callable, keys: Dict[str, object], view: Callable = vars):
        self.build, self.view = build, view
        self.kinds = {k: kind.kind if isinstance(kind, opt) else kind for k, kind in keys.items()}
        self._decoders = {k: kind.decode for k, kind in self.kinds.items()}
        self._required = [k for k, kind in keys.items() if not isinstance(kind, opt)]
        self._required_keys = frozenset(self._required)

    def decode(self, value):
        if type(value) is not dict:
            raise _expected("object", value)
        decoders, attrs = self._decoders, {}
        try:
            for key, item in value.items():
                decode = decoders.get(key)
                if decode is None:
                    raise DecodeError(f"unknown key (expected one of: {', '.join(decoders)})")
                attrs[key] = decode(item)
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
        for key, kind in self.kinds.items():
            value = attrs.get(key)
            if value is not None or key in self._required_keys:
                out[key] = value if type(kind) is Scalar else kind.encode(value)
        return out

    def schema(self) -> dict:
        return {"type": "object", "additionalProperties": False, "required": self._required,
                "properties": {k: kind.schema() for k, kind in self.kinds.items()}}


STR, INT, NUM, BOOL = map(Scalar, ("string", "integer", "number", "boolean"))
NUM_OR_NULL = Scalar("number", "null")

# --- tasks and resources


def _consumable_record(cls, key: str) -> Record:
    """Requirements and capabilities carry their consumable's type and form
    inline, next to their ``key`` (amount or rate)."""
    return Record(
        lambda type, form=None, **amount: cls(ConsumableSpec(type, form or {}), *amount.values()),
        {"type": STR, "form": opt(Map(Arr(Scalar("number", "string")))), key: NUM},
        lambda x: {**vars(x), "type": x.consumable.ctype, "form": x.consumable.sorted_form()})


REQUIREMENT = _consumable_record(Requirement, "amount")
CAPABILITY = _consumable_record(Capability, "rate")


class InstructionArr(Arr):
    """An `Instruction`, on disk its array of requirements.  Each is built
    where it is decoded, so its errors name its index."""

    def decode(self, value) -> Instruction:
        requirements = super().decode(value)
        try:
            return Instruction(requirements)
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc

    def encode(self, value: Instruction) -> list:
        return super().encode(value.requirements)


TASK = Record(TaskSpec, {"task_id": STR, "requirements": opt(Arr(REQUIREMENT)),
                         "instructions": opt(Arr(InstructionArr(REQUIREMENT)))})


class Tasks(Arr):
    """A workload's task array, decoded to its kinds (see `WorkloadSpec`):
    the tasks with one body (every key but ``task_id``), in the order of
    their first task, with their ids in file order.  A body is keyed on its
    ``marshal`` bytes, which are exact: they tell ``1``, ``1.0`` and
    ``true`` apart, and ``-0.0`` from ``0.0``; format version 2 writes no
    back-references.  The first task with a body, and every task without a
    non-empty string ``task_id`` or with a value marshal cannot write, is
    decoded in full, so errors and their paths are those of an `Arr` with
    ``unique="task_id"``.  A workload with no task is an error."""

    def decode(self, value) -> tuple:
        decode, first, more = self.item.decode, {}, defaultdict(list)  # by body key

        def task(item):
            key = None
            if type(item) is dict:
                body = dict(item)
                task_id = body.pop("task_id", None)
                if type(task_id) is str and task_id:
                    try:  # a quarter of the cost of repr(body)
                        key = marshal.dumps(body, 2)
                    except ValueError:  # not a JSON value
                        pass
                    if key in first:
                        more[key].append(task_id)
                        return task_id
            decoded = decode(item)
            first[decoded if key is None else key] = decoded
            return decoded.task_id

        ids = Arr(SimpleNamespace(decode=task)).decode(value)
        _unique("task_id", ids)
        if not ids:
            raise DecodeError("workload must have at least one task")
        return tuple((task, (task.task_id, *more.get(key, ()))) for key, task in first.items())


# only input files give workloads, so nothing encodes one
WORKLOAD = Record(lambda workload_id, tasks: WorkloadSpec(workload_id, tasks),
                  {"workload_id": STR, "tasks": Tasks(TASK)})
RESOURCE = Record(ResourceSpec, {"resource_id": STR, "capabilities": Arr(CAPABILITY)})
POOL = Arr(RESOURCE, unique="resource_id")
VIABLE_SET = Record(lambda task_id, viable: ViableSet(task_id, resource_ids=viable),
                    {"task_id": STR, "viable": Arr(STR)},
                    lambda v: {"task_id": v.task_id, "viable": v.resource_ids})

# --- clocks (in GHz on disk) and configuration


def _in_hz(cls) -> Callable:
    """A build of ``cls`` from its clocks in GHz.  Only input files give
    clocks, so nothing encodes these records."""
    return lambda base_ghz, max_ghz, **keys: cls(**keys, base_hz=base_ghz * GHZ,
                                                 max_hz=max_ghz * GHZ)


_PLAIN_CLOCK = Record(_in_hz(ClockSpec), {"resource_id": STR, "base_ghz": NUM, "max_ghz": NUM})
# a pool described by its CPU inventory gets the node-weighted average clock
_POOL_CLOCK = Record(
    lambda resource_id, inventory: pool_clock_spec(inventory, resource_id),
    {"resource_id": STR, "inventory": Arr(Record(_in_hz(PoolInventoryEntry), {
        "cpu_model": STR, "node_count": INT, "base_ghz": NUM, "max_ghz": NUM}))})
CLOCK = OneOf(
    lambda v: _POOL_CLOCK if isinstance(v, dict) and "inventory" in v else _PLAIN_CLOCK,
    _PLAIN_CLOCK, _POOL_CLOCK)
CLOCKS = Arr(CLOCK, unique="resource_id")
CONFIG = Record(Config, {
    "inflation_factors": opt(Map(NUM)), "walltime_safety_factor": opt(NUM),
    "buckets": opt(Record(SimilarityBuckets, {"walltime_edges_s": Arr(NUM),
                                              "cores_edges": Arr(INT)})),
    "window_s": opt(NUM), "frequency_choice": opt(STR),
    "resource_queues": opt(Map(Record(lambda machine, queue: (machine, queue),
                                      {"machine": STR, "queue": STR}))),
    "cores_per_task": opt(INT), "profile_overrides": opt(Map(STR)),
    "default_profile": opt(STR)})

# --- plans: ttc_s is written for readers; on reading it must be tq_s + tx_s


def _assignment(ttc_s=None, **attrs) -> Assignment:
    a = Assignment(**attrs)
    if ttc_s is not None and ttc_s != a.ttc_s:
        raise ValueError("ttc_s needs tq_s and tx_s" if a.ttc_s is None
                         else f"ttc_s {ttc_s!r} is not tq_s + tx_s = {a.ttc_s!r}")
    return a


PLAN = Record(SelectionPlan, {
    "workload_id": STR, "strategy": STR,
    "assignments": Map(Record(_assignment, {
        "resource_id": STR, "tq_s": opt(NUM), "tx_s": opt(NUM), "ttc_s": opt(NUM)},
        lambda a: {**vars(a), "ttc_s": a.ttc_s})),
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
BEHAVIORS = Arr(BEHAVIOR, unique="resource_id")
SCENARIO = Record(dict, {  # plan and behaviors: each a path, or the value itself
    "plan": OneOf(lambda v: STR if isinstance(v, str) else PLAN, STR, PLAN),
    "behaviors": OneOf(lambda v: STR if isinstance(v, str) else BEHAVIORS, STR, BEHAVIORS),
    "trials": INT, "seed": INT}, dict)
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

# Lines read and built at a time.  A chunk the csv module reads makes a list
# per row, which the garbage collector tracks, and 512 stays under CPython's
# default gen-0 threshold (700), so such a chunk sets off no collection of
# its own; its rows are let go before the chunk's columns are handed on.
# Chunks of 4096 rows set off 112 gen-0 and 10 gen-1 collections per 100k
# history rows, and read them 9 % slower.  A quote-free chunk is split as
# one string, so it makes a few lists, not one per row.
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
        """Stream the value columns of the accepted rows of each chunk of
        ``stream``, which is up to `_CHUNK` lines and the lines a quoted
        cell on its last line runs on to.

        The header must name every declared column once; other columns are
        ignored.  Blank lines are skipped.  A row with more cells than the
        header, or one that ``build`` rejects, is skipped with a warning
        appended to ``warnings``, naming the physical line the row starts
        on; a short row reads its missing cells as empty.  A chunk is built
        whole however many of its rows are bad, and its bad rows are then
        dropped from its columns.  Text that is not CSV raises `ValueError`
        naming its line.  So does a NUL character, which the csv module would
        read as part of a cell: each line is checked as it is read, ahead
        of any error on a later line.

        A chunk whose lines are one row each by the rules of `_split` is
        split at its commas.  Any other chunk is read by the csv module,
        which may read on past its last line to the end of a quoted cell.
        Both give the cells, warnings and errors the csv module gives."""
        lines = iter(stream)
        reader, line = csv.reader(_no_nul(lines, 0)), 0  # ``line``: the line before the chunk
        try:
            header = next(reader, [])
            missing = [c for c in self.columns if c not in header]
            if missing:
                raise ValueError(f"{self.name} CSV missing columns: {', '.join(missing)}")
            for c in self.columns:
                if header.count(c) > 1:
                    raise ValueError(f"{self.name} CSV repeats column {c!r}")
            indices = [header.index(c) for c in self.columns]
            build, width, line = self.build, len(header), reader.line_num
            limit = csv.field_size_limit()
            for chunk in iter(lambda: list(islice(lines, _CHUNK)), []):
                bad: Dict[int, Optional[str]] = {}  # row -> its warning; None for none
                cells = _split(chunk, width, limit)
                if cells is None:  # rows that may run on past the chunk's last line
                    reader = csv.reader(_no_nul(chain(chunk, lines), line))
                    cells, ends = _rows(reader, len(chunk), width, bad)
                else:
                    ends = range(1, len(chunk) + 1)  # one row per line
                # the declared columns
                columns = build(bad, *(cells[i::width] for i in indices))
                del chunk, cells  # see _CHUNK
                if bad:
                    keep = [True] * len(ends)
                    for i in bad:
                        keep[i] = False
                    columns = tuple(list(compress(c, keep)) for c in columns)
                    warnings.extend(f"line {line + (ends[i - 1] if i else 0) + 1}: {bad[i]}"
                                    for i in sorted(bad) if bad[i] is not None)
                line += ends[-1]
                yield columns
        except csv.Error as exc:
            raise ValueError(f"line {line + reader.line_num}: {exc}") from exc

    def schema(self) -> str:
        return "CSV: " + ",".join(self.columns)


# every byte but a comma, a NUL and a line break: what `_split` deletes from
# a text to see its rows' shape
_CELL_BYTES = bytes(set(range(256)).difference(b",\0\r\n"))


def _split(lines: List[str], width: int, limit: int) -> Optional[List[str]]:
    """The cells of ``lines`` as the csv module reads them, one row per
    line, when they hold no ``"``, NUL or line break inside a line, each
    has ``width - 1`` commas and none is longer than ``limit``; else None.
    The lines must all end alike, in ``\\n`` or in ``\\r\\n``, except that the
    last may have no end.  Deleting every other byte from the UTF-8 of
    their text, in which no other character has an ASCII byte, leaves one
    shape per line."""
    text = "".join(lines)
    if width < 2 or '"' in text:  # with one column a blank line would read as a cell
        return None
    end = "\r\n" if lines[0].endswith("\r\n") else "\n"
    if not text.endswith(end):  # a file's last line, with no end
        text += end
    shape = text.encode("utf-8", "surrogatepass").translate(None, _CELL_BYTES)
    if (shape != ("," * (width - 1) + end).encode() * len(lines)
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    cells = text.replace(end, ",").split(",")
    del cells[-1]  # after the last line's end
    return cells


def _no_nul(lines: Iterator[str], line: int) -> Iterator[str]:
    """``lines``, which follow line ``line``, each checked before it is
    yielded: the first that holds a NUL raises ``line contains NUL``,
    naming that line."""
    for line, text in enumerate(lines, line + 1):
        if "\0" in text:
            raise ValueError(f"line {line}: line contains NUL")
        yield text


def _rows(reader, n: int, width: int, bad: Dict[int, Optional[str]]) -> tuple:
    """The cells of ``n`` rows of ``reader``, each row fitted to ``width``
    with the blank and long ones noted in ``bad``, and the line each row
    ends on, counted from the reader's start."""
    # each row, noting in ``ends`` the line it ends on as it is read: the
    # stream counts the line breaks, which the cells may not show
    ends: List[int] = []
    rows = list(islice(map(itemgetter(0), zip(
        reader, map(ends.append, map(attrgetter("line_num"), repeat(reader))))), n))
    # the cells, by one C-level extend per row; ``zip(*rows)`` would hold
    # an iterator per row, each one counting toward gen 0
    cells = reduce(iadd, rows, [])
    if set(map(len, rows)) != {width}:  # fit every row to the header
        for i, row in enumerate(rows):
            if len(row) < width:
                if not row:  # a blank line
                    bad[i] = None
                row += [""] * (width - len(row))
            elif len(row) > width:
                bad[i] = f"{len(row) - width} more cells than the header"
                del row[width:]
        cells = reduce(iadd, rows, [])
    return cells, ends


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
