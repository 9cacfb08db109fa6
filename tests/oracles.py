"""Independent brute-force oracles used by unit and acceptance tests.

These deliberately avoid the library's own code paths: matching is
re-derived from nested loops over raw (type, form) data, aggregation is a
literal double loop, and the simulator oracle is direct interval
arithmetic on draws re-derived from the README's keying rule.  Keep them
dumb.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import struct
from fractions import Fraction
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from resselect.config import Config
from resselect.match import ViableSet
from resselect.model import (
    Capability, ConsumableSpec, Instruction, Requirement, ResourceSpec, TaskSpec, WorkloadSpec,
)
from resselect.plan import Assignment, SelectionPlan
from resselect.predict import (
    GHZ, BaselineProfile, ClockSpec, CyclesEstimate, DiagnosticReport, PoolInventoryEntry,
    PredictionReport,
)
from resselect.queuewait import (
    QueueWaitEstimate, QueueWaitRecord, SimilarityBuckets, _parse_iso8601,
)
from resselect.sim import DistSpec, ResourceBehavior, SimulationResult


def consumable_key(consumable) -> tuple:
    """Structural identity of a consumable, independent of model equality."""
    return (
        consumable.ctype,
        tuple(sorted((a, tuple(sorted(map(repr, vs)))) for a, vs in consumable.form.items())),
    )


def aggregate_oracle(instructions) -> Dict[tuple, float]:
    """Eq.-style double loop: total amount per distinct consumable."""
    totals: Dict[tuple, float] = {}
    for ins in instructions:
        for req in ins.requirements:
            key = consumable_key(req.consumable)
            totals[key] = totals.get(key, 0.0) + req.amount
    return totals


def satisfy_req_oracle(req, cap) -> bool:
    """Predicate re-derived from the raw data: type match, attribute cover,
    and at least one shared value per shared attribute (pairwise scan)."""
    if req.consumable.ctype != cap.consumable.ctype:
        return False
    for attr, cond in req.consumable.form.items():
        if attr not in cap.consumable.form:
            return False
        shared = False
        for rv in cond:
            for cv in cap.consumable.form[attr]:
                if _values_equal(rv, cv):
                    shared = True
        if not shared:
            return False
    return True


def _values_equal(a, b) -> bool:
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num != b_num:
        return False
    if a_num:
        return float(a) == float(b)
    return a == b


def satisfy_task_oracle(requirements, capabilities) -> bool:
    for req in requirements:
        if not any(satisfy_req_oracle(req, cap) for cap in capabilities):
            return False
    return True


def first_argmax_oracle(values: Sequence[float]) -> int:
    """Explicit first-maximum bookkeeping over a full scan."""
    best_i = 0
    for i in range(1, len(values)):
        if values[i] > values[best_i]:
            best_i = i
    return best_i


def queue_filter_oracle(records, machine, queue, walltime_s, cores, now, window_s, buckets):
    """Brute-force filter + mean, mirroring the stated selection rule."""

    def bucket(edges, v):
        idx = 0
        for e in edges:
            if v >= e:
                idx += 1
        return idx

    in_window = [
        r
        for r in records
        if r.machine == machine
        and r.queue == queue
        and now - window_s <= r.submit_time <= now
    ]
    wb = bucket(buckets.walltime_edges_s, walltime_s)
    cb = bucket(buckets.cores_edges, cores)
    same_bucket = [
        r
        for r in in_window
        if bucket(buckets.walltime_edges_s, r.walltime_req_s) == wb
        and bucket(buckets.cores_edges, r.cores_req) == cb
    ]
    return in_window, same_bucket


def exact_mean_stddev_oracle(values: Sequence[float]) -> Tuple[float, Optional[float]]:
    """(mean, sample stddev or None below two values) of finite floats, each
    the float nearest the exact value: sums in `Fraction`, then the root
    found by walking floats from `math.sqrt`'s guess until the exact
    variance lies between the squares of the midpoints around it (a tie goes
    to the float with an even last bit).  Independent of `statistics`, so
    every Python version gives the same answer."""
    xs = [Fraction(v) for v in values]
    n = len(xs)
    mean = sum(xs, Fraction(0)) / n
    if n < 2:
        return float(mean), None
    var = sum(((x - mean) ** 2 for x in xs), Fraction(0)) / (n - 1)
    if not var:
        return float(mean), 0.0
    half = (var.numerator.bit_length() - var.denominator.bit_length()) // 2
    root = math.ldexp(math.sqrt(float(var / Fraction(4) ** half)), half)

    def odd(x):
        return struct.unpack("<q", struct.pack("<d", x))[0] & 1

    while True:
        up, down = math.nextafter(root, math.inf), math.nextafter(root, 0.0)
        above = ((Fraction(root) + Fraction(up)) / 2) ** 2
        below = ((Fraction(root) + Fraction(down)) / 2) ** 2
        if var > above or var == above and odd(root):
            root = up
        elif var < below or var == below and odd(root):
            root = down
        else:
            return float(mean), root


def csv_read_oracle(text: str, build: Callable[[dict], object]):
    """(values, warnings) of a CSV text read with `csv.DictReader`, one dict
    per row, the way the reader worked before it streamed: blank lines are
    skipped, missing cells read as empty, a row with more cells than the
    header is skipped, and so is a row ``build`` rejects.  A warning names
    the physical line the row starts on: the line it ends on, less the line
    breaks inside its cells."""
    reader = csv.DictReader(io.StringIO(text), restkey=None, restval="")
    values, warnings = [], []
    for row in reader:
        cells = [c for key, value in row.items() for c in (value if key is None else [value])]
        line = reader.line_num - sum(c.count("\n") for c in cells)
        if None in row:
            warnings.append(f"line {line}: {len(row[None])} more cells than the header")
            continue
        try:
            values.append(build(row))
        except (ValueError, TypeError) as exc:
            warnings.append(f"line {line}: {exc}")
    return values, warnings


def number(text: str) -> float:
    """One cell as a finite number, the way the reader parsed cells one at a
    time before it read columns."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def history_record_oracle(row: dict) -> QueueWaitRecord:
    return QueueWaitRecord(
        row["machine"], row["queue"], _parse_iso8601(row["submit_time_iso8601"]),
        number(row["wait_s"]), number(row["walltime_req_s"]), int(row["cores_req"]))


def profile_oracle(row: dict) -> BaselineProfile:
    return BaselineProfile(
        row["task_id"], int(row["workload_param"]), number(row["instructions"]),
        number(row["cycles"]), number(row["instr_rate"]), number(row["avg_clock_ghz"]) * GHZ,
        number(row["tx_s"]))


def history_columns_oracle(records) -> Dict[Tuple[str, str], tuple]:
    """Per (machine, queue), the records' (times, waits, walltimes, cores)
    columns, stably sorted on submit time."""
    groups: Dict[Tuple[str, str], list] = {}
    for r in records:
        groups.setdefault((r.machine, r.queue), []).append(r)
    columns = {}
    for key, group in groups.items():
        group = sorted(group, key=lambda r: r.submit_time)
        columns[key] = ([r.submit_time for r in group], [r.wait_s for r in group],
                        [r.walltime_req_s for r in group], [r.cores_req for r in group])
    return columns


def timeline_oracle(
    intervals: List[Tuple[float, float]],
) -> Tuple[float, float, float]:
    """(ttc, tq, tx) by direct interval arithmetic on a handful of tasks."""
    ttc = max(end for _, end in intervals)
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    # added one at a time in start order, as the simulator adds them; sum()
    # compensates float additions since Python 3.12
    tx = 0.0
    for start, end in merged:
        tx += end - start
    return ttc, ttc - tx, tx


def draw_oracle(dist, seed: int, *key) -> float:
    """The sample of ``dist`` keyed by ``seed`` and ``key`` (trial, resource,
    task, "tq" or "tx"; a single pilot's wait has no task), by the README's
    rule alone: a constant is its value and hashes nothing; otherwise ``k``
    is the top 52 bits of the 8-byte blake2b digest of the whole token
    ``seed|trial|resource|task|tx``, a normal draw is ``max(0.0, mean +
    stddev * z((k + 0.5) / 2**52))`` with ``z`` the standard normal's inverse
    CDF, and an empirical draw is the sample at index ``k * n >> 52``."""
    if dist.kind == "constant":
        return dist.value
    token = "|".join(str(part) for part in (seed, *key))
    k = int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big") >> 12
    if dist.kind == "normal":
        return max(0.0, dist.mean + dist.stddev * NormalDist().inv_cdf((k + 0.5) / 2**52))
    return dist.samples[k * len(dist.samples) >> 52]


def per_task_schedule(assignments, behaviors, seed, trial) -> List[Tuple[float, float]]:
    """One interval per task, on ``draw_oracle``'s draws: a per_task pilot
    starts each task at its own wait; a single pilot starts each task, in
    task-id order, on the core that frees first."""
    intervals = []
    for rid, beh in behaviors.items():
        task_ids = sorted(t for t, r in assignments.items() if r == rid)
        if beh.pilot_mode == "per_task":
            for tid in task_ids:
                start = draw_oracle(beh.tq_dist, seed, trial, rid, tid, "tq")
                end = start + draw_oracle(beh.tx_dist, seed, trial, rid, tid, "tx")
                intervals.append((start, end))
            continue
        activation = draw_oracle(beh.tq_dist, seed, trial, rid, "tq")
        free_at = [activation] * (beh.capacity_cores or len(task_ids))  # per core
        for tid in task_ids:
            core = free_at.index(min(free_at))
            start = free_at[core]
            free_at[core] = start + draw_oracle(beh.tx_dist, seed, trial, rid, tid, "tx")
            intervals.append((start, free_at[core]))
    return intervals


def canonical_dumps_oracle(obj) -> str:
    """Canonical JSON text by the standard library's encoder, which writes
    every occurrence of a shared value anew."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


# --- the value classes as the frozen dataclasses they replace

VALUE_CLASSES = (
    Config, ViableSet, ConsumableSpec, Requirement, Capability, Instruction, TaskSpec,
    WorkloadSpec, ResourceSpec, Assignment, SelectionPlan, BaselineProfile, ClockSpec,
    PoolInventoryEntry, CyclesEstimate, PredictionReport, DiagnosticReport, QueueWaitRecord,
    SimilarityBuckets, QueueWaitEstimate, DistSpec, ResourceBehavior, SimulationResult,
)


def dataclass_twin(cls) -> type:
    """``cls`` rebuilt by `dataclasses.make_dataclass` from what its body
    declares: its annotated fields in order, the class attribute of a
    field's name as its default (``dict`` as ``default_factory=dict``), and
    its own ``__post_init__``.  The twin is frozen, and generates no
    ``__eq__`` when the class defines its own (`ConsumableSpec`), which
    the twin then keeps, with ``__hash__``."""
    body = vars(cls)
    fields = []
    for name in body["__annotations__"]:
        default = body.get(name, dataclasses.MISSING)
        fields.append((name, object, dataclasses.field(default_factory=dict) if default is dict
                       else dataclasses.field(default=default)))
    own = {k: body[k] for k in ("__post_init__", "__eq__", "__hash__") if k in body}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=own, frozen=True,
                                      eq="__eq__" not in body)


DATACLASS_TWINS = {cls: dataclass_twin(cls) for cls in VALUE_CLASSES}
