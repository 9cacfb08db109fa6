"""Queue-wait estimation from historical job records.

The estimate for a query is the mean wait of jobs submitted to the same
machine and queue within a lookback window (default 7 days) whose requested
walltime and core count fall in the same similarity bucket as the query.
If no such jobs exist the size constraints are dropped (machine, queue and
window are kept) and the estimate is flagged as a fallback.

A query bisects its group's submit times for the window, turns the query's
two buckets into their ``[lo, hi)`` bounds once, and keeps the window rows
inside both with one comparison chain each.  The mean and stddev of the
kept waits come from `model.mean_and_stddev`: the waits are scaled by one
power of two to exact integers, whose sum and sum of squares give both
statistics with one rounding each.  A query therefore costs a few C-level
passes over its window rows (about 0.1 µs per row on a 2-vCPU host under
Python 3.11) and keeps nothing between queries.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from operator import attrgetter, gt
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .model import mean_and_stddev

DEFAULT_WINDOW_S = 7 * 24 * 3600


class NoQueueHistoryError(ValueError):
    """Raised when no history exists for (machine, queue) in the window."""


@dataclass(frozen=True)
class QueueWaitRecord:
    """One historical job's queue wait with its submission context."""

    machine: str
    queue: str
    submit_time: float  # UTC epoch seconds
    wait_s: float
    walltime_req_s: float
    cores_req: int

    def __post_init__(self):
        checked_row(*_FIELDS(self))


_FIELDS = attrgetter(*QueueWaitRecord.__dataclass_fields__)


def checked_row(machine: str, queue: str, submit_time: float, wait_s: float,
                walltime_req_s: float, cores_req: int) -> tuple:
    """One history row as a plain tuple in `QueueWaitRecord`'s field order,
    after the record's value checks."""
    if wait_s < 0:
        raise ValueError("wait_s must be >= 0")
    if walltime_req_s <= 0:
        raise ValueError("walltime_req_s must be > 0")
    if cores_req < 1:
        raise ValueError("cores_req must be >= 1")
    if not wait_s < math.inf:  # NaN fails too
        raise ValueError("wait_s must be finite")
    if not walltime_req_s < math.inf:
        raise ValueError("walltime_req_s must be finite")
    return machine, queue, submit_time, wait_s, walltime_req_s, cores_req


@dataclass(frozen=True)
class SimilarityBuckets:
    """Predefined half-open ranges [lo, hi) for walltime and core requests.

    Edges partition the line into len(edges)+1 buckets; two values are
    "similar" when they land in the same bucket.
    """

    walltime_edges_s: Tuple[float, ...]
    cores_edges: Tuple[int, ...]

    def __post_init__(self):
        for edges in (self.walltime_edges_s, self.cores_edges):
            if any(a >= b for a, b in zip(edges, edges[1:])):
                raise ValueError("bucket edges must be strictly ascending")
        object.__setattr__(self, "walltime_edges_s", tuple(self.walltime_edges_s))
        object.__setattr__(self, "cores_edges", tuple(self.cores_edges))

    def walltime_bucket(self, walltime_s: float) -> int:
        return bisect_right(self.walltime_edges_s, walltime_s)

    def cores_bucket(self, cores: int) -> int:
        return bisect_right(self.cores_edges, cores)


def _bucket_bounds(edges: Tuple[float, ...], value: float) -> Tuple[float, float]:
    """The ``[lo, hi)`` range of ``value``'s bucket, the outer buckets open to
    ``-inf`` and ``inf``: for finite ``x``, ``lo <= x < hi`` exactly when
    ``bisect_right`` puts ``x`` in the same bucket as ``value``."""
    i = bisect_right(edges, value)
    return (edges[i - 1] if i else -math.inf), (edges[i] if i < len(edges) else math.inf)


DEFAULT_BUCKETS = SimilarityBuckets(
    walltime_edges_s=(900.0, 3600.0, 14400.0, 43200.0, 86400.0, 172800.0),
    cores_edges=tuple(2**k for k in range(13)),  # 1, 2, 4, ..., 4096
)


@dataclass(frozen=True)
class QueueWaitEstimate:
    machine: str
    queue: str
    mean_wait_s: float
    sample_stddev_s: Optional[float]
    n_samples: int
    fallback_used: bool


def _parse_iso8601(text: str) -> float:
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


class _Rows(NamedTuple):
    """The history of one (machine, queue), as columns sorted on submit time."""

    times: List[float]
    waits: List[float]
    walltimes: List[float]
    cores: List[int]


_NO_ROWS = _Rows([], [], [], [])


class QueueWaitStore:
    """Historical queue-wait records; single-writer ingest, then read-only
    queries (safe to query concurrently once ingest is done).

    The history is held once, indexed by (machine, queue).  Each group keeps
    its records' submit times, waits, requested walltimes and cores as
    columns sorted on submit time (stable, so equal times keep their ingest
    order), and a query bisects the times for its window instead of scanning
    the whole history.  The columns hold plain numbers, not record objects,
    so a large history adds little to each garbage collection."""

    def __init__(self, records: Iterable[QueueWaitRecord] = ()):
        self._groups: Dict[Tuple[str, str], _Rows] = {}
        self._extend(map(_FIELDS, records))

    def __len__(self) -> int:
        return sum(len(rows.times) for rows in self._groups.values())

    def _extend(self, rows: Iterable[tuple]) -> int:
        """Append each (machine, queue, submit time, wait, walltime, cores)
        row to its group's columns, then re-sort every group it touched on
        submit time.  The sort is stable and the rows held before go first,
        so equal times keep their ingest order.  Returns the rows added; if
        ``rows`` raises, the store is left as it was."""
        groups = self._groups
        appends: Dict[Tuple[str, str], tuple] = {}  # group -> its columns' appends
        before: Dict[Tuple[str, str], int] = {}  # group -> its length before
        count = 0
        try:
            for machine, queue, time, wait, walltime, cores in rows:
                add = appends.get((machine, queue))
                if add is None:
                    group = groups.setdefault((machine, queue), _Rows([], [], [], []))
                    before[machine, queue] = len(group.times)
                    add = appends[machine, queue] = tuple(column.append for column in group)
                add[0](time)
                add[1](wait)
                add[2](walltime)
                add[3](cores)
                count += 1
        except BaseException:
            for key, n in before.items():
                if n:
                    for column in groups[key]:
                        del column[n:]
                else:
                    del groups[key]
            raise
        for key in appends:
            times = groups[key].times
            if any(map(gt, times, islice(times, 1, None))):
                order = sorted(range(len(times)), key=times.__getitem__)
                groups[key] = _Rows(*([column[i] for i in order] for column in groups[key]))
        return count

    def ingest_csv(self, stream) -> Tuple[int, List[str]]:
        """Read records from CSV; returns (accepted count, warnings).
        Malformed rows are skipped with line-numbered warnings.  The rows
        stream straight into the columns, one at a time."""
        from .codec import HISTORY

        warnings: List[str] = []
        return self._extend(HISTORY.read(stream, warnings)), warnings

    def estimate_tq(
        self,
        machine: str,
        queue: str,
        walltime_req_s: float,
        cores_req: int,
        now: float,
        window_s: float = DEFAULT_WINDOW_S,
        buckets: SimilarityBuckets = DEFAULT_BUCKETS,
    ) -> QueueWaitEstimate:
        """Estimate the queue wait for a job submitted now.

        The window is closed on both ends: a record at exactly
        now - window_s is included; future records are excluded.  The
        estimate does not depend on the order of the records: the mean and
        stddev are computed exactly.
        """
        if not (math.isfinite(walltime_req_s) and walltime_req_s > 0):
            raise ValueError(f"walltime_req_s must be finite and > 0, got {walltime_req_s!r}")
        if cores_req < 1:
            raise ValueError(f"cores_req must be >= 1, got {cores_req!r}")
        if not window_s > 0:
            raise ValueError(f"window_s must be > 0, got {window_s!r}")
        if not math.isfinite(now):
            raise ValueError(f"now must be finite, got {now!r}")
        rows = self._groups.get((machine, queue), _NO_ROWS)
        lo, hi = bisect_left(rows.times, now - window_s), bisect_right(rows.times, now)
        if lo == hi:
            raise NoQueueHistoryError(
                f"no queue history for machine {machine!r} queue {queue!r} "
                f"in the past {window_s:g} s"
            )
        w_lo, w_hi = _bucket_bounds(buckets.walltime_edges_s, walltime_req_s)
        c_lo, c_hi = _bucket_bounds(buckets.cores_edges, cores_req)
        base = rows.waits[lo:hi]
        filtered = [
            wait
            for wait, walltime, cores in zip(base, rows.walltimes[lo:hi], rows.cores[lo:hi])
            if w_lo <= walltime < w_hi and c_lo <= cores < c_hi
        ]
        fallback = not filtered
        waits = base if fallback else filtered
        mean, stddev = mean_and_stddev(waits)
        return QueueWaitEstimate(
            machine=machine,
            queue=queue,
            mean_wait_s=mean,
            sample_stddev_s=stddev,
            n_samples=len(waits),
            fallback_used=fallback,
        )
