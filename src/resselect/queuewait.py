"""Queue-wait estimation from historical job records.

The estimate for a query is the mean wait of jobs submitted to the same
machine and queue within a lookback window (default 7 days) whose requested
walltime and core count fall in the same similarity bucket as the query.
If no such jobs exist the size constraints are dropped (machine, queue and
window are kept) and the estimate is flagged as a fallback.

A query's `QueueWaitStore.window` bisects its group's submit times for the
window once; the window turns the query's two buckets into their ``[lo,
hi)`` bounds and keeps the window rows inside both with one comparison
chain each.  `QueueWindow.estimate` (and so `estimate_tq` and `queue-wait`)
reports the kept waits' mean and stddev, from `model.mean_and_stddev`; the
planner reads the mean alone, `QueueWindow.mean_wait`, from
`model.exact_mean`: the same bits from three `math.fsum` passes, without
the sum of squares.  A query therefore costs a few C-level passes over its
window rows.  The store keeps nothing between queries; a caller that asks
one window many queries, as a planning call does, keeps the window, which
summarizes each bucket pair once, the whole window at most once for the
fallbacks, and from a cores bucket's second query on scans only that
bucket's rows.

The history comes in as chunks of columns (`codec.Csv.read`), each checked
by `checked_columns` in a few C-level passes; the store splits a chunk by
(machine, queue), gathers each group's share apart from the held rows, and
adds what it gathered once the stream is spent.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from datetime import datetime, timedelta, timezone
from itertools import compress, count, islice, repeat
from operator import attrgetter, gt, itemgetter, le, lt, not_, sub
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .model import Value, exact_mean, mean_and_stddev

DEFAULT_WINDOW_S = 7 * 24 * 3600


class NoQueueHistoryError(ValueError):
    """Raised when no history exists for (machine, queue) in the window."""


class QueueWaitRecord(Value):
    """One historical job's queue wait with its submission context."""

    machine: str
    queue: str
    submit_time: float  # UTC epoch seconds
    wait_s: float
    walltime_req_s: float
    cores_req: int

    def __post_init__(self):
        one_row(checked_columns, *_FIELDS(self))
        if not math.isfinite(self.submit_time):  # `iso_times` yields only finite times
            raise ValueError("submit_time must be finite")


_FIELDS = attrgetter(*QueueWaitRecord._fields)

# Column checks.  Each takes ``bad``, a dict from row index to the message
# of the first check that row failed, and notes there every row it rejects
# instead of raising, so one bad row costs one message, not a rebuild of
# its chunk.  A row already in ``bad`` keeps its message.


def parsed(bad: Dict[int, Optional[str]], fill, parse: Callable, *columns: Iterable) -> list:
    """``parse`` mapped over the rows of ``columns`` at C level.  A row on
    which it raises `ValueError` or `TypeError` gets ``fill`` and the error's
    message, and the map goes on from the next row."""
    values: list = []
    calls = map(parse, *columns)
    while True:
        try:
            values.extend(calls)  # keeps what came before a raise
            return values
        except (ValueError, TypeError) as exc:
            bad.setdefault(len(values), str(exc))
            values.append(fill)


def rejected(bad: Dict[int, Optional[str]], fails: Iterable, message: str) -> None:
    """Note ``message`` for each row on which ``fails`` is true."""
    for i in compress(count(), fails):
        bad.setdefault(i, message)


def one_row(check: Callable, *cells) -> Sequence:
    """``check(bad, *columns)`` on one-row columns of ``cells``; raises
    `ValueError` with the row's message if the row is rejected."""
    bad: Dict[int, Optional[str]] = {}
    values = check(bad, *zip(cells))
    if bad:
        raise ValueError(bad[0])
    return values


def checked_columns(bad: Dict[int, Optional[str]], machines: Sequence[str],
                    queues: Sequence[str], submit_times: Sequence[float],
                    waits: Sequence[float], walltimes: Sequence[float],
                    cores: Sequence[int]) -> tuple:
    """History rows as columns in `QueueWaitRecord`'s field order, with the
    rows that fail a value check noted in ``bad``.  A column's ``min`` tells
    whether any of its rows fails only when the column holds no NaN, and a
    NaN fails the finite check; so a few C-level passes clear columns in
    which no row fails, and otherwise every check scans every row."""
    if ("" in machines or "" in queues or min(waits) < 0 or min(walltimes) <= 0
            or min(cores) < 1 or not all(map(math.isfinite, waits))
            or not all(map(math.isfinite, walltimes))):
        rejected(bad, map(not_, machines), "machine must be non-empty")
        rejected(bad, map(not_, queues), "queue must be non-empty")
        rejected(bad, map(lt, waits, repeat(0)), "wait_s must be >= 0")
        rejected(bad, map(le, walltimes, repeat(0)), "walltime_req_s must be > 0")
        rejected(bad, map(lt, cores, repeat(1)), "cores_req must be >= 1")
        rejected(bad, map(not_, map(math.isfinite, waits)), "wait_s must be finite")
        rejected(bad, map(not_, map(math.isfinite, walltimes)), "walltime_req_s must be finite")
    return machines, queues, submit_times, waits, walltimes, cores


class SimilarityBuckets(Value):
    """Predefined half-open ranges [lo, hi) for walltime and core requests.

    Edges partition the line into len(edges)+1 buckets; two values are
    "similar" when they land in the same bucket.
    """

    walltime_edges_s: Tuple[float, ...]
    cores_edges: Tuple[int, ...]

    def __post_init__(self):
        for edges in (self.walltime_edges_s, self.cores_edges):
            # NaN passes the order check below; an int of any size is finite
            if not all(-math.inf < e < math.inf for e in edges):
                raise ValueError("bucket edges must be finite")
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


class QueueWaitEstimate(Value):
    machine: str
    queue: str
    mean_wait_s: float
    sample_stddev_s: Optional[float]
    n_samples: int
    fallback_used: bool


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# The time forms read: ``YYYY-MM-DDTHH:MM:SS``, a 3- or 6-digit fraction or
# none, and ``Z``, ``±HH:MM`` or no offset, as shapes with each ASCII digit
# written 0.  `datetime.fromisoformat` reads other forms too, such as week
# dates and ``+HHMM``; a time in one of them is rejected as one it cannot read.
_DIGITS = str.maketrans("123456789", "000000000")
_TIME_SHAPES = frozenset(f"0000-00-00T00:00:00{fraction}{offset}"
                         for fraction in ("", ".000", ".000000")
                         for offset in ("", "Z", "+00:00", "-00:00"))


def iso_times(bad: Dict[int, Optional[str]], texts: Sequence[str]) -> list:
    """UTC epoch seconds of ISO-8601 times in the forms of `_TIME_SHAPES`;
    ``Z`` or no offset means UTC.  Each is ``(time - epoch).total_seconds()``,
    which is how `datetime.timestamp` computes an aware time, so the floats
    are the same.  A text that `datetime.fromisoformat` reads in another
    form is rejected with the message it gives a text it cannot read.  The
    shapes are checked at once, as the joined texts with their digits
    written 0; texts of mixed shapes are then checked one by one."""
    joined = ",".join(texts)
    times = parsed(bad, _EPOCH, datetime.fromisoformat, texts)
    shape = texts[0].translate(_DIGITS)
    if shape not in _TIME_SHAPES or joined.translate(_DIGITS) + "," != (shape + ",") * len(texts):
        fits = map(_TIME_SHAPES.__contains__, map(str.translate, texts, repeat(_DIGITS)))
        for i in compress(count(), map(not_, fits)):
            bad.setdefault(i, f"Invalid isoformat string: {texts[i]!r}")
    try:
        deltas = list(map(sub, times, repeat(_EPOCH)))
    except TypeError:  # a naive time, which is read as UTC
        utc = [t.replace(tzinfo=timezone.utc) if t.tzinfo is None else t for t in times]
        deltas = list(map(sub, utc, repeat(_EPOCH)))
    return list(map(timedelta.total_seconds, deltas))


def _parse_iso8601(text: str) -> float:
    return one_row(iso_times, text)[0]


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
        columns = tuple(zip(*map(_FIELDS, records)))
        self._extend([columns] if columns else ())

    def __len__(self) -> int:
        return sum(len(rows.times) for rows in self._groups.values())

    def _extend(self, chunks: Iterable[tuple]) -> int:
        """Add each chunk of (machines, queues, submit times, waits,
        walltimes, cores) columns to its rows' groups, then re-sort every
        group it touched on submit time.  One pass over a chunk's keys lists
        each group's rows, and each column's share of them is picked at C
        level into columns gathered apart from the store, which they join
        only once ``chunks`` is spent: if it raises, the store is left as it
        was.  The sort is stable and the rows held before go first, so equal
        times keep their ingest order.  Returns the rows added."""
        gathered: Dict[Tuple[str, str], _Rows] = defaultdict(lambda: _Rows([], [], [], []))
        count = 0
        for machines, queues, *columns in chunks:
            rows_of: Dict[Tuple[str, str], List[int]] = defaultdict(list)
            for i, key in enumerate(zip(machines, queues)):
                rows_of[key].append(i)
            for key, rows in rows_of.items():
                # an itemgetter picks a group's rows about twice as fast as
                # map(values.__getitem__, rows) (47 vs 88 µs per 512-row
                # chunk of 4 groups, 88 vs 158 µs with 48 groups), but of
                # one index it returns the item, not a tuple
                pick = itemgetter(*rows) if len(rows) > 1 else (
                    lambda values, i=rows[0]: (values[i],))
                for column, values in zip(gathered[key], columns):
                    column.extend(pick(values))
            count += len(machines)
        groups = self._groups
        for key, new in gathered.items():
            rows = groups.setdefault(key, new)  # a new group adopts its gathered columns
            if rows is not new:
                for column, values in zip(rows, new):
                    column.extend(values)
            times = rows.times
            if any(map(gt, times, islice(times, 1, None))):
                order = sorted(range(len(times)), key=times.__getitem__)
                groups[key] = _Rows(*([column[i] for i in order] for column in rows))
        return count

    def ingest_csv(self, stream) -> Tuple[int, List[str]]:
        """Read records from CSV; returns (accepted count, warnings).
        Malformed rows are skipped with line-numbered warnings.  The rows
        go into the columns a chunk of columns at a time (`codec.Csv.read`),
        so no more than one chunk of rows is held."""
        from .codec import HISTORY

        warnings: List[str] = []
        return self._extend(HISTORY.read(stream, warnings)), warnings

    def window(self, machine: str, queue: str, now: float,
               window_s: float = DEFAULT_WINDOW_S) -> "QueueWindow":
        """The rows of (machine, queue) submitted within ``window_s`` before
        ``now``, found by one bisect of each end.  The window is closed on
        both ends: a record at exactly now - window_s is included; future
        records are excluded.  Raises `NoQueueHistoryError` if it is empty."""
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
        return QueueWindow(machine, queue, rows, lo, hi)

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
        """Estimate the queue wait for a job submitted now: the estimate of
        the query's `window`.  The estimate does not depend on the order of
        the records: the mean and stddev are computed exactly."""
        _check_request(walltime_req_s, cores_req)
        return self.window(machine, queue, now, window_s).estimate(
            walltime_req_s, cores_req, buckets)


def _check_request(walltime_req_s: float, cores_req: int) -> None:
    if not 0 < walltime_req_s < math.inf:  # NaN fails too
        raise ValueError(f"walltime_req_s must be finite and > 0, got {walltime_req_s!r}")
    if cores_req < 1:
        raise ValueError(f"cores_req must be >= 1, got {cores_req!r}")


class QueueWindow:
    """One (machine, queue)'s rows in one window of its history, for the
    queries of one caller: it reads the store's columns and writes nothing
    to them.  Each bucket pair, and the whole window for the fallbacks, is
    summarized at most once per summary (`estimate`'s or `mean_wait`'s).
    The first query of a cores bucket keeps the window rows inside both of
    its buckets in one pass; a second query of that cores bucket picks the
    bucket's waits and walltimes once, and every query of the bucket then
    scans only those."""

    __slots__ = ("machine", "queue", "_rows", "_lo", "_hi", "_summaries", "_by_cores", "_whole")

    def __init__(self, machine: str, queue: str, rows: _Rows, lo: int, hi: int):
        self.machine, self.queue = machine, queue
        self._rows, self._lo, self._hi = rows, lo, hi
        # (summary, walltime bounds, cores bounds) -> (summary of the waits, n, fallback)
        self._summaries: Dict[tuple, tuple] = {}
        # cores bounds -> None once queried, then (waits, walltimes) of the bucket
        self._by_cores: Dict[tuple, Optional[Tuple[list, list]]] = {}
        self._whole: Dict[Callable, object] = {}  # summary -> of the whole window's waits

    def estimate(self, walltime_req_s: float, cores_req: int,
                 buckets: SimilarityBuckets = DEFAULT_BUCKETS) -> QueueWaitEstimate:
        """The mean wait of the window's jobs whose walltime and cores fall
        in the query's similarity buckets, or of the whole window, flagged
        as a fallback, if none do; with the stddev and count of those waits."""
        (mean, stddev), n, fallback = self._summary(
            mean_and_stddev, walltime_req_s, cores_req, buckets)
        return QueueWaitEstimate(self.machine, self.queue, mean, stddev, n, fallback)

    def mean_wait(self, walltime_req_s: float, cores_req: int,
                  buckets: SimilarityBuckets = DEFAULT_BUCKETS) -> float:
        """`estimate`'s mean wait, bit for bit, from `model.exact_mean`: no
        sum of squares, and no estimate built.  The planner reads this."""
        return self._summary(exact_mean, walltime_req_s, cores_req, buckets)[0]

    def _summary(self, summarize: Callable, walltime_req_s: float, cores_req: int,
                 buckets: SimilarityBuckets) -> tuple:
        _check_request(walltime_req_s, cores_req)
        key = (summarize, _bucket_bounds(buckets.walltime_edges_s, walltime_req_s),
               _bucket_bounds(buckets.cores_edges, cores_req))
        summary = self._summaries.get(key)
        if summary is None:
            summary = self._summaries[key] = self._summarize(*key)
        return summary

    def _summarize(self, summarize: Callable, walltime_bounds: tuple, cores_bounds: tuple):
        rows, lo, hi = self._rows, self._lo, self._hi
        (w_lo, w_hi), (c_lo, c_hi) = walltime_bounds, cores_bounds
        if cores_bounds not in self._by_cores:  # the bucket's first query: one pass
            self._by_cores[cores_bounds] = None
            rows_of_bucket = zip(rows.waits[lo:hi], rows.walltimes[lo:hi], rows.cores[lo:hi])
            filtered = [wait for wait, walltime, cores in rows_of_bucket
                        if w_lo <= walltime < w_hi and c_lo <= cores < c_hi]
        else:
            picked = self._by_cores[cores_bounds]
            if picked is None:
                inside = [c_lo <= cores < c_hi for cores in rows.cores[lo:hi]]
                picked = self._by_cores[cores_bounds] = (
                    list(compress(rows.waits[lo:hi], inside)),
                    list(compress(rows.walltimes[lo:hi], inside)))
            filtered = [wait for wait, walltime in zip(*picked) if w_lo <= walltime < w_hi]
        if filtered:
            return summarize(filtered), len(filtered), False
        if summarize not in self._whole:
            self._whole[summarize] = summarize(rows.waits[lo:hi])
        return self._whole[summarize], hi - lo, True
