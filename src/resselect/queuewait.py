"""Queue-wait estimation from historical job records.

The estimate for a query is the mean wait of jobs submitted to the same
machine and queue within a lookback window (default 7 days) whose requested
walltime and core count fall in the same similarity bucket as the query.
If no such jobs exist the size constraints are dropped (machine, queue and
window are kept) and the estimate is flagged as a fallback.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import List, Optional, Sequence, Tuple

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
        if self.wait_s < 0:
            raise ValueError("wait_s must be >= 0")
        if self.walltime_req_s <= 0:
            raise ValueError("walltime_req_s must be > 0")
        if self.cores_req < 1:
            raise ValueError("cores_req must be >= 1")


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


class QueueWaitStore:
    """Historical queue-wait records; single-writer ingest, then read-only
    queries (safe to query concurrently once ingest is done)."""

    def __init__(self, records: Sequence[QueueWaitRecord] = ()):
        self._records: List[QueueWaitRecord] = list(records)

    def __len__(self) -> int:
        return len(self._records)

    def ingest_csv(self, stream) -> Tuple[int, List[str]]:
        """Read records from CSV; returns (accepted count, warnings).
        Malformed rows are skipped with line-numbered warnings."""
        from .codec import HISTORY

        records, warnings = HISTORY.read(stream)
        self._records.extend(records)
        return len(records), warnings

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
        now - window_s is included; future records are excluded.
        """
        lo = now - window_s
        base = [
            r
            for r in self._records
            if r.machine == machine and r.queue == queue and lo <= r.submit_time <= now
        ]
        if not base:
            raise NoQueueHistoryError(
                f"no queue history for machine {machine!r} queue {queue!r} "
                f"in the past {window_s:g} s"
            )
        wb = buckets.walltime_bucket(walltime_req_s)
        cb = buckets.cores_bucket(cores_req)
        filtered = [
            r
            for r in base
            if buckets.walltime_bucket(r.walltime_req_s) == wb
            and buckets.cores_bucket(r.cores_req) == cb
        ]
        fallback = not filtered
        sample = base if fallback else filtered
        waits = [r.wait_s for r in sample]
        return QueueWaitEstimate(
            machine=machine,
            queue=queue,
            mean_wait_s=statistics.mean(waits),
            sample_stddev_s=statistics.stdev(waits) if len(waits) >= 2 else None,
            n_samples=len(waits),
            fallback_used=fallback,
        )
