"""Run configuration shared by the planner, predictor and CLI."""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from .model import Value
from .queuewait import DEFAULT_BUCKETS, DEFAULT_WINDOW_S, SimilarityBuckets


class Config(Value):
    """Explicit configuration; no environment variables are consulted.

    inflation_factors scales predicted cycle counts per resource (e.g. a
    pool that executes ~22% more instructions gets 1.22).
    resource_queues maps a resource id to the (machine, queue) used for
    queue-wait lookups; default is (resource_id, "default").
    profile_overrides / default_profile map workload task ids onto baseline
    profile task ids when they differ.
    """

    inflation_factors: Dict[str, float] = dict
    walltime_safety_factor: float = 1.5
    buckets: SimilarityBuckets = DEFAULT_BUCKETS
    window_s: float = DEFAULT_WINDOW_S
    frequency_choice: str = "base"
    resource_queues: Dict[str, Tuple[str, str]] = dict
    cores_per_task: int = 1
    profile_overrides: Dict[str, str] = dict
    default_profile: Optional[str] = None

    def __post_init__(self):
        if not all(0 < v < math.inf for v in self.inflation_factors.values()):
            raise ValueError("inflation factors must be finite and > 0")
        if not 0 < self.walltime_safety_factor < math.inf:
            raise ValueError("walltime_safety_factor must be finite and > 0")
        if not 0 < self.window_s < math.inf:
            raise ValueError("window_s must be finite and > 0")
        if self.frequency_choice not in ("base", "max"):
            raise ValueError("frequency_choice must be 'base' or 'max'")
        if self.cores_per_task < 1:
            raise ValueError("cores_per_task must be >= 1")

    def machine_queue(self, resource_id: str) -> Tuple[str, str]:
        return self.resource_queues.get(resource_id, (resource_id, "default"))

    def profile_id(self, task_id: str) -> str:
        if task_id in self.profile_overrides:
            return self.profile_overrides[task_id]
        return self.default_profile if self.default_profile is not None else task_id

    @classmethod
    def from_json(cls, obj: dict) -> "Config":
        from .codec import CONFIG

        return CONFIG.decode(obj)
