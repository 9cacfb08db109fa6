"""Resource selection toolkit for heterogeneous computing pools.

Models tasks and resources as consumable requirements and capabilities,
predicts per-resource execution time from baseline hardware-counter
profiles, estimates queue waits from history, selects resources that
minimize predicted time-to-completion, and simulates the benefit over
random selection.
"""

from .config import Config
from .match import (
    EmptyViableSetError,
    ViableSet,
    res_select,
    satisfy_req,
    viable_set,
)
from .model import (
    Capability,
    ConsumableSpec,
    EmptyTaskError,
    Instruction,
    Requirement,
    ResourceSpec,
    TaskSpec,
    WorkloadSpec,
    aggregate,
)
from .plan import SelectionPlan, plan_model, plan_random
from .predict import (
    BaselineProfile,
    ClockSpec,
    PoolInventoryEntry,
    PredictionReport,
    diagnose,
    pool_clock_spec,
    predict_sequential_cycles,
    predict_tx,
    tx_error,
)
from .queuewait import (
    QueueWaitEstimate,
    QueueWaitRecord,
    QueueWaitStore,
    SimilarityBuckets,
)
from .sim import DistSpec, ResourceBehavior, SimulationResult, compare, simulate

__version__ = "0.1.0"

__all__ = [
    "Capability",
    "Config",
    "ConsumableSpec",
    "BaselineProfile",
    "ClockSpec",
    "DistSpec",
    "EmptyTaskError",
    "EmptyViableSetError",
    "Instruction",
    "PoolInventoryEntry",
    "PredictionReport",
    "QueueWaitEstimate",
    "QueueWaitRecord",
    "QueueWaitStore",
    "Requirement",
    "ResourceBehavior",
    "ResourceSpec",
    "SelectionPlan",
    "SimilarityBuckets",
    "SimulationResult",
    "TaskSpec",
    "ViableSet",
    "WorkloadSpec",
    "aggregate",
    "compare",
    "diagnose",
    "plan_model",
    "plan_random",
    "pool_clock_spec",
    "predict_sequential_cycles",
    "predict_tx",
    "res_select",
    "satisfy_req",
    "simulate",
    "tx_error",
    "viable_set",
]
