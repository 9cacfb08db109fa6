"""Execution-time prediction from baseline hardware-counter profiles.

The model predicts the cycles a task needs when executed fully sequentially
(one instruction retired per cycle) as measured_cycles * instruction_rate,
then divides by a target clock frequency to get an execution-time estimate.
"""

from __future__ import annotations

from itertools import chain
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple

from .model import Value, mean_and_stddev

GHZ = 1e9

# Relative slack allowed between `instructions` and `cycles * instr_rate`;
# perf rounds its derived rate, so exact equality cannot be required.
PROFILE_CONSISTENCY_TOL = 0.05


class ProfileConsistencyError(ValueError):
    """Raised for profiles whose counters are internally inconsistent."""


class UnknownTaskError(ValueError):
    """Raised when no baseline profile exists for a task."""


class InflationRangeError(ValueError):
    """Raised when a resource's inflation factor gives no positive finite
    cycle count."""


class ClockRangeError(ValueError):
    """Raised when a resource's clocks give no positive finite execution time."""


class BaselineProfile(Value):
    """One profiled run of a task on the baseline machine."""

    task_id: str
    workload_param: int
    instructions: float
    cycles: float
    instr_rate: float
    avg_clock_hz: float
    measured_tx_s: float

    def __post_init__(self):
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not (0 < self.instructions < inf and 0 < self.cycles < inf):
            raise ValueError("instruction and cycle counts must be finite and > 0")
        if not 0 < self.instr_rate < inf:
            raise ValueError("instr_rate must be finite and > 0")
        if not (0 < self.avg_clock_hz < inf and 0 < self.measured_tx_s < inf):
            raise ValueError("avg_clock_hz and measured_tx_s must be finite and > 0")
        rel = abs(self.instructions - self.cycles * self.instr_rate) / self.instructions
        if rel > PROFILE_CONSISTENCY_TOL:
            raise ProfileConsistencyError(
                f"profile for {self.task_id!r}: instructions ({self.instructions:g}) "
                f"disagree with cycles*instr_rate ({self.cycles * self.instr_rate:g}) "
                f"by {rel * 100:.1f}% (limit {PROFILE_CONSISTENCY_TOL * 100:.0f}%)"
            )


class ClockSpec(Value):
    """Base and maximum clock of a resource."""

    resource_id: str
    base_hz: float
    max_hz: float

    def __post_init__(self):
        if not 0 < self.base_hz <= self.max_hz < inf:
            raise ValueError("need 0 < base_hz <= max_hz < inf")


class PoolInventoryEntry(Value):
    """One CPU model in a heterogeneous pool, weighted by node count."""

    cpu_model: str
    node_count: int
    base_hz: float
    max_hz: float

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if not 0 < self.base_hz <= self.max_hz < inf:
            raise ValueError("need 0 < base_hz <= max_hz < inf")


class CyclesEstimate(Value):
    """Predicted sequential cycle count, aggregated over repeat profiles."""

    mean: float
    stddev: Optional[float]
    n_samples: int


class PredictionReport(Value):
    task_id: str
    resource_id: str
    pred_cycles: float
    tx_base_s: float
    tx_max_s: float
    inflation_factor: float


class DiagnosticReport(Value):
    p2a_cy: float
    instr_rate_act: float
    epsilon_pct: float
    cycle_overprediction_pct: float
    tx_error_base_pct: Optional[float]
    tx_error_max_pct: Optional[float]


def sequential_cycles(profile: BaselineProfile) -> float:
    """Cycles needed to run the profiled task with no instruction-level
    parallelism: cycles * instr_rate (i.e. the instruction count)."""
    return profile.cycles * profile.instr_rate


def predict_sequential_cycles(profiles: Sequence[BaselineProfile]) -> CyclesEstimate:
    """Aggregate repeat profiles of one (task, workload_param) into a single
    sequential-cycle prediction: mean +/- sample stddev.  Profiles of more
    than one workload_param raise `ProfileConsistencyError`: they measure
    different work.
    """
    if not profiles:
        raise UnknownTaskError("unknown task: no baseline profiles supplied")
    params = sorted({p.workload_param for p in profiles})
    if len(params) > 1:
        raise ProfileConsistencyError(
            f"profiles for {profiles[0].task_id!r} mix workload_param values "
            f"{', '.join(map(str, params))}: one task id takes one workload_param")
    values = [sequential_cycles(p) for p in profiles]
    mean, stddev = mean_and_stddev(values)
    return CyclesEstimate(mean, stddev, len(values))


def predict_tx(
    pred_cycles: float,
    clock: ClockSpec,
    inflation: float = 1.0,
    task_id: str = "",
) -> PredictionReport:
    """Predicted execution times at the resource's base and maximum clocks.

    ``inflation`` scales the cycle count, e.g. to account for extra
    instructions executed on a pool like OSG.  A cycle count of 0 or inf
    raises `InflationRangeError`, and a time of 0 or inf `ClockRangeError`.
    """
    if pred_cycles <= 0:
        raise ValueError("pred_cycles must be > 0")
    if inflation <= 0:
        raise ValueError("inflation must be > 0")
    cycles = pred_cycles * inflation
    if cycles in (0, inf):  # both factors are finite and > 0
        raise InflationRangeError(f"inflation_factors.{clock.resource_id}: {inflation:g} times "
                                  f"{pred_cycles:g} predicted cycles gives no "
                                  f"{'finite' if cycles else 'positive'} cycle count")
    tx_base_s, tx_max_s = cycles / clock.base_hz, cycles / clock.max_hz
    if tx_base_s == inf:  # the longer time: base_hz <= max_hz
        raise ClockRangeError(f"resource {clock.resource_id!r}: {cycles:g} cycles take no "
                              f"finite time at its base clock of {clock.base_hz:g} Hz")
    if tx_max_s == 0:  # the shorter time
        raise ClockRangeError(f"resource {clock.resource_id!r}: {cycles:g} cycles take no "
                              f"positive time at its max clock of {clock.max_hz:g} Hz")
    return PredictionReport(
        task_id=task_id,
        resource_id=clock.resource_id,
        pred_cycles=cycles,
        tx_base_s=tx_base_s,
        tx_max_s=tx_max_s,
        inflation_factor=inflation,
    )


def pool_clock_spec(
    inventory: Sequence[PoolInventoryEntry], resource_id: str = "pool"
) -> ClockSpec:
    """Node-count-weighted average base/max clock of a heterogeneous pool.
    The weighted clocks are added left to right, not by ``sum()``, which
    compensates floats since Python 3.12: every version gives the same bits."""
    if not inventory:
        raise ValueError("empty pool inventory")
    weight = base = mx = 0
    for e in inventory:
        weight += e.node_count
        base += e.node_count * e.base_hz
        mx += e.node_count * e.max_hz
    return ClockSpec(resource_id, base_hz=base / weight, max_hz=mx / weight)


def diagnose(
    pred_cycles: float,
    target_cycles: float,
    target_instr_rate: float,
    tx_pred_base_s: Optional[float] = None,
    tx_pred_max_s: Optional[float] = None,
    tx_actual_s: Optional[float] = None,
) -> DiagnosticReport:
    """Attribute cycle overprediction to instruction-level parallelism.

    epsilon is the percent error between the predicted-to-actual cycle
    ratio and the measured instruction rate on the target; epsilon == 0
    means the overprediction is fully explained by that parallelism.
    """
    if pred_cycles <= 0 or target_cycles <= 0 or target_instr_rate <= 0:
        raise ValueError("diagnose inputs must be > 0")
    p2a = pred_cycles / target_cycles
    epsilon = abs(p2a - target_instr_rate) / p2a * 100.0
    base_error, max_error = (
        None if tx_actual_s is None or predicted_s is None else tx_error(predicted_s, tx_actual_s)
        for predicted_s in (tx_pred_base_s, tx_pred_max_s))
    return DiagnosticReport(
        p2a_cy=p2a,
        instr_rate_act=target_instr_rate,
        epsilon_pct=epsilon,
        cycle_overprediction_pct=(p2a - 1.0) * 100.0,
        tx_error_base_pct=base_error,
        tx_error_max_pct=max_error,
    )


def tx_error(predicted_s: float, actual_s: float) -> float:
    """Signed percent error of an execution-time prediction; positive means
    overprediction."""
    if actual_s <= 0:
        raise ValueError("actual_s must be > 0")
    return (predicted_s - actual_s) / actual_s * 100.0


# --- ingest ------------------------------------------------------------------


def load_profiles(stream) -> Tuple[List[BaselineProfile], List[str]]:
    """Read baseline profiles from CSV; inconsistent or malformed rows are
    skipped and reported as warnings with their line numbers."""
    from .codec import PROFILES

    warnings: List[str] = []
    chunks = PROFILES.read(stream, warnings)
    return list(chain.from_iterable(profiles for profiles, in chunks)), warnings


def profiles_by_task(
    profiles: Sequence[BaselineProfile],
) -> Dict[str, List[BaselineProfile]]:
    by_task: Dict[str, List[BaselineProfile]] = {}
    for p in profiles:
        by_task.setdefault(p.task_id, []).append(p)
    return by_task


def load_clocks(obj_list: Sequence[dict]) -> Dict[str, ClockSpec]:
    """Clock specifications keyed by resource id; frequencies are in GHz on disk."""
    from .codec import CLOCKS

    return {spec.resource_id: spec for spec in CLOCKS.decode(obj_list)}
