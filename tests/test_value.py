"""The value classes against the frozen dataclasses they replace: each of
the 23 classes and its `oracles.dataclass_twin` agree on sample values."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resselect
from resselect import (
    Capability, Config, ConsumableSpec, DistSpec, Instruction, Requirement, TaskSpec,
)
from resselect.model import Value
from resselect.plan import Assignment

from oracles import DATACLASS_TWINS, VALUE_CLASSES

CPU = ConsumableSpec("cpu", {"isa": ["x86", 2]})
REQ = Requirement(CPU, 2.0)
TASK = TaskSpec("t", requirements=(REQ,))
CONSTANT = DistSpec("constant", value=1.0)
ASSIGNMENT = Assignment("r", 1.0, 2.0, 3.0)

# per class, two unequal sets of keyword arguments; the first names the
# first field, the second may leave fields to their defaults
SAMPLES = {
    "Config": ({"inflation_factors": {"r": 1.2}, "walltime_safety_factor": 2.0,
                "resource_queues": {"r": ("m", "q")}, "default_profile": "p"}, {}),
    "ViableSet": ({"task_id": "t", "resource_ids": ("a", "b")},
                  {"task_id": "t", "resource_ids": ()}),
    "ConsumableSpec": ({"ctype": "cpu", "form": {"isa": ["x86"], "simd": [2, 2.5]}},
                       {"ctype": "gpu"}),
    "Requirement": ({"consumable": CPU, "amount": 2.0}, {"consumable": CPU, "amount": 3}),
    "Capability": ({"consumable": CPU, "rate": 1e9}, {"consumable": CPU, "rate": 2e9}),
    "Instruction": ({"requirements": (REQ,)},
                    {"requirements": (REQ, Requirement(CPU, 1.0))}),
    "TaskSpec": ({"task_id": "t", "instructions": (Instruction((REQ,)),)},
                 {"task_id": "t", "requirements": (REQ,)}),
    "WorkloadSpec": ({"workload_id": "w", "kinds": ((TASK, ("t", "u")),)},
                     {"workload_id": "w", "kinds": ()}),
    "ResourceSpec": ({"resource_id": "r", "capabilities": (Capability(CPU, 1e9),)},
                     {"resource_id": "s", "capabilities": (Capability(CPU, 1e9),)}),
    "Assignment": ({"resource_id": "r", "tq_s": 1.0, "tx_s": 2.0, "walltime_s": 3.0},
                   {"resource_id": "r"}),
    "SelectionPlan": ({"workload_id": "w", "strategy": "random", "assignments": {"t": ASSIGNMENT},
                       "resource_requests": {"r": {"task_count": 1}}, "rng_seed": 3},
                      {"workload_id": "w", "strategy": "model", "assignments": {}}),
    "BaselineProfile": ({"task_id": "t", "workload_param": 1000, "instructions": 8e9,
                         "cycles": 4e9, "instr_rate": 2.0, "avg_clock_hz": 2.5e9,
                         "measured_tx_s": 1.6},
                        {"task_id": "u", "workload_param": 1000, "instructions": 8e9,
                         "cycles": 4e9, "instr_rate": 2.0, "avg_clock_hz": 2.5e9,
                         "measured_tx_s": 1.6}),
    "ClockSpec": ({"resource_id": "r", "base_hz": 2e9, "max_hz": 3e9},
                  {"resource_id": "r", "base_hz": 2e9, "max_hz": 2e9}),
    "PoolInventoryEntry": ({"cpu_model": "a", "node_count": 2, "base_hz": 2e9, "max_hz": 3e9},
                           {"cpu_model": "b", "node_count": 2, "base_hz": 2e9, "max_hz": 3e9}),
    "CyclesEstimate": ({"mean": 1e9, "stddev": None, "n_samples": 1},
                       {"mean": 1e9, "stddev": 0.0, "n_samples": 2}),
    "PredictionReport": ({"task_id": "t", "resource_id": "r", "pred_cycles": 1e9,
                          "tx_base_s": 1.0, "tx_max_s": 0.5, "inflation_factor": 1.0},
                         {"task_id": "", "resource_id": "r", "pred_cycles": 1e9,
                          "tx_base_s": 1.0, "tx_max_s": 0.5, "inflation_factor": 1.0}),
    "DiagnosticReport": ({"p2a_cy": 1.0, "instr_rate_act": 2.0, "epsilon_pct": 3.0,
                          "cycle_overprediction_pct": 4.0, "tx_error_base_pct": None,
                          "tx_error_max_pct": None},
                         {"p2a_cy": 1.0, "instr_rate_act": 2.0, "epsilon_pct": 3.0,
                          "cycle_overprediction_pct": 4.0, "tx_error_base_pct": 5.0,
                          "tx_error_max_pct": 6.0}),
    "QueueWaitRecord": ({"machine": "m", "queue": "q", "submit_time": 0.0, "wait_s": 1.0,
                         "walltime_req_s": 60.0, "cores_req": 1},
                        {"machine": "m", "queue": "q", "submit_time": 0.0, "wait_s": 1.0,
                         "walltime_req_s": 60.0, "cores_req": 2}),
    "SimilarityBuckets": ({"walltime_edges_s": [900.0, 3600.0], "cores_edges": (1, 2)},
                          {"walltime_edges_s": (900.0,), "cores_edges": ()}),
    "QueueWaitEstimate": ({"machine": "m", "queue": "q", "mean_wait_s": 1.0,
                           "sample_stddev_s": None, "n_samples": 1, "fallback_used": True},
                          {"machine": "m", "queue": "q", "mean_wait_s": 1.0,
                           "sample_stddev_s": 0.5, "n_samples": 2, "fallback_used": False}),
    "DistSpec": ({"kind": "empirical", "samples": [1.0, 2.0]}, {"kind": "normal", "mean": 1.0,
                                                                 "stddev": 0.0}),
    "ResourceBehavior": ({"resource_id": "r", "tq_dist": CONSTANT, "tx_dist": CONSTANT,
                          "capacity_cores": 4},
                         {"resource_id": "r", "tq_dist": CONSTANT, "tx_dist": CONSTANT,
                          "pilot_mode": "per_task"}),
    "SimulationResult": ({"workload_id": "w", "strategy": "model", "trials": 1,
                          "ttc_wkd_s": (3.0,), "tq_wkd_s": (1.0,), "tx_wkd_s": (2.0,)},
                         {"workload_id": "w", "strategy": "random", "trials": 1,
                          "ttc_wkd_s": (3.0,), "tq_wkd_s": (1.0,), "tx_wkd_s": (2.0,)}),
}

classes = pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a Config holds dicts
        return TypeError


def _both(cls, kwargs):
    return cls(**kwargs), DATACLASS_TWINS[cls](**kwargs)


def _same_fields(cls) -> type:
    """Another value class with the fields and defaults of ``cls``."""
    body = vars(cls)
    return type("Other", (Value,), {"__annotations__": body["__annotations__"],
                                    **{f: body[f] for f in body["__annotations__"] if f in body}})


def test_the_twins_cover_every_value_class():
    assert len(VALUE_CLASSES) == len(set(VALUE_CLASSES)) == 23
    assert set(VALUE_CLASSES) == {cls for cls in Value.__subclasses__()
                                  if cls.__module__.startswith("resselect.")}
    assert set(SAMPLES) == {cls.__name__ for cls in VALUE_CLASSES}


@classes
def test_repr_vars_and_defaults_match_the_dataclass(cls):
    for kwargs in SAMPLES[cls.__name__]:
        ours, twin = _both(cls, kwargs)
        assert repr(ours) == repr(twin)
        assert vars(ours) == vars(twin)
        # the same fields, given in order as positional arguments
        positional = cls(*(vars(twin)[f.name] for f in dataclasses.fields(twin)))
        assert repr(positional) == repr(ours) and vars(positional) == vars(ours)


@classes
def test_equality_and_hash_match_the_dataclass(cls):
    first, second = SAMPLES[cls.__name__]
    (a, ta), (a2, ta2), (b, tb) = _both(cls, first), _both(cls, first), _both(cls, second)
    other = _same_fields(cls)(**first)
    assert a != other and not a == other and not other == a
    ours = [a == a2, a != a2, a == b, a != b, a == 1, a != 1, a == ta, a != ta]
    assert ours[:6] == [True, False, False, True, False, True]
    if "__eq__" in vars(cls):  # its own, which the twin keeps, and no generated one
        assert cls.__eq__ is DATACLASS_TWINS[cls].__eq__ and hash(a) == hash(a2)
        return
    assert ours == [ta == ta2, ta != ta2, ta == tb, ta != tb, ta == 1, ta != 1, ta == a, ta != a]
    assert _hash(a) == _hash(ta) and _hash(b) == _hash(tb)


def test_default_dicts_are_not_shared():
    for cls in (Config, DATACLASS_TWINS[Config]):
        one, two = cls(), cls()
        assert one.inflation_factors == {} and one.inflation_factors is not two.inflation_factors
        assert one.resource_queues is not two.resource_queues


@classes
def test_a_missing_unknown_repeated_or_extra_argument_is_a_type_error(cls):
    first = SAMPLES[cls.__name__][0]
    names = [f.name for f in dataclasses.fields(DATACLASS_TWINS[cls])]
    required = [f.name for f in dataclasses.fields(DATACLASS_TWINS[cls])
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    for build in (cls, DATACLASS_TWINS[cls]):
        if required:
            with pytest.raises(TypeError):
                build(**{k: v for k, v in first.items() if k != required[0]})
        with pytest.raises(TypeError):
            build(**first, bogus=1)
        with pytest.raises(TypeError):
            build(first[names[0]], **first)
        with pytest.raises(TypeError):
            build(*(first.get(n) for n in names), None)


@classes
def test_assignment_and_deletion_raise_attribute_error(cls):
    for value in _both(cls, SAMPLES[cls.__name__][0]):
        name = dataclasses.fields(DATACLASS_TWINS[cls])[0].name
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == before


def modules_loaded_by_importing_the_cli():
    """The modules that ``import resselect.cli`` leaves in a fresh ``-S``
    interpreter: ``-S`` keeps site-packages' start-up hooks out of the count."""
    src = str(Path(resselect.__file__).resolve().parent.parent)
    code = "import sys, resselect.cli; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(proc.stdout.split())
    assert "resselect.cli" in loaded
    return loaded


def test_importing_the_cli_loads_no_dataclass_machinery():
    """Importing runs no dataclass decorator, so neither `dataclasses` nor
    the modules it compiles methods with are loaded."""
    assert not modules_loaded_by_importing_the_cli() & {"dataclasses", "inspect", "ast", "dis"}


def test_importing_the_cli_loads_no_hashing_statistics_or_random():
    """Only simulating draws with `hashlib` and `statistics`, and only a
    random plan uses `random`; `statistics` would bring in `fractions`,
    `decimal` and `random` too.  Each is imported where it is used."""
    assert not modules_loaded_by_importing_the_cli() & {
        "hashlib", "_hashlib", "statistics", "fractions", "decimal", "random"}
