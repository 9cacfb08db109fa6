import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from resselect import (
    Capability,
    ConsumableSpec,
    Instruction,
    Requirement,
    ResourceSpec,
    TaskSpec,
    WorkloadSpec,
)

BUNDLED = Path(__file__).parent.parent / "scenarios" / "bundled"

CTYPES = ["cyc", "byte", "op", "flop", "msg"]
ATTRS = ["isa", "simd", "vendor"]
VALUES = [0, 1, 2, 2.5, "x86", "avx", "sse4.1", "intel"]


def workload_of(workload_id: str, tasks) -> WorkloadSpec:
    """The workload of ``tasks``: tasks with equal bodies are one kind, in
    the order of their first task."""
    kinds = {}
    for task in tasks:
        kinds.setdefault((task.instructions, task.requirements), (task, []))[1].append(task.task_id)
    return WorkloadSpec(workload_id, tuple((task, tuple(ids)) for task, ids in kinds.values()))


def task_ids(workload: WorkloadSpec) -> list:
    """The ids of ``workload``'s tasks, kind by kind."""
    return [i for _, ids in workload.kinds for i in ids]


@pytest.fixture
def bundled_dir() -> Path:
    return BUNDLED


def bundled_json(name: str):
    with open(BUNDLED / name) as fh:
        return json.load(fh)


def random_consumable(rng: random.Random, max_form: int = 2) -> ConsumableSpec:
    form = {}
    for attr in rng.sample(ATTRS, rng.randint(0, max_form)):
        form[attr] = frozenset(rng.sample(VALUES, rng.randint(1, 3)))
    return ConsumableSpec(rng.choice(CTYPES), form)


def random_requirement(rng: random.Random) -> Requirement:
    return Requirement(random_consumable(rng), rng.uniform(0.1, 100.0))


def random_capability(rng: random.Random) -> Capability:
    return Capability(random_consumable(rng), rng.uniform(0.1, 100.0))


def random_sequenced_task(
    rng: random.Random, task_id: str = "t", max_instructions: int = 10
) -> TaskSpec:
    n_ins = rng.randint(1, max_instructions)
    instructions = tuple(
        Instruction(tuple(random_requirement(rng) for _ in range(rng.randint(1, 4))))
        for _ in range(n_ins)
    )
    return TaskSpec(task_id, instructions=instructions)


def matching_resource(rng: random.Random, task: TaskSpec, resource_id: str = "r") -> ResourceSpec:
    """A resource guaranteed to satisfy the task: one capability per distinct
    task consumable (sometimes with extra form values), plus random noise caps."""
    from resselect import aggregate

    caps = []
    for req in aggregate(task).requirements:
        c = req.consumable
        form = dict(c.form)
        if form and rng.random() < 0.5:
            attr = rng.choice(list(form))
            form[attr] = form[attr] | {rng.choice(VALUES)}
        caps.append(Capability(ConsumableSpec(c.ctype, form), rng.uniform(0.1, 100.0)))
    for _ in range(rng.randint(0, 3)):
        caps.append(random_capability(rng))
    rng.shuffle(caps)
    return ResourceSpec(resource_id, tuple(caps))


def random_resource(
    rng: random.Random, resource_id: str = "r", max_caps: int = 10
) -> ResourceSpec:
    caps = tuple(random_capability(rng) for _ in range(rng.randint(1, max_caps)))
    return ResourceSpec(resource_id, caps)
