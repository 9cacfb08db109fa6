import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resselect.codec import DIST, PLAN, POOL, STR, TASK, WORKLOAD, Arr, DecodeError, Record
from resselect.model import WorkloadSpec

TASK_JSON = {"task_id": "t", "requirements": [{"type": "cyc", "form": {"isa": ["x86"]}, "amount": 5}]}


def decode_error(kind, obj) -> str:
    with pytest.raises(DecodeError) as info:
        kind.decode(obj)
    return str(info.value)


class TestDecodeErrors:
    def test_location_names_the_key_path(self):
        pool = [{"resource_id": "r", "capabilities": [{"type": "c", "rate": 1, "rat": 2}]}]
        assert decode_error(POOL, pool).startswith("[0].capabilities[0].rat: unknown key")

    def test_missing_key_named(self):
        assert decode_error(TASK, {"requirements": []}) == "missing key 'task_id'"

    @pytest.mark.parametrize("amount", [True, "5", None, [5]])
    def test_wrong_json_type(self, amount):
        obj = {"task_id": "t", "requirements": [{"type": "cyc", "amount": amount}]}
        assert "requirements[0].amount: expected number" in decode_error(TASK, obj)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_number(self, value):
        assert "non-finite" in decode_error(DIST, {"kind": "constant", "value": value})

    def test_value_invariant_keeps_its_message_and_gains_the_path(self):
        obj = {"task_id": "t", "requirements": [{"type": "cyc", "amount": -1}]}
        assert decode_error(TASK, obj) == "requirements[0]: requirement amount must be > 0"

    def test_source_prefixes_the_message(self):
        with pytest.raises(DecodeError) as info:
            TASK.decode({"task_id": 1})
        info.value.source = "task.json"
        assert str(info.value) == "task.json: task_id: expected string, got number"


class TestRoundTrip:
    def test_task_form_values_come_back_as_sets(self):
        task = TASK.decode(TASK_JSON)
        assert task.requirements[0].consumable.form == {"isa": frozenset({"x86"})}
        assert TASK.encode(task) == TASK_JSON

    def test_plan_estimate_needs_both_times(self):
        plan = {"workload_id": "w", "strategy": "model",
                "assignments": {"t": {"resource_id": "r", "tq_s": 1.0}}}
        assert "tq_s and tx_s" in decode_error(PLAN, plan)


# --- a workload's tasks: each distinct body is decoded once


def _req(amount=5, value=0.0, **extra):
    return {"type": "cyc", "form": {"v": [value, "x86"]}, "amount": amount, **extra}


# bodies that decode, some differing only in what an inexact key would miss
GOOD_BODIES = [
    {"requirements": [_req()]},
    {"requirements": [_req(amount=5.0)]},
    {"requirements": [_req(amount=1)]},
    {"requirements": [_req(amount=1.0)]},
    {"requirements": [_req(value=-0.0)]},
    {"requirements": [{"amount": 5, "form": {"v": [0.0, "x86"]}, "type": "cyc"}]},  # reordered
    {"requirements": [_req(), _req(amount=2)]},  # merged into one requirement
    {"instructions": [[_req()], [_req(amount=2)]]},
    {"instructions": [[_req(value=-0.0)]]},
]
BAD_BODIES = [
    {"requirements": [_req(amount=True)]},  # a boolean is not a number
    {"requirements": [_req(amout=5)]},  # unknown key
    {"requirements": [_req(amount=math.nan)]},
    {"requirements": [_req(amount=math.inf)]},
    {"requirements": [_req(amount=-1)]},  # fails an invariant
    {"requirements": [_req()], "instructions": [[_req()]]},  # both bodies
    {"requirements": [_req()], "priority": 1},  # unknown key
]
MISSING = object()
BAD_IDS = ["", 1, None, True, MISSING, "t0"]  # "t0" repeats the first task's id


class Text(str):
    """Not a JSON string: decoding rejects it, and marshal cannot write it."""


# the task array as `Arr` decodes it: every task on its own
PER_TASK = Record(WorkloadSpec, {"workload_id": STR, "tasks": Arr(TASK)})


@st.composite
def workloads(draw):
    """A workload object as ``json.load`` returns it: bodies drawn from a
    few, most of them repeated, and at times a task given a bad body or id."""
    n = draw(st.integers(1, 10))
    bodies = draw(st.lists(st.sampled_from(GOOD_BODIES), min_size=n, max_size=n))
    tasks = []
    for i, body in enumerate(bodies):
        task_id = f"t{i}"
        if draw(st.integers(0, 9)) == 0:
            body = draw(st.sampled_from(BAD_BODIES))
        if draw(st.integers(0, 9)) == 0:
            task_id = draw(st.sampled_from(BAD_IDS))
        head = {} if task_id is MISSING else {"task_id": task_id}
        tasks.append({**head, **body} if draw(st.booleans()) else {**body, **head})
    return json.loads(json.dumps({"workload_id": "w", "tasks": tasks}))


def _decoded(kind, obj):
    try:
        return kind.decode(obj), None
    except DecodeError as exc:
        return None, (str(exc), exc.reason, list(exc.path))


class TestSharedTaskBodies:
    @settings(max_examples=300, deadline=None)
    @given(workloads())
    @example({"workload_id": "w", "tasks": [
        {"task_id": "a", **GOOD_BODIES[0]}, {"task_id": "b", **GOOD_BODIES[4]},
        {"task_id": "c", **GOOD_BODIES[0]}, {"task_id": "d", **GOOD_BODIES[2]},
        {"task_id": "e", **GOOD_BODIES[3]}]})
    @example({"workload_id": "w", "tasks": [
        {"task_id": "a", **GOOD_BODIES[0]}, {"task_id": "a", **GOOD_BODIES[0]}]})
    @example({"workload_id": "w", "tasks": [
        {"task_id": "a", **GOOD_BODIES[0]}, {"task_id": "", **GOOD_BODIES[0]}]})
    @example({"workload_id": "w", "tasks": [
        {"task_id": "a", **GOOD_BODIES[0]},
        {"task_id": "b", "requirements": [{**_req(), "type": Text("cyc")}]}]})
    @example({"workload_id": "w", "tasks": [
        {"task_id": "a", **GOOD_BODIES[0]}, {"task_id": "b", "requirements": (_req(),)}]})
    def test_decodes_as_each_task_alone(self, obj):
        """The workload, or its error with the same reason and key path, is
        what decoding every task on its own gives; and tasks with one body
        share its decoded objects."""
        got, error = _decoded(WORKLOAD, obj)
        want, want_error = _decoded(PER_TASK, obj)
        assert error == want_error
        if error is not None:
            return
        assert got == want
        # repr tells 1 from 1.0 and -0.0 from 0.0, which == does not
        assert repr(WORKLOAD.encode(got)) == repr(WORKLOAD.encode(want))
        first = {}
        for item, task in zip(obj["tasks"], got.tasks):
            body = repr({k: v for k, v in item.items() if k != "task_id"})
            shared = first.setdefault(body, task)
            assert task.requirements is shared.requirements
            assert task.instructions is shared.instructions

    def test_equal_bodies_share_however_their_objects_are_held(self):
        held = float("5.5")  # a second reference, which the other amount lacks
        tasks = [{"task_id": "a", "requirements": [{"type": "cyc", "amount": float("5.5")}]},
                 {"task_id": "b", "requirements": [{"type": "cyc", "amount": held}]}]
        workload = WORKLOAD.decode({"workload_id": "w", "tasks": tasks})
        assert workload.tasks[0].requirements is workload.tasks[1].requirements
