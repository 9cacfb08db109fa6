import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resselect.codec import (
    CAPABILITY, CLOCKS, CONFIG, DIST, PLAN, POOL, REQUIREMENT, STR, TASK, VIABLE_SET, WORKLOAD,
    Arr, Csv, DecodeError, Record,
)
from resselect.match import ViableSet
from resselect.model import ConsumableSpec, TaskSpec
from resselect.predict import GHZ, ClockSpec, PoolInventoryEntry, pool_clock_spec

from conftest import task_ids

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
        assert decode_error(TASK, obj) == \
            "requirements[0]: requirement amount must be finite and > 0"

    def test_empty_instruction_is_named_at_its_index(self):
        steps = [[{"type": "cyc", "amount": 5}], []]
        workload = {"workload_id": "w", "tasks": [{"task_id": "t", "instructions": steps}]}
        assert decode_error(WORKLOAD, workload) == \
            "tasks[0].instructions[1]: instruction must have at least one requirement"

    def test_config_affinity_is_an_unknown_key(self):
        # neg_ttc was the one value the removed key took; TTC is the only ranking
        assert decode_error(CONFIG, {"affinity": "neg_ttc"}).startswith("affinity: unknown key")

    def test_message_names_no_file(self):
        # the CLI, which knows the file, puts its path in front
        assert decode_error(TASK, {"task_id": 1}) == "task_id: expected string, got number"


class TestRoundTrip:
    def test_task_form_values_come_back_as_sets(self):
        task = TASK.decode(TASK_JSON)
        assert task.requirements[0].consumable.form == {"isa": frozenset({"x86"})}
        assert TASK.encode(task) == TASK_JSON

    def test_plan_estimate_needs_both_times(self):
        plan = {"workload_id": "w", "strategy": "model",
                "assignments": {"t": {"resource_id": "r", "tq_s": 1.0}}}
        assert decode_error(PLAN, plan) == "assignments.t: tq_s and tx_s must be given together"

    @pytest.mark.parametrize("times,reason", [
        ({"tq_s": 1.0, "tx_s": 2.0, "ttc_s": 3.5}, "ttc_s 3.5 is not tq_s + tx_s = 3.0"),
        ({"tq_s": 0.1, "tx_s": 0.2, "ttc_s": 0.3},
         "ttc_s 0.3 is not tq_s + tx_s = 0.30000000000000004"),
        ({"ttc_s": 3.0}, "ttc_s needs tq_s and tx_s"),
    ])
    def test_plan_ttc_must_be_tq_plus_tx(self, times, reason):
        plan = {"workload_id": "w", "strategy": "model",
                "assignments": {"t": {"resource_id": "r", **times}}}
        assert decode_error(PLAN, plan) == f"assignments.t: {reason}"

    @pytest.mark.parametrize("ttc", [{}, {"ttc_s": 0.30000000000000004}])
    def test_plan_ttc_is_optional_and_exact(self, ttc):
        plan = {"workload_id": "w", "strategy": "model",
                "assignments": {"t": {"resource_id": "r", "tq_s": 0.1, "tx_s": 0.2, **ttc}}}
        assert PLAN.decode(plan).assignments["t"].ttc_s == 0.30000000000000004

    @pytest.mark.parametrize("kind,key", [(REQUIREMENT, "amount"), (CAPABILITY, "rate")])
    def test_consumable_type_and_form_come_back(self, kind, key):
        value = kind.decode({"type": "cyc", "form": {"os": ["linux"], "isa": ["x86", 2]}, key: 5})
        assert value.consumable == ConsumableSpec("cyc", {"isa": {2, "x86"}, "os": {"linux"}})
        written = kind.encode(value)
        assert written == {"type": "cyc", "form": {"isa": [2, "x86"], "os": ["linux"]}, key: 5}
        assert kind.decode(written) == value

    def test_viable_set_comes_back(self):
        value = ViableSet("t", ("r2", "r1"))
        written = VIABLE_SET.encode(value)
        assert written == {"task_id": "t", "viable": ["r2", "r1"]}
        assert VIABLE_SET.decode(json.loads(json.dumps(written))) == value

    @pytest.mark.parametrize("base,top", [(2.3, 3.3), (0.1, 0.7), (2.5, 3.09)])
    def test_plain_clock_is_ghz_times_GHZ(self, base, top):
        """Clocks are input only: a file's GHz decode to ``ghz * GHZ`` hertz,
        bit for bit (``==`` on positive floats)."""
        (clock,) = CLOCKS.decode([{"resource_id": "r", "base_ghz": base, "max_ghz": top}])
        assert clock == ClockSpec("r", base * GHZ, top * GHZ)

    def test_inventory_clock_weighs_each_model_in_hz(self):
        models = [("a", 3, 2.3, 3.1), ("b", 1, 2.1, 2.9)]
        (clock,) = CLOCKS.decode([{"resource_id": "pool", "inventory": [
            {"cpu_model": m, "node_count": n, "base_ghz": b, "max_ghz": x}
            for m, n, b, x in models]}])
        assert clock == pool_clock_spec(
            [PoolInventoryEntry(m, n, b * GHZ, x * GHZ) for m, n, b, x in models], "pool")


# --- a workload's tasks: each distinct body is decoded once, as one kind


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
PER_TASK = Record(lambda workload_id, tasks: tasks,
                  {"workload_id": STR, "tasks": Arr(TASK, unique="task_id")})


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


def _bodies(tasks) -> list:
    """Each task's id and the repr of its body's encoding, in id order: repr
    tells 1 from 1.0 and -0.0 from 0.0, which == does not."""
    return sorted((task_id, repr({k: v for k, v in TASK.encode(task).items() if k != "task_id"}))
                  for task_id, task in tasks)


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
        """The workload's tasks, or its error with the same reason and key
        path, are what decoding every task on its own gives; and the tasks
        with one body are one kind, with their ids in file order, and the
        kinds are in the order of their first tasks."""
        got, error = _decoded(WORKLOAD, obj)
        want, want_error = _decoded(PER_TASK, obj)
        assert error == want_error
        if error is not None:
            return
        assert _bodies((i, t) for t, ids in got.kinds for i in ids) == _bodies(
            (t.task_id, t) for t in want)
        kinds = {}  # body -> the ids of its tasks, in file order
        for item in obj["tasks"]:
            body = repr({k: v for k, v in item.items() if k != "task_id"})
            kinds.setdefault(body, []).append(item["task_id"])
        assert [list(ids) for _, ids in got.kinds] == list(kinds.values())
        assert all(task.task_id == ids[0] for task, ids in got.kinds)

    def test_equal_bodies_share_however_their_objects_are_held(self):
        held = float("5.5")  # a second reference, which the other amount lacks
        tasks = [{"task_id": "a", "requirements": [{"type": "cyc", "amount": float("5.5")}]},
                 {"task_id": "b", "requirements": [{"type": "cyc", "amount": held}]}]
        workload = WORKLOAD.decode({"workload_id": "w", "tasks": tasks})
        assert [ids for _, ids in workload.kinds] == [("a", "b")]


def test_counting_the_tasks_of_a_decoded_bag_builds_none(monkeypatch):
    """`WorkloadSpec.tasks` builds a task only when it is read.  The
    benchmark checks ``len(workload.tasks)`` after every setup: a view that
    built all 8192 tasks of bag-homog-8k left them to the garbage
    collector, which collected them inside the next timed stage and raised
    its select_s by about 30 % (a cached one: 70 %, and 2.5 MB of peak
    RSS), while the planner's own timings did not move."""
    body = {"requirements": [{"type": "cyc", "amount": 5}]}
    workload = WORKLOAD.decode({"workload_id": "w", "tasks": [
        {"task_id": f"t{i:04d}", **body} for i in range(8192)]})
    built, check = [], TaskSpec.__post_init__
    monkeypatch.setattr(TaskSpec, "__post_init__", lambda task: built.append(task) or check(task))
    assert len(workload.tasks) == 8192 and built == []
    assert len(task_ids(workload)) == 8192 and built == []
    assert workload.tasks[5] == TaskSpec("t0005", requirements=workload.kinds[0][0].requirements)
    assert len(built) == 2  # the task read, and the one it is compared with
    assert [t.task_id for t in workload.tasks[-2:]] == ["t8190", "t8191"]


class TestCsv:
    @pytest.mark.parametrize("text", ["a\nx\n\ny\n", "b,a\n1,x\n\n2,y\n"], ids=["one", "two"])
    def test_blank_line_skipped_however_many_columns(self, text):
        """A blank line holds no comma, as a line of a one-column file
        does; it is skipped either way."""
        warnings = []
        chunks = Csv("c", lambda bad, a: (list(a),), "a").read(io.StringIO(text), warnings)
        assert [v for (column,) in chunks for v in column] == ["x", "y"] and warnings == []
