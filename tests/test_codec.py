import math

import pytest

from resselect.codec import DIST, PLAN, POOL, TASK, DecodeError

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
