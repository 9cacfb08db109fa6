import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resselect import (
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
from resselect.codec import RESOURCE, TASK
from resselect import model
from resselect.model import canonical_dumps, exact_mean, mean_and_stddev

from conftest import random_sequenced_task
from oracles import (
    aggregate_oracle, canonical_dumps_oracle, consumable_key, exact_mean_stddev_oracle,
)

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal


def c(name, **form):
    return ConsumableSpec(name, {a: frozenset(v) for a, v in form.items()})


CYC_A = c("cycA")
CYC_B = c("cycB")


class TestTypes:
    def test_empty_ctype_rejected(self):
        with pytest.raises(ValueError):
            ConsumableSpec("", {})

    def test_empty_condition_set_rejected(self):
        with pytest.raises(ValueError):
            c("cyc", isa=[])

    def test_scalar_equality_is_type_sensitive(self):
        assert c("cyc", n=[2]) == c("cyc", n=[2.0])
        assert c("cyc", n=["2"]) != c("cyc", n=[2])
        assert c("cyc", n=["x"]) == c("cyc", n=["x"])

    def test_cached_hash_stays_out_of_repr(self):
        a, b = c("cyc", isa=["x86"], n=[2]), c("cyc", n=[2.0], isa=["x86"])
        assert a == b and hash(a) == hash(b) and len({a, b, c("cyc", n=[2])}) == 2
        assert repr(a) == "ConsumableSpec(ctype='cyc', form={'isa': frozenset({'x86'}), " \
                          "'n': frozenset({2})})"

    def test_nonpositive_amount_and_rate_rejected(self):
        with pytest.raises(ValueError):
            Requirement(CYC_A, 0)
        with pytest.raises(ValueError):
            Capability(CYC_A, -1.0)

    @pytest.mark.parametrize("cls", [Requirement, Capability])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_amount_and_rate_rejected(self, cls, value):
        with pytest.raises(ValueError, match="must be finite and > 0$"):
            cls(CYC_A, value)

    @pytest.mark.parametrize("cls", [Requirement, Capability])
    @pytest.mark.parametrize("value", [True, "5", None])
    def test_amount_and_rate_must_be_numbers(self, cls, value):
        with pytest.raises(TypeError, match="must be a number$"):
            cls(CYC_A, value)

    @pytest.mark.parametrize("value", [True, None, (1,)])
    def test_condition_value_must_be_a_number_or_string(self, value):
        with pytest.raises(TypeError, match="^condition values must be int, float or str"):
            ConsumableSpec("cyc", {"isa": [value]})

    def test_consumable_is_never_equal_to_another_type(self):
        assert CYC_A.__eq__("cycA") is NotImplemented
        assert CYC_A != "cycA"

    def test_every_task_of_a_kind_needs_an_id(self):
        task = TaskSpec("t1", requirements=(Requirement(CYC_A, 1),))
        with pytest.raises(ValueError, match="^task_ids must be non-empty and unique"):
            WorkloadSpec("w", ((task, ("t1", "")),))

    def test_instruction_merges_duplicate_consumables(self):
        ins = Instruction((Requirement(CYC_A, 3), Requirement(CYC_A, 2)))
        assert len(ins.requirements) == 1
        assert ins.requirements[0].amount == 5

    def test_workload_rejects_duplicate_task_ids(self):
        t = TaskSpec("t1", requirements=(Requirement(CYC_A, 1),))
        u = TaskSpec("t2", requirements=(Requirement(CYC_A, 2),))
        for kinds in [((t, ("t1", "t1")),), ((t, ("t1",)), (u, ("t2", "t1")))]:
            with pytest.raises(ValueError, match="^task_ids must be non-empty and unique"):
                WorkloadSpec("w", kinds)

    def test_resource_needs_capabilities(self):
        with pytest.raises(ValueError):
            ResourceSpec("r", ())


class TestAggregate:
    def test_hand_summed_example(self):
        task = TaskSpec(
            "t",
            instructions=(
                Instruction((Requirement(CYC_A, 3),)),
                Instruction((Requirement(CYC_A, 2), Requirement(CYC_B, 1))),
            ),
        )
        agg = aggregate(task)
        amounts = {r.consumable.ctype: r.amount for r in agg.requirements}
        assert amounts == {"cycA": 5, "cycB": 1}

    def test_single_instruction_identity(self):
        task = TaskSpec("t", instructions=(Instruction((Requirement(CYC_A, 7),)),))
        agg = aggregate(task)
        assert len(agg.requirements) == 1
        assert agg.requirements[0].amount == 7

    def test_merges_once_and_builds_what_the_constructor_builds(self, monkeypatch):
        """An instruction stream is merged once; the result equals, prints
        and encodes as the task constructed from its requirements, which is
        itself returned as is."""
        task = TaskSpec("t", instructions=(
            Instruction((Requirement(CYC_B, 3),)),
            Instruction((Requirement(CYC_B, 2), Requirement(CYC_A, 1))),
        ))
        merge, merges = model._merge_requirements, []
        monkeypatch.setattr(model, "_merge_requirements",
                            lambda reqs: merges.append(reqs) or merge(reqs))
        agg = aggregate(task)
        assert len(merges) == 1
        monkeypatch.undo()
        built = TaskSpec("t", requirements=agg.requirements)
        assert agg == built and repr(agg) == repr(built)
        assert canonical_dumps(TASK.encode(agg)) == canonical_dumps(TASK.encode(built))
        assert aggregate(built) is built

    def test_empty_task_errors(self):
        with pytest.raises(EmptyTaskError, match="task must have at least one instruction"):
            TaskSpec("t", instructions=())

    def test_random_instructions_match_brute_force(self):
        rng = random.Random(1)
        consumables = [CYC_A, CYC_B, c("cycC"), c("cyc", isa=["x86"]), c("op")]
        instructions = tuple(
            Instruction(
                tuple(
                    Requirement(rng.choice(consumables), rng.uniform(0.5, 10))
                    for _ in range(rng.randint(1, 3))
                )
            )
            for _ in range(50)
        )
        task = TaskSpec("t", instructions=instructions)
        expected = aggregate_oracle(instructions)
        got = {
            consumable_key(r.consumable): r.amount
            for r in aggregate(task).requirements
        }
        assert got.keys() == expected.keys()
        for key in expected:
            assert got[key] == pytest.approx(expected[key], rel=1e-12)

    @settings(max_examples=100)
    @given(st.integers(0, 10**9))
    def test_idempotent_and_permutation_invariant(self, seed):
        rng = random.Random(seed)
        task = random_sequenced_task(rng)
        agg = aggregate(task)
        assert aggregate(agg) == agg
        shuffled = list(task.instructions)
        rng.shuffle(shuffled)
        agg2 = aggregate(TaskSpec("t", instructions=tuple(shuffled)))
        # same consumables in the same canonical order; amounts agree up to
        # float summation order
        assert [r.consumable for r in agg2.requirements] == [
            r.consumable for r in agg.requirements
        ]
        for r1, r2 in zip(agg.requirements, agg2.requirements):
            assert r2.amount == pytest.approx(r1.amount, rel=1e-12)


class TestSerialization:
    def test_task_round_trip_is_canonical(self):
        task = TaskSpec(
            "t",
            requirements=(
                Requirement(c("cyc", isa=["x86"], simd=["avx", "sse4.1"]), 5),
                Requirement(CYC_A, 1),
            ),
        )
        blob = canonical_dumps(TASK.encode(task))
        again = TASK.decode(TASK.encode(task))
        assert again == task
        assert canonical_dumps(TASK.encode(again)) == blob

    def test_resource_round_trip(self):
        res = ResourceSpec("r", (Capability(c("cyc", isa=["x86"]), 2.5e9),))
        assert RESOURCE.decode(RESOURCE.encode(res)) == res

    def test_instruction_task_round_trip(self):
        task = random_sequenced_task(random.Random(3))
        assert TASK.decode(TASK.encode(task)) == task

    def test_canonical_dumps_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, TINY, 2.2250738585072014e-308, 1.7e308, -MAX, 2**53 + 1, -(2**70)]),
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "tab\there\nnew", "naïve — 中文   🙂"]),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(['"k"', "\\", "é", ""])),
                        children, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def shared_trees(draw):
    """A tree in which one container is referenced twice at one depth and
    again at other depths, next to an unshared tree."""
    shared = draw(st.one_of(st.lists(JSON_TREES, min_size=1, max_size=3),
                            st.dictionaries(st.text(), JSON_TREES, min_size=1, max_size=3)))
    other = draw(JSON_TREES)
    return {"a": shared, "b": [shared, other, (shared,)], "c": shared, "d": {"e": other}}


class TestCanonicalDumps:
    """`canonical_dumps` writes a shared value once, yet its text equals the
    standard library's, which writes each occurrence anew."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(JSON_TREES, shared_trees()))
    @example({})
    @example([[], {}, ()])
    @example({"z": -0.0, "a": [TINY, 1.7e308, 10**30, True, None, '"\\\x01é']})
    def test_equals_json_dumps(self, tree):
        assert canonical_dumps(tree) == canonical_dumps_oracle(tree)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_raise_value_error(self, value):
        for tree in (value, [1, {"x": value}], {"k": [value]}):
            with pytest.raises(ValueError):
                canonical_dumps_oracle(tree)
            with pytest.raises(ValueError, match="not JSON compliant"):
                canonical_dumps(tree)

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", 1j, range(3)])
    def test_unserializable_values_raise_type_error(self, value):
        for tree in (value, [value], {"k": {"j": value}}):
            with pytest.raises(TypeError):
                canonical_dumps_oracle(tree)
            with pytest.raises(TypeError, match="is not JSON serializable"):
                canonical_dumps(tree)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2), b"k"])
    def test_non_string_keys_raise_type_error(self, key):
        with pytest.raises(TypeError):
            canonical_dumps({key: 1})
        with pytest.raises(TypeError):
            canonical_dumps([{"a": {key: "v"}}])

    def test_container_holding_itself_raises_value_error(self):
        loop = [1]
        loop.append({"again": loop})
        for tree in (loop, {"k": loop}):
            with pytest.raises(ValueError):
                canonical_dumps_oracle(tree)
            with pytest.raises(ValueError, match="Circular reference"):
                canonical_dumps(tree)

    def test_shared_container_is_rendered_once_per_level(self, monkeypatch):
        marker = float("1.25")  # written each time its container is rendered
        shared = {"x": marker, "y": ["z"]}
        tree = {"a": shared, "b": shared, "c": [shared, shared]}
        marker_levels = []
        original = model._dumps

        def counting(value, level, memo, open_ids):
            if value is marker:
                marker_levels.append(level)
            return original(value, level, memo, open_ids)

        monkeypatch.setattr(model, "_dumps", counting)
        assert canonical_dumps(tree) == canonical_dumps_oracle(tree)
        assert sorted(marker_levels) == [2, 3]  # shared rendered at levels 1 and 2 only


class TestMeanAndStddev:
    """`mean_and_stddev` equals the exact-arithmetic oracle bit for bit, so
    the summaries do not depend on the Python version's `statistics`."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                              st.floats(1000.0, 1000.001)), min_size=1, max_size=40))
    @example([TINY])
    @example([TINY, 3 * TINY, 2.2250738585072014e-308])
    @example([42.5])
    @example([1234.5678] * 7)
    @example([0.1] * 9)
    @example([0.0, 0.0, 0.0])
    @example([MAX, MAX])
    @example([0.0, MAX])
    @example([MAX, TINY, 1.0])
    @example([1e-300, 1e300])
    def test_equals_exact_oracle(self, values):
        assert mean_and_stddev(values) == exact_mean_stddev_oracle(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=20))
    @example([0.0, -0.0])
    @example([-3.0, 1e-300, 2.5e149])
    def test_mixed_signs_equal_exact_oracle(self, values):
        assert mean_and_stddev(values) == exact_mean_stddev_oracle(values)

    def test_scales_past_the_float_range_take_the_exact_integer_path(self, monkeypatch):
        calls = []
        exact = model._exact_integers
        monkeypatch.setattr(model, "_exact_integers", lambda v: calls.append(v) or exact(v))
        cases = ([TINY, 1.0], [1e-310] * 3, [MAX, 1e-300, 7.0])
        for values in cases:
            assert mean_and_stddev(values) == exact_mean_stddev_oracle(values)
        assert calls == list(cases)
        assert mean_and_stddev([1.0, 3.0]) == (2.0, 1.4142135623730951) and len(calls) == 3

    @pytest.mark.parametrize("values", [[], [float("nan")], [1.0, float("inf")],
                                        [float("-inf"), 2.0, 3.0]], ids=repr)
    def test_no_values_or_non_finite_values_rejected(self, values):
        with pytest.raises(ValueError):
            mean_and_stddev(values)

    def test_stddev_past_the_float_range_rejected(self):
        """Finite values of mixed signs can have a stddev past the float
        range, though their mean is finite."""
        with pytest.raises(ValueError, match="^the sample stddev passes the float range$"):
            mean_and_stddev([MAX, -MAX, MAX])
        assert exact_mean([MAX, -MAX, MAX]) == MAX / 3


class TestExactMean:
    """`exact_mean` equals the exact-arithmetic oracle's mean bit for bit,
    the sign of zero included, on lists of one sign over the whole float
    range and lists of mixed signs within ±1e150."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(*(st.lists(values, min_size=1, max_size=40) for values in (
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.floats(max_value=-0.0, allow_nan=False, allow_infinity=False),
        st.floats(-1e150, 1e150)))))
    @example([MAX, MAX])  # fsum overflows
    @example([TINY])
    @example([1e-300, 1e300])
    @example([2.0 ** 1000, 1.0, 2.0 ** -1000])  # the error of the fsum is no float
    @example([0.0, -0.0])
    @example([-0.0])
    @example([-TINY, 0.0])  # the mean rounds to -0.0
    @example([0.1] * 9)
    @example([42.5])
    def test_equals_exact_oracle_mean(self, values):
        assert exact_mean(values).hex() == exact_mean_stddev_oracle(values)[0].hex()

    def test_sums_past_fsum_take_the_exact_integer_path(self, monkeypatch):
        calls = []
        exact = model._exact_integers
        monkeypatch.setattr(model, "_exact_integers", lambda v: calls.append(v) or exact(v))
        cases = ([MAX, MAX], [2.0 ** 1000, 1.0, 2.0 ** -1000])
        for values in cases:
            assert exact_mean(values) == exact_mean_stddev_oracle(values)[0]
        assert calls == list(cases)
        assert exact_mean([MAX, -MAX, MAX]) == MAX / 3 and exact_mean([0.1] * 9) == 0.1
        assert len(calls) == 2

    @pytest.mark.parametrize("values", [[], [float("nan")], [1.0, float("inf")],
                                        [float("-inf"), 2.0, 3.0],
                                        [float("inf"), float("-inf")]], ids=repr)
    def test_no_values_or_non_finite_values_rejected(self, values):
        with pytest.raises(ValueError):
            exact_mean(values)
