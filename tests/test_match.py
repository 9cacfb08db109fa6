import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resselect.match as match_module
import resselect.model as model_module
import resselect.plan as plan_module
from resselect import (
    Capability,
    ConsumableSpec,
    EmptyTaskError,
    EmptyViableSetError,
    Instruction,
    Requirement,
    ResourceSpec,
    TaskSpec,
    aggregate,
    res_select,
    satisfy_req,
    viable_set,
)
from resselect.codec import VIABLE_SET
from resselect.plan import Assignment

from conftest import (
    VALUES,
    matching_resource,
    random_capability,
    random_consumable,
    random_requirement,
    random_resource,
    random_sequenced_task,
)
from oracles import first_argmax_oracle, satisfy_req_oracle, satisfy_task_oracle


def c(name, **form):
    return ConsumableSpec(name, {a: frozenset(v) for a, v in form.items()})


class TestSatisfyReq:
    def test_superset_capability_form_matches(self):
        req = Requirement(c("x86cyc", isa=["x86"]), 1)
        cap = Capability(c("x86cyc", isa=["x86"], vendor=["intel", "amd"]), 1)
        assert satisfy_req(req, cap)

    def test_type_mismatch_short_circuits(self):
        req = Requirement(c("cycles"), 1)
        cap = Capability(c("bytes"), 1)
        assert not satisfy_req(req, cap)

    def test_empty_condition_intersection_fails(self):
        req = Requirement(c("cyc", simd=["sse4.1", "avx"]), 1)
        cap = Capability(c("cyc", simd=["avx2"]), 1)
        assert not satisfy_req(req, cap)
        # oracle enumerates all value pairs
        assert not satisfy_req_oracle(req, cap)

    def test_missing_attribute_in_capability_fails(self):
        req = Requirement(c("cyc", isa=["x86"]), 1)
        cap = Capability(c("cyc"), 1)
        assert not satisfy_req(req, cap)

    def test_requirement_without_form_matches_any_same_type(self):
        req = Requirement(c("cyc"), 1)
        cap = Capability(c("cyc", isa=["arm"]), 1)
        assert satisfy_req(req, cap)

    def test_numeric_vs_string_values_never_match(self):
        req = Requirement(c("cyc", width=[64]), 1)
        cap = Capability(c("cyc", width=["64"]), 1)
        assert not satisfy_req(req, cap)

    @settings(max_examples=200)
    @given(st.integers(0, 10**9))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        req = random_requirement(rng)
        cap = random_capability(rng)
        assert satisfy_req(req, cap) == satisfy_req_oracle(req, cap)

    @settings(max_examples=100)
    @given(st.integers(0, 10**9))
    def test_monotone_in_capability_conditions(self, seed):
        rng = random.Random(seed)
        req = random_requirement(rng)
        cap = random_capability(rng)
        if not satisfy_req(req, cap):
            return
        # enlarging any capability condition set keeps the match
        enlarged_form = {
            a: vs | {rng.choice(VALUES)} for a, vs in cap.consumable.form.items()
        }
        bigger = Capability(
            ConsumableSpec(cap.consumable.ctype, enlarged_form), cap.rate
        )
        assert satisfy_req(req, bigger)
        # removing a requirement form attribute keeps the match
        for attr in req.consumable.form:
            smaller_form = {
                a: vs for a, vs in req.consumable.form.items() if a != attr
            }
            smaller = Requirement(
                ConsumableSpec(req.consumable.ctype, smaller_form), req.amount
            )
            assert satisfy_req(smaller, cap)


class TestSatisfyTask:
    """A resource runs a task iff the task is viable on it alone."""

    def test_no_matching_capability(self):
        task = TaskSpec("t", requirements=(Requirement(c("gpu"), 1),))
        res = ResourceSpec("r", (Capability(c("cpu"), 1),))
        assert not viable_set(task, [res]).resource_ids

    def test_full_cover(self):
        a, b = c("A"), c("B")
        task = TaskSpec("t", requirements=(Requirement(a, 1), Requirement(b, 1)))
        res = ResourceSpec("r", (Capability(a, 1), Capability(b, 1)))
        assert viable_set(task, [res]).resource_ids

    def test_partial_cover_fails(self):
        a, b = c("A"), c("B")
        task = TaskSpec("t", requirements=(Requirement(a, 1), Requirement(b, 1)))
        res = ResourceSpec("r", (Capability(a, 1),))
        assert not viable_set(task, [res]).resource_ids

    @settings(max_examples=200)
    @given(st.integers(0, 10**9))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        task = aggregate(random_sequenced_task(rng))
        res = random_resource(rng)
        assert bool(viable_set(task, [res]).resource_ids) == satisfy_task_oracle(
            task.requirements, res.capabilities
        )

    @settings(max_examples=100)
    @given(st.integers(0, 10**9))
    def test_adding_capability_never_breaks_satisfaction(self, seed):
        rng = random.Random(seed)
        task = aggregate(random_sequenced_task(rng))
        res = random_resource(rng)
        if viable_set(task, [res]).resource_ids:
            grown = ResourceSpec(
                "r", res.capabilities + (random_capability(rng),)
            )
            assert viable_set(task, [grown]).resource_ids


class TestViableSet:
    def _pool(self):
        x = c("x")
        yes = lambda rid: ResourceSpec(rid, (Capability(x, 1),))
        no = lambda rid: ResourceSpec(rid, (Capability(c("y"), 1),))
        task = TaskSpec("t", requirements=(Requirement(x, 1),))
        return task, yes, no

    def test_empty_result_is_valid(self):
        task, _, no = self._pool()
        vs = viable_set(task, [no("r1"), no("r2")])
        assert vs.resource_ids == ()
        assert VIABLE_SET.encode(vs) == {"task_id": "t", "viable": []}

    def test_filter_preserves_pool_order(self):
        task, yes, no = self._pool()
        vs = viable_set(task, [yes("r1"), no("r2"), yes("r3")])
        assert vs.resource_ids == ("r1", "r3")

    def test_single_resource_pool(self):
        task, yes, _ = self._pool()
        assert viable_set(task, [yes("r1")]).resource_ids == ("r1",)

    def test_empty_instructions_raise_where_the_task_is_built(self):
        with pytest.raises(EmptyTaskError, match="task must have at least one instruction"):
            TaskSpec("t", instructions=())
        task, _, _ = self._pool()
        sequenced = TaskSpec("t", instructions=(Instruction(task.requirements),))
        for t in (task, sequenced):  # an empty pool runs nothing
            assert viable_set(t, [], {}).resource_ids == ()

    @settings(max_examples=100)
    @given(st.integers(0, 10**9))
    def test_shared_masks_match_oracle(self, seed):
        """A bag of tasks in both forms, whose consumables repeat across
        instructions and tasks and spell a number as 2 or 2.0, matched
        against one pool through one mask dict."""
        rng = random.Random(seed)

        def respelled(consumable):  # an equal consumable, its ints written as floats
            return ConsumableSpec(consumable.ctype, {
                a: frozenset(float(v) if isinstance(v, int) else v for v in vs)
                for a, vs in consumable.form.items()})

        palette = [random_consumable(rng) for _ in range(rng.randint(1, 6))]
        palette.append(ConsumableSpec(rng.choice(["cyc", "op"]), {"simd": frozenset([2])}))
        tasks = []
        for k in range(rng.randint(1, 12)):
            task = random_sequenced_task(rng, f"t{k}", max_instructions=4)
            reqs = [Requirement(rng.choice(palette), rng.uniform(0.1, 10.0))
                    for _ in range(rng.randint(1, 4))]
            spelled = [Requirement(respelled(r.consumable), r.amount) for r in reqs]
            stream = task.instructions + (Instruction(reqs), Instruction(spelled))
            tasks.append(TaskSpec(task.task_id, instructions=stream) if rng.random() < 0.5 else
                         TaskSpec(task.task_id, requirements=[
                             r for ins in stream for r in ins.requirements]))
        pool = []
        for i in range(rng.randint(1, 8)):
            if rng.random() < 0.5:
                res = matching_resource(rng, rng.choice(tasks), f"r{i}")
            else:
                res = random_resource(rng, f"r{i}", max_caps=6)
            caps = [Capability(respelled(cap.consumable), cap.rate) if rng.random() < 0.5
                    else cap for cap in res.capabilities]
            caps += [Capability(rng.choice(palette), 1.0)] * rng.randint(0, 2)
            pool.append(ResourceSpec(res.resource_id, caps))

        masks, consumables = {}, set()
        for task in tasks:
            reqs = task.requirements or [r for ins in task.instructions for r in ins.requirements]
            consumables.update(r.consumable for r in reqs)
            expected = tuple(r.resource_id for r in pool
                             if satisfy_task_oracle(reqs, r.capabilities))
            assert viable_set(task, pool, masks).resource_ids == expected
        assert set(masks) == consumables  # one mask per distinct consumable


def ttcs(*values):
    """One candidate per TTC, in order, named r0, r1, ..."""
    return [Assignment(f"r{i}", 0.0, float(v)) for i, v in enumerate(values)]


class TestResSelect:
    def test_smallest_ttc(self):
        assert res_select(ttcs(10, 5, 20)).resource_id == "r1"

    def test_first_wins_ties(self):
        assert res_select(ttcs(3, 3, 1, 1)).resource_id == "r2"

    def test_single_candidate(self):
        assert res_select(ttcs(0.0)).resource_id == "r0"

    def test_empty_viable_set_is_typed_error(self):
        with pytest.raises(EmptyViableSetError, match="empty viable set"):
            res_select([])

    def test_ranks_by_the_sum_not_its_parts(self):
        # equal TTCs from different splits of queue wait and execution time
        waits_less, runs_less = Assignment("a", 50.0, 100.0), Assignment("b", 100.0, 50.0)
        assert res_select([waits_less, runs_less]) is waits_less
        assert res_select([runs_less, waits_less]) is runs_less

    def test_overflowing_ttc_skipped(self):
        inf = Assignment("inf", 1e308, 1e308)
        assert res_select([inf, *ttcs(5.0), inf]).resource_id == "r0"

    def test_all_overflowing_returns_first(self):
        first, second = Assignment("a", 1e308, 1e308), Assignment("b", 1e308, 1e308)
        assert res_select([first, second]) is first

    @settings(max_examples=200)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=8))
    def test_matches_first_argmax_oracle(self, values):
        candidates = ttcs(*(-v for v in values))
        assert res_select(candidates) is candidates[first_argmax_oracle(values)]

    @settings(max_examples=100)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8, unique=True),
           st.randoms(use_true_random=False))
    def test_permutation_covariance_unique_min(self, values, rnd):
        candidates = ttcs(*values)
        chosen = res_select(candidates)
        rnd.shuffle(candidates)
        assert res_select(candidates) is chosen


def test_bench_patch_points_keep_their_names():
    # the traced bench wraps res_select where plan looks it up and aggregate
    # where match imports it, so both names must stay in those namespaces
    assert plan_module.res_select is res_select
    assert match_module.aggregate is model_module.aggregate
