import copy
import functools
import inspect
import json
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resselect.match as match_module
import resselect.plan as plan_module
import resselect.queuewait as queuewait_module
from resselect import (
    BaselineProfile,
    Capability,
    ClockSpec,
    Config,
    ConsumableSpec,
    Instruction,
    QueueWaitRecord,
    QueueWaitStore,
    Requirement,
    ResourceSpec,
    TaskSpec,
    WorkloadSpec,
    aggregate,
    plan_model,
    plan_random,
    viable_set,
)
from resselect.match import EmptyViableSetError
from resselect.codec import PLAN, WORKLOAD
from resselect.model import canonical_dumps, mean_and_stddev
from resselect.plan import (Assignment, MissingClockError, SelectionPlan, TtcRangeError,
                            task_estimates)
from resselect.predict import UnknownTaskError, profiles_by_task
from resselect.queuewait import (DEFAULT_BUCKETS, DEFAULT_WINDOW_S, NoQueueHistoryError,
                                 QueueQueries, SimilarityBuckets, _bucket_bounds)

from conftest import task_ids, workload_of
from oracles import (canonical_dumps_oracle, exact_mean_stddev_oracle, first_argmax_oracle,
                     queue_filter_oracle)

NOW = 1_700_000_000.0
DAY = 86400.0
X86 = ConsumableSpec("x86_cycle", {"isa": frozenset(["x86"])})


def make_workload(n_tasks, amount=1e13, workload_id="w"):
    tasks = (TaskSpec(f"t-{i:04d}", requirements=(Requirement(X86, amount),))
             for i in range(n_tasks))
    return workload_of(workload_id, tasks)


def make_pool(rates):
    return [
        ResourceSpec(rid, (Capability(X86, rate),)) for rid, rate in rates.items()
    ]


def make_profiles(pred_cycles=1e13, task_id="prof"):
    return [
        BaselineProfile(task_id, 1000, pred_cycles, pred_cycles / 2.0, 2.0,
                        2.5e9, pred_cycles / 2.0 / 2.5e9)
    ]


def make_store(waits_by_machine):
    records = []
    for machine, waits in waits_by_machine.items():
        for i, w in enumerate(waits):
            records.append(
                QueueWaitRecord(machine, "default", NOW - 3600 * (i + 1), w, 7200.0, 1)
            )
    return QueueWaitStore(records)


def base_config(**kwargs):
    return Config(default_profile="prof", **kwargs)


CLOCKS = {
    "rA": ClockSpec("rA", 2.0e9, 3.0e9),
    "rB": ClockSpec("rB", 2.5e9, 3.0e9),
}


class TestPlanModel:
    def test_argmin_ttc_assignment(self):
        # rA: tq 400 + tx 5000 = 5400; rB: tq 1000 + tx 4000 = 5000 -> rB
        plan = plan_model(
            make_workload(2),
            make_pool({"rA": 2.0e9, "rB": 2.5e9}),
            make_profiles(),
            CLOCKS,
            make_store({"rA": [400.0], "rB": [1000.0]}),
            base_config(),
            now=NOW,
        )
        assert all(a.resource_id == "rB" for a in plan.assignments.values())
        est = plan.assignments["t-0000"]
        assert est.ttc_s == est.tq_s + est.tx_s == 5000.0

    def test_dominating_resource_takes_all_tasks(self):
        plan = plan_model(
            make_workload(16),
            make_pool({"rA": 2.0e9, "rB": 2.5e9}),
            make_profiles(),
            CLOCKS,
            make_store({"rA": [4000.0], "rB": [100.0]}),
            base_config(),
            now=NOW,
        )
        assert {a.resource_id for a in plan.assignments.values()} == {"rB"}
        assert plan.resource_requests["rB"]["task_count"] == 16

    def test_ttc_tie_goes_to_pool_order(self):
        # equal rates and waits: identical ttc, first pool resource wins
        clocks = {
            "rA": ClockSpec("rA", 2.5e9, 3.0e9),
            "rB": ClockSpec("rB", 2.5e9, 3.0e9),
        }
        plan = plan_model(
            make_workload(1),
            make_pool({"rA": 2.5e9, "rB": 2.5e9}),
            make_profiles(),
            clocks,
            make_store({"rA": [400.0], "rB": [400.0]}),
            base_config(),
            now=NOW,
        )
        assert plan.assignments["t-0000"].resource_id == "rA"

    def test_overflowing_ttc_raises_beside_a_finite_one(self):
        # rA's wait and time are each finite, their sum is not; rB's is 5000
        clocks = {"rA": ClockSpec("rA", 1e-280, 1e-280), "rB": CLOCKS["rB"]}
        store = make_store({"rA": [sys.float_info.max], "rB": [1000.0]})
        with pytest.raises(TtcRangeError, match="resource 'rA'"):
            plan_model(make_workload(1), make_pool({"rA": 2.0e9, "rB": 2.5e9}), make_profiles(),
                       clocks, store, base_config(), now=NOW)

    def test_empty_viable_set_names_task(self):
        pool = [ResourceSpec("r", (Capability(ConsumableSpec("gpu"), 1e9),))]
        with pytest.raises(EmptyViableSetError, match="t-0000"):
            plan_model(make_workload(1), pool, make_profiles(), CLOCKS,
                       make_store({"r": [1.0]}), base_config(), now=NOW)

    def test_missing_profile_names_gap(self):
        with pytest.raises(UnknownTaskError, match="no baseline profile"):
            plan_model(
                make_workload(1),
                make_pool({"rA": 2.0e9}),
                make_profiles(task_id="other"),
                CLOCKS,
                make_store({"rA": [1.0]}),
                base_config(),
                now=NOW,
            )

    def test_missing_queue_history_names_gap(self):
        with pytest.raises(NoQueueHistoryError, match="rA"):
            plan_model(
                make_workload(1),
                make_pool({"rA": 2.0e9}),
                make_profiles(),
                CLOCKS,
                make_store({"unrelated": [1.0]}),
                base_config(),
                now=NOW,
            )

    def test_model_plan_is_optimal_by_rescan(self):
        pool = make_pool({"rA": 2.0e9, "rB": 2.5e9})
        store = make_store({"rA": [400.0, 600.0], "rB": [900.0, 1100.0]})
        plan = plan_model(make_workload(8), pool, make_profiles(), CLOCKS, store,
                          base_config(), now=NOW)
        ttcs = {"rA": 500.0 + 1e13 / 2.0e9, "rB": 1000.0 + 1e13 / 2.5e9}
        best = min(ttcs.values())
        for a in plan.assignments.values():
            assert a.ttc_s == pytest.approx(best)
            assert all(a.ttc_s <= ttcs[rid] for rid in ttcs)

    def test_plan_completeness_and_requests(self):
        wl = make_workload(10)
        plan = plan_model(wl, make_pool({"rA": 2.0e9}), make_profiles(), CLOCKS,
                          make_store({"rA": [100.0]}), base_config(), now=NOW)
        assert set(plan.assignments) == set(task_ids(wl))
        req = plan.resource_requests["rA"]
        assert req["cores"] == 10
        assert req["max_walltime_s"] == pytest.approx(1e13 / 2.0e9 * 1.5)

    def test_max_frequency_choice(self):
        plan = plan_model(
            make_workload(1), make_pool({"rA": 2.0e9}), make_profiles(), CLOCKS,
            make_store({"rA": [100.0]}), base_config(frequency_choice="max"), now=NOW,
        )
        assert plan.assignments["t-0000"].tx_s == pytest.approx(1e13 / 3.0e9)


class TestPlanRandom:
    POOL = make_pool({"rA": 1e9, "rB": 1e9, "rC": 1e9, "rD": 1e9})

    def test_single_resource_pool(self):
        plan = plan_random(make_workload(5), make_pool({"only": 1e9}), seed=3)
        assert {a.resource_id for a in plan.assignments.values()} == {"only"}

    def test_same_seed_identical_plans(self):
        p1 = plan_random(make_workload(50), self.POOL, seed=11)
        p2 = plan_random(make_workload(50), self.POOL, seed=11)
        assert p1 == p2
        assert p1.rng_seed == 11

    def test_different_seeds_usually_differ(self):
        p1 = plan_random(make_workload(50), self.POOL, seed=1)
        p2 = plan_random(make_workload(50), self.POOL, seed=2)
        assert p1.assignments != p2.assignments

    def test_assignments_stay_in_viable_set(self):
        # rD cannot run the tasks; it must never be assigned
        pool = self.POOL[:3] + [
            ResourceSpec("rD", (Capability(ConsumableSpec("gpu"), 1e9),))
        ]
        for seed in range(10):
            plan = plan_random(make_workload(20), pool, seed=seed)
            assert all(
                a.resource_id in {"rA", "rB", "rC"}
                for a in plan.assignments.values()
            )

    def test_uniformity_binomial_bound(self):
        plan = plan_random(make_workload(1024), self.POOL, seed=97)
        counts = {}
        for a in plan.assignments.values():
            counts[a.resource_id] = counts.get(a.resource_id, 0) + 1
        sigma = math.sqrt(1024 * 0.25 * 0.75)
        for rid in ("rA", "rB", "rC", "rD"):
            assert abs(counts.get(rid, 0) - 256) <= 4 * sigma

    def test_empty_viable_set_rejected(self):
        pool = [ResourceSpec("r", (Capability(ConsumableSpec("gpu"), 1e9),))]
        with pytest.raises(EmptyViableSetError):
            plan_random(make_workload(1), pool, seed=0)


class TestPlanSerialization:
    def test_round_trip(self):
        plan = plan_model(
            make_workload(3), make_pool({"rA": 2.0e9}), make_profiles(), CLOCKS,
            make_store({"rA": [100.0]}), base_config(), now=NOW,
        )
        again = PLAN.decode(plan.to_json())
        assert again.workload_id == plan.workload_id
        assert again.strategy == "model"
        for task_id, a in plan.assignments.items():
            b = again.assignments[task_id]
            assert b.resource_id == a.resource_id
            assert b.ttc_s == a.ttc_s

    @pytest.mark.parametrize("times", [{"tq_s": 1.0}, {"tx_s": 1.0}])
    def test_estimate_needs_both_times(self, times):
        with pytest.raises(ValueError, match="^tq_s and tx_s must be given together$"):
            Assignment("r", **times)
        assert Assignment("r").ttc_s is None
        assert Assignment("r", 1.0, 2.5).ttc_s == 3.5

    @pytest.mark.parametrize("times,name", [
        ((math.nan, 1.0), "tq_s"), ((1.0, -math.inf), "tx_s"),
        ((1.0, math.inf, math.nan), "tx_s"), ((1.0, 1.0, math.nan), "walltime_s")])
    def test_times_must_be_finite(self, times, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            Assignment("r", *times)

    def test_random_plan_round_trip_keeps_seed(self):
        plan = plan_random(make_workload(3), make_pool({"rA": 1e9}), seed=5)
        again = PLAN.decode(plan.to_json())
        assert again.rng_seed == 5
        assert again.assignments["t-0000"].ttc_s is None


# --- per-kind dedupe: a bag with repeated kinds, planned against a per-task rescan

ARM = ConsumableSpec("arm_cycle", {"isa": frozenset(["arm"])})
MEM = ConsumableSpec("byte")


def kinds_bag(config=None):
    """24 tasks, interleaved by id, in four (viable set, profile id) pairs
    and four kinds.  Pair x86-p1 mixes tasks given as requirements with
    tasks given as two instructions that aggregate to the same requirements,
    which are a kind of their own; the kind of the x86 requirements holds
    tasks of both profiles.  ``config`` is kept but for its
    ``profile_overrides``."""
    x86 = (Requirement(X86, 1e13),)
    x86_split = (Instruction((Requirement(X86, 4e12),)), Instruction((Requirement(X86, 6e12),)))
    x86_mem = (Requirement(X86, 5e12), Requirement(MEM, 1e9))
    arm = (Requirement(ARM, 2e13),)
    tasks, overrides = [], {}
    for i in range(24):
        task_id = f"t-{(i * 7) % 24:03d}"
        kind = i % 4
        if kind == 0:
            tasks.append(TaskSpec(task_id, instructions=x86_split) if i % 8 else
                         TaskSpec(task_id, requirements=x86))
        elif kind == 1:
            tasks.append(TaskSpec(task_id, requirements=x86))
        elif kind == 2:
            tasks.append(TaskSpec(task_id, requirements=x86_mem))
        else:
            tasks.append(TaskSpec(task_id, requirements=arm))
        overrides[task_id] = "p1" if kind in (0, 2) else "p2"
    pool = [
        ResourceSpec("rA", (Capability(X86, 2.0e9),)),
        ResourceSpec("rB", (Capability(X86, 2.5e9), Capability(MEM, 1e9))),
        ResourceSpec("rC", (Capability(ARM, 2.0e9), Capability(MEM, 1e9))),
        ResourceSpec("rD", (Capability(X86, 3.0e9),)),
    ]
    clocks = {rid: ClockSpec(rid, hz, hz * 1.2) for rid, hz in
              (("rA", 2.0e9), ("rB", 2.5e9), ("rC", 2.0e9), ("rD", 3.0e9))}
    profiles = make_profiles(1e13, "p1") + make_profiles(2e13, "p2")
    records = [
        QueueWaitRecord(machine, "default", NOW - 3600 * (i + 1), wait, walltime, 1)
        for machine in ("rA", "rB", "rC", "rD")
        for i, (wait, walltime) in enumerate([(300.0, 7200.0), (9000.0, 20000.0),
                                              (5000.0, 50000.0), (700.0, 7200.0)])
    ]
    config = Config(**{**vars(config or Config()), "profile_overrides": overrides})
    store = QueueWaitStore(records)
    return workload_of("bag", tasks), pool, profiles, clocks, store, config


def shared_queues_config():
    """`kinds_bag`'s x86 resources on one queue, with walltime buckets that
    hold no job for two of the three buckets that queue is asked (7500 s and
    15000 s on rA; 6000 s on rB and 5000 s on rD share the third), nor for
    rC's 15000 s."""
    return Config(resource_queues={"rB": ("rA", "default"), "rD": ("rA", "default")},
                  buckets=SimilarityBuckets((7300.0, 14000.0, 16000.0),
                                            DEFAULT_BUCKETS.cores_edges))


class TestPlanErrorMessages:
    """Each planning error says what is wrong in the words the CLI prints
    after the file name, and carries no ids for a caller to reword."""

    def plan(self, pool=None, profiles=None, clocks=CLOCKS, store=None, now=NOW):
        return plan_model(make_workload(1), pool or make_pool({"rA": 2.0e9}),
                          profiles or make_profiles(), clocks,
                          store or make_store({"rA": [1.0]}), base_config(), now=now)

    def raised(self, error, **kwargs):
        with pytest.raises(error) as caught:
            self.plan(**kwargs)
        assert not hasattr(caught.value, "task_id")
        assert not hasattr(caught.value, "resource_id")
        return caught.value

    def test_empty_viable_set(self):
        pool = [ResourceSpec("r", (Capability(ConsumableSpec("gpu"), 1e9),))]
        exc = self.raised(EmptyViableSetError, pool=pool)
        assert str(exc) == "no resource can run task 't-0000'"

    def test_unknown_task(self):
        exc = self.raised(UnknownTaskError, profiles=make_profiles(task_id="other"))
        assert str(exc) == "no baseline profile 'prof' for task 't-0000'"

    def test_missing_clock(self):
        exc = self.raised(MissingClockError, clocks={})
        assert str(exc) == "no clock for resource 'rA'"

    def test_ttc_range(self):
        exc = self.raised(TtcRangeError, clocks={"rA": ClockSpec("rA", 1e-280, 1e-280)},
                          store=make_store({"rA": [sys.float_info.max]}))
        assert str(exc) == (f"no finite TTC: a {sys.float_info.max:g} s queue wait plus the "
                            f"{1e13 / 1e-280:g} s that resource 'rA' takes at its base clock")

    def test_no_queue_history(self):
        exc = self.raised(NoQueueHistoryError, store=make_store({"unrelated": [1.0]}))
        assert str(exc) == ("no queue history for machine 'rA' queue 'default' "
                            "in the past 604800 s, for resource 'rA'")
        assert isinstance(exc.__cause__, NoQueueHistoryError)

    def test_no_queue_history_after_a_window(self):
        """A queue without history names its resource also when another
        queue's window was opened first."""
        exc = self.raised(NoQueueHistoryError, pool=make_pool({"rA": 2.0e9, "rB": 2.0e9}),
                          store=make_store({"rA": [1.0]}))
        assert str(exc) == ("no queue history for machine 'rB' queue 'default' "
                            "in the past 604800 s, for resource 'rB'")

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf], ids=repr)
    def test_now_not_finite(self, now):
        exc = self.raised(ValueError, now=now, store=make_store({"unrelated": [1.0]}))
        assert str(exc) == f"now must be finite, got {now!r}"


def rescan_model_plan(workload, pool, profiles, clocks, store, config):
    """The model plan the slow way: every task matched, estimated and
    selected on its own."""
    by_task = profiles_by_task(profiles)
    assignments, requests = {}, {}
    for task_id, task in each_task(workload):
        ids = viable_set(task, pool).resource_ids
        if not ids:
            raise EmptyViableSetError(f"no resource can run task {task_id!r}")
        estimates = task_estimates(task_id, ids, by_task, clocks, queries_of(store, config),
                                   config)
        best = estimates[first_argmax_oracle([-e.ttc_s for e in estimates])]
        assignments[task_id] = best
        entry = requests.setdefault(
            best.resource_id, {"task_count": 0, "cores": 0, "max_walltime_s": None})
        entry["task_count"] += 1
        entry["cores"] += config.cores_per_task
        entry["max_walltime_s"] = max(best.walltime_s, entry["max_walltime_s"] or 0.0)
    return SelectionPlan(workload.workload_id, "model", assignments, requests)


def queries_of(store, config):
    """A fresh `QueueQueries` for ``config``'s queries at ``NOW``."""
    return QueueQueries(store, NOW, config.window_s, config.cores_per_task, config.buckets)


def rescan_random_draws(workload, pool, seed):
    """Each task's drawn resource id, the slow way: ``Random(seed).choice``
    over each task's viable ids, in task-id order."""
    rng, drawn = random.Random(seed), {}
    for task_id, task in each_task(workload):
        ids = viable_set(task, pool).resource_ids
        if not ids:
            raise EmptyViableSetError(f"no resource can run task {task_id!r}")
        drawn[task_id] = rng.choice(ids)
    return drawn


def each_task(workload):
    """Each task's id and the task of its kind, in id order."""
    return sorted((i, task) for task, ids in workload.kinds for i in ids)


def bodies(workload):
    """Each task's id and body, in id order."""
    return [(i, t.instructions, t.requirements) for i, t in each_task(workload)]


def split(workload):
    """``workload`` with every task a kind of its own, its body rebuilt as
    objects of its own, equal to the original ones."""
    return WorkloadSpec(workload.workload_id, tuple(
        (TaskSpec(i, requirements=[Requirement(r.consumable, r.amount) for r in t.requirements])
         if t.instructions is None else
         TaskSpec(i, instructions=[Instruction(x.requirements) for x in t.instructions]), (i,))
        for i, t in each_task(workload)))


def spy_matching(monkeypatch):
    """Record the calls of `viable_set` from the planner, and of
    `satisfy_req` and `aggregate` from matching."""
    return (counted(monkeypatch, plan_module, "viable_set"),
            counted(monkeypatch, match_module, "satisfy_req"),
            counted(monkeypatch, match_module, "aggregate"))


def assert_matched_per_consumable(calls, workload, pool):
    """Check the matching ``calls`` of one plan call of ``workload``, then
    empty them for the next: `viable_set` ran once per kind, on its task,
    with one mask dict, `satisfy_req` at most once per (distinct
    consumable, pool capability) pair, and `aggregate` never."""
    matched, satisfied, aggregated = calls
    assert [id(c["task"]) for c in matched] == [id(task) for task, _ in workload.kinds]
    assert len({id(c["masks"]) for c in matched}) == 1
    pairs = Counter((c["req"].consumable, id(c["cap"])) for c in satisfied)
    assert set(pairs.values()) == {1}
    assert {cap for _, cap in pairs} <= {id(cap) for r in pool for cap in r.capabilities}
    assert {consumable for consumable, _ in pairs} == {
        req.consumable for t, _ in workload.kinds for req in aggregate(t).requirements}
    assert aggregated == []
    for calls_of_one_plan in calls:
        calls_of_one_plan.clear()


def counted(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that records each call's bound
    arguments, and under ``"returned"`` what it returned, in the returned
    list."""
    original = getattr(owner, name)
    signature = inspect.signature(original)
    calls = []

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        call = signature.bind(*args, **kwargs).arguments
        calls.append(call)
        call["returned"] = original(*args, **kwargs)
        return call["returned"]

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def bucketed(call, config):
    """A counted `QueueQueries.mean_wait` or `waits` call under ``config``
    as (its window's machine/queue, walltime bounds, cores bounds)."""
    b = config.buckets
    return (call["machine"] + "/" + call["queue"],
            _bucket_bounds(b.walltime_edges_s, call["walltime_req_s"]),
            _bucket_bounds(b.cores_edges, config.cores_per_task))


class TestKindDedupe:
    def test_model_plan_equals_per_task_rescan(self):
        args = kinds_bag()
        plan = plan_model(*args, now=NOW)
        expected = rescan_model_plan(*args)
        assert canonical_dumps(PLAN.encode(plan)) == canonical_dumps(PLAN.encode(expected))
        assert plan == expected  # also the task ids and walltimes the file does not carry
        assert {a.resource_id for a in plan.assignments.values()} >= {"rC"}

    def test_random_plan_equals_per_task_rescan(self):
        workload, pool = kinds_bag()[:2]
        expected = rescan_random_draws(workload, pool, 7)
        plan = plan_random(workload, pool, seed=7)
        assert {t: a.resource_id for t, a in plan.assignments.items()} == expected

    @pytest.mark.parametrize("shared", [False, True], ids=["own-queues", "shared-queues"])
    def test_each_kind_and_query_is_computed_once(self, monkeypatch, shared):
        """One window per (machine, queue), one mean per distinct bucketed
        query and at most one whole-window mean per window, and no stddev.
        With ``shared``, three resources use one queue and the walltime
        buckets leave two of its queries without a similar job."""
        args = kinds_bag(shared_queues_config() if shared else None)
        workload, pool, _, _, store, config = args
        rescan_queries = counted(monkeypatch, QueueQueries, "mean_wait")
        rescan_model_plan(*args)
        distinct = {bucketed(c, config) for c in rescan_queries}
        assert len(rescan_queries) > len(distinct)  # the rescan repeats queries

        predicted = counted(monkeypatch, plan_module, "predict_sequential_cycles")
        windows = counted(monkeypatch, QueueQueries, "_window")
        computed = counted(monkeypatch, QueueQueries, "waits")
        means = counted(monkeypatch, queuewait_module, "exact_mean")
        stddevs = counted(monkeypatch, queuewait_module, "mean_and_stddev")
        matching = spy_matching(monkeypatch)
        held = copy.deepcopy(vars(store))
        plan_model(*args, now=NOW)
        assert_matched_per_consumable(matching, workload, pool)
        assert len(predicted) == 4  # (requirement set, profile id) kinds
        queues = sorted(c["machine"] + "/" + c["queue"] for c in windows)
        assert queues == sorted({q for q, _, _ in distinct})
        assert queues == (["rA/default", "rC/default"] if shared else
                          ["rA/default", "rB/default", "rC/default", "rD/default"])
        assert sorted(bucketed(c, config) for c in computed) == sorted(distinct)
        fell_back = [(c["machine"], c["queue"]) for c in computed if c["returned"][1]]
        assert len(means) == len(computed) - len(fell_back) + len(set(fell_back))
        assert (len(fell_back), len(set(fell_back))) == ((3, 2) if shared else (0, 0))
        assert stddevs == []  # the planner reads means only
        assert vars(store) == held  # the store keeps nothing of the plan call

        plan_random(workload, pool, seed=3)
        assert_matched_per_consumable(matching, workload, pool)

    @pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "split"])
    def test_each_kind_is_matched_once(self, monkeypatch, grouped):
        """A kind is matched once per plan call however many tasks it
        holds, and equal bodies in kinds of their own match each consumable
        against the pool only once between them."""
        args = kinds_bag()
        workload = args[0] if grouped else split(args[0])
        assert len(workload.kinds) == (4 if grouped else 24)
        matching = spy_matching(monkeypatch)
        plan_model(workload, *args[1:], now=NOW)
        assert_matched_per_consumable(matching, workload, args[1])
        plan_random(workload, args[1], seed=3)
        assert_matched_per_consumable(matching, workload, args[1])

    def test_grouped_and_split_kinds_plan_the_same(self):
        args = kinds_bag()
        workload, pool = args[:2]
        copy = split(workload)
        assert bodies(copy) == bodies(workload)
        assert not ({id(t.requirements or t.instructions) for t, _ in workload.kinds}
                    & {id(t.requirements or t.instructions) for t, _ in copy.kinds})
        expected = canonical_dumps(PLAN.encode(rescan_model_plan(*args)))
        drawn = rescan_random_draws(workload, pool, 7)
        for bag in (workload, copy):
            assert canonical_dumps(PLAN.encode(plan_model(bag, *args[1:], now=NOW))) == expected
            plan = plan_random(bag, pool, seed=7)
            assert {t: a.resource_id for t, a in plan.assignments.items()} == drawn
        assert (canonical_dumps(PLAN.encode(plan_random(workload, pool, seed=7)))
                == canonical_dumps(PLAN.encode(plan_random(copy, pool, seed=7))))

    def test_errors_name_the_first_task_of_a_kind(self):
        workload, pool, profiles, clocks, store, config = kinds_bag()
        p1_only = [p for p in profiles if p.task_id == "p1"]
        with pytest.raises(UnknownTaskError) as memo:
            plan_model(workload, pool, p1_only, clocks, store, config, now=NOW)
        with pytest.raises(UnknownTaskError) as rescan:
            rescan_model_plan(workload, pool, p1_only, clocks, store, config)
        assert str(memo.value) == str(rescan.value)
        assert "'t-001'" in str(memo.value)


PROFILE_NAMES = ["p1", "p2", "p3"] + [f"t-{i:02d}" for i in range(10)]


@st.composite
def pair_bags(draw):
    """`kinds_bag`'s pool, clocks and history with a small bag of up to four
    kinds (in some bags, one that no resource can run) whose task ids
    interleave, a ``default_profile`` or none, ``profile_overrides`` that
    may split a kind, and baseline profiles for all but up to two of the
    names these can give."""
    _, pool, _, clocks, store, _ = kinds_bag()
    bodies = [(Requirement(X86, 1e13),), (Requirement(X86, 5e12), Requirement(MEM, 1e9)),
              (Requirement(ARM, 2e13),), (Requirement(ConsumableSpec("gpu"), 1.0),)]
    n = draw(st.integers(1, 10))
    order = draw(st.permutations(range(n)))
    runnable = draw(st.sampled_from([2, 2, 2, 3]))  # the last body no resource can run
    kinds = draw(st.lists(st.integers(0, runnable), min_size=n, max_size=n))
    tasks = [TaskSpec(f"t-{order[i]:02d}", requirements=bodies[k]) for i, k in enumerate(kinds)]
    ids = [t.task_id for t in tasks]
    overrides = draw(st.dictionaries(st.sampled_from(ids), st.sampled_from(PROFILE_NAMES[:3])))
    config = Config(default_profile=draw(st.none() | st.sampled_from(PROFILE_NAMES[:3])),
                    profile_overrides=overrides)
    missing = draw(st.sets(st.sampled_from(PROFILE_NAMES), max_size=2))
    profiles = [p for i, name in enumerate(PROFILE_NAMES) if name not in missing
                for p in make_profiles(1e13 * (1 + i / 4), name)]
    return workload_of("bag", tasks), pool, profiles, clocks, store, config


def planned(plan, *args):
    """``plan(*args)``, or the `ValueError` it raised."""
    try:
        return plan(*args)
    except ValueError as exc:
        return exc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair_bags())
def test_pair_planner_equals_per_task_rescan(args):
    """Grouping a kind's tasks by (profile id, viable ids), with or without
    the default profile's shortcut, gives the per-task rescan's plan and
    bytes, or its error, naming the same task; so do the random draws."""
    workload, pool = args[:2]
    drawn = planned(rescan_random_draws, workload, pool, 5)
    plan = planned(plan_random, workload, pool, 5)
    if isinstance(drawn, ValueError):
        assert (type(plan), str(plan)) == (type(drawn), str(drawn))
    else:
        assert {i: a.resource_id for i, a in plan.assignments.items()} == drawn
    expected = planned(rescan_model_plan, *args)
    plan = planned(plan_model, *args, NOW)
    if isinstance(expected, ValueError):
        assert (type(plan), str(plan)) == (type(expected), str(expected))
        return
    assert plan == expected
    assert canonical_dumps(PLAN.encode(plan)) == canonical_dumps(PLAN.encode(expected))
    assert list(plan.assignments) == sorted(plan.assignments)


def test_random_draw_is_random_choice():
    """Each task's draw is ``Random(seed).choice`` over its viable ids, in
    task-id order, on viable sets of 1 to 9 resources, so that draws are
    rejected and drawn again, whether equal bodies are one kind or each
    task a kind of its own."""
    slot = lambda values: ConsumableSpec("slot", {"n": frozenset(values)})  # noqa: E731
    pool = [ResourceSpec(f"r{j}", (Capability(slot([j]), 1.0),)) for j in range(9)]
    needs = lambda size: (Requirement(slot(range(size)), 1.0),)  # noqa: E731 - r0 to r{size-1}
    tasks = [TaskSpec(f"t-{(i * 7) % 45:02d}", requirements=needs(i % 9 + 1)) for i in range(45)]
    workload = workload_of("w", tasks)
    assert len(workload.kinds) == 9
    sizes = {len(viable_set(t, pool).resource_ids) for t, _ in workload.kinds}
    assert sorted(sizes) == list(range(1, 10))
    for seed in range(300):
        expected = rescan_random_draws(workload, pool, seed)
        for bag in (workload, split(workload)):
            plan = plan_random(bag, pool, seed)
            assert {i: a.resource_id for i, a in plan.assignments.items()} == expected


class TestQueueWindows:
    """A planning call's `QueueQueries` gives every query the estimate of a
    fresh `QueueWaitStore.estimate_tq` call, on histories where many queries fall
    back: each queue's jobs ask for one or two walltimes and a few core
    counts, and in a plan several resources share one queue."""

    MACHINES = ("m0", "m1", "m2")

    def history(self, rng):
        """Up to 30 jobs per queue, some submitted after ``NOW`` or before
        its 7-day window, and one an hour before ``NOW``."""
        records = []
        for machine in self.MACHINES:
            walltimes = rng.sample([600.0, 7200.0, 20000.0, 100000.0], rng.randint(1, 2))
            ages = [3600.0] + [rng.uniform(-DAY, 9 * DAY) for _ in range(rng.randint(0, 29))]
            records += [QueueWaitRecord(machine, "q", NOW - age, float(rng.randint(0, 5000)),
                                        rng.choice(walltimes), rng.choice([1, 2, 16]))
                        for age in ages]
        rng.shuffle(records)
        return records

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 10**9))
    def test_window_estimates_equal_fresh_queries(self, seed):
        rng = random.Random(seed)
        records = self.history(rng)
        store = QueueWaitStore(records)
        window_s = rng.choice([DAY, DEFAULT_WINDOW_S])
        shared = {cores: QueueQueries(store, NOW, window_s, cores) for cores in (1, 2, 3, 16, 64)}
        for _ in range(40):
            query = (rng.choice(self.MACHINES), "q",
                     rng.choice([300.0, 600.0, 5000.0, 7200.0, 20000.0, 50000.0, 100000.0]),
                     rng.choice([1, 2, 3, 16, 64]))
            queries = shared[query[3]]
            try:
                fresh = store.estimate_tq(*query, NOW, window_s)
            except NoQueueHistoryError:
                with pytest.raises(NoQueueHistoryError):
                    queries.waits(*query[:3])
                with pytest.raises(NoQueueHistoryError):
                    queries.mean_wait(*query[:3])
                continue
            kept, fallback = queries.waits(*query[:3])
            mean, stddev = mean_and_stddev(kept)
            assert (mean, stddev, len(kept), fallback) == (
                fresh.mean_wait_s, fresh.sample_stddev_s, fresh.n_samples, fresh.fallback_used)
            in_window, same_bucket = queue_filter_oracle(records, *query, NOW, window_s,
                                                         DEFAULT_BUCKETS)
            waits = [r.wait_s for r in same_bucket or in_window]
            assert sorted(kept) == sorted(waits)
            assert (mean, stddev) == exact_mean_stddev_oracle(waits)
            assert (len(kept), fallback) == (len(waits), not same_bucket)
            mean = queries.mean_wait(*query[:3])
            assert math.copysign(1.0, mean) == 1.0 and mean == fresh.mean_wait_s

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 10**9))
    def test_plan_tq_is_the_fresh_estimate(self, seed):
        rng = random.Random(seed)
        store = QueueWaitStore(self.history(rng))
        rids = [f"r{i}" for i in range(6)]
        pool = make_pool({rid: 1e9 for rid in rids})
        clocks = {rid: ClockSpec(rid, hz, hz) for rid, hz in
                  zip(rids, rng.sample([0.5e9, 1e9, 1.5e9, 2e9, 2.5e9, 3e9, 4e9], 6))}
        profiles = [p for i in (1, 2, 3) for p in make_profiles(i * 1e13, f"p{i}")]
        config = Config(resource_queues={rid: (rng.choice(self.MACHINES), "q") for rid in rids},
                        profile_overrides={f"t-{i:04d}": f"p{i % 3 + 1}" for i in range(6)},
                        cores_per_task=rng.choice([1, 2, 16]))
        plan = plan_model(make_workload(6), pool, profiles, clocks, store, config, now=NOW)
        for a in plan.assignments.values():
            machine, queue = config.machine_queue(a.resource_id)
            assert a.tq_s == store.estimate_tq(machine, queue, a.walltime_s,
                                               config.cores_per_task, NOW).mean_wait_s
        by_task, shared = profiles_by_task(profiles), queries_of(store, config)
        for task_id in sorted(config.profile_overrides):
            assert (task_estimates(task_id, rids, by_task, clocks, shared, config)
                    == task_estimates(task_id, rids, by_task, clocks, queries_of(store, config),
                                      config))


def test_decoded_homogeneous_bag_plans_without_comparing_requirements(monkeypatch):
    """Decoded tasks of one body are one kind, so the planners match it
    once and never compare requirements or consumables."""
    body = {"requirements": [{"type": "x86_cycle", "form": {"isa": ["x86"]}, "amount": 1e13}]}
    workload = WORKLOAD.decode(
        {"workload_id": "w", "tasks": [{"task_id": f"t-{i:04d}", **body} for i in range(64)]})
    assert workload == make_workload(64)
    pool = make_pool({"rA": 2.0e9, "rB": 2.5e9})
    compared = [counted(monkeypatch, cls, "__eq__") for cls in (Requirement, ConsumableSpec)]
    plan_model(workload, pool, make_profiles(), CLOCKS,
               make_store({"rA": [400.0], "rB": [1000.0]}), base_config(), now=NOW)
    plan_random(workload, pool, seed=3)
    assert compared == [[], []]


def test_decoded_instruction_bag_matches_each_body_once(monkeypatch):
    """Decoded tasks of one instruction body are one kind, so each planner
    matches each distinct body once, matches its one consumable against
    each resource once, and aggregates nothing."""
    bodies = [{"instructions": [[{"type": "x86_cycle", "form": {"isa": ["x86"]}, "amount": a}],
                                [{"type": "x86_cycle", "form": {"isa": ["x86"]}, "amount": a}]]}
              for a in (1e12, 2e12, 3e12, 4e12)]
    workload = WORKLOAD.decode({"workload_id": "w", "tasks": [
        {"task_id": f"t-{i:04d}", **bodies[i % 4]} for i in range(64)]})
    assert len(workload.kinds) == 4
    args = (workload, make_pool({"rA": 2.0e9, "rB": 2.5e9}), make_profiles(), CLOCKS,
            make_store({"rA": [400.0], "rB": [1000.0]}), base_config())
    expected = rescan_model_plan(*args)
    matching = spy_matching(monkeypatch)
    compared = counted(monkeypatch, Requirement, "__eq__")
    plan = plan_model(*args, now=NOW)
    assert len(matching[0]) == 4 and len(matching[1]) == 2
    assert_matched_per_consumable(matching, workload, args[1])
    plan_random(workload, args[1], seed=3)
    assert len(matching[0]) == 4 and len(matching[1]) == 2
    assert_matched_per_consumable(matching, workload, args[1])
    assert compared == []
    assert plan == expected


class TestSharedAssignments:
    """Tasks of one kind share one `Assignment`, and the sharing shows in no
    output: the shared encoding writes the same bytes as an unshared one."""

    def test_model_plan_has_one_assignment_per_kind(self):
        workload, pool, profiles, clocks, store, config = kinds_bag()
        plan = plan_model(workload, pool, profiles, clocks, store, config, now=NOW)
        by_kind = {}
        for task_id, task in each_task(workload):
            kind = (config.profile_id(task_id), viable_set(task, pool).resource_ids)
            by_kind.setdefault(kind, set()).add(id(plan.assignments[task_id]))
        assert len(by_kind) == 4
        assert all(len(ids) == 1 for ids in by_kind.values())
        assert len({id(a) for a in plan.assignments.values()}) == 4

        identical = plan_model(make_workload(50), make_pool({"rA": 2.0e9, "rB": 2.5e9}),
                               make_profiles(), CLOCKS, make_store({"rA": [400.0], "rB": [1e3]}),
                               base_config(), now=NOW)
        assert len({id(a) for a in identical.assignments.values()}) == 1

    def test_random_plan_has_one_assignment_per_resource(self):
        pool = make_pool({"rA": 1e9, "rB": 1e9, "rC": 1e9})
        plan = plan_random(make_workload(50), pool, seed=3)
        by_resource = {}
        for a in plan.assignments.values():
            by_resource.setdefault(a.resource_id, set()).add(id(a))
        assert len(by_resource) == 3
        assert all(len(ids) == 1 for ids in by_resource.values())

    def test_shared_encoding_writes_the_unshared_bytes(self):
        args = kinds_bag()
        for plan in (plan_model(*args, now=NOW), plan_random(*args[:2], seed=5)):
            obj = plan.to_json()
            entries = list(obj["assignments"].values())
            assert len({id(e) for e in entries}) < len(entries)  # shared dicts
            # copy.deepcopy would keep the sharing; a JSON round trip does not
            unshared = json.loads(json.dumps(obj))
            assert len({id(e) for e in unshared["assignments"].values()}) == len(entries)
            assert canonical_dumps(obj) == canonical_dumps_oracle(unshared)


@pytest.mark.parametrize("field", ["inflation_factors", "walltime_safety_factor", "window_s"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_config_factors_must_be_finite_and_positive(field, value):
    with pytest.raises(ValueError, match="must be finite and > 0$"):
        Config(**{field: {"rA": value} if field == "inflation_factors" else value})
