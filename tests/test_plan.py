import functools
import inspect
import json
import math
import random

import pytest

import resselect.plan as plan_module
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
    register_affinity,
    viable_set,
)
from resselect.match import EmptyViableSetError
from resselect.codec import PLAN, WORKLOAD
from resselect.model import canonical_dumps
from resselect.plan import Assignment, SelectionPlan, task_estimates
from resselect.predict import UnknownTaskError, profiles_by_task
from resselect.queuewait import DEFAULT_BUCKETS, NoQueueHistoryError

from oracles import canonical_dumps_oracle, first_argmax_oracle

NOW = 1_700_000_000.0
X86 = ConsumableSpec("x86_cycle", {"isa": frozenset(["x86"])})


def make_workload(n_tasks, amount=1e13, workload_id="w"):
    tasks = tuple(
        TaskSpec(f"t-{i:04d}", requirements=(Requirement(X86, amount),))
        for i in range(n_tasks)
    )
    return WorkloadSpec(workload_id, tasks)


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
        est = plan.assignments["t-0000"].estimate
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

    def test_empty_viable_set_names_task(self):
        pool = [ResourceSpec("r", (Capability(ConsumableSpec("gpu"), 1e9),))]
        with pytest.raises(EmptyViableSetError, match="t-0000"):
            plan_model(make_workload(1), pool, make_profiles(), CLOCKS,
                       make_store({"r": [1.0]}), base_config(), now=NOW)

    def test_missing_profile_names_gap(self):
        with pytest.raises(UnknownTaskError, match="missing prediction inputs"):
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
            assert a.estimate.ttc_s == pytest.approx(best)
            assert all(a.estimate.ttc_s <= ttcs[rid] for rid in ttcs)

    def test_decreasing_transform_of_ttc_gives_same_assignment(self):
        register_affinity("inv_ttc_cubed", lambda p: -((p["tq_s"] + p["tx_s"]) ** 3))
        args = (
            make_workload(4),
            make_pool({"rA": 2.0e9, "rB": 2.5e9}),
            make_profiles(),
            CLOCKS,
            make_store({"rA": [400.0], "rB": [1000.0]}),
        )
        default = plan_model(*args, base_config(), now=NOW)
        transformed = plan_model(*args, base_config(affinity="inv_ttc_cubed"), now=NOW)
        assert {t: a.resource_id for t, a in default.assignments.items()} == {
            t: a.resource_id for t, a in transformed.assignments.items()
        }

    def test_plan_completeness_and_requests(self):
        wl = make_workload(10)
        plan = plan_model(wl, make_pool({"rA": 2.0e9}), make_profiles(), CLOCKS,
                          make_store({"rA": [100.0]}), base_config(), now=NOW)
        assert set(plan.assignments) == {t.task_id for t in wl.tasks}
        req = plan.resource_requests["rA"]
        assert req["cores"] == 10
        assert req["max_walltime_s"] == pytest.approx(1e13 / 2.0e9 * 1.5)

    def test_max_frequency_choice(self):
        plan = plan_model(
            make_workload(1), make_pool({"rA": 2.0e9}), make_profiles(), CLOCKS,
            make_store({"rA": [100.0]}), base_config(frequency_choice="max"), now=NOW,
        )
        assert plan.assignments["t-0000"].estimate.tx_s == pytest.approx(1e13 / 3.0e9)


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
            assert b.estimate.ttc_s == a.estimate.ttc_s

    def test_random_plan_round_trip_keeps_seed(self):
        plan = plan_random(make_workload(3), make_pool({"rA": 1e9}), seed=5)
        again = PLAN.decode(plan.to_json())
        assert again.rng_seed == 5
        assert again.assignments["t-0000"].estimate is None


# --- per-kind dedupe: a bag with repeated kinds, planned against a per-task rescan

ARM = ConsumableSpec("arm_cycle", {"isa": frozenset(["arm"])})
MEM = ConsumableSpec("byte")


def kinds_bag():
    """24 tasks in four (requirement set, profile id) kinds, interleaved by id.
    Kind x86-p1 mixes tasks given as requirements with tasks given as two
    instructions that aggregate to the same requirements."""
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
    config = Config(profile_overrides=overrides)
    store = QueueWaitStore(records)
    return WorkloadSpec("bag", tuple(tasks)), pool, profiles, clocks, store, config


def rescan_model_plan(workload, pool, profiles, clocks, store, config):
    """The model plan the slow way: every task matched, estimated and
    selected on its own."""
    by_task = profiles_by_task(profiles)
    assignments, requests = {}, {}
    for task in sorted(workload.tasks, key=lambda t: t.task_id):
        ids = viable_set(task, pool).resource_ids
        estimates = task_estimates(task, ids, by_task, clocks, store, config, NOW)
        best = estimates[first_argmax_oracle([-e.ttc_s for e in estimates])]
        assignments[task.task_id] = Assignment(best.resource_id, best)
        entry = requests.setdefault(
            best.resource_id, {"task_count": 0, "cores": 0, "max_walltime_s": None})
        entry["task_count"] += 1
        entry["cores"] += config.cores_per_task
        entry["max_walltime_s"] = max(best.walltime_s, entry["max_walltime_s"] or 0.0)
    return SelectionPlan(workload.workload_id, "model", assignments, requests)


def counted(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that records each call's bound
    arguments in the returned list."""
    original = getattr(owner, name)
    signature = inspect.signature(original)
    calls = []

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def bucketed(call):
    b = call.get("buckets", DEFAULT_BUCKETS)
    return (call["machine"], call["queue"], b.walltime_bucket(call["walltime_req_s"]),
            b.cores_bucket(call["cores_req"]))


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
        rng = random.Random(7)
        expected = {t.task_id: rng.choice(viable_set(t, pool).resource_ids)
                    for t in sorted(workload.tasks, key=lambda t: t.task_id)}
        plan = plan_random(workload, pool, seed=7)
        assert {t: a.resource_id for t, a in plan.assignments.items()} == expected

    def test_each_kind_and_query_is_computed_once(self, monkeypatch):
        args = kinds_bag()
        workload, _, _, _, store, config = args
        rescan_queries = counted(monkeypatch, QueueWaitStore, "estimate_tq")
        rescan_model_plan(*args)
        distinct = {bucketed(c) for c in rescan_queries}
        assert len(rescan_queries) > len(distinct)  # the rescan repeats queries

        matched = counted(monkeypatch, plan_module, "viable_set")
        predicted = counted(monkeypatch, plan_module, "predict_sequential_cycles")
        queries = counted(monkeypatch, QueueWaitStore, "estimate_tq")
        plan_model(*args, now=NOW)
        requirement_sets = {aggregate(t).requirements for t in workload.tasks}
        assert len(requirement_sets) == 3
        assert len(matched) == 3
        assert {aggregate(c["task"]).requirements for c in matched} == requirement_sets
        assert len(predicted) == 4  # (requirement set, profile id) kinds
        assert sorted(bucketed(c) for c in queries) == sorted(distinct)

        matched.clear()
        plan_random(workload, args[1], seed=3)
        assert len(matched) == 3

    def test_errors_name_the_first_task_of_a_kind(self):
        workload, pool, profiles, clocks, store, config = kinds_bag()
        p1_only = [p for p in profiles if p.task_id == "p1"]
        with pytest.raises(UnknownTaskError) as memo:
            plan_model(workload, pool, p1_only, clocks, store, config, now=NOW)
        with pytest.raises(UnknownTaskError) as rescan:
            rescan_model_plan(workload, pool, p1_only, clocks, store, config)
        assert str(memo.value) == str(rescan.value)
        assert "'t-001'" in str(memo.value)


def test_decoded_homogeneous_bag_plans_without_comparing_requirements(monkeypatch):
    """Decoded tasks of one body share its requirements tuple, so the
    planners' lookup by requirement set finds it by identity."""
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


class TestSharedAssignments:
    """Tasks of one kind share one `Assignment`, and the sharing shows in no
    output: the shared encoding writes the same bytes as an unshared one."""

    def test_model_plan_has_one_assignment_per_kind(self):
        workload, pool, profiles, clocks, store, config = kinds_bag()
        plan = plan_model(workload, pool, profiles, clocks, store, config, now=NOW)
        by_kind = {}
        for task in workload.tasks:
            kind = (config.profile_id(task.task_id), viable_set(task, pool).resource_ids)
            by_kind.setdefault(kind, set()).add(id(plan.assignments[task.task_id]))
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
