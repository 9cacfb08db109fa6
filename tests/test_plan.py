import math

import pytest

from resselect import (
    BaselineProfile,
    Capability,
    ClockSpec,
    Config,
    ConsumableSpec,
    QueueWaitRecord,
    QueueWaitStore,
    Requirement,
    ResourceSpec,
    TaskSpec,
    WorkloadSpec,
    plan_model,
    plan_random,
    register_affinity,
)
from resselect.match import EmptyViableSetError
from resselect.codec import PLAN
from resselect.predict import UnknownTaskError
from resselect.queuewait import NoQueueHistoryError

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
