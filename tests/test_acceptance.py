"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them)."""

import itertools
import json
import random
import statistics
import time

import pytest

from resselect import (
    ClockSpec,
    QueueWaitRecord,
    QueueWaitStore,
    ResourceBehavior,
    aggregate,
    compare,
    diagnose,
    plan_model,
    plan_random,
    predict_tx,
    res_select,
    satisfy_req,
    simulate,
    tx_error,
    viable_set,
)
from resselect.config import Config
from resselect.model import canonical_dumps, resource_from_json, workload_from_json
from resselect.plan import Assignment, SelectionPlan
from resselect.predict import GHZ, load_clocks, load_profiles, sequential_cycles
from resselect.queuewait import DEFAULT_BUCKETS, DEFAULT_WINDOW_S, NoQueueHistoryError
from resselect.sim import DistSpec
from resselect.codec import RESULT

from conftest import (
    BUNDLED,
    bundled_json,
    random_capability,
    random_requirement,
    random_resource,
    random_sequenced_task,
)
from oracles import (
    aggregate_oracle,
    consumable_key,
    first_argmax_oracle,
    queue_filter_oracle,
    satisfy_req_oracle,
    satisfy_task_oracle,
)

TABLE1_GHZ = {
    "bridges": (2.30, 3.30),
    "comet": (2.50, 3.30),
    "supermic": (2.80, 3.60),
    "osg": (2.50, 3.09),
}


def report(criterion, started, detail=""):
    elapsed = time.perf_counter() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s){suffix}")


def test_criterion_1_aggregation_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260823)
    for i in range(1000):
        task = random_sequenced_task(rng, task_id=f"t{i}", max_instructions=10)
        agg = aggregate(task)
        expected = aggregate_oracle(task.instructions)
        got = {consumable_key(r.consumable): r.amount for r in agg.requirements}
        assert got.keys() == expected.keys()
        for key, amount in expected.items():
            assert got[key] == pytest.approx(amount, rel=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, started)


def test_criterion_2_matchmaking_conformance():
    started = time.perf_counter()
    rng = random.Random(4242)
    for _ in range(1000):
        req = random_requirement(rng)
        cap = random_capability(rng)
        assert satisfy_req(req, cap) == satisfy_req_oracle(req, cap)
        task = aggregate(random_sequenced_task(rng, max_instructions=4))
        res = random_resource(rng, max_caps=6)
        assert bool(viable_set(task, [res]).resource_ids) == satisfy_task_oracle(
            task.requirements, res.capabilities
        )
    # exhaustive enumerations of all tie patterns: the smallest TTC is the
    # first argmax of its negation
    checked = 0
    for n in range(1, 9):
        alphabet = (0, 1) if n > 5 else (0, 1, 2)
        for values in itertools.product(alphabet, repeat=n):
            candidates = [Assignment(f"r{i}", 0.0, float(-v)) for i, v in enumerate(values)]
            assert res_select(candidates) is candidates[first_argmax_oracle(values)]
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, started, f"{checked} argmax patterns")


def test_criterion_3_prediction_identities():
    started = time.perf_counter()
    # chained case: same instruction count on the target, epsilon exactly 0
    for cycles, rate in [(4e9, 2.0), (5.5e12, 1.37), (1e13, 2.0)]:
        pred = cycles * rate
        for target_cycles in (cycles, cycles * 0.5, cycles * 1.7):
            target_rate = pred / target_cycles
            assert diagnose(pred, target_cycles, target_rate).epsilon_pct == 0.0
    for rid, (base, mx) in TABLE1_GHZ.items():
        clock = ClockSpec(rid, base * GHZ, mx * GHZ)
        for cycles in (1e9, 6.9e9, 1e13):
            rep = predict_tx(cycles, clock)
            assert rep.tx_base_s / rep.tx_max_s == pytest.approx(mx / base, rel=1e-12)
    report(3, started)


def test_criterion_4_prediction_ordering():
    started = time.perf_counter()
    cycles = 1e13
    tx = {
        rid: predict_tx(cycles, ClockSpec(rid, b * GHZ, m * GHZ)).tx_base_s
        for rid, (b, m) in TABLE1_GHZ.items()
    }
    assert tx["supermic"] < tx["comet"] < tx["bridges"]
    osg_clock = ClockSpec("osg", 2.50 * GHZ, 3.09 * GHZ)
    osg_inflated = predict_tx(cycles, osg_clock, inflation=1.22).tx_base_s
    assert osg_inflated > tx["comet"]
    report(4, started)


def test_criterion_5_error_attribution_on_synthetic_pairs():
    started = time.perf_counter()
    # signed percentages spanning the reported over/underprediction bands
    pairs = [
        (2.57, 1.0, 157.0),
        (2.71, 1.0, 171.0),
        (1.84, 1.0, 84.0),
        (2.11, 1.0, 111.0),
        (1.07, 1.0, 7.0),
        (1.18, 1.0, 18.0),
        (0.96, 1.0, -4.0),
        (0.86, 1.0, -14.0),
    ]
    for pred, act, expected in pairs:
        assert tx_error(pred, act) == pytest.approx(expected, rel=1e-9, abs=1e-9)
    # equal instruction counts: overprediction fully attributed to the
    # target's instruction rate
    rng = random.Random(7)
    for _ in range(100):
        instr = rng.uniform(1e9, 1e13)
        target_cycles = instr / rng.uniform(1.0, 3.0)
        assert diagnose(instr, target_cycles, instr / target_cycles).epsilon_pct == 0.0
    report(5, started)


def test_criterion_6_queue_wait_oracle_and_boundaries():
    started = time.perf_counter()
    now = 1_700_000_000.0
    rng = random.Random(99)
    records = [
        QueueWaitRecord(
            machine=rng.choice(["m1", "m2", "m3"]),
            queue=rng.choice(["q1", "q2"]),
            submit_time=now - rng.uniform(0, 12 * 86400),
            wait_s=rng.uniform(0, 20000),
            walltime_req_s=rng.choice([600.0, 3600.0, 7200.0, 50000.0, 200000.0]),
            cores_req=rng.choice([1, 2, 8, 100, 1000, 5000]),
        )
        for _ in range(1000)
    ]
    store = QueueWaitStore(records)
    for _ in range(200):
        machine = rng.choice(["m1", "m2", "m3"])
        queue = rng.choice(["q1", "q2"])
        walltime = rng.choice([600.0, 3600.0, 7200.0, 50000.0, 200000.0])
        cores = rng.choice([1, 2, 8, 100, 1000, 5000])
        in_window, same_bucket = queue_filter_oracle(
            records, machine, queue, walltime, cores, now, DEFAULT_WINDOW_S,
            DEFAULT_BUCKETS,
        )
        if not in_window:
            with pytest.raises(NoQueueHistoryError):
                store.estimate_tq(machine, queue, walltime, cores, now=now)
            continue
        est = store.estimate_tq(machine, queue, walltime, cores, now=now)
        expected = same_bucket or in_window
        assert est.mean_wait_s == statistics.mean(r.wait_s for r in expected)
        assert est.n_samples == len(expected)
        assert est.fallback_used == (not same_bucket)
    # boundary: record at exactly now - 7d is inside the window
    edge = QueueWaitStore(
        [QueueWaitRecord("m", "q", now - DEFAULT_WINDOW_S, 42.0, 7200.0, 1)]
    )
    assert edge.estimate_tq("m", "q", 7200.0, 1, now=now).n_samples == 1
    # boundary: a query on a bucket edge belongs to the upper bucket
    lower = QueueWaitStore([QueueWaitRecord("m", "q", now - 60, 10.0, 3599.0, 1)])
    assert lower.estimate_tq("m", "q", 3600.0, 1, now=now).fallback_used
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    report(6, started)


def _bundled_inputs():
    pool = [resource_from_json(r) for r in bundled_json("pool.json")]
    with open(BUNDLED / "profiles.csv") as fh:
        profiles, warnings = load_profiles(fh)
    assert not warnings
    clocks = load_clocks(bundled_json("clocks.json"))
    store = QueueWaitStore()
    with open(BUNDLED / "history.csv") as fh:
        store.ingest_csv(fh)
    config = Config.from_json(bundled_json("config.json"))
    behaviors = {
        b["resource_id"]: ResourceBehavior.from_json(b)
        for b in bundled_json("behaviors.json")
    }
    now = 1_787_270_400.0  # 2026-08-20T00:00:00Z
    return pool, profiles, clocks, store, config, behaviors, now


def _workload_of(n):
    base = bundled_json("workload_64.json")
    template = base["tasks"][0]["requirements"]
    return workload_from_json(
        {
            "workload_id": f"bag-{n}",
            "tasks": [
                {"task_id": f"md-100k-{i:04d}", "requirements": template}
                for i in range(n)
            ],
        }
    )


def test_criterion_7_selection_optimality_by_exhaustive_rescan():
    started = time.perf_counter()
    pool, profiles, clocks, store, config, _, now = _bundled_inputs()
    workload = _workload_of(1024)
    plan = plan_model(workload, pool, profiles, clocks, store, config, now)
    # independent recomputation of every (task, resource) ttc
    pred_cycles = statistics.mean(sequential_cycles(p) for p in profiles)
    ttc_by_resource = {}
    for res in pool:
        rid = res.resource_id
        inflation = config.inflation_factors.get(rid, 1.0)
        tx = pred_cycles * inflation / clocks[rid].base_hz
        machine, queue = config.machine_queue(rid)
        tq = store.estimate_tq(
            machine, queue, tx * config.walltime_safety_factor, 1, now=now
        ).mean_wait_s
        ttc_by_resource[rid] = tq + tx
    best = min(ttc_by_resource.values())
    for task_id, a in plan.assignments.items():
        assert a.ttc_s == pytest.approx(ttc_by_resource[a.resource_id], rel=1e-12)
        assert all(
            a.ttc_s <= ttc + 1e-9 for ttc in ttc_by_resource.values()
        ), task_id
        assert a.ttc_s == pytest.approx(best, rel=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(7, started, f"{len(plan.assignments)} tasks x {len(pool)} resources")


def test_criterion_8_simulator_closed_form():
    started = time.perf_counter()
    plan = SelectionPlan(
        workload_id="w",
        strategy="model",
        assignments={
            "t1": Assignment("rA"), "t2": Assignment("rA"),
            "t3": Assignment("rB"), "t4": Assignment("rB"),
        },
        resource_requests={},
    )
    behaviors = {
        "rA": ResourceBehavior("rA", DistSpec("constant", value=100.0),
                               DistSpec("constant", value=50.0)),
        "rB": ResourceBehavior("rB", DistSpec("constant", value=400.0),
                               DistSpec("constant", value=50.0)),
    }
    result = simulate(plan, behaviors, trials=100, seed=0)
    assert all(v == 450.0 for v in result.ttc_wkd_s)
    assert all(v == 350.0 for v in result.tq_wkd_s)
    assert all(v == 100.0 for v in result.tx_wkd_s)
    report(8, started)


def _run_comparison(trials=1000):
    pool, profiles, clocks, store, config, behaviors, now = _bundled_inputs()
    outcomes = {}
    for size in (64, 128, 256, 512, 1024):
        workload = _workload_of(size)
        model_plan = plan_model(workload, pool, profiles, clocks, store, config, now)
        random_plan = plan_random(workload, pool, seed=size)
        model_result = simulate(model_plan, behaviors, trials=trials, seed=size)
        random_result = simulate(random_plan, behaviors, trials=trials, seed=size)
        outcomes[size] = (model_result, random_result)
    return outcomes


def test_criterion_9_model_beats_random_on_bundled_calibration():
    started = time.perf_counter()
    reductions = {}
    for size, (model_result, random_result) in _run_comparison().items():
        rep = compare(model_result, random_result)
        assert model_result.mean_ttc_s < random_result.mean_ttc_s, size
        assert 50.0 <= rep["ttc_reduction_pct"] <= 90.0, (size, rep["ttc_reduction_pct"])
        reductions[size] = round(rep["ttc_reduction_pct"], 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(9, started, f"reductions % by size: {reductions}")


# PAPER.md's measured error of the execution-time model: it overpredicts tx by
# 157-171 % on the XSEDE machines and by 18-31 % on OSG
TX_ERROR_BOX = {"bridges": (1.57, 1.71), "comet": (1.57, 1.71), "supermic": (1.57, 1.71),
                "osg": (0.18, 0.31)}


def _tx_over(behavior, divisor):
    """``behavior`` with every execution time divided by ``divisor``."""
    d = behavior.tx_dist
    value, mean, stddev = (None if v is None else v / divisor for v in (d.value, d.mean, d.stddev))
    samples = d.samples and tuple(x / divisor for x in d.samples)
    return ResourceBehavior(behavior.resource_id, behavior.tq_dist,
                            DistSpec(d.kind, value, mean, stddev, samples),
                            behavior.capacity_cores, behavior.pilot_mode)


def test_criterion_9_holds_across_the_papers_tx_error_box():
    """Criterion 9 where the planner overpredicts tx as the paper measured:
    at each of the error box's 16 corners, every resource runs its tasks in
    its bundled tx over (1 + error).  The model still beats random by 50-90 %,
    and its choice, supermic, is the best single resource in hindsight."""
    started = time.perf_counter()
    pool, profiles, clocks, store, config, behaviors, now = _bundled_inputs()
    workload = workload_from_json(bundled_json("workload_64.json"))
    model_plan = plan_model(workload, pool, profiles, clocks, store, config, now)
    random_plan = plan_random(workload, pool, seed=64)
    assert {a.resource_id for a in model_plan.assignments.values()} == {"supermic"}
    singles = {rid: SelectionPlan(workload.workload_id, "model",
                                  dict.fromkeys(model_plan.assignments, Assignment(rid)))
               for rid in TX_ERROR_BOX}
    reductions = []
    for errors in itertools.product(*TX_ERROR_BOX.values()):
        corner = {rid: _tx_over(behaviors[rid], 1.0 + e) for rid, e in zip(TX_ERROR_BOX, errors)}
        model_result, random_result = (simulate(plan, corner, trials=200, seed=42)
                                       for plan in (model_plan, random_plan))
        reduction = compare(model_result, random_result)["ttc_reduction_pct"]
        assert 50.0 <= reduction <= 90.0, (errors, reduction)
        mean_ttc = {rid: simulate(plan, corner, trials=200, seed=42).mean_ttc_s
                    for rid, plan in singles.items()}
        assert min(mean_ttc, key=mean_ttc.get) == "supermic", (errors, mean_ttc)
        reductions.append(reduction)
    report("9 (tx error box)", started,
           f"{len(reductions)} corners, reductions {min(reductions):.1f}-{max(reductions):.1f} %")


def test_criterion_10_determinism_byte_identical_results():
    started = time.perf_counter()
    pool, profiles, clocks, store, config, behaviors, now = _bundled_inputs()
    workload = _workload_of(64)
    plan = plan_model(workload, pool, profiles, clocks, store, config, now)
    r1 = simulate(plan, behaviors, trials=200, seed=64)
    r2 = simulate(plan, behaviors, trials=200, seed=64)
    b1 = canonical_dumps(r1.to_json()).encode()
    b2 = canonical_dumps(r2.to_json()).encode()
    assert b1 == b2
    assert RESULT.decode(json.loads(b1)) == r1
    report(10, started)

