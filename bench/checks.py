"""Output checks and exact counters, computed independently of the code
paths they check.

Every check raises ``CheckFailed`` with a message naming what was wrong; the
benchmark counts the stage call whose output failed as a failed operation.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, List, Sequence, Tuple


class CheckFailed(Exception):
    pass


def _fail(message: str) -> None:
    raise CheckFailed(message)


# --- matching oracle on the raw JSON ---------------------------------------------


def _req_satisfied(req: dict, cap: dict) -> bool:
    if req["type"] != cap["type"]:
        return False
    cap_form = cap.get("form", {})
    return all(
        attr in cap_form and set(values) & set(cap_form[attr])
        for attr, values in req.get("form", {}).items()
    )


def json_viable(task: dict, pool: Sequence[dict]) -> Tuple[str, ...]:
    """Resource ids (pool order) offering a capability for every requirement
    of every instruction of ``task``, read straight from the JSON."""
    if "requirements" in task:
        reqs = task["requirements"]
    else:
        reqs = [r for instruction in task["instructions"] for r in instruction]
    return tuple(
        res["resource_id"]
        for res in pool
        if all(any(_req_satisfied(r, c) for c in res["capabilities"]) for r in reqs)
    )


def viable_sets(workload: dict, pool: Sequence[dict]) -> Dict[str, Tuple[str, ...]]:
    return {t["task_id"]: json_viable(t, pool) for t in workload["tasks"]}


# --- plans ---------------------------------------------------------------------------


def check_random_plan(plan: dict, viable: Dict[str, Tuple[str, ...]], seed: int) -> None:
    if plan.get("strategy") != "random" or plan.get("rng_seed") != seed:
        _fail(f"random plan has strategy {plan.get('strategy')!r}, seed {plan.get('rng_seed')!r}")
    if set(plan["assignments"]) != set(viable):
        _fail("random plan does not assign exactly the workload's tasks")
    for task_id, entry in plan["assignments"].items():
        if entry["resource_id"] not in viable[task_id]:
            _fail(f"random plan puts {task_id} on {entry['resource_id']}, "
                  f"outside its viable set")


def sample_tasks(task_ids: Sequence[str], seed: int, k: int = 8) -> List[str]:
    ids = sorted(task_ids)
    return random.Random(f"check/{seed}").sample(ids, min(k, len(ids)))


def check_model_plan(
    plan: dict,
    sample: Sequence[str],
    viable: Dict[str, Tuple[str, ...]],
    profiles_by_id: Dict[str, list],
    clocks: dict,
    store,
    config,
    now: float,
    resselect,
) -> None:
    """Recompute the sampled tasks' choices from predict_sequential_cycles,
    predict_tx and estimate_tq: the first resource, in pool order, with the
    smallest TTC must be the one assigned, with the same ``ttc_s``."""
    predict = resselect.predict
    if plan.get("strategy") != "model" or set(plan["assignments"]) != set(viable):
        _fail("model plan does not assign exactly the workload's tasks")
    tq_memo = {}
    for task_id in sample:
        cycles = predict.predict_sequential_cycles(
            profiles_by_id[config.profile_id(task_id)]).mean
        best_rid, best_ttc = None, math.inf
        for rid in viable[task_id]:
            report = predict.predict_tx(
                cycles, clocks[rid], inflation=config.inflation_factors.get(rid, 1.0))
            tx = report.tx_base_s if config.frequency_choice == "base" else report.tx_max_s
            machine, queue = config.machine_queue(rid)
            query = (machine, queue, report.tx_base_s * config.walltime_safety_factor)
            if query not in tq_memo:
                tq_memo[query] = store.estimate_tq(
                    *query, cores_req=config.cores_per_task, now=now,
                    window_s=config.window_s, buckets=config.buckets).mean_wait_s
            ttc = tq_memo[query] + tx
            if ttc < best_ttc:
                best_rid, best_ttc = rid, ttc
        got = plan["assignments"][task_id]
        if got["resource_id"] != best_rid or not math.isclose(
                got["ttc_s"], best_ttc, rel_tol=1e-12):
            _fail(f"model plan gives {task_id} {got['resource_id']} "
                  f"(ttc {got['ttc_s']!r}); recomputed {best_rid} (ttc {best_ttc!r})")


# --- simulation results ------------------------------------------------------------


def check_result(result: dict, strategy: str, trials: int) -> None:
    """Per trial: tq + tx == ttc and 0 <= tx <= ttc."""
    if result.get("strategy") != strategy or result.get("trials") != trials:
        _fail(f"result has strategy {result.get('strategy')!r}, "
              f"trials {result.get('trials')!r}")
    per = result["per_trial"]
    if not len(per["ttc_wkd_s"]) == len(per["tq_wkd_s"]) == len(per["tx_wkd_s"]) == trials:
        _fail("result does not hold one value per trial")
    for i, (ttc, tq, tx) in enumerate(zip(per["ttc_wkd_s"], per["tq_wkd_s"], per["tx_wkd_s"])):
        if not math.isclose(tq + tx, ttc, rel_tol=1e-9, abs_tol=1e-6):
            _fail(f"{strategy} trial {i}: tq + tx = {tq + tx!r} != ttc {ttc!r}")
        if not 0.0 <= tx <= ttc * (1 + 1e-12):
            _fail(f"{strategy} trial {i}: tx {tx!r} outside [0, ttc {ttc!r}]")


def check_compare(reduction_pct: float, model: dict, random_: dict) -> None:
    """A stated TTC reduction follows from the two results' mean TTC."""
    m = sum(model["per_trial"]["ttc_wkd_s"]) / model["trials"]
    r = sum(random_["per_trial"]["ttc_wkd_s"]) / random_["trials"]
    if not math.isclose(reduction_pct, (r - m) / r * 100.0, rel_tol=1e-9, abs_tol=1e-9):
        _fail(f"ttc_reduction_pct {reduction_pct!r} does not follow "
              f"from mean ttc {m!r} (model) and {r!r} (random)")


def check_reduction(pct: float, lo: float = 50.0, hi: float = 90.0) -> None:
    if not lo <= pct <= hi:
        _fail(f"ttc_reduction_pct {pct!r} outside [{lo}, {hi}]")


def reduction_from_report_csv(text: str) -> float:
    for line in text.splitlines():
        group, metric, mean, _ = line.split(",")
        if (group, metric) == ("comparison", "ttc_reduction_pct"):
            return float(mean)
    _fail("report has no ttc_reduction_pct row")


# --- exact counters ----------------------------------------------------------------


def sim_counts(plan: dict, behaviors: Dict[str, dict], trials: int) -> Tuple[int, int]:
    """(non-constant samples drawn, task-trials on uncapped single pilots)
    when simulating ``plan``, counted from the plan and the behaviors."""
    draws = uncapped = 0
    per_resource = Counter(e["resource_id"] for e in plan["assignments"].values())
    for rid, n in per_resource.items():
        beh = behaviors[rid]
        tq_random = beh["tq_dist"]["kind"] != "constant"
        tx_random = beh["tx_dist"]["kind"] != "constant"
        if beh.get("pilot_mode", "single") == "per_task":
            draws += n * (tq_random + tx_random) * trials
        else:
            draws += (tq_random + n * tx_random) * trials
            if beh.get("capacity_cores") is None:
                uncapped += n * trials
    return draws, uncapped
