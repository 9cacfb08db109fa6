"""End-to-end run of the bundled scenario: select resources for a bag of
tasks with the model-based strategy and with uniform random assignment,
simulate both plans, and report the time-to-completion gap.

Run from the repository root:

    python3 demos/bundled_scenario.py [n_tasks] [trials]
"""

import json
import sys
from pathlib import Path

from resselect import (
    Config,
    QueueWaitStore,
    ResourceBehavior,
    compare,
    plan_model,
    plan_random,
    simulate,
)
from resselect.model import resource_from_json, workload_from_json
from resselect.predict import load_clocks, load_profiles

BUNDLED = Path(__file__).resolve().parent.parent / "scenarios" / "bundled"
NOW = 1_787_270_400.0  # 2026-08-20T00:00:00Z, just after the bundled history


def load_inputs():
    pool = [resource_from_json(r) for r in json.loads((BUNDLED / "pool.json").read_text())]
    with open(BUNDLED / "profiles.csv") as fh:
        profiles, _ = load_profiles(fh)
    clocks = load_clocks(json.loads((BUNDLED / "clocks.json").read_text()))
    store = QueueWaitStore()
    with open(BUNDLED / "history.csv") as fh:
        store.ingest_csv(fh)
    config = Config.from_json(json.loads((BUNDLED / "config.json").read_text()))
    behaviors = {
        b["resource_id"]: ResourceBehavior.from_json(b)
        for b in json.loads((BUNDLED / "behaviors.json").read_text())
    }
    return pool, profiles, clocks, store, config, behaviors


def make_workload(n):
    base = json.loads((BUNDLED / "workload_64.json").read_text())
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


def main():
    n_tasks = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 1000
    pool, profiles, clocks, store, config, behaviors = load_inputs()
    workload = make_workload(n_tasks)

    model_plan = plan_model(workload, pool, profiles, clocks, store, config, NOW)
    chosen = {a.resource_id for a in model_plan.assignments.values()}
    some_task = next(iter(model_plan.assignments.values()))
    print(f"model strategy places all {n_tasks} tasks on: {sorted(chosen)}")
    print(f"  predicted per-task ttc: {some_task.estimate.ttc_s:.1f}s "
          f"(tq {some_task.estimate.tq_s:.1f}s + tx {some_task.estimate.tx_s:.1f}s)")

    random_plan = plan_random(workload, pool, seed=n_tasks)
    spread = {}
    for a in random_plan.assignments.values():
        spread[a.resource_id] = spread.get(a.resource_id, 0) + 1
    print(f"random strategy spreads tasks: {dict(sorted(spread.items()))}")

    model_result = simulate(model_plan, behaviors, trials=trials, seed=n_tasks)
    random_result = simulate(random_plan, behaviors, trials=trials, seed=n_tasks)
    report = compare(model_result, random_result)

    print()
    print(f"simulated over {trials} trials:")
    print(f"  model  mean ttc: {model_result.mean_ttc_s:10.1f}s")
    print(f"  random mean ttc: {random_result.mean_ttc_s:10.1f}s")
    print(f"  ttc reduction:   {report['ttc_reduction_pct']:10.1f}%")


if __name__ == "__main__":
    main()
