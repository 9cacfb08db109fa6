"""Seeded input generator for the resselect benchmark.

Every workload writes the JSON/CSV files the resselect loaders and CLI read
into one directory.  The same (workload, seed) always produces the same
bytes.  Only the standard library is used, and nothing here imports
resselect: the program under test receives nothing but these files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List

# 2026-08-20T00:00:00Z, just after every generated history.
NOW_ISO = "2026-08-20T00:00:00Z"
NOW = 1_787_270_400
DAY = 24 * 3600
HISTORY_SPAN_S = 14 * DAY  # twice the default 7-day lookback window

HISTORY_HEADER = (
    "machine", "queue", "submit_time_iso8601", "wait_s", "walltime_req_s", "cores_req"
)
PROFILE_HEADER = (
    "task_id", "workload_param", "instructions", "cycles", "instr_rate",
    "avg_clock_ghz", "tx_s",
)
# Requested walltimes, one or more per default similarity bucket
# (edges 900, 3600, 14400, 43200, 86400, 172800 s).
WALLTIME_CHOICES_S = (600, 1800, 3000, 7200, 10800, 28800, 64800, 129600, 259200)
CORES_CHOICES = (1, 1, 1, 1, 2, 4, 8, 16, 32, 64)


@dataclass
class Inputs:
    """What a generated workload hands to the pipeline, plus the sizes the
    benchmark reports and checks against."""

    name: str
    directory: str
    files: Dict[str, str]  # role -> path
    trials: int
    random_seed: int
    sim_seed: int
    sizes: Dict[str, int]


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    why: str
    sizes: Dict[str, int]


# Sizes and the reason each workload exists; the generator functions below
# read their sizes from here.
WORKLOADS: Dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef(
            "bag-homog-8k",
            "8192 identical tasks, 4 queries on a 100k-row history: ingest, "
            "per-task prediction and per-task queue draws dominate; matching "
            "and queue queries are nearly free",
            {"tasks": 8192, "history_rows": 100_000, "trials": 20, "resources": 4},
        ),
        WorkloadDef(
            "bag-hetero-256",
            "256 instruction-stream tasks in 64 kinds on 48 resources, 3 ISAs: "
            "matching, aggregation and queue queries do real work; durations "
            "are random draws on capacity-limited pilots",
            {
                "tasks": 256, "kinds": 64, "history_rows": 50_000,
                "trials": 50, "resources": 48, "machines": 24,
            },
        ),
        WorkloadDef(
            "bundled-cli",
            "the shipped 64-task scenario through resselect.cli.main: file I/O, "
            "argument handling and serialization dominate; bag-level "
            "optimisations should not move it",
            {"tasks": 64, "history_rows": 24, "trials": 1000, "resources": 4},
        ),
    )
}


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _iso(epoch: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(epoch))


def _write_history(path: str, rng: random.Random, queues: List[dict], rows: int) -> None:
    """``queues`` entries carry machine, queue, mean_wait_s and the walltime
    choices that queue accepts; rows are spread evenly over queues and
    written in submit-time order, like a scheduler log."""
    records = []
    for i in range(rows):
        q = queues[i % len(queues)]
        submit = NOW - rng.randrange(HISTORY_SPAN_S)
        wait = round(q["mean_wait_s"] * rng.uniform(0.5, 1.5), 1)
        records.append(
            (submit, q["machine"], q["queue"], wait,
             rng.choice(q["walltimes"]), rng.choice(CORES_CHOICES))
        )
    records.sort()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_HEADER)
        for submit, machine, queue, wait, walltime, cores in records:
            writer.writerow((machine, queue, _iso(submit), wait, walltime, cores))


def _copy_bundled(repo_root: str, directory: str, names) -> Dict[str, str]:
    src = os.path.join(repo_root, "scenarios", "bundled")
    files = {}
    for role, name in names.items():
        dst = os.path.join(directory, name)
        shutil.copyfile(os.path.join(src, name), dst)
        files[role] = dst
    return files


def gen_bag_homog(repo_root: str, directory: str, seed: int) -> Inputs:
    """The bundled pool, clocks, profiles, config and behaviors with a large
    bag of identical md-100k tasks and a large generated history."""
    sizes = WORKLOADS["bag-homog-8k"].sizes
    rng = random.Random(f"bag-homog-8k/{seed}")
    files = _copy_bundled(
        repo_root,
        directory,
        {
            "pool": "pool.json", "clocks": "clocks.json", "profiles": "profiles.csv",
            "config": "config.json", "behaviors": "behaviors.json",
        },
    )
    with open(os.path.join(repo_root, "scenarios", "bundled", "workload_64.json")) as fh:
        template = json.load(fh)["tasks"][0]["requirements"]
    files["workload"] = os.path.join(directory, "workload.json")
    _write_json(
        files["workload"],
        {
            "workload_id": "bag-homog-8k",
            "tasks": [
                {"task_id": f"md-100k-{i:05d}", "requirements": template}
                for i in range(sizes["tasks"])
            ],
        },
    )
    # Mean waits follow the bundled calibration, so the model plan puts every
    # task on supermic (a single pilot with no capacity limit).
    queues = [
        {"machine": m, "queue": q, "mean_wait_s": w, "walltimes": WALLTIME_CHOICES_S}
        for m, q, w in (
            ("bridges", "RM", 7200.0), ("comet", "compute", 5400.0),
            ("supermic", "workq", 600.0), ("osg", "default", 3600.0),
        )
    ]
    files["history"] = os.path.join(directory, "history.csv")
    _write_history(files["history"], rng, queues, sizes["history_rows"])
    return Inputs(
        "bag-homog-8k", directory, files, trials=sizes["trials"],
        random_seed=seed, sim_seed=seed + 1, sizes=dict(sizes),
    )


ISAS = {
    # each ISA's SIMD levels, lowest first; a resource at level L offers
    # levels 0..L, a task needing level L runs on resources at L or above
    "x86": ("sse4", "avx", "avx2", "avx512"),
    "arm": ("neon", "sve", "sve2", "sme"),
    "ppc": ("vsx", "vsx2", "vsx3", "mma"),
}
QUEUES = (("batch", 4.0), ("short", 0.5))  # queue name, wait multiplier


def _hetero_machines() -> List[dict]:
    """24 machines: 8 per ISA, 2 per SIMD level, one of each pair with HBM."""
    machines = []
    for isa_idx, isa in enumerate(ISAS):
        for i in range(8):
            level, hbm = divmod(i, 2)
            machines.append(
                {"machine": f"{isa}{i}", "isa": isa, "level": level, "hbm": bool(hbm),
                 "idx": isa_idx * 8 + i}
            )
    return machines


def _hetero_kinds(rng: random.Random, n: int) -> List[dict]:
    """Kinds cycle through ISA, SIMD level and HBM need; instruction counts
    are stratified over 5e11 .. 2e14 (log-uniform), so the kinds cover the
    walltime buckets evenly."""
    lo, hi = math.log10(5e11), math.log10(2e14)
    strata = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(strata)
    kinds = []
    for k in range(n):
        level = (k // 3) % 4
        kinds.append(
            {
                "id": f"kind-{k:03d}",
                "isa": list(ISAS)[k % len(ISAS)],
                "level": level,
                "second_level": (k // 12) % (level + 1),
                "hbm": (k // 12) % 5 == 0,
                "instructions": 10 ** (lo + (hi - lo) * strata[k]),
                "instr_rate": rng.uniform(0.8, 3.0),
            }
        )
    return kinds


def _instruction_stream(rng: random.Random, kind: dict) -> List[list]:
    """Two instructions: cycles at the kind's SIMD level (plus HBM memory
    for kinds that need it), then cycles at the same or a lower level, so
    aggregation sometimes merges them and sometimes keeps both."""
    levels = ISAS[kind["isa"]]
    half = kind["instructions"] / 2

    def cycles(level):
        return {"type": "cycle", "amount": half,
                "form": {"isa": [kind["isa"]], "simd": [levels[level]]}}

    first = [cycles(kind["level"])]
    if kind["hbm"]:
        first.append({"type": "mem_byte", "form": {"tier": ["hbm"]},
                      "amount": float(rng.randint(1, 64) * 2**30)})
    return [first, [cycles(kind["second_level"])]]


def gen_bag_hetero(repo_root: str, directory: str, seed: int) -> Inputs:
    """Instruction-stream tasks on a 48-resource, 3-ISA pool with a mixed
    set of simulated behaviours and a history with some empty buckets.

    The pool, clocks, config, task kinds and behaviour shapes come from a
    fixed stream (``shape``), so every seed asks for the same work and the
    model plan lands on nearly the same resources.  The seed varies the
    history, the profile repeats, the empirical durations and the task
    order."""
    del repo_root  # everything is generated
    sizes = WORKLOADS["bag-hetero-256"].sizes
    shape = random.Random("bag-hetero-256")
    rng = random.Random(f"bag-hetero-256/{seed}")
    machines = _hetero_machines()
    kinds = _hetero_kinds(shape, sizes["kinds"])
    files = {role: os.path.join(directory, name) for role, name in (
        ("pool", "pool.json"), ("clocks", "clocks.json"), ("profiles", "profiles.csv"),
        ("config", "config.json"), ("behaviors", "behaviors.json"),
        ("workload", "workload.json"), ("history", "history.csv"),
    )}

    pool, clocks, behaviors, queues = [], [], [], []
    resource_queues, inflation = {}, {}
    for m in machines:
        base_ghz = round(shape.uniform(2.0, 3.0), 2)
        max_ghz = round(base_ghz + shape.uniform(0.3, 1.0), 2)
        hist_walltimes = tuple(sorted(shape.sample(WALLTIME_CHOICES_S, 5)))
        for q, (queue, wait_mult) in enumerate(QUEUES):
            rid = f"{m['machine']}-{queue}"
            tiers = ["ddr", "hbm"] if m["hbm"] else ["ddr"]
            pool.append({
                "resource_id": rid,
                "capabilities": [
                    {"type": "cycle", "rate": base_ghz * 1e9,
                     "form": {"isa": [m["isa"]],
                              "simd": list(ISAS[m["isa"]][: m["level"] + 1])}},
                    {"type": "mem_byte", "rate": 1e10, "form": {"tier": tiers}},
                ],
            })
            if m["idx"] % 6 == 5:
                # a site pool described by its CPU inventory
                clocks.append({"resource_id": rid, "inventory": [
                    {"cpu_model": "a", "node_count": 3, "base_ghz": base_ghz,
                     "max_ghz": max_ghz},
                    {"cpu_model": "b", "node_count": 1, "base_ghz": base_ghz - 0.2,
                     "max_ghz": max_ghz - 0.2},
                ]})
            else:
                clocks.append({"resource_id": rid, "base_ghz": base_ghz,
                               "max_ghz": max_ghz})
            if m["idx"] % 4 == 3:
                inflation[rid] = round(shape.uniform(1.05, 1.3), 3)
            resource_queues[rid] = {"machine": m["machine"], "queue": queue}
            mean_wait = shape.uniform(300.0, 3000.0) * wait_mult
            queues.append({"machine": m["machine"], "queue": queue,
                           "mean_wait_s": mean_wait, "walltimes": hist_walltimes})
            tx_center = shape.uniform(600.0, 6000.0)
            beh = {
                "resource_id": rid,
                "tq_dist": {"kind": "normal", "mean": round(mean_wait, 1),
                            "stddev": round(mean_wait * 0.3, 1)},
                "tx_dist": {"kind": "empirical", "samples": [
                    round(tx_center * rng.uniform(0.6, 1.4), 1) for _ in range(16)]},
            }
            slot = (m["idx"] * 2 + q) % 12
            if slot in (0, 7):
                beh["pilot_mode"] = "per_task"
            else:
                beh["pilot_mode"] = "single"
                if slot != 4:
                    beh["capacity_cores"] = shape.choice((8, 16, 32, 64))
            behaviors.append(beh)

    tasks, overrides = [], {}
    per_kind = sizes["tasks"] // sizes["kinds"]
    for kind in kinds:
        stream = _instruction_stream(rng, kind)
        for j in range(per_kind):
            tid = f"{kind['id']}-t{j}"
            tasks.append({"task_id": tid, "instructions": stream})
            overrides[tid] = kind["id"]
    rng.shuffle(tasks)

    with open(files["profiles"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROFILE_HEADER)
        for kind in kinds:
            for _ in range(3):
                instr = kind["instructions"] * rng.uniform(0.98, 1.02)
                clock_ghz = rng.uniform(2.2, 2.8)
                cycles = instr / kind["instr_rate"]
                writer.writerow((kind["id"], 1, repr(instr), repr(cycles),
                                 repr(kind["instr_rate"]), repr(clock_ghz),
                                 repr(cycles / (clock_ghz * 1e9))))

    _write_json(files["pool"], pool)
    _write_json(files["clocks"], clocks)
    _write_json(files["behaviors"], behaviors)
    _write_json(files["workload"], {"workload_id": "bag-hetero-256", "tasks": tasks})
    _write_json(files["config"], {
        "cores_per_task": 1, "frequency_choice": "base", "walltime_safety_factor": 1.5,
        "window_s": 7 * DAY, "inflation_factors": inflation,
        "resource_queues": resource_queues, "profile_overrides": overrides,
    })
    _write_history(files["history"], rng, queues, sizes["history_rows"])
    return Inputs(
        "bag-hetero-256", directory, files, trials=sizes["trials"],
        random_seed=seed, sim_seed=seed + 1, sizes=dict(sizes),
    )


def gen_bundled_cli(repo_root: str, directory: str, seed: int) -> Inputs:
    """The shipped scenario, copied unchanged; the CLI seeds are the ones the
    README and acceptance criterion 9 use, so ``seed`` does not enter."""
    del seed
    files = _copy_bundled(
        repo_root,
        directory,
        {
            "pool": "pool.json", "clocks": "clocks.json", "profiles": "profiles.csv",
            "config": "config.json", "behaviors": "behaviors.json",
            "workload": "workload_64.json", "history": "history.csv",
        },
    )
    sizes = WORKLOADS["bundled-cli"].sizes
    return Inputs("bundled-cli", directory, files, trials=sizes["trials"],
                  random_seed=64, sim_seed=42, sizes=dict(sizes))


GENERATORS = {
    "bag-homog-8k": gen_bag_homog,
    "bag-hetero-256": gen_bag_hetero,
    "bundled-cli": gen_bundled_cli,
}


def generate(name: str, repo_root: str, directory: str, seed: int) -> Inputs:
    """Write workload ``name``'s inputs for ``seed`` into ``directory``
    (created or emptied first)."""
    if os.path.isdir(directory):
        shutil.rmtree(directory)
    os.makedirs(directory)
    return GENERATORS[name](repo_root, directory, seed)
