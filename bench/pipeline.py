"""One repetition of a workload's select -> simulate -> report pipeline,
split into timed stages, with the output checks that decide whether each
stage call (one operation) failed.

The pipeline looks resselect's functions up through their modules at call
time (``rs.plan.plan_model``), so a traced repetition sees the wrappers that
``tracing.Tracer.installed`` puts there.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

import checks
import gen
import speed


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@dataclass
class Loaded:
    workload: object
    pool: list
    profiles: list
    clocks: dict
    config: object
    behaviors: dict
    store: object
    history_rows: int
    warnings: List[str]


def load(rs, files: Dict[str, str]) -> Loaded:
    """Read and validate every input file with resselect's public loaders."""
    workload = rs.model.workload_from_json(read_json(files["workload"]))
    pool = [rs.model.resource_from_json(r) for r in read_json(files["pool"])]
    with open(files["profiles"], encoding="utf-8", newline="") as fh:
        profiles, profile_warnings = rs.predict.load_profiles(fh)
    clocks = rs.predict.load_clocks(read_json(files["clocks"]))
    config = rs.config.Config.from_json(read_json(files["config"]))
    behaviors = {
        b["resource_id"]: rs.sim.ResourceBehavior.from_json(b)
        for b in read_json(files["behaviors"])
    }
    store = rs.queuewait.QueueWaitStore()
    with open(files["history"], encoding="utf-8", newline="") as fh:
        rows, history_warnings = store.ingest_csv(fh)
    return Loaded(workload, pool, profiles, clocks, config, behaviors, store, rows,
                  profile_warnings + history_warnings)


STAGES = ("setup", "select", "simulate", "report")
REF_STAGES = tuple("ref_" + s for s in STAGES)


class Runner:
    """Runs repetitions of one generated workload and keeps the operation
    counts.  The first successful repetition's outputs are checked in depth;
    every later repetition must reproduce them byte for byte."""

    def __init__(self, rs, inputs: gen.Inputs, root: str, log: Callable[[str], None]):
        self.rs = rs
        self.inputs = inputs
        self.root = root
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}
        self.outputs: Dict[str, dict] = {}  # first repetition's parsed outputs
        self._checked = set()
        self._viable = None
        self.is_cli = inputs.name == "bundled-cli"
        self._kernel_s = None  # the last calibration kernel times
        self.kernel_times: List[dict] = []  # every calibration, for the record
        self.out_dir = os.path.join(inputs.directory, "outputs")
        os.makedirs(self.out_dir, exist_ok=True)

    # --- operations ------------------------------------------------------------

    def _op(self, times, stage, tracer, fn, check=None, wall=None):
        """Call ``fn`` as one operation of ``stage``; returns its output, or
        raises ``_Abort`` after counting a failure.  ``times`` gets the
        call's wall time, or ``wall(output)`` when given, under ``stage``
        and its reference time (see speed.py) under ``"ref_" + stage``."""
        self.attempted += 1
        span = tracer.span("bench." + stage) if tracer else nullcontext()
        if self._kernel_s is None:
            self._kernel_s = speed.measure()
            self.kernel_times.append(self._kernel_s)
        start = perf_counter()
        try:
            with span:
                out = fn()
        except Exception:  # noqa: BLE001 - every failure is counted and reported
            self._failure(stage, traceback.format_exc())
        elapsed = perf_counter() - start if wall is None else wall(out)
        kernel_s = speed.measure()
        self.kernel_times.append(kernel_s)
        times[stage] += elapsed
        times["ref_" + stage] += speed.reference_time(stage, elapsed, self._kernel_s,
                                                      kernel_s)
        self._kernel_s = kernel_s
        if check is not None:
            try:
                check(out)
            except checks.CheckFailed as exc:
                self._failure(stage, f"check failed: {exc}")
        return out

    def _failure(self, stage, message):
        self.failed += 1
        self.log(f"FAILED {stage}: {message.rstrip()}")
        raise _Abort()

    def _same_bytes(self, key: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            raise checks.CheckFailed(f"{key} differs from the first repetition's bytes")

    def _first(self, key: str) -> bool:
        """True the first time ``key`` is checked in depth."""
        if key in self._checked:
            return False
        self._checked.add(key)
        return True

    def viable(self) -> dict:
        if self._viable is None:
            self._viable = checks.viable_sets(
                read_json(self.inputs.files["workload"]),
                read_json(self.inputs.files["pool"]))
        return self._viable

    def rep(self, tracer=None) -> Optional[Dict[str, float]]:
        """One repetition; wall and reference times of each stage in
        seconds (keys ``STAGES`` and ``REF_STAGES``), or None if an
        operation failed (the rest of that repetition is skipped)."""
        times = dict.fromkeys(STAGES + REF_STAGES, 0.0)
        self._kernel_s = None
        try:
            if self.is_cli:
                self._rep_cli(times, tracer)
            else:
                self._rep_library(times, tracer)
        except _Abort:
            return None
        return times

    # --- library workloads -------------------------------------------------------

    def _rep_library(self, times, tracer):
        rs, inp = self.rs, self.inputs
        dumps = lambda obj: rs.model.canonical_dumps(obj)  # noqa: E731 - late lookup

        loaded = self._op(times, "setup", tracer, lambda: load(rs, inp.files),
                          self._check_setup)

        def select():
            model_plan = rs.plan.plan_model(
                loaded.workload, loaded.pool, loaded.profiles, loaded.clocks,
                loaded.store, loaded.config, gen.NOW)
            model_text = dumps(model_plan.to_json())
            random_plan = rs.plan.plan_random(loaded.workload, loaded.pool, inp.random_seed,
                                              loaded.config.cores_per_task)
            return model_plan, model_text, random_plan, dumps(random_plan.to_json())

        model_plan, _, random_plan, _ = self._op(
            times, "select", tracer, select,
            lambda out: self._check_plans(out[1].encode(), out[3].encode(), loaded))

        def simulate():
            model_result = rs.sim.simulate(model_plan, loaded.behaviors, inp.trials,
                                           inp.sim_seed)
            model_text = dumps(model_result.to_json())
            random_result = rs.sim.simulate(random_plan, loaded.behaviors, inp.trials,
                                            inp.sim_seed)
            random_text = dumps(random_result.to_json())
            return (model_text, random_text,
                    dumps(rs.sim.compare(model_result, random_result)))

        self._op(times, "simulate", tracer, simulate, lambda out: self._check_results(
            out[0].encode(), out[1].encode(), "compare", out[2].encode(),
            json.loads(out[2])["ttc_reduction_pct"]))

    def _check_setup(self, loaded: Loaded) -> None:
        sizes = self.inputs.sizes
        if loaded.warnings:
            raise checks.CheckFailed(f"loader warnings: {loaded.warnings[:3]}")
        if (len(loaded.workload.tasks), len(loaded.pool), loaded.history_rows) != (
                sizes["tasks"], sizes["resources"], sizes["history_rows"]):
            raise checks.CheckFailed("loaded sizes differ from the generated sizes")

    def _check_plans(self, model_bytes: bytes, random_bytes: bytes,
                     loaded: Optional[Loaded] = None) -> None:
        self._same_bytes("plan_model", model_bytes)
        self._same_bytes("plan_random", random_bytes)
        if not self._first("plans"):
            return
        model_plan, random_plan = json.loads(model_bytes), json.loads(random_bytes)
        self.outputs.update(plan_model=model_plan, plan_random=random_plan)
        loaded = loaded or load(self.rs, self.inputs.files)
        viable = self.viable()
        checks.check_random_plan(random_plan, viable, self.inputs.random_seed)
        checks.check_model_plan(
            model_plan, checks.sample_tasks(viable, self.inputs.sim_seed), viable,
            self.rs.predict.profiles_by_task(loaded.profiles), loaded.clocks,
            loaded.store, loaded.config, float(gen.NOW), self.rs)

    def _check_results(self, rm: bytes, rr: bytes, summary_key: str, summary: bytes,
                       reduction_pct: float) -> None:
        """``summary`` is the comparison JSON or the report CSV, and
        ``reduction_pct`` the TTC reduction it states."""
        for key, data in (("result_model", rm), ("result_random", rr), (summary_key, summary)):
            self._same_bytes(key, data)
        if not self._first("results"):
            return
        rm, rr = json.loads(rm), json.loads(rr)
        checks.check_result(rm, "model", self.inputs.trials)
        checks.check_result(rr, "random", self.inputs.trials)
        checks.check_compare(reduction_pct, rm, rr)
        if self.is_cli:
            checks.check_reduction(reduction_pct)

    # --- the shipped scenario through the CLI ---------------------------------------

    def _rep_cli(self, times, tracer):
        rs, inp, f = self.rs, self.inputs, self.inputs.files
        out = {k: os.path.join(self.out_dir, k) for k in (
            "plan_model.json", "plan_random.json", "scenario_model.json",
            "scenario_random.json", "result_model.json", "result_random.json",
            "report.csv")}
        # the child times its own import, without interpreter start-up
        self._op(times, "setup", None, self._time_import, wall=lambda t: t)

        def cli(*argv):
            def call():
                code = rs.cli.main(list(argv))
                if code != 0:
                    raise RuntimeError(f"resselect {argv[0]} exited with {code}")
            return call

        self._op(times, "select", tracer, cli(
            "select", "--workload", f["workload"], "--pool", f["pool"],
            "--profiles", f["profiles"], "--clocks", f["clocks"],
            "--history", f["history"], "--config", f["config"],
            "--now", gen.NOW_ISO, "--out", out["plan_model.json"]))
        self._op(times, "select", tracer, cli(
            "select", "--strategy", "random", "--seed", str(inp.random_seed),
            "--workload", f["workload"], "--pool", f["pool"], "--config", f["config"],
            "--out", out["plan_random.json"]),
            lambda _: self._check_plans(_read_bytes(out["plan_model.json"]),
                                        _read_bytes(out["plan_random.json"])))
        behaviors = read_json(f["behaviors"])
        for strategy in ("model", "random"):
            with open(out[f"scenario_{strategy}.json"], "w", encoding="utf-8") as fh:
                json.dump({"plan": out[f"plan_{strategy}.json"], "behaviors": behaviors,
                           "trials": inp.trials, "seed": inp.sim_seed}, fh)
        for strategy in ("model", "random"):
            self._op(times, "simulate", tracer, cli(
                "simulate", "--scenario", out[f"scenario_{strategy}.json"],
                "--out", out[f"result_{strategy}.json"]))
        self._op(times, "report", tracer, cli(
            "report", "--model", out["result_model.json"],
            "--random", out["result_random.json"], "--out", out["report.csv"]),
            lambda _: self._check_cli_results(out))

    def _time_import(self) -> float:
        """Import resselect.cli in a fresh interpreter; the child reports the
        import's own duration, without interpreter start-up."""
        code = ("import time; t = time.perf_counter(); import resselect.cli; "
                "print(repr(time.perf_counter() - t))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout.strip())

    def _check_cli_results(self, out) -> None:
        report = _read_bytes(out["report.csv"])
        self._check_results(
            _read_bytes(out["result_model.json"]), _read_bytes(out["result_random.json"]),
            "report", report, checks.reduction_from_report_csv(report.decode("utf-8")))


class _Abort(Exception):
    """Ends a repetition after a counted failure."""
