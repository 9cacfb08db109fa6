"""Tests of the benchmark itself: generator determinism, span self-time
arithmetic, and each output check catching a corrupted plan or result.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import filecmp
import json
import os
import shutil
import unittest

import checks
import gen
import pipeline
import run
import tracing

ROOT = os.path.dirname(run.BENCH_DIR)
WORK_DIR = os.path.join(run.BENCH_DIR, "out", "tests")
rs = run.import_resselect(ROOT)


def _dir(name: str) -> str:
    return os.path.join(WORK_DIR, name)


def tearDownModule():
    shutil.rmtree(WORK_DIR, ignore_errors=True)


class GeneratorTest(unittest.TestCase):
    def _same_files(self, a: gen.Inputs, b: gen.Inputs) -> bool:
        names = sorted(os.path.basename(p) for p in a.files.values())
        match, mismatch, errors = filecmp.cmpfiles(
            a.directory, b.directory, names, shallow=False)
        return not mismatch and not errors

    def test_same_seed_same_bytes(self):
        for name in gen.WORKLOADS:
            with self.subTest(workload=name):
                a = gen.generate(name, ROOT, _dir(f"{name}-a"), 7)
                b = gen.generate(name, ROOT, _dir(f"{name}-b"), 7)
                self.assertTrue(self._same_files(a, b))

    def test_other_seed_other_history(self):
        a = gen.generate("bag-hetero-256", ROOT, _dir("seed-a"), 1)
        b = gen.generate("bag-hetero-256", ROOT, _dir("seed-b"), 2)
        self.assertFalse(filecmp.cmp(a.files["history"], b.files["history"], shallow=False))

    def test_loaders_accept_generated_inputs_without_warnings(self):
        inputs = gen.generate("bag-hetero-256", ROOT, _dir("load"), 3)
        loaded = pipeline.load(rs, inputs.files)
        self.assertEqual(loaded.warnings, [])
        self.assertEqual(len(loaded.workload.tasks), inputs.sizes["tasks"])
        self.assertEqual(len(loaded.pool), inputs.sizes["resources"])
        self.assertEqual(loaded.history_rows, inputs.sizes["history_rows"])
        viable = checks.viable_sets(pipeline.read_json(inputs.files["workload"]),
                                    pipeline.read_json(inputs.files["pool"]))
        sizes = [len(v) for v in viable.values()]
        self.assertGreater(min(sizes), 0)
        self.assertTrue(8 <= sum(sizes) / len(sizes) <= 10)
        # the raw-JSON oracle agrees with resselect's matcher
        for task in loaded.workload.tasks[:64]:
            self.assertEqual(rs.match.viable_set(task, loaded.pool).resource_ids,
                             viable[task.task_id])


def _span(sid, parent, start, end, name="x"):
    return [sid, parent, name, start, end, 0, None]


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            _span(0, None, 0, 100),
            _span(1, 0, 10, 30),
            _span(2, 0, 20, 50),   # overlaps span 1: covered once
            _span(3, 0, 60, 70),
            _span(4, 1, 12, 18),   # grandchild: charged to span 1 only
            _span(5, 0, 95, 120),  # runs past the parent: clipped at 100
        ]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs[0], 100 - (40 + 10 + 5))
        self.assertEqual(selfs[1], 20 - 6)
        self.assertEqual(selfs[4], 6)
        self.assertEqual(selfs[5], 25)

    def test_tracer_records_parents_and_restores_originals(self):
        class Owner:
            @staticmethod
            def inner(x):
                return x + 1

        def outer(x):
            return Owner.inner(x) * 2

        holder = type("Holder", (), {"outer": staticmethod(outer)})
        tracer = tracing.Tracer()
        tracer.rep = 3
        original = Owner.inner
        with tracer.installed([(Owner, "inner", "a.inner", lambda a, k, r: {"r": r}),
                               (holder, "outer", "a.outer", None)]):
            self.assertEqual(holder.outer(1), 4)
        self.assertIs(Owner.inner, original)
        outer_span, inner_span = tracer.spans
        self.assertEqual(inner_span[tracing.PARENT], outer_span[tracing.ID])
        self.assertEqual(inner_span[tracing.ATTRS], {"r": 2})
        self.assertEqual({s[tracing.REP] for s in tracer.spans}, {3})


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs = gen.generate("bundled-cli", ROOT, _dir("checks"), 0)
        cls.loaded = pipeline.load(rs, cls.inputs.files)
        cls.viable = checks.viable_sets(pipeline.read_json(cls.inputs.files["workload"]),
                                        pipeline.read_json(cls.inputs.files["pool"]))
        ld = cls.loaded
        model = rs.plan.plan_model(ld.workload, ld.pool, ld.profiles, ld.clocks,
                                   ld.store, ld.config, float(gen.NOW))
        random_ = rs.plan.plan_random(ld.workload, ld.pool, 64)
        cls.model_plan = json.loads(rs.model.canonical_dumps(model.to_json()))
        cls.random_plan = json.loads(rs.model.canonical_dumps(random_.to_json()))
        rm = rs.sim.simulate(model, ld.behaviors, 50, 1)
        rr = rs.sim.simulate(random_, ld.behaviors, 50, 1)
        cls.results = (rm.to_json(), rr.to_json())
        cls.compare = rs.sim.compare(rm, rr)

    def check_model(self, plan):
        ld = self.loaded
        checks.check_model_plan(
            plan, sorted(self.viable), self.viable, rs.predict.profiles_by_task(ld.profiles),
            ld.clocks, ld.store, ld.config, float(gen.NOW), rs)

    def test_good_outputs_pass(self):
        self.check_model(self.model_plan)
        checks.check_random_plan(self.random_plan, self.viable, 64)
        checks.check_result(self.results[0], "model", 50)
        checks.check_result(self.results[1], "random", 50)
        checks.check_compare(self.compare["ttc_reduction_pct"], *self.results)
        checks.check_reduction(self.compare["ttc_reduction_pct"])

    def test_model_plan_on_a_worse_resource_fails(self):
        plan = copy.deepcopy(self.model_plan)
        entry = plan["assignments"]["md-100k-0005"]
        entry["resource_id"] = "bridges" if entry["resource_id"] != "bridges" else "comet"
        with self.assertRaises(checks.CheckFailed):
            self.check_model(plan)

    def test_model_plan_with_wrong_ttc_fails(self):
        plan = copy.deepcopy(self.model_plan)
        plan["assignments"]["md-100k-0009"]["ttc_s"] *= 1.001
        with self.assertRaises(checks.CheckFailed):
            self.check_model(plan)

    def test_random_plan_outside_viable_set_fails(self):
        plan = copy.deepcopy(self.random_plan)
        plan["assignments"]["md-100k-0003"]["resource_id"] = "stampede"
        with self.assertRaises(checks.CheckFailed):
            checks.check_random_plan(plan, self.viable, 64)

    def test_result_with_broken_trial_fails(self):
        for field, factor in (("tq_wkd_s", 1.01), ("tx_wkd_s", 50.0)):
            with self.subTest(field=field):
                result = copy.deepcopy(self.results[1])
                result["per_trial"][field][7] = result["per_trial"][field][7] * factor + 1.0
                with self.assertRaises(checks.CheckFailed):
                    checks.check_result(result, "random", 50)

    def test_compare_and_reduction_band(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_compare(self.compare["ttc_reduction_pct"] + 1, *self.results)
        with self.assertRaises(checks.CheckFailed):
            checks.check_reduction(95.0)
        csv_text = "group,metric,mean,sample_stddev\ncomparison,ttc_reduction_pct,66.5,\n"
        self.assertEqual(checks.reduction_from_report_csv(csv_text), 66.5)

    def test_sim_counts(self):
        behaviors = {b["resource_id"]: b for b in pipeline.read_json(self.inputs.files["behaviors"])}
        plan = {"assignments": {"a": {"resource_id": "supermic"},
                                "b": {"resource_id": "supermic"},
                                "c": {"resource_id": "osg"}}}
        # supermic: one normal pilot wait per trial, constant durations,
        # no capacity limit; osg: one normal wait per task
        self.assertEqual(checks.sim_counts(plan, behaviors, 10), (20, 20))


class RunnerTest(unittest.TestCase):
    def test_repeated_stage_with_different_bytes_counts_as_failure(self):
        inputs = gen.generate("bundled-cli", ROOT, _dir("runner"), 0)
        runner = pipeline.Runner(rs, inputs, ROOT, lambda msg: None)
        self.assertIsNotNone(runner.rep())
        self.assertEqual(runner.failed, 0)
        attempted = runner.attempted
        original = rs.model.canonical_dumps
        rs.model.canonical_dumps = lambda obj: original(obj) + " "
        try:
            self.assertIsNone(runner.rep())
        finally:
            rs.model.canonical_dumps = original
        self.assertEqual(runner.failed, 1)
        self.assertGreater(runner.attempted, attempted)


class ReferenceTimeTest(unittest.TestCase):
    def test_stage_time_is_scaled_by_its_kernel_around_it(self):
        inputs = gen.generate("bundled-cli", ROOT, _dir("reference"), 0)
        runner = pipeline.Runner(rs, inputs, ROOT, lambda msg: None)
        ref = pipeline.speed.REFERENCE_S
        # select is scaled by the records kernel: before and after average
        # twice its reference time, so the host ran at half speed
        kernel_times = iter([
            {"records": 1.5 * ref["records"], "draws": 9.0},
            {"records": 2.5 * ref["records"], "draws": 9.0},
        ])
        original = pipeline.speed.measure
        pipeline.speed.measure = lambda: next(kernel_times)
        try:
            times = dict.fromkeys(pipeline.STAGES + pipeline.REF_STAGES, 0.0)
            runner._op(times, "select", None, lambda: 0.5, wall=lambda out: out)
        finally:
            pipeline.speed.measure = original
        self.assertEqual(times["select"], 0.5)
        self.assertAlmostEqual(times["ref_select"], 0.25)


class TracedRunTest(unittest.TestCase):
    def test_bundled_counts_are_exact(self):
        inputs = gen.generate("bundled-cli", ROOT, _dir("traced"), 0)
        runner = pipeline.Runner(rs, inputs, ROOT, lambda msg: None)
        untraced = runner.rep()
        tracer = tracing.Tracer()
        tracer.rep = 1
        with tracer.installed(tracing.targets(rs)):
            traced = runner.rep(tracer)
        self.assertEqual(runner.failed, 0)
        m = run.per_layer(tracer, [1], [untraced], [traced], runner)
        self.assertEqual(m["queuewait.estimate_tq_calls"], 4)
        self.assertEqual(m["queuewait.ingest_rows"], 24)
        self.assertEqual(m["match.viable_set_calls"], 128)  # 64 tasks, two plans
        self.assertEqual(m["match.viable_set_mean_size"], 4.0)
        self.assertEqual(m["predict.predict_tx_calls"], 256)
        self.assertEqual(m["plan.task_estimates_calls"], 64)
        self.assertEqual(m["model.aggregate_calls"], 0)
        # model plan: 1000 supermic pilot waits; random plan: 3 pilots x 1000
        # plus one wait per osg task per trial
        osg = sum(e["resource_id"] == "osg"
                  for e in runner.outputs["plan_random"]["assignments"].values())
        self.assertEqual(m["sim.draws"], 1000 + 3000 + osg * 1000)
        self.assertEqual(m["sim.task_trials_uncapped_single"], (64 + 64 - osg) * 1000)
        self.assertGreater(m["cli.simulate_s"], m["sim.simulate_random_s"])
        self.assertEqual({s[tracing.REP] for s in tracer.spans}, {1})


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        spec = pipeline.read_json(os.path.join(ROOT, "BENCHMARK.json"))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(gen.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
