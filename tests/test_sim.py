import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resselect
from resselect import DistSpec, ResourceBehavior, SimulationResult, compare, simulate
from resselect.codec import BEHAVIOR, DIST, RESULT
from resselect.model import canonical_dumps
from resselect.plan import Assignment, SelectionPlan
from resselect.sim import _BLOCK, MissingBehaviorError, _draws, _timeline

from oracles import draw_oracle, per_task_schedule, timeline_oracle


def const(v):
    return DistSpec("constant", value=v)


def behavior(rid, tq, tx, **kwargs):
    return ResourceBehavior(rid, tq_dist=tq, tx_dist=tx, **kwargs)


def hexes(values):
    """The floats of ``values``, bit for bit: -0.0 is not 0.0."""
    return list(map(float.hex, values))


def make_plan(assignments, workload_id="w", strategy="model"):
    return SelectionPlan(
        workload_id=workload_id,
        strategy=strategy,
        assignments={t: Assignment(r) for t, r in assignments.items()},
        resource_requests={},
    )


class TestDistSpec:
    def test_constant(self):
        assert const(5.0).at_each([random.Random(0).getrandbits(52)])[0] == 5.0

    def test_normal_truncated_at_zero(self):
        d = DistSpec("normal", mean=0.0, stddev=100.0)
        rng = random.Random(0)
        assert all(d.at_each([rng.getrandbits(52)])[0] >= 0.0 for _ in range(200))

    def test_empirical(self):
        d = DistSpec("empirical", samples=(1.0, 2.0, 3.0))
        rng = random.Random(0)
        assert all(d.at_each([rng.getrandbits(52)])[0] in (1.0, 2.0, 3.0) for _ in range(20))

    def test_validation(self):
        with pytest.raises(ValueError):
            DistSpec("constant")
        with pytest.raises(ValueError):
            DistSpec("normal", mean=1.0)
        with pytest.raises(ValueError):
            DistSpec("empirical", samples=())
        with pytest.raises(ValueError):
            DistSpec("weird")
        # NaN passes every ordering check: a NaN duration would vanish from
        # the TTC's max() and a NaN mean would draw max(0.0, nan) == 0.0
        for kind, given, field in [
            ("constant", {"value": math.nan}, "value"),
            ("constant", {"value": math.inf}, "value"),
            ("normal", {"mean": math.nan, "stddev": 1.0}, "mean"),
            ("normal", {"mean": -math.inf, "stddev": 1.0}, "mean"),
            ("normal", {"mean": 1.0, "stddev": math.nan}, "stddev"),
            ("normal", {"mean": 1.0, "stddev": math.inf}, "stddev"),
            ("empirical", {"samples": (1.0, math.nan)}, "samples"),
            ("empirical", {"samples": (math.inf,)}, "samples"),
            # an int past the float range makes math.isfinite overflow
            ("constant", {"value": 10**400}, "value"),
            ("normal", {"mean": 1.0, "stddev": 10**400}, "stddev"),
            ("empirical", {"samples": (1.0, 10**400)}, "samples"),
        ]:
            with pytest.raises(ValueError, match=f"{kind} distribution needs a finite {field}$"):
                DistSpec(kind, **given)

    @pytest.mark.parametrize("kind,given,unread", [
        ("constant", {"value": 1.0, "mean": 2.0, "stddev": 1.0}, "mean, stddev"),
        ("constant", {"value": 1.0, "samples": (1.0,)}, "samples"),
        ("normal", {"mean": 1.0, "stddev": 1.0, "value": 1.0}, "value"),
        ("normal", {"mean": 1.0, "stddev": 1.0, "samples": (1.0,)}, "samples"),
        ("empirical", {"samples": (1.0,), "value": 1.0, "mean": 1.0}, "value, mean"),
        ("empirical", {"samples": (1.0,), "stddev": 1.0}, "stddev"),
    ])
    def test_fields_the_kind_never_reads_rejected(self, kind, given, unread):
        with pytest.raises(ValueError, match=f"{kind} distribution does not read {unread}$"):
            DistSpec(kind, **given)

    def test_capacity_rejected_for_per_task_pilots(self):
        with pytest.raises(ValueError, match="capacity_cores"):
            behavior("r", const(1.0), const(1.0), pilot_mode="per_task", capacity_cores=2)
        assert behavior("r", const(1.0), const(1.0), capacity_cores=2).capacity_cores == 2

    def test_json_round_trip(self):
        for d in (const(2.0), DistSpec("normal", mean=1.0, stddev=0.5),
                  DistSpec("empirical", samples=(1.0, 2.0))):
            assert DIST.decode(DIST.encode(d)) == d


class TestKeyedDraws:
    """A draw is the top 52 bits ``k`` of its key's blake2b digest, mapped by
    ``DistSpec.at_each``: the normal's inverse CDF at (k + 0.5) / 2**52,
    truncated at 0, or the empirical sample at index k * n >> 52.  The
    statistical tests draw by ``draw_oracle``, which ``_draws`` matches bit
    for bit."""

    N = 40_000

    def draws(self, dist):
        return [draw_oracle(dist, 11, 0, "r", f"t{i}", "tx") for i in range(self.N)]

    def test_normal_mean_and_stddev_within_four_standard_errors(self):
        xs = self.draws(DistSpec("normal", mean=1000.0, stddev=50.0))
        assert abs(statistics.mean(xs) - 1000.0) < 4 * 50.0 / math.sqrt(self.N)
        assert abs(statistics.stdev(xs) - 50.0) < 4 * 50.0 / math.sqrt(2 * (self.N - 1))

    def test_negative_mean_truncates_to_exact_zero(self):
        xs = self.draws(DistSpec("normal", mean=-5.0, stddev=10.0))
        zeros = [x for x in xs if x <= 0.0]
        assert all(x == 0.0 and math.copysign(1.0, x) == 1.0 for x in zeros)
        share = statistics.NormalDist().cdf(0.5)  # P(-5 + 10 z <= 0)
        assert abs(len(zeros) / self.N - share) < 4 * math.sqrt(share * (1 - share) / self.N)

    def test_zero_stddev_gives_the_mean_exactly(self):
        d = DistSpec("normal", mean=123.456, stddev=0.0)
        assert d.at_each([0, 1, 2**51, 2**52 - 1]) == [123.456] * 4
        assert draw_oracle(d, 1, 0, "r", "t", "tx").hex() == (123.456).hex()

    def test_extreme_bits_give_finite_values(self):
        d = DistSpec("normal", mean=100.0, stddev=1.0)
        lo, hi = d.at_each([0, 2**52 - 1])
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo == pytest.approx(100.0 - 8.21, abs=0.01)
        assert hi == pytest.approx(100.0 + 8.21, abs=0.01)

    def test_empirical_index_is_exact_and_uniform(self):
        samples = tuple(float(i) for i in range(7))
        d = DistSpec("empirical", samples=samples)
        edge = -(-2**52 // 7)  # the first k of index 1
        assert d.at_each([0, edge - 1, edge, 2**52 - 1]) == [0.0, 0.0, 1.0, 6.0]
        counts = [0] * len(samples)
        for x in self.draws(d):
            counts[int(x)] += 1
        expected = self.N / len(samples)
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert min(counts) > 0 and chi2 < 22.46  # chi-square, 6 dof, p = 0.001

    def test_every_empirical_bucket_edge(self):
        """Index i starts at the least k with k * n >= i * 2**52."""
        for n in (1, 2, 3, 16, 20):
            d = DistSpec("empirical", samples=tuple(float(i) for i in range(n)))
            edges = [-(-i * 2**52 // n) for i in range(1, n)]
            ks = [0, *(k for e in edges for k in (e - 1, e)), 2**52 - 1]
            expected = [0.0, *(x for i in range(1, n) for x in (i - 1.0, float(i))), n - 1.0]
            assert d.at_each(ks) == expected

    def test_at_each_maps_52_random_bits_through_the_inverse_cdf(self):
        """Bit for bit, by ``float.hex``: a truncated draw is +0.0 and an
        overflowing one inf."""
        rng = random.Random(5)
        ks = [rng.getrandbits(52) for _ in range(64)] + [0, 2**51, 2**52 - 1]
        z = statistics.NormalDist().inv_cdf
        for mean, stddev in [(10.0, 3.0), (-5.0, 10.0), (-0.0, 0.0), (-0.0, 1.0), (1e308, 1e308)]:
            d = DistSpec("normal", mean=mean, stddev=stddev)
            expected = [max(0.0, mean + stddev * z((k + 0.5) / 2**52)) for k in ks]
            assert hexes(d.at_each(ks)) == hexes(expected)
            assert hexes(d.at_each([k])[0] for k in ks) == hexes(expected)

    @settings(max_examples=200, deadline=None)
    @given(dist=st.one_of(
        st.builds(const, st.floats(0.0, 1e6)),
        st.builds(lambda mean, stddev: DistSpec("normal", mean=mean, stddev=stddev),
                  st.one_of(st.just(-0.0), st.floats(-1e4, 0.0), st.floats(allow_nan=False,
                                                                           allow_infinity=False)),
                  st.one_of(st.just(0.0), st.floats(0.0, 1e4),
                            st.floats(0.0, allow_nan=False, allow_infinity=False))),
        st.builds(lambda xs: DistSpec("empirical", samples=xs),
                  st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20))),
        seed=st.integers(0, 2**32), trial=st.integers(0, 200),
        n=st.one_of(st.just(0), st.just(1), st.integers(2, 64)))
    def test_draws_match_the_draw_of_each_key(self, dist, seed, trial, n):
        """``simulate``'s draws, a pilot's keys at a time with its head hashed
        once, are ``draw_oracle``'s of each whole token bit for bit: -0.0, a
        truncated 0.0 and an overflow to inf included."""
        prefix = hashlib.blake2b(f"{seed}|{trial}|r|".encode(), digest_size=8)
        tasks = [f"t{i}" for i in range(n)]
        got = _draws(dist, prefix, [f"{t}|tx".encode() for t in tasks])
        expected = [draw_oracle(dist, seed, trial, "r", t, "tx") for t in tasks]
        assert hexes(got) == hexes(expected)

    @pytest.mark.parametrize("dist", [DistSpec("normal", mean=5.0, stddev=2.0),
                                      DistSpec("empirical", samples=(1.0, 2.0, 3.0))],
                             ids=["normal", "empirical"])
    def test_draws_call_no_python_function_per_key(self, dist):
        """Only the normal's inverse CDF, in `statistics`, is called per key."""
        def calls(n):
            seen = []
            prefix = hashlib.blake2b(b"1|0|r|", digest_size=8)
            suffixes = [f"t{i}|tx".encode() for i in range(n)]
            sys.setprofile(lambda frame, event, arg: event == "call" and seen.append(
                frame.f_code.co_filename))
            try:
                _draws(dist, prefix, suffixes)
            finally:
                sys.setprofile(None)
            return [f for f in seen if f != statistics.__file__]

        assert calls(1) == calls(100)


class TestStreamProperties:
    BEHAVIORS = {
        "r": behavior("r", DistSpec("normal", mean=300.0, stddev=100.0),
                      DistSpec("empirical", samples=(10.0, 50.0, 90.0)), pilot_mode="per_task"),
        "rA": behavior("rA", const(0.0), const(0.0)),
        "rB": behavior("rB", DistSpec("normal", mean=0.0, stddev=0.0), const(0.0),
                       capacity_cores=1),
    }

    def test_common_random_numbers_across_plans(self):
        """``t`` on ``r`` sees the same draws whatever else each plan holds."""
        model = simulate(make_plan({"t": "r", "u": "rA"}), self.BEHAVIORS, trials=30, seed=4)
        rand = simulate(make_plan({"u": "rB", "v": "rA", "t": "r"}, strategy="random"),
                        self.BEHAVIORS, trials=30, seed=4)
        expected = hexes(draw_oracle(self.BEHAVIORS["r"].tq_dist, 4, trial, "r", "t", "tq")
                         + draw_oracle(self.BEHAVIORS["r"].tx_dist, 4, trial, "r", "t", "tx")
                         for trial in range(30))
        assert hexes(model.ttc_wkd_s) == hexes(rand.ttc_wkd_s) == expected
        assert len(set(expected)) > 1

    def test_assignment_order_does_not_matter(self):
        rng = random.Random(8)
        behaviors = {
            **self.BEHAVIORS,
            "rC": behavior("rC", DistSpec("empirical", samples=(5.0, 500.0)),
                           DistSpec("normal", mean=40.0, stddev=15.0), capacity_cores=3),
        }
        pairs = [(f"t{i}", rng.choice(sorted(behaviors))) for i in range(40)]
        results = []
        for _ in range(3):
            rng.shuffle(pairs)
            results.append(simulate(make_plan(dict(pairs)), behaviors, trials=10, seed=2))
        assert results[0] == results[1] == results[2]


ZERO = st.sampled_from([0.0, -0.0])
DISTS = st.one_of(
    st.builds(const, ZERO | st.floats(0.0, 500.0)),
    st.builds(lambda mean, stddev: DistSpec("normal", mean=mean, stddev=stddev),
              ZERO | st.floats(-100.0, 300.0), ZERO | st.floats(0.0, 100.0)),
    st.builds(lambda xs: DistSpec("empirical", samples=xs),
              st.lists(ZERO | st.floats(0.0, 200.0), min_size=1, max_size=5)))


@st.composite
def pools(draw):
    """(assignments, behaviors): 1-8 tasks on 1-3 resources, each a single
    pilot, capped below, at or above its task count or uncapped, or per_task."""
    rids = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    assignments = {f"t{i}": draw(st.sampled_from(rids)) for i in range(draw(st.integers(1, 8)))}
    behaviors = {}
    for rid in rids:
        mode = draw(st.sampled_from(["single", "per_task"]))
        capacity = None if mode == "per_task" else draw(st.none() | st.integers(1, 9))
        behaviors[rid] = behavior(rid, draw(DISTS), draw(DISTS), capacity_cores=capacity,
                                  pilot_mode=mode)
    return assignments, behaviors


class TestSimulate:
    def test_single_resource_constant_case(self):
        plan = make_plan({f"t{i}": "r" for i in range(64)})
        behaviors = {"r": behavior("r", const(100.0), const(50.0))}
        result = simulate(plan, behaviors, trials=5, seed=1)
        assert all(v == 150.0 for v in result.ttc_wkd_s)
        assert all(v == 100.0 for v in result.tq_wkd_s)
        assert all(v == 50.0 for v in result.tx_wkd_s)

    def test_two_resource_disjoint_windows(self):
        plan = make_plan({"t1": "rA", "t2": "rA", "t3": "rB", "t4": "rB"})
        behaviors = {
            "rA": behavior("rA", const(100.0), const(50.0)),
            "rB": behavior("rB", const(400.0), const(50.0)),
        }
        result = simulate(plan, behaviors, trials=3, seed=1)
        assert all(v == 450.0 for v in result.ttc_wkd_s)
        assert all(v == 350.0 for v in result.tq_wkd_s)
        assert all(v == 100.0 for v in result.tx_wkd_s)

    def test_same_seed_identical_results(self):
        plan = make_plan({"t1": "rA", "t2": "rB"})
        behaviors = {
            "rA": behavior("rA", DistSpec("normal", mean=100, stddev=20), const(50.0)),
            "rB": behavior("rB", DistSpec("normal", mean=400, stddev=80),
                           DistSpec("normal", mean=50, stddev=5)),
        }
        r1 = simulate(plan, behaviors, trials=20, seed=9)
        r2 = simulate(plan, behaviors, trials=20, seed=9)
        assert r1 == r2
        assert canonical_dumps(r1.to_json()) == canonical_dumps(r2.to_json())

    def test_overflowing_ttc_rejected(self):
        plan = make_plan({"t1": "r"})
        behaviors = {"r": behavior("r", const(1e308), const(1e308))}
        with pytest.raises(ValueError, match="overflow"):
            simulate(plan, behaviors, trials=1, seed=1)

    def test_capacity_serializes_tasks(self):
        plan = make_plan({"t1": "r", "t2": "r", "t3": "r"})
        behaviors = {"r": behavior("r", const(10.0), const(5.0), capacity_cores=1)}
        result = simulate(plan, behaviors, trials=1, seed=0)
        # three tasks back to back on one core
        assert result.ttc_wkd_s[0] == 25.0
        assert result.tx_wkd_s[0] == 15.0

    def test_capacity_two_cores(self):
        plan = make_plan({f"t{i}": "r" for i in range(3)})
        behaviors = {"r": behavior("r", const(0.0), const(5.0), capacity_cores=2)}
        result = simulate(plan, behaviors, trials=1, seed=0)
        assert result.ttc_wkd_s[0] == 10.0

    def test_per_task_pilot_mode_staggers_starts(self):
        plan = make_plan({"t1": "r", "t2": "r"})
        behaviors = {
            "r": behavior("r", DistSpec("empirical", samples=(0.0, 1000.0)),
                          const(10.0), pilot_mode="per_task")
        }
        result = simulate(plan, behaviors, trials=50, seed=3)
        # with both samples drawn, windows are disjoint: tx 20, ttc 1010
        assert 1010.0 in result.ttc_wkd_s

    def test_missing_behavior_errors(self):
        plan = make_plan({"t1": "r"})
        with pytest.raises(ValueError, match="no behavior"):
            simulate(plan, {}, trials=1, seed=0)

    def test_missing_behavior_names_the_resource(self):
        with pytest.raises(MissingBehaviorError) as caught:
            simulate(make_plan({"t1": "r", "t2": "s"}),
                     {"r": behavior("r", const(1.0), const(1.0))}, trials=1, seed=0)
        assert str(caught.value) == "no behavior for resource 's'"

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_1_error(self, trials):
        behaviors = {"r": behavior("r", DistSpec("constant", value=1.0),
                                   DistSpec("constant", value=1.0))}
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            simulate(make_plan({"t1": "r"}), behaviors, trials=trials, seed=0)

    def test_zero_task_plan_errors(self):
        plan = make_plan({})
        with pytest.raises(ValueError, match="zero-task plan"):
            simulate(plan, {}, trials=1, seed=0)

    def test_tq_plus_tx_equals_ttc_every_trial(self):
        plan = make_plan({f"t{i}": ["rA", "rB"][i % 2] for i in range(8)})
        behaviors = {
            "rA": behavior("rA", DistSpec("normal", mean=100, stddev=30),
                           DistSpec("normal", mean=40, stddev=10)),
            "rB": behavior("rB", DistSpec("normal", mean=300, stddev=50),
                           DistSpec("normal", mean=40, stddev=10),
                           pilot_mode="per_task"),
        }
        result = simulate(plan, behaviors, trials=100, seed=5)
        for ttc, tq, tx in zip(result.ttc_wkd_s, result.tq_wkd_s, result.tx_wkd_s):
            assert ttc == pytest.approx(tq + tx, abs=1e-9)

    def test_tq_shift_moves_ttc_by_delta_single_resource(self):
        plan = make_plan({f"t{i}": "r" for i in range(4)})
        base = simulate(plan, {"r": behavior("r", const(100.0), const(50.0))},
                        trials=1, seed=0)
        shifted = simulate(plan, {"r": behavior("r", const(175.0), const(50.0))},
                           trials=1, seed=0)
        assert shifted.ttc_wkd_s[0] - base.ttc_wkd_s[0] == 75.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_constant_distributions_match_interval_oracle(self, seed):
        """Each single pilot adds one busy interval; the oracle gets one
        interval per task from a per-core schedule built here, over constant,
        normal and empirical draws (zero durations included), capacities
        None, 1, below and at least the task count, and per_task pilots."""
        rng = random.Random(seed)
        dists = [const(0.0), const(round(rng.uniform(0, 500), 3)),
                 DistSpec("normal", mean=rng.uniform(-50, 300), stddev=rng.uniform(0, 100)),
                 DistSpec("empirical", samples=(0.0, 7.5, 7.5, rng.uniform(0, 200)))]
        behaviors, assignments = {}, {}
        for rid in [f"r{i}" for i in range(rng.randint(1, 4))]:
            n_tasks = rng.randint(1, 6)
            mode = rng.choice(["single", "single", "per_task"])
            capacity = None if mode == "per_task" else rng.choice(
                [None, 1, rng.randint(1, n_tasks), n_tasks, n_tasks + 2])
            behaviors[rid] = behavior(rid, rng.choice(dists), rng.choice(dists),
                                      capacity_cores=capacity, pilot_mode=mode)
            for _ in range(n_tasks):
                assignments[f"t{len(assignments)}"] = rid
        plan = make_plan(assignments)
        result = simulate(plan, behaviors, trials=3, seed=seed)
        for trial in range(3):
            expected = timeline_oracle(per_task_schedule(assignments, behaviors, seed, trial))
            got = (result.ttc_wkd_s[trial], result.tq_wkd_s[trial], result.tx_wkd_s[trial])
            assert hexes(got) == hexes(expected)


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pool=pools(), trials=st.integers(1, 40), seed=st.integers(0, 2**32))
    def test_every_trial_matches_the_oracle_schedule(self, pool, trials, seed):
        """On random pools, by ``float.hex``: every trial's (ttc, tq, tx) is
        the interval oracle's on a per-core schedule of ``draw_oracle``'s
        draws."""
        assignments, behaviors = pool
        result = simulate(make_plan(assignments), behaviors, trials=trials, seed=seed)
        expected = [timeline_oracle(per_task_schedule(assignments, behaviors, seed, trial))
                    for trial in range(trials)]
        got = zip(result.ttc_wkd_s, result.tq_wkd_s, result.tx_wkd_s)
        assert list(map(hexes, got)) == list(map(hexes, expected))


# simulates the scenario on stdin and prints, as JSON, the canonical result
# and which of hashlib and statistics were loaded before and after the call
FRESH_SIMULATE = """
import json, sys
from resselect import simulate
from resselect.codec import SCENARIO
from resselect.model import canonical_dumps

doc = SCENARIO.decode(json.load(sys.stdin))
watched = {"hashlib", "statistics"}
before = sorted(watched & sys.modules.keys())
result = simulate(doc["plan"], {b.resource_id: b for b in doc["behaviors"]},
                  doc["trials"], doc["seed"])
after = sorted(watched & sys.modules.keys())
json.dump({"before": before, "after": after, "result": canonical_dumps(result.to_json())},
          sys.stdout)
"""


def test_simulate_in_a_fresh_process_gives_the_same_result():
    """The first `simulate` in a process imports `hashlib`, and its first
    normal draw builds the standard normal; in this process earlier tests
    have done both.  A fresh ``-S`` interpreter loads neither module before
    the call, both during it, and draws the same result."""
    normal = DistSpec("normal", mean=300.0, stddev=100.0)
    behaviors = {
        "r": behavior("r", normal, DistSpec("empirical", samples=(10.0, 50.0, 90.0)),
                      pilot_mode="per_task"),
        "s": behavior("s", DistSpec("normal", mean=60.0, stddev=30.0), normal,
                      capacity_cores=2),
    }
    plan = make_plan({"t0": "r", "t1": "r", "t2": "s", "t3": "s", "t4": "s"})
    scenario = {"plan": plan.to_json(), "trials": 40, "seed": 9,
                "behaviors": [BEHAVIOR.encode(b) for b in behaviors.values()]}
    src = str(Path(resselect.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-W", "error", "-c", FRESH_SIMULATE],
                          input=json.dumps(scenario), capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    fresh = json.loads(proc.stdout)
    assert fresh["before"] == [] and fresh["after"] == ["hashlib", "statistics"]
    here = simulate(plan, behaviors, trials=40, seed=9)
    assert fresh["result"] == canonical_dumps(here.to_json())
    assert len(set(here.ttc_wkd_s)) > 1


class TestTimeline:
    """``_timeline`` sorts on start alone and merges in one pass; the oracle
    sorts whole tuples and takes TTC as the largest end in list order."""

    POINT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(0.0, 1e6))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(POINT, POINT), min_size=1, max_size=12).flatmap(
        lambda spans: st.permutations(spans + spans[:len(spans) // 2])))
    def test_matches_the_interval_oracle_bit_for_bit(self, spans):
        """Tied starts, duplicates and zero-length spans included; a start
        and a length of -0.0 give an end of -0.0."""
        intervals = [(start, start + length) for start, length in spans]
        ttc, _, tx = timeline_oracle(intervals)
        got = _timeline(list(intervals))
        assert list(map(float.hex, got)) == list(map(float.hex, (ttc, tx)))
        assert got[0].hex() == max(end for _, end in intervals).hex()

    def test_tied_starts_merge_in_any_order(self):
        for intervals in ([(1.0, 3.0), (1.0, 1.0), (1.0, 2.0), (4.0, 4.0), (0.0, 1.0)],
                          [(1.0, 2.0), (0.0, 1.0), (4.0, 4.0), (1.0, 3.0), (1.0, 1.0)]):
            assert _timeline(intervals) == (4.0, 3.0)

    def test_touching_spans_merge(self):
        """One span of 1.1 - 0.1, not (0.2 - 0.1) + (1.1 - 0.2), a bit longer."""
        assert _timeline([(0.2, 1.1), (0.1, 0.2)]) == (1.1, 1.0)


class TestActivationBlocks:
    """A single pilot's activations are drawn ``_BLOCK`` trials at a time."""

    TRIALS = _BLOCK + 37
    WAIT = DistSpec("normal", mean=100.0, stddev=40.0)

    def behaviors(self, fixed_tx, capacity=None):
        return {
            "fixed": behavior("fixed", self.WAIT, fixed_tx, capacity_cores=capacity),
            "capped": behavior("capped", DistSpec("normal", mean=50.0, stddev=30.0),
                               DistSpec("empirical", samples=(0.0, 20.0, 35.5)),
                               capacity_cores=2),
            "staggered": behavior("staggered", DistSpec("normal", mean=80.0, stddev=60.0),
                                  DistSpec("normal", mean=30.0, stddev=10.0),
                                  pilot_mode="per_task"),
        }

    ASSIGNMENTS = {"a": "fixed", "b": "fixed", "c": "capped", "d": "capped",
                   "e": "capped", "f": "staggered", "g": "staggered"}

    def test_each_trial_matches_the_per_task_oracle_across_the_block_boundary(self):
        behaviors = self.behaviors(const(25.0))
        result = simulate(make_plan(self.ASSIGNMENTS), behaviors, trials=self.TRIALS, seed=17)
        for trial in range(self.TRIALS):
            expected = timeline_oracle(per_task_schedule(self.ASSIGNMENTS, behaviors, 17, trial))
            got = (result.ttc_wkd_s[trial], result.tq_wkd_s[trial], result.tx_wkd_s[trial])
            assert hexes(got) == hexes(expected)
        assert len(set(result.ttc_wkd_s[_BLOCK - 2:_BLOCK + 2])) == 4

    @pytest.mark.parametrize("capacity", [None, 2, 3])
    def test_a_fixed_span_is_the_drawn_span_of_a_one_sample_distribution(self, capacity):
        """A constant duration on a pilot with a core per task takes no draw
        per trial; one sample of the same value takes the drawn path."""
        results = []
        for tx in (const(25.0), DistSpec("empirical", samples=(25.0,))):
            result = simulate(make_plan(self.ASSIGNMENTS), self.behaviors(tx, capacity),
                              trials=self.TRIALS, seed=3)
            results.append(canonical_dumps(result.to_json()))
        assert results[0] == results[1]


class TestCompare:
    def make_result(self, workload_id, strategy, ttcs):
        n = len(ttcs)
        return SimulationResult(workload_id, strategy, n, tuple(ttcs),
                                tuple(0.0 for _ in ttcs), tuple(ttcs))

    def test_percent_reduction(self):
        m = self.make_result("w", "model", [1000.0, 1000.0])
        r = self.make_result("w", "random", [4000.0, 4000.0])
        assert compare(m, r)["ttc_reduction_pct"] == pytest.approx(75.0)

    def test_identical_results_zero(self):
        m = self.make_result("w", "model", [100.0])
        r = self.make_result("w", "random", [100.0])
        assert compare(m, r)["ttc_reduction_pct"] == 0.0

    def test_model_worse_is_signed_negative(self):
        m = self.make_result("w", "model", [200.0])
        r = self.make_result("w", "random", [100.0])
        assert compare(m, r)["ttc_reduction_pct"] == -100.0

    @pytest.mark.parametrize("ttcs,stddev", [((3.0,), None), ((3.0, 5.0), math.sqrt(2.0))])
    def test_sample_stddev_needs_two_trials(self, ttcs, stddev):
        m = self.make_result("w", "model", ttcs)
        entry = compare(m, self.make_result("w", "random", [10.0] * len(ttcs)))["metrics"]
        assert entry["ttc_wkd_s"]["model_sample_stddev"] == stddev
        assert m.to_json()["summary"]["ttc_wkd_s"] == {"mean": 4.0 if stddev else 3.0,
                                                     "sample_stddev": stddev}

    def test_zero_random_ttc_rejected(self):
        m = self.make_result("w", "model", [0.0])
        r = self.make_result("w", "random", [0.0])
        with pytest.raises(ValueError, match="mean TTC of 0"):
            compare(m, r)

    def test_random_ttc_too_small_for_a_finite_reduction_rejected(self):
        m = self.make_result("w", "model", [1.0])
        r = self.make_result("w", "random", [5e-324])
        with pytest.raises(ValueError, match="^random strategy has a mean TTC of 4.94066e-324: "):
            compare(m, r)

    def test_mismatched_workloads_rejected(self):
        # checked before the random mean TTC, which is 0 here
        m = self.make_result("w1", "model", [0.0])
        r = self.make_result("w2", "random", [0.0])
        with pytest.raises(ValueError, match="mismatched workloads"):
            compare(m, r)

    @pytest.mark.parametrize("trials,n,reason", [
        (0, 0, "trials must be >= 1"),
        (5, 1, "ttc_wkd_s holds 1 values, not trials = 5"),
        (1, 2, "ttc_wkd_s holds 2 values, not trials = 1"),
    ])
    def test_trials_counts_the_values(self, trials, n, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            SimulationResult("w", "model", trials, (1.0,) * n, (0.0,) * n, (1.0,) * n)

    @pytest.mark.parametrize("metric,bad", [
        ("ttc_wkd_s", math.nan), ("tq_wkd_s", -math.inf), ("tx_wkd_s", math.inf),
        pytest.param("ttc_wkd_s", 10**400, id="ttc_wkd_s-int-past-float")])
    def test_values_must_be_finite(self, metric, bad):
        values = {"ttc_wkd_s": (2.0, 2.0), "tq_wkd_s": (1.0, 1.0), "tx_wkd_s": (1.0, 1.0)}
        values[metric] = (1.0, bad)
        with pytest.raises(ValueError, match=f"^{metric} values must be finite$"):
            SimulationResult("w", "model", 2, **values)

    @pytest.mark.parametrize("ttc,tq,tx,reason", [
        ((10.0, 20.0), (99.0, 5.0), (1.0, -3.0), "trial 1: tx_wkd_s -3.0 is below 0"),
        ((-1.0, 2.0), (-1.0, 2.0), (0.0, 0.0), "trial 0: ttc_wkd_s -1.0 is below 0"),
        ((10.0, 20.0), (9.0, 16.0), (1.0, 3.0),
         "trial 1: tq_wkd_s 16.0 is not ttc_wkd_s - tx_wkd_s = 17.0"),
        ((0.3, 1.0), (0.2, 0.0), (0.1, 1.0),
         "trial 0: tq_wkd_s 0.2 is not ttc_wkd_s - tx_wkd_s = 0.19999999999999998"),
    ])
    def test_values_simulate_cannot_write_rejected(self, ttc, tq, tx, reason):
        """Times are >= 0 and each queue time is exactly ttc - tx."""
        with pytest.raises(ValueError, match=f"^{reason}$"):
            SimulationResult("w", "model", 2, ttc, tq, tx)

    def test_rounding_may_take_tx_past_ttc(self):
        ttc, tx = (-0.0, 0.3), (0.0, 0.1 + 0.2)
        result = SimulationResult("w", "model", 2, ttc, (-0.0, 0.3 - (0.1 + 0.2)), tx)
        assert hexes(result.tq_wkd_s) == ["-0x0.0p+0", "-0x1.0000000000000p-54"]

    def test_trials_counts_each_metric(self):
        with pytest.raises(ValueError, match="^tq_wkd_s holds 3 values, not trials = 2$"):
            SimulationResult("w", "model", 2, (1.0, 1.0), (0.0,) * 3, (1.0, 1.0))

    def test_result_json_round_trip(self):
        m = self.make_result("w", "model", [1.0, 2.0, 3.0])
        assert RESULT.decode(m.to_json()) == m
