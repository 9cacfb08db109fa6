import csv
import io
import math
import statistics
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resselect import (
    BaselineProfile,
    ClockSpec,
    PoolInventoryEntry,
    diagnose,
    pool_clock_spec,
    predict_sequential_cycles,
    predict_tx,
    tx_error,
)
from resselect import codec
from resselect.codec import CLOCK
from resselect.predict import (
    GHZ,
    ClockRangeError,
    InflationRangeError,
    ProfileConsistencyError,
    UnknownTaskError,
    load_clocks,
    load_profiles,
    profiles_by_task,
    sequential_cycles,
)

from oracles import csv_read_oracle, profile_oracle

# Published base/max clocks of the four target machines, in GHz
TABLE1 = {
    "bridges": (2.30, 3.30),
    "comet": (2.50, 3.30),
    "supermic": (2.80, 3.60),
    "osg": (2.50, 3.09),
}


def profile(cycles=4e9, rate=2.0, task_id="t", param=1000):
    return BaselineProfile(
        task_id=task_id,
        workload_param=param,
        instructions=cycles * rate,
        cycles=cycles,
        instr_rate=rate,
        avg_clock_hz=2.5e9,
        measured_tx_s=cycles / 2.5e9,
    )


class TestBaselineProfile:
    def test_consistency_check_rejects_corrupt_counters(self):
        with pytest.raises(ProfileConsistencyError):
            BaselineProfile("t", 1000, 1e10, 4e9, 2.0, 2.5e9, 1.6)  # 8e9 expected

    def test_small_rounding_slack_accepted(self):
        p = BaselineProfile("t", 1000, 8.2e9, 4e9, 2.0, 2.5e9, 1.6)
        assert p.instr_rate == 2.0

    def test_positivity(self):
        with pytest.raises(ValueError):
            BaselineProfile("t", 1000, 0, 4e9, 2.0, 2.5e9, 1.6)

    @pytest.mark.parametrize("field", [
        "instructions", "cycles", "instr_rate", "avg_clock_hz", "measured_tx_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_counters_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite and > 0$"):
            BaselineProfile(**{**vars(profile()), field: value})


class TestSequentialCycles:
    def test_cycles_times_rate(self):
        assert sequential_cycles(profile(cycles=4e9, rate=2.0)) == 8e9

    def test_rate_one_is_identity(self):
        assert sequential_cycles(profile(cycles=4e9, rate=1.0)) == 4e9

    def test_repeat_profiles_mean_and_stddev(self):
        values = [8e9, 8.2e9, 7.8e9]
        profiles = [profile(cycles=v / 2.0, rate=2.0) for v in values]
        est = predict_sequential_cycles(profiles)
        assert est.mean == pytest.approx(statistics.mean(values), rel=1e-12)
        assert est.stddev == pytest.approx(statistics.stdev(values), rel=1e-12)
        assert est.n_samples == 3

    def test_no_profiles_is_unknown_task(self):
        with pytest.raises(UnknownTaskError, match="unknown task"):
            predict_sequential_cycles([])

    def test_mixed_workload_params_rejected_naming_task_and_values(self):
        profiles = [profile(task_id="md", param=200000), profile(task_id="md", param=100000),
                    profile(task_id="md", param=200000)]
        with pytest.raises(ProfileConsistencyError,
                           match=r"^profiles for 'md' mix workload_param values 100000, 200000"):
            predict_sequential_cycles(profiles)


class TestPredictTx:
    def test_bridges_base_division(self):
        clock = ClockSpec("bridges", 2.30e9, 3.30e9)
        report = predict_tx(6.9e9, clock)
        assert report.tx_base_s == pytest.approx(3.0, rel=1e-12)

    def test_cycles_equal_to_the_clock_rate_take_one_second(self):
        report = predict_tx(2.5e9, ClockSpec("r", 2.5e9, 3.0e9))
        assert report.tx_base_s == 1.0
        assert report.tx_max_s == 2.5e9 / 3.0e9

    @settings(max_examples=100)
    @given(st.floats(1e6, 1e14), st.floats(1e8, 1e10), st.floats(1.0, 2.0))
    def test_linear_in_cycles_and_inverse_in_clock(self, cycles, base_hz, ratio):
        clock = ClockSpec("r", base_hz, base_hz * ratio)
        r1 = predict_tx(cycles, clock)
        doubled = predict_tx(2 * cycles, clock)
        assert doubled.tx_base_s == pytest.approx(2 * r1.tx_base_s, rel=1e-12)
        assert doubled.tx_max_s == pytest.approx(2 * r1.tx_max_s, rel=1e-12)
        faster = predict_tx(cycles, ClockSpec("r", 2 * base_hz, 2 * base_hz * ratio))
        assert faster.tx_base_s == pytest.approx(r1.tx_base_s / 2, rel=1e-12)
        assert faster.tx_max_s == pytest.approx(r1.tx_max_s / 2, rel=1e-12)

    def test_degenerate_clock_equalizes_base_and_max(self):
        clock = ClockSpec("r", 2.5e9, 2.5e9)
        report = predict_tx(1e10, clock)
        assert report.tx_base_s == report.tx_max_s

    def test_osg_inflation(self):
        clock = ClockSpec("osg", 2.50e9, 3.09e9)
        report = predict_tx(1e10, clock, inflation=1.22)
        assert report.tx_base_s == pytest.approx(4.88, rel=1e-12)
        assert report.inflation_factor == 1.22

    def test_invalid_inputs(self):
        clock = ClockSpec("r", 1e9, 2e9)
        with pytest.raises(ValueError):
            predict_tx(0, clock)
        with pytest.raises(ValueError):
            predict_tx(1e9, clock, inflation=0)

    def test_time_past_the_float_range_names_the_resource(self):
        clock = ClockSpec("r", 5e-315, 2e9)
        with pytest.raises(ClockRangeError, match="^resource 'r': 1e\\+13 cycles take no finite "):
            predict_tx(1e13, clock)
        assert predict_tx(1e-300, clock).tx_base_s > 0

    def test_time_that_rounds_to_0_names_the_resource(self):
        with pytest.raises(ClockRangeError, match="^resource 'r': 1e-307 cycles take no positive "
                                                  "time at its max clock of 1e\\+307 Hz$"):
            predict_tx(1e-307, ClockSpec("r", 1e9, 1e307))  # the time at base_hz is positive
        assert predict_tx(1e-307, ClockSpec("r", 1e9, 1e9)).tx_max_s > 0

    def test_cycle_count_that_rounds_to_0_names_the_factor(self):
        with pytest.raises(InflationRangeError) as caught:
            predict_tx(1e-10, ClockSpec("r", 1e9, 2e9), inflation=1e-320)
        assert str(caught.value) == (f"inflation_factors.r: {1e-320:g} times 1e-10 predicted "
                                     "cycles gives no positive cycle count")

    def test_inflation_past_the_float_range_names_the_factor(self):
        # the cycle count overflows before the clock divides it
        with pytest.raises(InflationRangeError) as caught:
            predict_tx(1e13, ClockSpec("r", 5e-315, 2e9), inflation=1e308)
        assert str(caught.value) == ("inflation_factors.r: 1e+308 times 1e+13 predicted cycles "
                                     "gives no finite cycle count")
        assert not isinstance(caught.value, ClockRangeError)

    @settings(max_examples=100)
    @given(
        st.floats(1e6, 1e14),
        st.sampled_from(sorted(TABLE1)),
        st.floats(0.5, 3.0),
    )
    def test_frequency_ratio_identity_and_inflation_linearity(
        self, cycles, machine, inflation
    ):
        base, mx = TABLE1[machine]
        clock = ClockSpec(machine, base * GHZ, mx * GHZ)
        r1 = predict_tx(cycles, clock)
        assert r1.tx_base_s / r1.tx_max_s == pytest.approx(mx / base, rel=1e-12)
        rk = predict_tx(cycles, clock, inflation=inflation)
        assert rk.tx_base_s == pytest.approx(inflation * r1.tx_base_s, rel=1e-12)
        assert rk.tx_max_s == pytest.approx(inflation * r1.tx_max_s, rel=1e-12)

    def test_base_frequency_ordering(self):
        # higher base clock, strictly smaller predicted time
        times = {
            m: predict_tx(1e13, ClockSpec(m, b * GHZ, x * GHZ)).tx_base_s
            for m, (b, x) in TABLE1.items()
        }
        assert times["supermic"] < times["comet"] < times["bridges"]


class TestPoolClock:
    def test_single_entry_identity(self):
        entry = PoolInventoryEntry("xeon", 4, 2.0e9, 3.0e9)
        spec = pool_clock_spec([entry], "pool")
        assert spec.base_hz == 2.0e9 and spec.max_hz == 3.0e9

    def test_weighted_mean(self):
        inventory = [
            PoolInventoryEntry("a", 2, 2.0e9, 3.0e9),
            PoolInventoryEntry("b", 2, 3.0e9, 3.2e9),
        ]
        spec = pool_clock_spec(inventory)
        assert spec.base_hz == pytest.approx(2.5e9, rel=1e-12)
        assert spec.max_hz == pytest.approx(3.1e9, rel=1e-12)

    def test_bounds(self):
        inventory = [
            PoolInventoryEntry("a", 1, 2.0e9, 2.5e9),
            PoolInventoryEntry("b", 7, 3.0e9, 3.5e9),
        ]
        spec = pool_clock_spec(inventory)
        assert 2.0e9 <= spec.base_hz <= 3.0e9

    def test_empty_inventory_errors(self):
        with pytest.raises(ValueError):
            pool_clock_spec([])

    def test_weighted_clock_bits_are_pinned(self):
        """Python 3.12's sum() would give ...852.8138523 here; the weighted
        clocks are added left to right on every version."""
        inventory = [PoolInventoryEntry(f"m{i}", n, ghz * GHZ, ghz * GHZ) for i, (n, ghz) in
                     enumerate([(298, 2.03), (149, 1.88), (231, 2.73), (15, 2.11)])]
        spec = pool_clock_spec(inventory)
        assert repr(spec.base_hz) == repr(spec.max_hz) == "2232813852.813853"

    @pytest.mark.parametrize("cls,head", [(ClockSpec, ("r",)), (PoolInventoryEntry, ("a", 4))])
    @pytest.mark.parametrize("clocks", [
        (2e9, math.inf), (math.inf, math.inf), (math.nan, 3e9), (2e9, math.nan)])
    def test_clocks_must_be_finite(self, cls, head, clocks):
        """1e300 GHz in a clocks file is a finite number but infinite hertz,
        which would predict an execution time of 0 s."""
        with pytest.raises(ValueError, match="^need 0 < base_hz <= max_hz < inf$"):
            cls(*head, *clocks)


class TestDiagnose:
    def test_overprediction_fully_explained_by_parallelism(self):
        report = diagnose(8e9, 4e9, 2.0)
        assert report.p2a_cy == 2.0
        assert report.epsilon_pct == 0.0
        assert report.cycle_overprediction_pct == pytest.approx(100.0)

    def test_partial_attribution(self):
        report = diagnose(8e9, 4e9, 1.9)
        assert report.epsilon_pct == pytest.approx(5.0, rel=1e-12)

    def test_exact_prediction(self):
        report = diagnose(1e9, 1e9, 1.0)
        assert report.p2a_cy == 1.0
        assert report.epsilon_pct == 0.0
        assert report.cycle_overprediction_pct == 0.0

    def test_chained_from_profile(self):
        # same instruction count on target: epsilon is exactly zero
        p = profile(cycles=4e9, rate=2.0)
        pred = sequential_cycles(p)
        target_cycles, target_rate = 5e9, pred / 5e9
        assert diagnose(pred, target_cycles, target_rate).epsilon_pct == 0.0

    @pytest.mark.parametrize("inputs", [(0.0, 4e9, 2.0), (8e9, -1.0, 2.0), (8e9, 4e9, 0.0)])
    def test_non_positive_inputs_rejected(self, inputs):
        with pytest.raises(ValueError, match="^diagnose inputs must be > 0$"):
            diagnose(*inputs)

    def test_tx_errors_attached(self):
        report = diagnose(8e9, 4e9, 2.0, tx_pred_base_s=2.57, tx_pred_max_s=0.86,
                          tx_actual_s=1.0)
        assert report.tx_error_base_pct == pytest.approx(157.0, rel=1e-9)
        assert report.tx_error_max_pct == pytest.approx(-14.0, rel=1e-9)


class TestTxError:
    def test_overprediction_sign(self):
        assert tx_error(2.57, 1.0) == pytest.approx(157.0, rel=1e-9)

    def test_exact_prediction(self):
        assert tx_error(3.0, 3.0) == 0.0

    def test_underprediction_sign(self):
        assert tx_error(0.86, 1.0) == pytest.approx(-14.0, rel=1e-9)

    def test_zero_actual_rejected(self):
        with pytest.raises(ValueError):
            tx_error(1.0, 0.0)


class TestIngest:
    CSV = (
        "task_id,workload_param,instructions,cycles,instr_rate,avg_clock_ghz,tx_s\n"
        "md,1000,8e9,4e9,2.0,2.5,1.6\n"
        "md,1000,8.2e9,4.1e9,2.0,2.5,1.64\n"
        "bad,1000,9e9,4e9,2.0,2.5,1.6\n"  # 9e9 vs 8e9: >5% off
    )

    def test_load_profiles_skips_inconsistent_rows(self):
        profiles, warnings = load_profiles(io.StringIO(self.CSV))
        assert len(profiles) == 2
        assert len(warnings) == 1
        assert "line 4" in warnings[0]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_counter_row_skipped(self, bad):
        csv_text = self.CSV.replace("md,1000,8.2e9,", f"md,1000,{bad},")
        profiles, warnings = load_profiles(io.StringIO(csv_text))
        assert len(profiles) == 1
        assert "line 3" in warnings[0] and "non-finite" in warnings[0]

    def test_long_row_skipped(self):
        csv_text = self.CSV.replace("md,1000,8.2e9,4.1e9,2.0,2.5,1.64", "md,1000,8.2e9,4.1e9,2.0,2.5,1.64,7")
        profiles, warnings = load_profiles(io.StringIO(csv_text))
        assert len(profiles) == 1
        assert warnings[0] == "line 3: 1 more cells than the header"

    def test_missing_columns_rejected(self):
        with pytest.raises(ValueError, match="missing columns"):
            load_profiles(io.StringIO("task_id,cycles\nmd,4e9\n"))

    @pytest.mark.parametrize("before,accepted,line", [
        ("\n", 0, 3),
        ('"m\nd",1000,8e9,4e9,2.0,2.5,1.6\n', 1, 4),
    ], ids=["blank-line", "multi-line-cell"])
    def test_warning_names_physical_line(self, before, accepted, line):
        header, *rows = self.CSV.splitlines(keepends=True)
        profiles, warnings = load_profiles(io.StringIO(header + before + rows[2]))
        assert len(profiles) == accepted
        assert len(warnings) == 1 and warnings[0].startswith(f"line {line}: profile for 'bad'")

    def test_repeated_column_rejected(self):
        header, *rows = self.CSV.splitlines(keepends=True)
        csv_text = header.rstrip() + ",cycles\n" + rows[0].rstrip() + ",4e9\n"
        with pytest.raises(ValueError, match="^profile CSV repeats column 'cycles'$"):
            load_profiles(io.StringIO(csv_text))

    def test_not_csv_rejected_with_line(self):
        csv_text = self.CSV.replace("md,1000,8.2e9", "m\rd,1000,8.2e9")
        with pytest.raises(ValueError, match="^line 3: new-line character seen in unquoted field"):
            load_profiles(io.StringIO(csv_text))

    @pytest.mark.parametrize("before,after,line", [
        ("md,1000,8.2e9", "m\0d,1000,8.2e9", 3),
        ("task_id", "task\0_id", 1),
        ("8.2e9,4.1e9,2.0,2.5,1.64", "8.2e9,4.1e9,2.0,2.5,1.64,\0", 3),  # past the header's cells
    ], ids=["cell", "header", "long-row"])
    def test_nul_rejected_with_line(self, before, after, line):
        """Rejected naming its line, where the csv module would read a NUL
        as a character."""
        with pytest.raises(ValueError, match=f"^line {line}: line contains NUL$"):
            load_profiles(io.StringIO(self.CSV.replace(before, after, 1)))

    def test_empty_task_id_rejected(self):
        with pytest.raises(ValueError, match="^task_id must be non-empty$"):
            profile(task_id="")
        csv_text = self.CSV.replace("md,1000,8.2e9", ",1000,8.2e9")
        profiles, warnings = load_profiles(io.StringIO(csv_text))
        assert len(profiles) == 1
        assert warnings[0] == "line 3: task_id must be non-empty" and len(warnings) == 2

    REFERENCE_CSV = (
        "note,tx_s,task_id,workload_param,instructions,cycles,instr_rate,avg_clock_ghz\n"
        "a,1.6,md,1000,8e9,4e9,2.0,2.5\n"
        "\n"
        'b,1.64,"m\nd",1000,8.2e9,4.1e9,2.0,2.5\n'
        "c,1.6,md,1000,9e9,4e9,2.0,2.5\n"  # inconsistent
        "d,1.6,md,10.5,8e9,4e9,2.0,2.5\n"  # not an integer
        "e,nan,md,1000,8e9,4e9,2.0,2.5\n"
        "f,1.6,md,1000,8e9\n"  # short
        "g,1.6,md,1000,8e9,4e9,2.0,2.5,7\n"  # long
        "\n"
        "h,1.7,md,2000,8e9,4e9,2.0,2.5\n"
    )

    def test_matches_reference_reader(self):
        profiles, warnings = load_profiles(io.StringIO(self.REFERENCE_CSV))
        assert (profiles, warnings) == csv_read_oracle(self.REFERENCE_CSV, profile_oracle)
        assert len(profiles) == 3 and len(warnings) == 5

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_small_chunks_match_reference_reader(self, chunk):
        with mock.patch.object(codec, "_CHUNK", chunk):
            self.test_matches_reference_reader()

    def test_quote_free_and_quoted_chunks_match_reference_reader(self):
        """A file of several chunks: quote-free ones, split at their commas,
        around the reference rows, whose quoted cell runs over two lines."""
        header, *lines = self.REFERENCE_CSV.splitlines(keepends=True)
        clean = [f"{c},1.6,md,1000,8e9,4e9,2.0,2.5\n" for c in "abcdefg"] * codec._CHUNK
        text = header + "".join(clean[:codec._CHUNK - 3] + lines + clean).rstrip("\n")
        assert load_profiles(io.StringIO(text)) == csv_read_oracle(text, profile_oracle)

    CELLS = ["md", "", "1000", "10.5", "8e9", "4e9", "9e9", "2.0", "2.5", "1.6", "0", "-1",
             "nan", "inf", "x"]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(CELLS), min_size=7, max_size=7), max_size=12))
    def test_random_rows_match_reference_reader(self, rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([
            ["task_id", "workload_param", "instructions", "cycles", "instr_rate",
             "avg_clock_ghz", "tx_s"], *rows])
        text = buf.getvalue()
        assert load_profiles(io.StringIO(text)) == csv_read_oracle(text, profile_oracle)

    def test_profiles_by_task(self):
        profiles, _ = load_profiles(io.StringIO(self.CSV))
        assert set(profiles_by_task(profiles)) == {"md"}

    def test_clock_json_ghz_units(self):
        spec = CLOCK.decode({"resource_id": "r", "base_ghz": 2.3, "max_ghz": 3.3})
        assert spec.base_hz == 2.3e9
        assert spec.max_hz == 3.3e9

    def test_clock_json_inventory_pool(self):
        spec = CLOCK.decode(
            {
                "resource_id": "pool",
                "inventory": [
                    {"cpu_model": "a", "node_count": 2, "base_ghz": 2.0, "max_ghz": 3.0},
                    {"cpu_model": "b", "node_count": 2, "base_ghz": 3.0, "max_ghz": 3.2},
                ],
            }
        )
        assert spec.base_hz == pytest.approx(2.5e9)

    def test_load_clocks_keyed_by_resource(self):
        clocks = load_clocks(
            [{"resource_id": "a", "base_ghz": 1.0, "max_ghz": 2.0},
             {"resource_id": "b", "base_ghz": 2.0, "max_ghz": 2.0}]
        )
        assert set(clocks) == {"a", "b"}
