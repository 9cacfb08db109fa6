import csv
import io
import math
import random
import statistics
from datetime import datetime, timezone

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resselect import QueueWaitRecord, QueueWaitStore, SimilarityBuckets, codec
from resselect.queuewait import (
    DEFAULT_BUCKETS,
    DEFAULT_WINDOW_S,
    NoQueueHistoryError,
    _parse_iso8601,
    checked_columns,
)

from oracles import (
    csv_read_oracle,
    exact_mean_stddev_oracle,
    history_columns_oracle,
    history_record_oracle,
    queue_filter_oracle,
)

NOW = 1_700_000_000.0
DAY = 86400.0


def rec(wait, machine="m", queue="q", age_s=DAY, walltime=7200.0, cores=1):
    return QueueWaitRecord(machine, queue, NOW - age_s, wait, walltime, cores)


def store_of(*records):
    return QueueWaitStore(records)


def row_strategy(cells):
    """Rows with one cell per column of ``cells``, a list of (valid cells,
    rejected cells); a cell is drawn from the rejected ones one time in ten."""
    return st.tuples(*(
        st.integers(0, 9).flatmap(
            lambda i, ok=ok, bad=bad: st.sampled_from(bad if i == 0 and bad else ok))
        for ok, bad in cells)).map(list)


def read_paths(read):
    """``read()``, and per chunk that `codec.Csv.read` took, "split" if it
    was split at its commas or "csv" if the csv module read it."""
    paths, split = [], codec._split

    def spy(*args):
        cells = split(*args)
        paths.append("csv" if cells is None else "split")
        return cells

    with mock.patch.object(codec, "_split", spy):
        return read(), paths


class TestRecordsAndBuckets:
    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            rec(-1.0)

    @pytest.mark.parametrize("cells,message", [
        (("-1", "7200", "1"), "wait_s must be >= 0"),
        (("0", "0", "1"), "walltime_req_s must be > 0"),
        (("0", "7200", "0"), "cores_req must be >= 1"),
    ])
    def test_value_checks_shared_by_records_and_csv(self, cells, message):
        wait, walltime, cores = cells
        with pytest.raises(ValueError, match=f"^{message}$"):
            rec(float(wait), walltime=float(walltime), cores=int(cores))
        csv_text = TestIngestCsv.HEADER + f"m,q,2023-11-10T00:00:00Z,{wait},{walltime},{cores}\n"
        assert QueueWaitStore().ingest_csv(io.StringIO(csv_text)) == (0, [f"line 2: {message}"])

    @pytest.mark.parametrize("field,value", [
        ("wait", math.nan), ("wait", math.inf), ("walltime", math.nan), ("walltime", math.inf),
        ("age_s", math.nan), ("age_s", math.inf), ("age_s", -math.inf),
    ])
    def test_non_finite_values_rejected(self, field, value):
        """A NaN submit time would compare false and leave a store unsorted."""
        name = {"wait": "wait_s", "walltime": "walltime_req_s", "age_s": "submit_time"}[field]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            rec(**{"wait": 100.0, field: value})

    @pytest.mark.parametrize("machine,queue,message", [
        ("", "q", "machine must be non-empty"), ("m", "", "queue must be non-empty"),
        ("", "", "machine must be non-empty"),
    ])
    def test_empty_key_cells_rejected_by_records_and_csv(self, machine, queue, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rec(100.0, machine=machine, queue=queue)
        csv_text = TestIngestCsv.HEADER + f"{machine},{queue},2026-08-07T00:00:00Z,1,100,1\n"
        store = QueueWaitStore()
        assert store.ingest_csv(io.StringIO(csv_text)) == (0, [f"line 2: {message}"])
        assert not store._groups

    VALUES = [-math.inf, -1.0, 0.0, 1.0, 7200.0, math.inf, math.nan]

    @given(st.lists(st.tuples(st.sampled_from(["", "m"]), st.sampled_from(["", "q"]),
                              st.sampled_from(VALUES), st.sampled_from(VALUES),
                              st.sampled_from([-1, 0, 1, 4])), min_size=1, max_size=6))
    def test_column_checks_note_each_row_as_it_fails_alone(self, rows):
        """``min`` may step over a negative value after a NaN; every bad row
        must still be noted, with the message it gets on its own."""

        def noted(rows) -> dict:
            machines, queues, waits, walltimes, cores = zip(*rows)
            bad = {}
            checked_columns(bad, machines, queues, (0.0,) * len(rows), waits, walltimes, cores)
            return bad

        alone = [noted([row]) for row in rows]
        assert noted(rows) == {i: bad[0] for i, bad in enumerate(alone) if bad}

    def test_bucket_edges_must_ascend(self):
        with pytest.raises(ValueError):
            SimilarityBuckets((10.0, 10.0), (1,))

    @pytest.mark.parametrize("edges", [((1.0, math.nan, 2.0), (1,)), ((math.inf,), (1,)),
                                       ((1.0,), (1, -math.inf))])
    def test_bucket_edges_must_be_finite(self, edges):
        with pytest.raises(ValueError, match="^bucket edges must be finite$"):
            SimilarityBuckets(*edges)
        assert SimilarityBuckets((1.0,), (10**400,)).cores_bucket(10**400) == 1

    def test_half_open_buckets(self):
        b = DEFAULT_BUCKETS
        # edge value starts the next bucket: [lo, hi)
        assert b.walltime_bucket(3599.9) != b.walltime_bucket(3600.0)
        assert b.walltime_bucket(3600.0) == b.walltime_bucket(14399.9)
        assert b.cores_bucket(1) == b.cores_bucket(1)
        assert b.cores_bucket(1) != b.cores_bucket(2)
        assert b.cores_bucket(4096) != b.cores_bucket(4095)

    def test_iso8601_parsing(self):
        assert _parse_iso8601("1970-01-01T00:00:00+00:00") == 0.0
        assert _parse_iso8601("1970-01-01T00:00:00Z") == 0.0
        assert _parse_iso8601("1970-01-02T00:00:00") == DAY  # naive = UTC


class TestEstimate:
    def test_hand_statistics(self):
        store = store_of(rec(100), rec(200), rec(300))
        est = store.estimate_tq("m", "q", 7200.0, 1, now=NOW)
        assert est.mean_wait_s == 200.0
        assert est.sample_stddev_s == pytest.approx(100.0)
        assert est.n_samples == 3
        assert not est.fallback_used

    def test_single_sample_has_no_stddev(self):
        store = store_of(rec(100))
        est = store.estimate_tq("m", "q", 7200.0, 1, now=NOW)
        assert est.sample_stddev_s is None

    def test_fallback_drops_size_constraints_only(self):
        store = store_of(rec(500, cores=512), rec(700, cores=512))
        est = store.estimate_tq("m", "q", 7200.0, 1, now=NOW)
        assert est.fallback_used
        assert est.mean_wait_s == 600.0

    def test_window_excludes_old_records(self):
        store = store_of(rec(100, age_s=8 * DAY), rec(900, age_s=DAY))
        est = store.estimate_tq("m", "q", 7200.0, 1, now=NOW)
        assert est.mean_wait_s == 900.0
        assert est.n_samples == 1

    def test_record_at_exact_window_boundary_included(self):
        store = store_of(rec(123, age_s=DEFAULT_WINDOW_S))
        est = store.estimate_tq("m", "q", 7200.0, 1, now=NOW)
        assert est.n_samples == 1

    def test_bucket_edges_match_the_filter_oracle(self):
        # rows on the first and last edges of both edge lists, inside each
        # outer bucket, and far above the last edge
        walltimes = [1.0, 899.0, 900.0, 172799.0, 172800.0, 1e12]
        cores = [1, 2, 4095, 4096, 5000, 10**9]
        records = [rec(float(i), walltime=w, cores=c)
                   for i, (w, c) in enumerate((w, c) for w in walltimes for c in cores)]
        store = QueueWaitStore(records)
        for walltime in [0.5, 1.0, 899.0, 900.0, 1000.0, 172800.0, 3e5, 1e12]:
            for n_cores in [1, 3, 2048, 4096, 5000, 10**9]:
                in_window, same_bucket = queue_filter_oracle(
                    records, "m", "q", walltime, n_cores, NOW, DEFAULT_WINDOW_S, DEFAULT_BUCKETS)
                expected = [r.wait_s for r in same_bucket]
                assert expected  # every query's bucket holds rows
                est = store.estimate_tq("m", "q", walltime, n_cores, now=NOW)
                assert not est.fallback_used
                assert est.n_samples == len(expected)
                assert (est.mean_wait_s, est.sample_stddev_s) == \
                    exact_mean_stddev_oracle(expected)

    def test_future_records_excluded_at_query(self):
        store = store_of(rec(100, age_s=-3600), rec(200, age_s=DAY))
        est = store.estimate_tq("m", "q", 7200.0, 1, now=NOW)
        assert est.mean_wait_s == 200.0

    def test_no_history_is_typed_error(self):
        store = store_of(rec(100, machine="other"))
        with pytest.raises(NoQueueHistoryError, match="no queue history"):
            store.estimate_tq("m", "q", 7200.0, 1, now=NOW)

    def test_fallback_never_crosses_machine_or_queue(self):
        store = store_of(rec(100, queue="other", cores=1))
        with pytest.raises(NoQueueHistoryError):
            store.estimate_tq("m", "q", 7200.0, 1, now=NOW)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        records = [
            QueueWaitRecord(
                machine=rng.choice(["m1", "m2"]),
                queue=rng.choice(["q1", "q2"]),
                submit_time=NOW - rng.uniform(0, 10 * DAY),
                wait_s=rng.uniform(0, 5000),
                walltime_req_s=rng.choice([600, 7200, 20000, 100000]),
                cores_req=rng.choice([1, 2, 16, 100, 2000]),
            )
            for _ in range(rng.randint(1, 200))
        ]
        store = QueueWaitStore(records)
        machine, queue = rng.choice(["m1", "m2"]), rng.choice(["q1", "q2"])
        walltime = rng.choice([600, 7200, 20000, 100000])
        cores = rng.choice([1, 2, 16, 100, 2000])
        in_window, same_bucket = queue_filter_oracle(
            records, machine, queue, walltime, cores, NOW, DEFAULT_WINDOW_S,
            DEFAULT_BUCKETS,
        )
        if not in_window:
            with pytest.raises(NoQueueHistoryError):
                store.estimate_tq(machine, queue, walltime, cores, now=NOW)
            return
        est = store.estimate_tq(machine, queue, walltime, cores, now=NOW)
        expected = same_bucket or in_window
        assert est.fallback_used == (not same_bucket)
        assert est.n_samples == len(expected)
        assert est.mean_wait_s == statistics.mean(r.wait_s for r in expected)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_window_monotonicity_and_ingest_order_determinism(self, seed):
        rng = random.Random(seed)
        records = [rec(rng.uniform(0, 1000), age_s=rng.uniform(0, 10 * DAY))
                   for _ in range(30)]
        store = QueueWaitStore(records)
        small = store.estimate_tq("m", "q", 7200.0, 1, now=NOW, window_s=3 * DAY)
        large = store.estimate_tq("m", "q", 7200.0, 1, now=NOW, window_s=9 * DAY)
        assert large.n_samples >= small.n_samples

        shuffled = records[:]
        rng.shuffle(shuffled)
        est1 = store.estimate_tq("m", "q", 7200.0, 1, now=NOW)
        est2 = QueueWaitStore(shuffled).estimate_tq("m", "q", 7200.0, 1, now=NOW)
        assert est1 == est2


def history_csv(records):
    """The records as a history CSV; submit times must be whole seconds."""
    lines = ["machine,queue,submit_time_iso8601,wait_s,walltime_req_s,cores_req"]
    for r in records:
        when = datetime.fromtimestamp(r.submit_time, timezone.utc).isoformat()
        lines.append(f"{r.machine},{r.queue},{when},{r.wait_s!r},{r.walltime_req_s!r},"
                     f"{r.cores_req}")
    return io.StringIO("\n".join(lines) + "\n")


class TestIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_indexed_store_matches_oracle_after_out_of_order_ingests(self, seed):
        rng = random.Random(seed)
        window = rng.choice([DAY, 3 * DAY, DEFAULT_WINDOW_S])
        # both ends of the window, one second outside each, and times in between
        edges = [NOW - window, NOW, NOW - window - 1, NOW + 1]
        records = [
            QueueWaitRecord(
                machine=rng.choice(["m1", "m2"]),
                queue=rng.choice(["q1", "q2"]),
                submit_time=(rng.choice(edges) if rng.random() < 0.3
                             else NOW - rng.randint(-86400, 10 * 86400)),
                wait_s=float(rng.randint(0, 5000)),
                walltime_req_s=rng.choice([600.0, 7200.0, 20000.0]),
                cores_req=rng.choice([1, 2, 16]),
            )
            for _ in range(rng.randint(0, 120))
        ]
        rng.shuffle(records)
        half = rng.randint(0, len(records))
        store = QueueWaitStore()
        for part in (records[:half], records[half:]):
            assert store.ingest_csv(history_csv(part)) == (len(part), [])
        assert len(store) == len(records)
        for machine, queue in [("m1", "q1"), ("m1", "q2"), ("m2", "q1"), ("m3", "q1")]:
            walltime, cores = rng.choice([600.0, 7200.0, 20000.0]), rng.choice([1, 2, 16])
            in_window, same_bucket = queue_filter_oracle(
                records, machine, queue, walltime, cores, NOW, window, DEFAULT_BUCKETS)
            if not in_window:  # always so for the unknown m3/q1
                with pytest.raises(NoQueueHistoryError):
                    store.estimate_tq(machine, queue, walltime, cores, NOW, window)
                continue
            est = store.estimate_tq(machine, queue, walltime, cores, NOW, window)
            waits = [r.wait_s for r in (same_bucket or in_window)]
            assert est.fallback_used == (not same_bucket)
            assert est.n_samples == len(waits)
            assert (est.mean_wait_s, est.sample_stddev_s) == exact_mean_stddev_oracle(waits)


class TestQueryValidation:
    @pytest.mark.parametrize("bad", [
        {"walltime_req_s": -5.0}, {"walltime_req_s": 0.0}, {"walltime_req_s": math.nan},
        {"walltime_req_s": math.inf}, {"cores_req": 0}, {"cores_req": -3},
        {"window_s": 0.0}, {"window_s": -DAY}, {"window_s": math.nan}, {"now": math.nan},
    ], ids=repr)
    def test_invalid_query_rejected(self, bad):
        query = {"walltime_req_s": 7200.0, "cores_req": 1, "now": NOW, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))) as err:
            store_of(rec(100)).estimate_tq("m", "q", **query)
        assert not isinstance(err.value, NoQueueHistoryError)

    @pytest.mark.parametrize("bad, message", [
        ({"now": math.nan}, "now must be finite, got nan"),
        ({"now": math.inf}, "now must be finite, got inf"),
        ({"now": -math.inf}, "now must be finite, got -inf"),
        ({"window_s": 0}, "window_s must be > 0, got 0"),
        ({"window_s": -1}, "window_s must be > 0, got -1"),
        ({"window_s": math.nan}, "window_s must be > 0, got nan"),
    ], ids=repr)
    def test_window_messages(self, bad, message):
        """A bad ``now`` or ``window_s`` is named after the request's checks
        and before a queue without history."""
        query = {"walltime_req_s": 7200.0, "cores_req": 1, "now": NOW, **bad}
        for machine in ("m", "unknown"):
            with pytest.raises(ValueError) as err:
                store_of(rec(100)).estimate_tq(machine, "q", **query)
            assert str(err.value) == message
            assert not isinstance(err.value, NoQueueHistoryError)
        with pytest.raises(ValueError, match="^cores_req must be >= 1, got 0$"):
            store_of(rec(100)).estimate_tq("m", "q", **{**query, "cores_req": 0})


class TestIngestCsv:
    HEADER = "machine,queue,submit_time_iso8601,wait_s,walltime_req_s,cores_req\n"

    def test_valid_rows_counted(self):
        csv_text = self.HEADER + (
            "m,q,2023-11-10T00:00:00Z,100,7200,1\n"
            "m,q,2023-11-11T00:00:00Z,200,7200,1\n"
            "m,q,2023-11-12T00:00:00Z,300,7200,1\n"
        )
        store = QueueWaitStore()
        count, warnings = store.ingest_csv(io.StringIO(csv_text))
        assert count == 3 and not warnings

    def test_bad_row_is_warning_not_fatal(self):
        csv_text = self.HEADER + (
            "m,q,2023-11-10T00:00:00Z,100,7200,1\n"
            "m,q,2023-11-11T00:00:00Z,-5,7200,1\n"
            "m,q,2023-11-12T00:00:00Z,300,7200,1\n"
            "m,q,2023-11-13T00:00:00Z,400,7200,1\n"
        )
        store = QueueWaitStore()
        count, warnings = store.ingest_csv(io.StringIO(csv_text))
        assert count == 3
        assert len(warnings) == 1 and "line 3" in warnings[0]

    @pytest.mark.parametrize("row", ["m,q,2023-11-11T00:00:00Z,nan,7200,1",
                                     "m,q,2023-11-11T00:00:00Z,100,inf,1"])
    def test_non_finite_row_skipped(self, row):
        csv_text = self.HEADER + "m,q,2023-11-10T00:00:00Z,100,7200,1\n" + row + "\n"
        count, warnings = QueueWaitStore().ingest_csv(io.StringIO(csv_text))
        assert count == 1
        assert len(warnings) == 1 and "line 3" in warnings[0] and "non-finite" in warnings[0]

    @pytest.mark.parametrize("row,extra", [("m,q,2023-11-11T00:00:00Z,100,7200,1,999", 1),
                                           ("m,q,2023-11-11T00:00:00Z,100,7200,1,,", 2)])
    def test_long_row_skipped(self, row, extra):
        csv_text = self.HEADER + "m,q,2023-11-10T00:00:00Z,100,7200,1\n" + row + "\n"
        count, warnings = QueueWaitStore().ingest_csv(io.StringIO(csv_text))
        assert count == 1
        assert warnings == [f"line 3: {extra} more cells than the header"]

    def test_empty_file_with_header(self):
        store = QueueWaitStore()
        count, warnings = store.ingest_csv(io.StringIO(self.HEADER))
        assert count == 0 and not warnings

    def test_missing_columns_fatal(self):
        with pytest.raises(ValueError, match="missing columns"):
            QueueWaitStore().ingest_csv(io.StringIO("machine,queue\nm,q\n"))

    @pytest.mark.parametrize("before,accepted,line", [
        ("\n", 0, 3),
        ('"m\nx",q,2023-11-10T00:00:00Z,100,7200,1\n', 1, 4),
    ], ids=["blank-line", "multi-line-cell"])
    def test_warning_names_physical_line(self, before, accepted, line):
        csv_text = self.HEADER + before + "m,q,2023-11-11T00:00:00Z,-5,7200,1\n"
        assert QueueWaitStore().ingest_csv(io.StringIO(csv_text)) == (
            accepted, [f"line {line}: wait_s must be >= 0"])

    def test_repeated_column_fatal(self):
        csv_text = self.HEADER.rstrip() + ",wait_s\nm,q,2023-11-10T00:00:00Z,100,7200,1,5\n"
        with pytest.raises(ValueError, match="^history CSV repeats column 'wait_s'$"):
            QueueWaitStore().ingest_csv(io.StringIO(csv_text))

    def test_extra_columns_ignored_in_any_order(self):
        csv_text = ("note,cores_req,wait_s,machine,walltime_req_s,queue,submit_time_iso8601,n\n"
                    "a,1,100,m,7200,q,2023-11-10T00:00:00Z,b\n")
        store = QueueWaitStore()
        assert store.ingest_csv(io.StringIO(csv_text)) == (1, [])
        assert store.estimate_tq("m", "q", 7200.0, 1, now=NOW).mean_wait_s == 100.0

    def test_text_that_is_not_csv_fatal_and_store_unchanged(self):
        store = store_of(rec(100))
        held = {key: tuple(map(list, rows)) for key, rows in store._groups.items()}
        csv_text = self.HEADER + (
            "m,q,2023-11-10T00:00:00Z,100,7200,1\n"
            "n,q,2023-11-10T00:00:00Z,100,7200,1\n"
            "m\rx,q,2023-11-10T00:00:00Z,100,7200,1\n"
        )
        with pytest.raises(ValueError, match="^line 4: new-line character seen in unquoted field"):
            store.ingest_csv(io.StringIO(csv_text))
        assert store._groups == held and len(store) == 1

    @pytest.mark.parametrize("text,line", [
        ("m\0,q,2023-11-10T00:00:00Z,100,7200,1\n", 3),
        ("m,q,2023-11-10T00:00:00Z,100,7200,1,\0\n", 3),  # in a cell past the header's
        ("m,\0\n", 3),  # in a short row
        ('"m\nx\r\ny",q,2023-11-10T00:00:00Z,1\0,7200,1\n', 5),  # after a cell's line breaks
        ('"m\0x\ny",q,2023-11-10T00:00:00Z,1,7200,1\n', 3),
        ('"m\r\nx\0\ny",q,2023-11-10T00:00:00Z,1,7200,1\n', 4),
    ], ids=["cell", "long-row", "short-row", "multi-line-cell", "multi-line-cell-head",
            "multi-line-cell-middle"])
    @pytest.mark.parametrize("newline", ["", None])
    def test_nul_fatal_naming_its_line_and_store_unchanged(self, text, line, newline):
        """The csv module would read a NUL as a character; the store rejects
        it, naming its line."""
        store = store_of(rec(100))
        held = {key: tuple(map(list, rows)) for key, rows in store._groups.items()}
        csv_text = self.HEADER + "n,q,2023-11-10T00:00:00Z,100,7200,1\n" + text
        with pytest.raises(ValueError, match=f"^line {line}: line contains NUL$"):
            store.ingest_csv(io.StringIO(csv_text, newline=newline))
        assert store._groups == held and len(store) == 1

    @pytest.mark.parametrize("when", [
        "20231110T000000Z", "2023-W45-5T00:00:00Z", "2023-11-10T00:00:00.5Z",
        "2023-11-10T00:00:00+0100",
        "2023-11-10 00:00:00", "2023-11-10", "2023-11-10T00:00Z", "2023-11-10T00:00:00+01:00:30",
    ])
    def test_time_outside_the_grammar_is_a_bad_row_on_every_python(self, when):
        """`datetime.fromisoformat` reads each of these forms on every
        supported Python; the grammar skips the row all the same."""
        good = "m,q,2023-11-11T00:00:00Z,100,7200,1\n"
        csv_text = self.HEADER + good + f"m,q,{when},100,7200,1\n" + good
        assert QueueWaitStore().ingest_csv(io.StringIO(csv_text)) == (
            2, [f"line 3: Invalid isoformat string: {when!r}"])

    @pytest.mark.parametrize("when,warning", [
        ("2023-11-10TZ00:00:00", "Invalid isoformat string: '2023-11-10TZ00:00:00'"),
        ("2023-11-10T00:00:00ZZ", "Invalid isoformat string: '2023-11-10T00:00:00ZZ'"),
        ("2023-02-30T00:00:00Z", "day is out of range for month"),
        ("2023-11-10T25:00:00Z", "hour must be in 0..23"),
    ])
    def test_bad_z_time_warns_quoting_the_text_the_file_holds(self, when, warning):
        good = "m,q,2023-11-11T00:00:00Z,100,7200,1\n"
        csv_text = self.HEADER + good + f"m,q,{when},100,7200,1\n" + good
        assert QueueWaitStore().ingest_csv(io.StringIO(csv_text)) == (2, [f"line 3: {warning}"])

    @pytest.mark.parametrize("fraction,seconds", [("", 0), (".125", 0.125), (".000125", 1.25e-4)])
    @pytest.mark.parametrize("offset,shift", [("", 0), ("Z", 0), ("+01:30", -5400),
                                              ("-01:30", 5400)])
    def test_every_form_of_the_grammar_is_read(self, fraction, seconds, offset, shift):
        text = f"1970-01-02T00:00:00{fraction}{offset}"
        assert _parse_iso8601(text) == DAY + shift + seconds
        csv_text = self.HEADER + f"m,q,{text},100,7200,1\n" * 3
        store = QueueWaitStore()
        assert store.ingest_csv(io.StringIO(csv_text)) == (3, [])
        assert store._groups[("m", "q")].times == [DAY + shift + seconds] * 3

    def test_nul_in_header_fatal(self):
        csv_text = self.HEADER.replace("queue", "qu\0eue") + "m,q,2023-11-10T00:00:00Z,100,7200,1\n"
        with pytest.raises(ValueError, match="^line 1: line contains NUL$"):
            QueueWaitStore().ingest_csv(io.StringIO(csv_text))


class TestIngestEquivalence:
    """The streaming ingest against `csv.DictReader` + `QueueWaitRecord`."""

    HEADER = ["machine", "queue", "submit_time_iso8601", "wait_s", "walltime_req_s", "cores_req"]
    CELLS = [  # per column: (valid cells, rejected cells)
        (["m1", "m2", "m\n3"], [""]),  # m\n3: a quoted cell over two lines
        (["q1", "q,2"], [""]),
        (["2023-11-10T00:00:00Z", "2023-11-10T00:00:00+00:00", "2023-11-10T00:00:00",  # tied
          "2023-11-09T12:00:00Z", "2023-11-11T00:00:00-05:00"],
         ["2023-02-30T00:00:00Z", "x", "", "20231110T000000Z", "2023-11-10 00:00:00"]),
        (["0", "100", "250.5", "-0"], ["-5", "nan", "inf", "1e400", "", "x"]),
        (["600", "7200", "1e5"], ["0", "-inf", "nan"]),
        (["1", "16", " 4"], ["0", "2.5", ""]),
    ]
    row = row_strategy(CELLS)
    # rows with no cell that needs quotes, so a chunk of them is split at its commas
    quote_free_row = row_strategy([([c for c in ok if "," not in c and "\n" not in c], bad)
                                   for ok, bad in CELLS])
    any_row = st.one_of(
        row, row, quote_free_row,
        st.tuples(row, st.integers(0, 5)).map(lambda r: r[0][:r[1]]),  # short, or a blank line
        st.tuples(row, st.lists(st.sampled_from(["", "9"]), min_size=1, max_size=2)).map(
            lambda r: r[0] + r[1]),  # long
    )

    @staticmethod
    def text(rows) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([TestIngestEquivalence.HEADER, *rows])
        return buf.getvalue()

    # rows read at a time: the reader's own chunk size and smaller ones, so
    # that short files still cross chunk boundaries
    SMALL_CHUNKS = [1, 2, 7]
    CHUNKS = [*SMALL_CHUNKS, codec._CHUNK]

    def check_against_reference(self, parts):
        store, records = QueueWaitStore(), []
        for rows in parts:
            text = self.text(rows)
            expected, warnings = csv_read_oracle(text, history_record_oracle)
            records += expected
            assert store.ingest_csv(io.StringIO(text)) == (len(expected), warnings)
        assert store._groups == history_columns_oracle(records)
        assert len(store) == len(records)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(any_row, max_size=40), min_size=2, max_size=2))
    def test_columns_counts_and_warnings_match_reference(self, parts):
        self.check_against_reference(parts)

    @pytest.mark.parametrize("chunk", SMALL_CHUNKS)
    @settings(max_examples=150, deadline=None)
    @given(parts=st.lists(st.lists(any_row, max_size=40), min_size=2, max_size=2))
    def test_small_chunks_match_reference(self, chunk, parts):
        with mock.patch.object(codec, "_CHUNK", chunk):
            self.check_against_reference(parts)

    def check_text(self, text, chunk=codec._CHUNK):
        """``text`` read ``chunk`` lines at a time against the reference;
        returns how each chunk was read (see `read_paths`)."""
        expected, warnings = csv_read_oracle(text, history_record_oracle)
        store = QueueWaitStore()
        with mock.patch.object(codec, "_CHUNK", chunk):
            result, paths = read_paths(lambda: store.ingest_csv(io.StringIO(text)))
        assert result == (len(expected), warnings)
        assert store._groups == history_columns_oracle(expected)
        return paths

    # runs of one row, so that at the reader's own chunk size a stream
    # crosses chunks, both quote-free ones and ones the csv module reads
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(any_row, st.integers(1, 300)), min_size=1, max_size=6))
    def test_runs_across_chunks_of_the_reader_size_match_reference(self, runs):
        self.check_text(self.text([row for row, n in runs for _ in range(n)]))

    def clean_rows(self, n):
        return [[f"m{i % 3}", "q1", self.GOOD[2], str(i), *self.GOOD[4:]] for i in range(n)]

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("last_ended", [True, False], ids=["last-ended", "last-unended"])
    def test_line_ends_are_split(self, end, last_ended):
        rows = self.clean_rows(2 * codec._CHUNK + 5)
        rows[7] = rows[codec._CHUNK + 3] = self.EDGE_ROWS["bad"]
        buf = io.StringIO()
        csv.writer(buf, lineterminator=end).writerows([self.HEADER, *rows])
        text = buf.getvalue() if last_ended else buf.getvalue()[:-len(end)]
        assert self.check_text(text) == ["split"] * 3

    @pytest.mark.parametrize("edge", ["blank", "short", "long"])
    def test_a_row_of_another_width_inside_a_clean_chunk(self, edge):
        rows = self.clean_rows(3 * codec._CHUNK)
        rows[codec._CHUNK + 100] = self.EDGE_ROWS[edge]
        assert self.check_text(self.text(rows)) == ["split", "csv", "split"]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_multi_line_cell_opening_on_the_last_line_of_a_chunk(self, chunk):
        """The csv module reads the cell on past the chunk, and the next
        chunk starts after it, its lines named as the stream counts them."""
        rows = self.clean_rows(3 * chunk + 2)
        rows[chunk - 1] = self.EDGE_ROWS["multi-line"]
        rows[chunk] = self.EDGE_ROWS["bad"]
        paths = self.check_text(self.text(rows), chunk)
        assert paths[0] == "csv" and set(paths[1:]) == {"split"}

    @pytest.mark.parametrize("line,error", [
        ("m\rx,q1,2023-11-10T00:00:00Z,100,7200,1\n", "new-line character seen in unquoted field"),
        ("m1,q1,2023-11-10T00:00:00Z,1\x000,7200,1\n", "line contains NUL$"),
    ], ids=["carriage-return", "nul"])
    def test_text_that_is_not_csv_inside_a_clean_chunk(self, line, error):
        store = store_of(rec(100, machine="m1", queue="q1"))
        held = {key: tuple(map(list, rows)) for key, rows in store._groups.items()}
        lines = self.text(self.clean_rows(3 * codec._CHUNK)).splitlines(keepends=True)
        lines[codec._CHUNK + 100] = line
        with pytest.raises(ValueError, match=f"^line {codec._CHUNK + 101}: {error}"):
            store.ingest_csv(io.StringIO("".join(lines)))
        assert store._groups == held and len(store) == 1

    def test_line_past_the_field_limit(self):
        """A cell past the csv module's limit, read when the reading starts,
        fails naming its line; a line past it whose cells are not is read."""
        limit = csv.field_size_limit()
        rows = self.clean_rows(2 * codec._CHUNK)
        try:
            csv.field_size_limit(64)
            rows[codec._CHUNK + 100][0] = "m" * 60
            assert self.check_text(self.text(rows)) == ["split", "csv"]
            rows[codec._CHUNK + 100][0] = "m" * 65
            with pytest.raises(ValueError, match=(
                    f"^line {codec._CHUNK + 102}: field larger than field limit \\(64\\)$")):
                QueueWaitStore().ingest_csv(io.StringIO(self.text(rows)))
        finally:
            csv.field_size_limit(limit)

    GOOD = ["m1", "q1", "2023-11-10T00:00:00Z", "100", "7200", "1"]
    EDGE_ROWS = {
        "bad": ["m1", "q1", "2023-11-10T00:00:00Z", "-5", "7200", "1"],
        "blank": [],
        "short": ["m1", "q1"],
        "long": [*GOOD, "9"],
        "multi-line": ["m\n3", "q1", "2023-11-09T12:00:00Z", "250.5", "600", "16"],
        "multi-line-bad": ["m\n3", "q1", "2023-11-09T12:00:00Z", "250.5", "600", "0"],
    }

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("edge", EDGE_ROWS)
    def test_first_and_last_row_of_a_chunk(self, chunk, edge):
        rows = [[*self.GOOD[:3], str(i), *self.GOOD[4:]] for i in range(3 * chunk)]
        for i in (0, chunk - 1, chunk, 3 * chunk - 1):
            rows[i] = self.EDGE_ROWS[edge]
        text = self.text(rows)
        expected, warnings = csv_read_oracle(text, history_record_oracle)
        store = QueueWaitStore()
        with mock.patch.object(codec, "_CHUNK", chunk):
            assert store.ingest_csv(io.StringIO(text)) == (len(expected), warnings)
        assert store._groups == history_columns_oracle(expected)

    # rows before, at and after the time of the row held in the tests below
    # (2023-11-13T22:13:20Z), out of order, in its group and in others
    LATER_ROWS = [["m1", "q1", "2023-11-14T00:00:00Z", "300", "7200", "1"],
                  ["m2", "q1", "2023-11-12T00:00:00Z", "50", "600", "4"],
                  ["m1", "q1", "2023-11-13T00:00:00Z", "200", "7200", "1"],
                  ["m1", "q1", "2023-11-13T22:13:20Z", "400", "900", "2"],
                  ["m0", "q1", "2023-11-15T00:00:00Z", "10", "7200", "1"],
                  ["m1", "q1", "2023-11-12T00:00:00Z", "500", "7200", "1"]]

    def check_later_ingest(self, store, held):
        """After a failed ingest, a good stream extends the held group and
        adds new ones as if the failed stream had never been read."""
        text = self.text(self.LATER_ROWS)
        expected, warnings = csv_read_oracle(text, history_record_oracle)
        assert store.ingest_csv(io.StringIO(text)) == (len(expected), warnings)
        assert store._groups == history_columns_oracle([held, *expected])

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_text_that_is_not_csv_in_a_later_chunk_leaves_the_store_unchanged(self, chunk):
        record = rec(100, machine="m1", queue="q1")
        store = store_of(record)
        held = {key: tuple(map(list, rows)) for key, rows in store._groups.items()}
        rows = [[f"m{i % 3}", "q1", *self.GOOD[2:]] for i in range(2 * chunk + 1)]
        text = self.text(rows) + "m\rx,q1,2023-11-10T00:00:00Z,100,7200,1\n"
        with mock.patch.object(codec, "_CHUNK", chunk):
            with pytest.raises(ValueError, match=f"^line {2 * chunk + 3}: new-line character"):
                store.ingest_csv(io.StringIO(text))
            assert store._groups == held and len(store) == 1
            self.check_later_ingest(store, record)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_nul_in_a_later_chunk_leaves_the_store_unchanged(self, chunk):
        record = rec(100, machine="m1", queue="q1")
        store = store_of(record)
        held = {key: tuple(map(list, rows)) for key, rows in store._groups.items()}
        rows = [[f"m{i % 3}", "q1", *self.GOOD[2:]] for i in range(2 * chunk + 1)]
        text = self.text(rows) + "m1,q1,2023-11-10T00:00:00Z,100,7200,\0\n" + self.text(rows)
        with mock.patch.object(codec, "_CHUNK", chunk):
            with pytest.raises(ValueError, match=f"^line {2 * chunk + 3}: line contains NUL$"):
                store.ingest_csv(io.StringIO(text))
            assert store._groups == held and len(store) == 1
            self.check_later_ingest(store, record)

    def test_file_stream_counts_a_carriage_return_in_a_quoted_cell_as_a_line(self, tmp_path):
        """Read with ``newline=""``, a file's lines also end at a lone
        ``\r``, so the warning names the line the stream counts, one more
        than the ``\n`` in the cells show."""
        path = tmp_path / "history.csv"
        path.write_bytes(self.text([]).encode() + b'"m\rx",q1,2023-11-10T00:00:00Z,100,7200,1\n'
                         b"m1,q1,2023-11-10T00:00:00Z,-5,7200,1\n")
        with open(path, encoding="utf-8", newline="") as fh:
            assert QueueWaitStore().ingest_csv(fh) == (1, ["line 4: wait_s must be >= 0"])
