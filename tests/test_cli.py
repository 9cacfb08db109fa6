import contextlib
import copy
import csv
import io
import json
import math
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resselect.cli import main
from resselect.sim import SimulationResult

from conftest import BUNDLED

NOW = "2026-08-20T00:00:00Z"


def write(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


@pytest.fixture
def task_file(tmp_path):
    return write(
        tmp_path / "task.json",
        {
            "task_id": "t1",
            "instructions": [
                [{"type": "cyc", "form": {}, "amount": 3}],
                [{"type": "cyc", "form": {}, "amount": 2},
                 {"type": "mem", "form": {}, "amount": 1}],
            ],
        },
    )


@pytest.fixture
def pool_file(tmp_path):
    return write(
        tmp_path / "pool.json",
        [
            {"resource_id": "r1",
             "capabilities": [{"type": "cyc", "form": {}, "rate": 1.0},
                              {"type": "mem", "form": {}, "rate": 1.0}]},
            {"resource_id": "r2",
             "capabilities": [{"type": "other", "form": {}, "rate": 1.0}]},
        ],
    )


class TestAggregate:
    def test_happy_path(self, task_file, capsys):
        assert main(["aggregate", "--task", task_file]) == 0
        out = json.loads(capsys.readouterr().out)
        amounts = {r["type"]: r["amount"] for r in out["requirements"]}
        assert amounts == {"cyc": 5, "mem": 1}

    def test_missing_flag(self, capsys):
        assert main(["aggregate"]) == 1
        assert "--task" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, capsys):
        assert main(["aggregate", "--task", "/nonexistent.json"]) == 2

    def test_invalid_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["aggregate", "--task", str(bad)]) == 1


class TestMatch:
    def test_viable_output(self, task_file, pool_file, capsys):
        assert main(["match", "--task", task_file, "--pool", pool_file]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "task_id": "t1", "viable": ["r1"]
        }

    def test_empty_viable_set_is_data_not_failure(self, tmp_path, pool_file, capsys):
        task = write(
            tmp_path / "gpu.json",
            {"task_id": "t2",
             "requirements": [{"type": "gpu", "form": {}, "amount": 1}]},
        )
        assert main(["match", "--task", task, "--pool", pool_file]) == 0
        assert json.loads(capsys.readouterr().out)["viable"] == []


COMMANDS = ["aggregate", "match", "predict", "queue-wait", "select", "simulate", "report"]
BUNDLED_INPUTS = {
    "workload": "workload_64.json", "pool": "pool.json", "clocks": "clocks.json",
    "config": "config.json", "scenario": "scenario.json",
    "profiles": "profiles.csv", "history": "history.csv",
}


def undeclared(value, schema):
    """The keys in ``value`` that ``schema`` (as ``--schema`` prints it) does
    not declare."""
    if "oneOf" in schema:
        return min((undeclared(value, s) for s in schema["oneOf"]), key=len)
    if isinstance(value, list):
        return [k for v in value for k in undeclared(v, schema.get("items", {}))]
    if not isinstance(value, dict):
        return []
    if schema.get("type") != "object":
        return list(value)
    props = schema.get("properties")
    if props is None:  # free keys, such as resource ids
        return [k for v in value.values() for k in undeclared(v, schema["additionalProperties"])]
    return [k for k in value if k not in props] + [
        bad for k, v in value.items() if k in props for bad in undeclared(v, props[k])]


class TestSchemas:
    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_every_subcommand_has_schema(self, cmd, capsys):
        assert main([cmd, "--schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert "input" in schema and "output" in schema

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_schema_names_every_key_the_bundled_files_use(self, cmd, capsys):
        assert main([cmd, "--schema"]) == 0
        inputs = json.loads(capsys.readouterr().out)["input"]
        for flag, fmt in inputs.items():
            if flag == "task":
                value = json.loads((BUNDLED / "workload_64.json").read_text())["tasks"][0]
            elif flag in BUNDLED_INPUTS:
                path = BUNDLED / BUNDLED_INPUTS[flag]
                if isinstance(fmt, str):  # CSV: the header must be the declared columns
                    header = path.read_text().splitlines()[0].split(",")
                    assert fmt == "CSV: " + ",".join(header)
                    continue
                value = json.loads(path.read_text())
            else:
                continue
            assert undeclared(value, fmt) == [], (cmd, flag)


# The subcommand that reads each bundled file ("@name" is the file's copy).
# Each mutation is (file, op, path, key): add an unknown key, set a key to NaN/Infinity, or
# delete a required key; stderr must name the file and ``key``.
STRICT_CASES = {
    "workload_64.json": ["select", "--workload", "@workload_64.json", "--pool", "@pool.json",
                         "--strategy", "random", "--seed", "1"],
    "pool.json": ["select", "--workload", "@workload_64.json", "--pool", "@pool.json",
                  "--strategy", "random", "--seed", "1"],
    "clocks.json": ["predict", "--profiles", "@profiles.csv", "--clocks", "@clocks.json"],
    "config.json": ["predict", "--profiles", "@profiles.csv", "--clocks", "@clocks.json",
                    "--config", "@config.json"],
    "scenario.json": ["simulate", "--scenario", "@scenario.json"],
}
MUTATIONS = [
    ("workload_64.json", "add", [], "tasks_"),
    ("workload_64.json", "add", ["tasks", 0, "requirements", 0], "amout"),
    ("workload_64.json", math.nan, ["tasks", 0, "requirements", 0], "amount"),
    ("workload_64.json", math.inf, ["tasks", 3, "requirements", 0], "amount"),
    ("workload_64.json", "del", ["tasks", 0], "task_id"),
    ("pool.json", "add", [0], "speed"),
    ("pool.json", "add", [1, "capabilities", 0], "rat"),
    ("pool.json", math.nan, [1, "capabilities", 0], "rate"),
    ("pool.json", math.inf, [1, "capabilities", 0], "rate"),
    ("pool.json", "del", [2, "capabilities", 0], "rate"),
    ("clocks.json", "add", [0], "turbo_ghz"),
    ("clocks.json", math.nan, [1], "base_ghz"),
    ("clocks.json", -math.inf, [2], "base_ghz"),
    ("clocks.json", "del", [3], "max_ghz"),
    ("config.json", "add", [], "frequency_choise"),
    ("config.json", "add", ["resource_queues", "bridges"], "queu"),
    ("config.json", math.nan, [], "walltime_safety_factor"),
    ("config.json", math.inf, [], "window_s"),
    ("config.json", "del", ["resource_queues", "comet"], "queue"),
    ("scenario.json", "add", [], "trails"),
    ("scenario.json", "add", ["behaviors", 0, "tq_dist"], "meen"),
    ("scenario.json", math.nan, ["behaviors", 2, "tq_dist"], "mean"),
    ("scenario.json", math.inf, ["behaviors", 1, "tx_dist"], "value"),
    ("scenario.json", "del", ["behaviors", 0], "tx_dist"),
]


class TestStrictInputs:
    @pytest.mark.parametrize(
        "name,op,path,key", MUTATIONS,
        ids=[f"{m[0].split('.')[0]}-{m[3]}-{m[1] if isinstance(m[1], str) else repr(m[1])}"
             for m in MUTATIONS],
    )
    def test_bad_input_exits_1_naming_file_and_key(self, tmp_path, capsys, name, op, path, key):
        def mutate(target):
            if op == "add":
                target[key] = 1
            elif op == "del":
                del target[key]
            else:
                target[key] = op

        file, argv = edited_bundled_copy(tmp_path, name, path, mutate)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert file in err and key in err, err


def edited_bundled_copy(tmp_path, name, path, edit):
    """Copy the bundled files to ``tmp_path``, call ``edit`` on the value at
    ``path`` in the copy of ``name``, and return that copy's path and the
    argv of the subcommand that reads it (a scenario's plan is a one-task
    random plan)."""
    files = {f.name: str(shutil.copy(f, tmp_path / f.name)) for f in BUNDLED.iterdir()}
    doc = json.loads((tmp_path / name).read_text())
    if name == "scenario.json":
        doc["plan"] = write(tmp_path / "plan.json", {
            "workload_id": "w", "strategy": "random",
            "assignments": {"t": {"resource_id": "supermic"}}})
    target = doc
    for step in path:
        target = target[step]
    edit(target)
    write(tmp_path / name, doc)
    return files[name], [files[a[1:]] if a.startswith("@") else a for a in STRICT_CASES[name]]


class TestDuplicateIds:
    """A resource id listed twice in the pool, the clocks or a scenario's
    behaviors exits 1, naming the file, the index path and the id; the
    second entry would otherwise count twice or replace the first."""

    @pytest.mark.parametrize("name,key,index", [
        ("pool.json", "", 1), ("clocks.json", "", 2), ("scenario.json", "behaviors", 0),
    ])
    def test_duplicate_resource_id_exits_1(self, tmp_path, capsys, name, key, index):
        items = json.loads((BUNDLED / name).read_text())
        items = items[key] if key else items
        rid, dup = items[index]["resource_id"], len(items)  # the copy goes last
        file, argv = edited_bundled_copy(tmp_path, name, [key] if key else [],
                                         lambda target: target.append(target[index]))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{file}: {key}[{dup}]: duplicate resource_id {rid!r}, first at index {index}" in \
            captured.err, captured.err


class TestUnreadFields:
    """A field that a distribution's kind or a behavior's pilot mode never
    reads is rejected: exit 1, naming the file, the key path and the field."""

    @pytest.mark.parametrize("index,key,patch,named", [
        (0, "tx_dist", {"mean": 1.0, "samples": [1.0]}, "mean, samples"),  # constant
        (0, "tq_dist", {"value": 1.0}, "value"),  # normal
        (1, "tx_dist", {"kind": "empirical", "samples": [1.0], "stddev": 2.0}, "value, stddev"),
        (3, None, {"capacity_cores": 4}, "capacity_cores"),  # per_task pilot
    ])
    def test_unread_field_exits_1(self, tmp_path, capsys, index, key, patch, named):
        doc = json.loads((BUNDLED / "scenario.json").read_text())
        doc["plan"] = write(tmp_path / "plan.json", {
            "workload_id": "w", "strategy": "random",
            "assignments": {"t": {"resource_id": "supermic"}}})
        behavior = doc["behaviors"][index]
        (behavior[key] if key else behavior).update(patch)
        scenario = write(tmp_path / "scenario.json", doc)
        assert main(["simulate", "--scenario", scenario]) == 1
        err = capsys.readouterr().err
        path = f"behaviors[{index}]" + (f".{key}" if key else "")
        assert f"{scenario}: {path}: " in err and named in err, err
        assert "Traceback" not in err


class TestArgumentErrors:
    SELECT = ["select", "--workload", str(BUNDLED / "workload_64.json"),
              "--pool", str(BUNDLED / "pool.json")]

    @pytest.mark.parametrize("extra", [["--bogus"], ["--strategy", "best"]])
    def test_argument_error_exits_1(self, extra, capsys):
        assert main(self.SELECT + extra) == 1
        assert "usage:" in capsys.readouterr().err

    def test_model_strategy_names_missing_flags(self, capsys):
        assert main(self.SELECT) == 1
        err = capsys.readouterr().err
        assert all(f in err for f in ("--profiles", "--clocks", "--history", "--now"))

    def test_unparseable_now_exits_1(self, capsys):
        argv = self.SELECT + ["--profiles", str(BUNDLED / "profiles.csv"),
                              "--clocks", str(BUNDLED / "clocks.json"),
                              "--history", str(BUNDLED / "history.csv"), "--now", "yesterday"]
        assert main(argv) == 1
        assert "--now" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["select", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage:")


class TestPipeline:
    def args_select(self, out):
        return [
            "select",
            "--workload", str(BUNDLED / "workload_64.json"),
            "--pool", str(BUNDLED / "pool.json"),
            "--profiles", str(BUNDLED / "profiles.csv"),
            "--clocks", str(BUNDLED / "clocks.json"),
            "--history", str(BUNDLED / "history.csv"),
            "--config", str(BUNDLED / "config.json"),
            "--now", NOW,
            "--out", out,
        ]

    def test_select_and_simulate_and_report(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert main(self.args_select(str(plan_path))) == 0
        plan = json.loads(plan_path.read_text())
        assert all(a["resource_id"] == "supermic" for a in plan["assignments"].values())

        behaviors = json.loads((BUNDLED / "behaviors.json").read_text())
        scenario = write(
            tmp_path / "scenario.json",
            {"plan": str(plan_path), "behaviors": behaviors, "trials": 50, "seed": 2},
        )
        model_out = tmp_path / "model.json"
        trials_csv = tmp_path / "trials.csv"
        assert main(["simulate", "--scenario", scenario, "--out", str(model_out),
                     "--trials-csv", str(trials_csv)]) == 0
        result = json.loads(model_out.read_text())
        assert result["trials"] == 50
        assert trials_csv.read_text().startswith("trial,ttc_wkd_s")

        rand_plan = tmp_path / "rand_plan.json"
        assert main(["select", "--workload", str(BUNDLED / "workload_64.json"),
                     "--pool", str(BUNDLED / "pool.json"),
                     "--strategy", "random", "--seed", "5",
                     "--out", str(rand_plan)]) == 0
        rand_scenario = write(
            tmp_path / "rand_scenario.json",
            {"plan": str(rand_plan), "behaviors": behaviors, "trials": 50, "seed": 2},
        )
        rand_out = tmp_path / "rand.json"
        assert main(["simulate", "--scenario", rand_scenario,
                     "--out", str(rand_out)]) == 0
        assert main(["report", "--model", str(model_out),
                     "--random", str(rand_out)]) == 0
        report = capsys.readouterr().out
        assert report.startswith("group,metric,mean")
        assert "ttc_reduction_pct" in report

    def test_byte_identical_output_for_identical_inputs(self, tmp_path):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert main(self.args_select(str(out1))) == 0
        assert main(self.args_select(str(out2))) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flag", ["--history", "--profiles", "--config"])
    def test_byte_order_mark_is_dropped(self, tmp_path, flag):
        """Spreadsheets start a UTF-8 export with a byte-order mark; the
        file must read as it does without one."""
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        assert main(self.args_select(str(plain))) == 0
        argv = self.args_select(str(marked))
        i = argv.index(flag) + 1
        with open(argv[i], "rb") as fh:
            text = fh.read()
        argv[i] = str(tmp_path / "with-bom")
        with open(argv[i], "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + text)
        assert main(argv) == 0
        assert marked.read_bytes() == plain.read_bytes()

    def test_random_strategy_requires_seed(self, capsys):
        assert main(["select", "--workload", str(BUNDLED / "workload_64.json"),
                     "--pool", str(BUNDLED / "pool.json"),
                     "--strategy", "random"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_predict_subcommand(self, capsys):
        assert main(["predict", "--profiles", str(BUNDLED / "profiles.csv"),
                     "--clocks", str(BUNDLED / "clocks.json"),
                     "--config", str(BUNDLED / "config.json")]) == 0
        reports = json.loads(capsys.readouterr().out)
        by_res = {r["resource_id"]: r for r in reports}
        assert by_res["supermic"]["tx_base_s"] == pytest.approx(1e13 / 2.8e9)
        assert by_res["osg"]["inflation_factor"] == 1.22

    def test_queue_wait_subcommand(self, capsys):
        assert main(["queue-wait", "--history", str(BUNDLED / "history.csv"),
                     "--machine", "supermic", "--queue", "workq",
                     "--walltime", "7200", "--cores", "1", "--now", NOW]) == 0
        est = json.loads(capsys.readouterr().out)
        assert est["mean_wait_s"] == 600.0
        assert est["fallback_used"] is False

    @pytest.mark.parametrize("flag,value", [
        ("--walltime", "-5"), ("--walltime", "0"), ("--walltime", "nan"),
        ("--cores", "-3"), ("--cores", "0"),
    ])
    def test_queue_wait_rejects_invalid_query(self, capsys, flag, value):
        query = {"--walltime": "7200", "--cores": "1", flag: value}
        argv = ["queue-wait", "--history", str(BUNDLED / "history.csv"),
                "--machine", "supermic", "--queue", "workq", "--now", NOW]
        assert main(argv + [a for kv in query.items() for a in kv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err and "Traceback" not in captured.err

    def test_malformed_csv_exits_1_with_line_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("machine,queue\nm,q\n")
        assert main(["queue-wait", "--history", str(bad),
                     "--machine", "m", "--queue", "q",
                     "--walltime", "1", "--cores", "1", "--now", NOW]) == 1
        assert "missing columns" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["queue-wait", "--machine", "m", "--queue", "q", "--walltime", "1", "--cores", "1",
         "--now", NOW, "--history"],
        ["aggregate", "--task"],
    ], ids=["queue-wait", "aggregate"])
    def test_non_utf8_file_exits_1_naming_it(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"machine,queue\n\xff\n")
        assert main(argv + [str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text: ")
        assert "0xff" in err and "Traceback" not in err

    @pytest.mark.parametrize("via_scenario", [False, True], ids=["task", "scenario-plan"])
    def test_deeply_nested_json_exits_1_naming_the_file(self, tmp_path, capsys, via_scenario):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        if via_scenario:
            behaviors = json.loads((BUNDLED / "behaviors.json").read_text())
            scenario = write(tmp_path / "scenario.json",
                             {"plan": str(deep), "behaviors": behaviors, "trials": 2, "seed": 1})
            argv = ["simulate", "--scenario", scenario]
        else:
            argv = ["aggregate", "--task", str(deep)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {deep}: JSON nested too deeply\n"

    CSV_RUNS = {  # file flag -> (bundled file, the rest of a command reading it)
        "--history": ("history.csv", ["queue-wait", "--machine", "supermic", "--queue", "workq",
                                      "--walltime", "7200", "--cores", "1", "--now", NOW]),
        "--profiles": ("profiles.csv", ["predict", "--clocks", str(BUNDLED / "clocks.json")]),
    }

    def _run_edited_csv(self, tmp_path, capsys, flag, edit):
        name, argv = self.CSV_RUNS[flag]
        path = tmp_path / name
        lines = (BUNDLED / name).read_text().splitlines(keepends=True)
        path.write_bytes("".join(edit(lines)).encode())  # raw: no newline translation
        code = main(argv + [flag, str(path)])
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        return code, captured.err, path

    @pytest.mark.parametrize("flag", sorted(CSV_RUNS))
    def test_carriage_return_in_unquoted_cell_exits_1(self, tmp_path, capsys, flag):
        def edit(lines):
            lines[2] = lines[2][:2] + "\r" + lines[2][2:]
            return lines

        code, err, path = self._run_edited_csv(tmp_path, capsys, flag, edit)
        assert code == 1
        assert err.startswith(f"error: {path}: line 3: new-line character seen in unquoted field")

    @pytest.mark.parametrize("flag,column", [("--history", "wait_s"), ("--profiles", "tx_s")])
    def test_repeated_column_exits_1(self, tmp_path, capsys, flag, column):
        def edit(lines):
            return [line.rstrip("\r\n") + ("," + column if i == 0 else ",1") + "\n"
                    for i, line in enumerate(lines)]

        code, err, path = self._run_edited_csv(tmp_path, capsys, flag, edit)
        kind = "history" if flag == "--history" else "profile"
        assert code == 1
        assert err == f"error: {path}: {kind} CSV repeats column {column!r}\n"

    def test_bad_history_row_warns_on_stderr(self, tmp_path, capsys):
        csv_path = tmp_path / "hist.csv"
        csv_path.write_text(
            "machine,queue,submit_time_iso8601,wait_s,walltime_req_s,cores_req\n"
            "m,q,2026-08-19T00:00:00Z,100,7200,1\n"
            "m,q,not-a-date,100,7200,1\n"
        )
        assert main(["queue-wait", "--history", str(csv_path),
                     "--machine", "m", "--queue", "q",
                     "--walltime", "7200", "--cores", "1", "--now", NOW]) == 0
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_carriage_return_in_a_quoted_cell_counts_as_a_line(self, tmp_path, capsys):
        """The warning names the line that a file stream opened with
        ``newline=""`` names for the same row (see test_queuewait), and the
        quoted cell keeps its ``\\r``."""
        csv_path = tmp_path / "hist.csv"
        csv_path.write_bytes(
            b"machine,queue,submit_time_iso8601,wait_s,walltime_req_s,cores_req\n"
            b'"m\rx",q,2026-08-19T00:00:00Z,100,7200,1\n'
            b"m,q,2026-08-19T00:00:00Z,-5,7200,1\n"
        )
        assert main(["queue-wait", "--history", str(csv_path),
                     "--machine", "m\rx", "--queue", "q",
                     "--walltime", "7200", "--cores", "1", "--now", NOW]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: {csv_path}: line 4: wait_s must be >= 0\n"
        assert json.loads(captured.out)["n_samples"] == 1

    def test_history_row_with_extra_cells_skipped(self, tmp_path, capsys):
        csv_path = tmp_path / "hist.csv"
        csv_path.write_text(
            "machine,queue,submit_time_iso8601,wait_s,walltime_req_s,cores_req\n"
            "supermic,workq,2026-08-19T00:00:00Z,300,7200,1\n"
            "supermic,workq,2026-08-19T12:00:00Z,100,7200,1,999\n"
        )
        assert main(["queue-wait", "--history", str(csv_path),
                     "--machine", "supermic", "--queue", "workq",
                     "--walltime", "7200", "--cores", "1", "--now", NOW]) == 0
        captured = capsys.readouterr()
        assert f"{csv_path}: line 3: 1 more cells than the header" in captured.err
        est = json.loads(captured.out)
        assert (est["n_samples"], est["mean_wait_s"]) == (1, 300.0)


class TestConfigResourceIds:
    """A key of the config's per-resource maps that names no resource the
    subcommand reads exits 1, naming the config file, the map and the id:
    a misspelt id would silently get the default inflation or queue."""

    PREDICT = ["predict", "--profiles", "@profiles.csv", "--clocks", "@clocks.json",
               "--config", "@config.json"]
    SELECT = ["select", "--workload", "@workload_64.json", "--pool", "@pool.json",
              "--config", "@config.json"]
    MODEL = ["--profiles", "@profiles.csv", "--clocks", "@clocks.json",
             "--history", "@history.csv", "--now", NOW]
    QUEUE = {"machine": "bridges", "queue": "RM"}

    @pytest.mark.parametrize("argv,name,rid,value,source", [
        (PREDICT, "inflation_factors", "osgg", 1.22, "clocks.json"),
        (PREDICT, "resource_queues", "bridge", QUEUE, "clocks.json"),
        (SELECT + MODEL, "inflation_factors", "osgg", 1.22, "pool.json"),
        (SELECT + ["--strategy", "random", "--seed", "1"], "resource_queues", "bridge", QUEUE,
         "pool.json"),
    ], ids=["predict-inflation", "predict-queues", "select-model-inflation",
            "select-random-queues"])
    def test_unknown_resource_exits_1(self, tmp_path, capsys, argv, name, rid, value, source):
        def add(target):
            target[rid] = value

        config, _ = edited_bundled_copy(tmp_path, "config.json", [name], add)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"{config}: {name}.{rid}: no resource {rid!r} in {tmp_path / source}"
                in captured.err), captured.err


# --- mutated inputs never crash the CLI -------------------------------------

WORKLOAD = json.loads((BUNDLED / "workload_64.json").read_text())
WORKLOAD["tasks"] = WORKLOAD["tasks"][:3]
TASK = WORKLOAD["tasks"][0]
POOL = json.loads((BUNDLED / "pool.json").read_text())
CLOCKS = json.loads((BUNDLED / "clocks.json").read_text())
CONFIG = json.loads((BUNDLED / "config.json").read_text())
PROFILES, HISTORY = (list(csv.reader(io.StringIO((BUNDLED / name).read_text())))
                     for name in ("profiles.csv", "history.csv"))
SCENARIO = {
    "plan": {"workload_id": "w", "strategy": "random",
             "assignments": {f"t{i}": {"resource_id": r} for i, r in
                             enumerate(["supermic", "osg", "comet", "osg"])}},
    "behaviors": json.loads((BUNDLED / "behaviors.json").read_text()),
    "trials": 3, "seed": 1,
}
RESULTS = [SimulationResult("w", s, 2, ttc, (1.0, 1.0), tuple(t - 1.0 for t in ttc)).to_json()
           for s, ttc in (("model", (5.0, 6.0)), ("random", (9.0, 12.0)))]
FUZZ_INPUTS = {  # subcommand -> its (flag, document) inputs; a CSV document is a list of rows
    "aggregate": [("--task", TASK)],
    "match": [("--task", TASK), ("--pool", POOL)],
    "predict": [("--profiles", PROFILES), ("--clocks", CLOCKS), ("--config", CONFIG)],
    "queue-wait": [("--history", HISTORY), ("--config", CONFIG)],
    "select": [("--workload", WORKLOAD), ("--pool", POOL), ("--profiles", PROFILES),
               ("--clocks", CLOCKS), ("--history", HISTORY), ("--config", CONFIG)],
    "simulate": [("--scenario", SCENARIO)],
    "report": [("--model", RESULTS[0]), ("--random", RESULTS[1])],
}
FUZZ_ARGS = {  # subcommand -> the arguments that are not files
    "queue-wait": ["--machine", "supermic", "--queue", "workq", "--walltime", "7200",
                   "--cores", "1", "--now", NOW],
    "select": ["--now", NOW],
}
CSV_FLAGS = {"--profiles", "--history"}
JSON_VALUES = [None, True, "x", 0, -1, 2, 0.5, 1e308, 10**400, math.nan, -math.inf, [], {}, [0],
               {"k": 1}]
CSV_VALUES = ["", "x", "0", "-1", "0.5", "1e308", "1e400", "nan", "-inf", "2026-02-30T00:00:00Z",
              "supermic", "md-100k", ["x", "1"], []]


def _locations(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


@st.composite
def mutated_run(draw):
    cmd = draw(st.sampled_from(sorted(FUZZ_INPUTS)))
    inputs = copy.deepcopy(FUZZ_INPUTS[cmd])
    which = draw(st.integers(0, len(inputs) - 1))
    flag, doc = inputs[which]
    path = draw(st.sampled_from(list(_locations(doc))))
    value = draw(st.sampled_from(CSV_VALUES if flag in CSV_FLAGS else JSON_VALUES))
    if not path:
        if flag not in CSV_FLAGS:
            inputs[which] = (flag, value)
        return cmd, inputs
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "replace":
        parent[path[-1]] = value
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent["extra"] = value
    else:
        parent.append(value)
    return cmd, inputs


def _fuzz_text(flag, doc) -> str:
    if flag not in CSV_FLAGS:
        return json.dumps(doc)
    buf = io.StringIO()
    csv.writer(buf).writerows(row if isinstance(row, list) else [row] for row in doc)
    return buf.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(run=mutated_run())
def test_mutated_inputs_exit_0_1_or_2_without_traceback(fuzz_dir, run):
    cmd, inputs = run
    argv = [cmd, "--out", str(fuzz_dir / "out"), *FUZZ_ARGS.get(cmd, [])]
    for i, (flag, doc) in enumerate(inputs):
        path = fuzz_dir / f"in{i}"
        path.write_text(_fuzz_text(flag, doc))
        argv += [flag, str(path)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
