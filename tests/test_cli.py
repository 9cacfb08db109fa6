import contextlib
import copy
import csv
import hashlib
import importlib
import io
import json
import math
import pkgutil
import shutil
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resselect
from resselect import cli, codec, match, model, sim
from resselect.cli import main
from resselect.predict import load_profiles
from resselect.queuewait import QueueWaitStore
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

    def test_out_into_a_directory_is_io_error(self, task_file, tmp_path, capsys):
        assert main(["aggregate", "--task", task_file, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")


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

    PINNED = {  # sha256 of each subcommand's --schema output: the formats are the contract
        "aggregate": "dcd061321811dcfda577a78cc85bb1f86d0377dbbf4f68c1f67ac69e591b8b78",
        "match": "16122f877a60409fdb6f15913a5fac85ca90987a54a4ba9f191a623b327dadad",
        "predict": "a1fdda7200dc07965d0a03eb52b0c6c76d4d057b9063e1638ea17eded7d693cd",
        "queue-wait": "4ee47c8d78e55f3dc89404883681112fd73ccf09c47be582fed49ce5ebd10d30",
        "select": "0a81297fdd605167a3ee0592602a82adf639d6f21a195254850e0c301a059b92",
        "simulate": "5383451af1502ac9907d276fa5914579200fe07cfe726ebcbac834b247b996a5",
        "report": "20abe1442166f0bec3a18f171006c7fd13069abaffaecfedb5aace9debb0403b",
    }

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_schema_output_is_pinned(self, cmd, capsys):
        assert main([cmd, "--schema"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.PINNED[cmd]

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
# Each mutation is (file, op, path, key) on the object at ``path``: add an unknown ``key``,
# delete a required one, set it to any other ``op`` (NaN, Infinity or a value its record
# rejects), or, for a dict ``op``, replace the object with ``op``.  Stderr must name the
# file, the location ``path`` and ``key``.
STRICT_CASES = {
    "workload_64.json": ["select", "--workload", "@workload_64.json", "--pool", "@pool.json",
                         "--strategy", "random", "--seed", "1"],
    "pool.json": ["select", "--workload", "@workload_64.json", "--pool", "@pool.json",
                  "--strategy", "random", "--seed", "1"],
    "clocks.json": ["predict", "--profiles", "@profiles.csv", "--clocks", "@clocks.json"],
    "config.json": ["predict", "--profiles", "@profiles.csv", "--clocks", "@clocks.json",
                    "--config", "@config.json"],
    "scenario.json": ["simulate", "--scenario", "@scenario.json"],
    "behaviors.json": ["simulate", "--scenario", "@scenario.json"],
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
    ("workload_64.json", {"task_id": "t", "instructions": [[]]}, ["tasks", 0], "instruction"),
    ("pool.json", "", [0], "resource_id"),
    ("clocks.json", {"resource_id": "osg", "inventory": [
        {"cpu_model": "a", "node_count": 0, "base_ghz": 2.5, "max_ghz": 3.09}]},
     [3], "node_count"),
    ("clocks.json", {"resource_id": "osg", "inventory": [
        {"cpu_model": "a", "node_count": 1, "base_ghz": 3.5, "max_ghz": 3.09}]},
     [3], "base_hz"),
    ("config.json", 0, [], "window_s"),
    ("config.json", "turbo", [], "frequency_choice"),
    ("config.json", 0, [], "cores_per_task"),
    ("config.json", "x", [], "affinity"),
    ("config.json", "neg_ttc", [], "affinity"),
    ("scenario.json", {"kind": "empirical", "samples": [1.0, -1.0]}, ["behaviors", 0, "tx_dist"],
     "samples"),
    ("scenario.json", 0, ["behaviors", 0], "capacity_cores"),
    ("scenario.json", "batch", ["behaviors", 0], "pilot_mode"),
    ("behaviors.json", "add", [1, "tq_dist"], "meen"),
    ("behaviors.json", math.nan, [3, "tq_dist"], "stddev"),
    ("behaviors.json", "del", [2], "tx_dist"),
    ("behaviors.json", "batch", [0], "pilot_mode"),
]


def _mutation_id(name, op, path, key) -> str:
    how = op if op in ("add", "del") else "replace" if isinstance(op, dict) else repr(op)
    return f"{name.split('.')[0]}-{key}-{how}"


class TestStrictInputs:
    @pytest.mark.parametrize("name,op,path,key", MUTATIONS,
                             ids=[_mutation_id(*m) for m in MUTATIONS])
    def test_bad_input_exits_1_naming_file_and_key(self, tmp_path, capsys, name, op, path, key):
        def mutate(target):
            if op == "add":
                target[key] = 1
            elif op == "del":
                del target[key]
            elif isinstance(op, dict):
                target.clear()
                target.update(op)
            else:
                target[key] = op

        file, argv = edited_bundled_copy(tmp_path, name, path, mutate)
        assert main(argv) == 1
        err = capsys.readouterr().err
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")
        assert f"{file}: {where}" in err and key in err and "Traceback" not in err, err


def edited_bundled_copy(tmp_path, name, path, edit):
    """Copy the bundled files to ``tmp_path``, call ``edit`` on the value at
    ``path`` in the copy of ``name``, and return that copy's path and the
    argv of the subcommand that reads it.  A scenario's plan is a one-task
    random plan; its behaviors are the copy of behaviors.json, inline when
    ``name`` is the scenario and by path when it is behaviors.json."""
    files = {f.name: str(shutil.copy(f, tmp_path / f.name)) for f in BUNDLED.iterdir()}
    if name in ("scenario.json", "behaviors.json"):
        behaviors = json.loads((tmp_path / "behaviors.json").read_text())
        write(tmp_path / "scenario.json", {
            **json.loads((tmp_path / "scenario.json").read_text()),
            "behaviors": behaviors if name == "scenario.json" else files["behaviors.json"],
            "plan": write(tmp_path / "plan.json", {
                "workload_id": "w", "strategy": "random",
                "assignments": {"t": {"resource_id": "supermic"}}})})
    doc = json.loads((tmp_path / name).read_text())
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
        ("behaviors.json", "", 1),
    ])
    def test_duplicate_resource_id_exits_1(self, tmp_path, capsys, name, key, index):
        source = "behaviors.json" if key == "behaviors" else name  # the scenario's behaviors
        items = json.loads((BUNDLED / source).read_text())
        rid, dup = items[index]["resource_id"], len(items)  # the copy goes last
        file, argv = edited_bundled_copy(tmp_path, name, [key] if key else [],
                                         lambda target: target.append(target[index]))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{file}: {key}[{dup}]: duplicate resource_id {rid!r}, first at index {index}" in \
            captured.err, captured.err

    @pytest.mark.parametrize("body", ["same", "other"])
    def test_duplicate_task_id_exits_1(self, tmp_path, capsys, body):
        """A task id listed twice names both places, whether or not the two
        tasks have one body."""
        other = {"requirements": [{"type": "x86_cycle", "amount": 1.0}]}
        file, argv = edited_bundled_copy(tmp_path, "workload_64.json", ["tasks"], lambda tasks: (
            tasks.append(tasks[7] if body == "same" else {"task_id": tasks[7]["task_id"], **other})))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {file}: tasks[64]: duplicate task_id 'md-100k-0007', first at index 7\n")


@pytest.mark.parametrize("strategy", ["model", "random"])
def test_empty_workload_exits_1_naming_its_tasks(tmp_path, capsys, strategy):
    """A workload of no tasks has no plan: `simulate` would reject it."""
    edited_bundled_copy(tmp_path, "workload_64.json", ["tasks"], list.clear)
    argv = TestCrossFileErrors.MODEL if strategy == "model" else TestCrossFileErrors.RANDOM
    assert main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {tmp_path / 'workload_64.json'}: tasks: "
                            "workload must have at least one task\n")


@pytest.mark.parametrize("name,before,after,key", [
    ("config.json", '"walltime_safety_factor": 1.5',
     '"walltime_safety_factor": 1.5, "walltime_safety_factor": 1e9', "walltime_safety_factor"),
    ("workload_64.json", '"task_id": "md-100k-0003"',
     '"task_id": "md-100k-0003", "task_id": "md-100k-9999"', "task_id"),
], ids=["config", "task"])
def test_repeated_json_key_exits_1_naming_it(tmp_path, capsys, name, before, after, key):
    """`json.load` would keep the last value of a repeated key and say
    nothing: a safety factor of 1e9, or a task planned under its second id."""
    files = {f.name: str(shutil.copy(f, tmp_path / f.name)) for f in BUNDLED.iterdir()}
    text = (tmp_path / name).read_text()
    assert text.count(before) == 1
    (tmp_path / name).write_text(text.replace(before, after))
    argv = TestCrossFileErrors.MODEL + ["--out", "@plan.json"]
    assert main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "plan.json").exists()
    assert captured.err == f"error: {files[name]}: duplicate key {key!r}\n"


@pytest.mark.parametrize("keys,key", [
    ([f"t{i:05d}" for i in range(100_000)] + ["t00000"], "t00000"),
    (["b", "a", "a", "b"], "a"),  # b repeats first in the object, a repeats first in the file
    (["a", "b", "a", "b"], "a"),
], ids=["100k-keys", "later-repeat", "earlier-repeat"])
def test_repeated_json_key_is_the_first_key_that_repeats_in_file_order(tmp_path, capsys,
                                                                       keys, key):
    """The key named is the first, in file order, that repeats an earlier
    one, found in one pass: a search that re-read the keys before each one
    took seconds on 20,000 keys."""
    overrides = ", ".join(f'"{k}": "md-100k"' for k in keys)
    config = tmp_path / "config.json"
    config.write_text('{"profile_overrides": {' + overrides + "}}\n")
    argv = ["select", "--strategy", "random", "--seed", "1", "--workload",
            str(BUNDLED / "workload_64.json"), "--pool", str(BUNDLED / "pool.json"),
            "--config", str(config)]
    started = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - started < 10  # about 0.1 s; a quadratic search, a minute
    assert capsys.readouterr().err == f"error: {config}: duplicate key {key!r}\n"


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
        doc["behaviors"] = json.loads((BUNDLED / "behaviors.json").read_text())
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

    @pytest.mark.parametrize("now", ["20231110T000000Z", "2023-11-10 00:00:00"])
    def test_now_outside_the_history_time_grammar_exits_1(self, capsys, now):
        argv = ["queue-wait", "--history", str(BUNDLED / "history.csv"), "--machine", "supermic",
                "--queue", "workq", "--walltime", "7200", "--cores", "1", "--now", now]
        assert main(argv) == 1
        assert f"--now: not an ISO-8601 time: {now!r}" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["select", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_bare_call_names_the_missing_command(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.endswith(
            "resselect: error: the following arguments are required: command\n")


# --- a named subcommand builds its own parser alone -----------------------------

FILES = {f.name: str(f) for f in BUNDLED.iterdir()}
SELECT = ["select", "--workload", FILES["workload_64.json"], "--pool", FILES["pool.json"]]
MODEL_SELECT = SELECT + ["--profiles", FILES["profiles.csv"], "--clocks", FILES["clocks.json"],
                         "--history", FILES["history.csv"], "--config", FILES["config.json"],
                         "--now", NOW]
RANDOM_SELECT = SELECT + ["--strategy", "random", "--seed", "1", "--config", FILES["config.json"]]
QUEUE_WAIT = ["queue-wait", "--history", FILES["history.csv"], "--machine", "supermic",
              "--queue", "workq", "--walltime", "7200", "--cores", "1", "--now", NOW]
# an argv per subcommand, and the README's and the bench's select, simulate and report
PARSED = {
    "aggregate": ["aggregate", "--task", "task.json", "--out", "agg.json"],
    "match": ["match", "--task", "task.json", "--pool", FILES["pool.json"]],
    "predict": ["predict", "--profiles", FILES["profiles.csv"], "--clocks", FILES["clocks.json"],
                "--task-id", "md-100k", "--config", FILES["config.json"]],
    "queue-wait": QUEUE_WAIT + ["--config", FILES["config.json"]],
    "select-model": MODEL_SELECT + ["--out", "plan.json"],
    "select-random": RANDOM_SELECT + ["--out", "random_plan.json"],
    "simulate": ["simulate", "--scenario", FILES["scenario.json"], "--out", "result.json",
                 "--trials-csv", "trials.csv"],
    "report": ["report", "--model", "result.json", "--random", "random_result.json",
               "--out", "report.csv"],
}
# id -> the calls made in one directory, in order
PARITY_CASES = {
    "no-args": [[]], "-h": [["-h"]], "--help": [["--help"]], "-h-select": [["-h", "select"]],
    "unknown-name": [["bogus"]], "prefix": [["sel"]], "option-first": [["--out", "x", "select"]],
    "--": [["--", "select"]], "bare-select": [["select"]], "select-bogus": [["select", "--bogus"]],
    "select-select": [["select", "select"]],
    "missing-required-flag": [SELECT[:3]], "bad-strategy": [SELECT + ["--strategy", "best"]],
    "extra-positional": [SELECT + ["extra"]], "flag-without-value": [["report", "--model"]],
    "model-flags-missing": [SELECT], "bad-now": [MODEL_SELECT[:-1] + ["yesterday"]],
    "bad-walltime": [QUEUE_WAIT[:8] + ["-1"] + QUEUE_WAIT[9:]],
    "help-then-bogus": [["select", "--help", "--bogus"]],
    "schema-then-bogus": [["report", "--schema", "--bogus"]],
    "queue-wait": [QUEUE_WAIT],
    "predict": [["predict", "--profiles", FILES["profiles.csv"], "--clocks", FILES["clocks.json"]]],
    "bad-task": [["aggregate", "--task", FILES["workload_64.json"]]],
    "model-select-stdout": [MODEL_SELECT],
    # the bundled scenario simulates plan.json: the model plan, then the random
    "pipeline": [PARSED["select-model"], PARSED["simulate"], RANDOM_SELECT + ["--out", "plan.json"],
                 ["simulate", "--scenario", FILES["scenario.json"], "--out", "random_result.json"],
                 PARSED["report"]],
    **{f"{cmd}-{how}": [[cmd, *flags]] for cmd in COMMANDS
       for how, flags in (("schema", ["--schema"]), ("help", ["--help"]), ("bare", []))},
}


def _build_every_parser(monkeypatch):
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build())


class TestOneSubcommandParser:
    """``main`` builds only the parser of the subcommand that ``argv`` names
    first; any other argv builds them all.  Both must parse, print and fail
    alike, byte for byte."""

    @pytest.mark.parametrize("command,built", [(cmd, [cmd]) for cmd in COMMANDS] + [
        (None, COMMANDS), ("-h", COMMANDS), ("sel", COMMANDS)])
    def test_named_subcommand_builds_its_parser_alone(self, command, built):
        (sub,) = cli.build_parser(command)._subparsers._group_actions
        assert list(sub.choices) == built

    @pytest.mark.parametrize("argv", PARSED.values(), ids=PARSED.keys())
    def test_same_namespace(self, argv):
        assert vars(cli.build_parser(argv[0]).parse_args(argv)) == \
            vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("calls", PARITY_CASES.values(), ids=PARITY_CASES.keys())
    def test_same_exit_code_output_and_files(self, calls, tmp_path, monkeypatch, capsys):
        runs = []
        for side in ("one", "every"):
            if side == "every":
                _build_every_parser(monkeypatch)
            cwd = tmp_path / side
            cwd.mkdir()
            # the bundled scenario names its behaviors relative to the repository
            (cwd / "scenarios").symlink_to(BUNDLED.parent, target_is_directory=True)
            monkeypatch.chdir(cwd)
            results = [(main(list(argv)), *capsys.readouterr()) for argv in calls]
            runs.append((results, {f.name: f.read_bytes() for f in cwd.iterdir()
                                   if not f.is_symlink()}))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("argv", [["select", "--help"], ["report", "--schema"], ["-h"], []])
    def test_argv_none_reads_sys_argv(self, argv, monkeypatch, capsys):
        build, built = cli.build_parser, []

        def spy(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        expected = (main(list(argv)), *capsys.readouterr())
        monkeypatch.setattr(sys, "argv", ["resselect", *argv])
        assert (main(), *capsys.readouterr()) == expected
        assert built == [argv[0] if argv else None] * 2


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

    def test_model_plan_agrees_with_queue_wait(self, tmp_path):
        """The bundled model plan puts every task on supermic, whose walltime
        falls in the bucket of the 7200 s queue-wait query, so every tq_s is
        that query's mean wait.  Under a config whose profile_overrides map
        every odd task to md-100k, the default profile, the planner groups
        those tasks one by one, not the kind at once, and the plan is the
        same bytes.  Under a config whose one walltime edge at 7200 s leaves
        supermic's walltime bucket without a history row, select and a 3600 s
        queue-wait both fall back to the whole window, so every tq_s is
        queue-wait's fallback mean."""
        config = json.loads((BUNDLED / "config.json").read_text())
        configs = {
            "plain": FILES["config.json"],
            "overrides": write(tmp_path / "config_overrides.json", {**config, "profile_overrides": {
                f"md-100k-{i:04d}": "md-100k" for i in range(1, 64, 2)}}),
            "fallback": write(tmp_path / "config_fallback.json", {**config, "buckets": {
                "walltime_edges_s": [7200.0], "cores_edges": [1]}}),
        }

        def run(argv, name):
            out = tmp_path / f"{argv[0]}_{name}.json"
            assert main([*argv, "--config", configs[name], "--out", str(out)]) == 0
            return out.read_bytes()

        plans = {name: run(MODEL_SELECT[:-4] + MODEL_SELECT[-2:], name) for name in configs}
        assert plans["overrides"] == plans["plain"]
        for name, walltime in (("plain", "7200"), ("fallback", "3600")):
            wait = json.loads(run(QUEUE_WAIT[:8] + [walltime] + QUEUE_WAIT[9:], name))
            assignments = json.loads(plans[name])["assignments"].values()
            assert {a["resource_id"] for a in assignments} == {"supermic"}
            assert {a["tq_s"] for a in assignments} == {wait["mean_wait_s"]}
            assert wait["fallback_used"] == (name == "fallback")

    def test_one_trial_report_leaves_each_stddev_cell_empty(self, tmp_path, capsys):
        """One trial has no sample stddev: its cell is empty, as the
        comparison row's missing cell is, not the text ``None``."""
        behaviors = json.loads((BUNDLED / "behaviors.json").read_text())
        plans = {"model": self.args_select(str(tmp_path / "model_plan.json")),
                 "random": ["select", "--workload", str(BUNDLED / "workload_64.json"),
                            "--pool", str(BUNDLED / "pool.json"), "--strategy", "random",
                            "--seed", "5", "--out", str(tmp_path / "random_plan.json")]}
        for strategy, argv in plans.items():
            assert main(argv) == 0
            scenario = write(tmp_path / f"{strategy}_scenario.json",
                             {"plan": argv[-1], "behaviors": behaviors, "trials": 1, "seed": 2})
            assert main(["simulate", "--scenario", scenario,
                         "--out", str(tmp_path / f"{strategy}.json")]) == 0
        assert main(["report", "--model", str(tmp_path / "model.json"),
                     "--random", str(tmp_path / "random.json")]) == 0
        report = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(report)))
        assert rows[0] == ["group", "metric", "mean", "sample_stddev"]
        assert [row[0] for row in rows[1:]] == ["model", "random"] * 3 + ["comparison"]
        assert all(len(row) == 4 and row[3] == "" for row in rows[1:])
        assert "None" not in report
        assert report.splitlines()[1].startswith("model,tq_wkd_s,")

    def test_mixed_workload_params_exit_1_naming_task_and_values(self, tmp_path, capsys):
        """Profiles of one task id at two workload sizes measure different
        work; ``predict`` and ``select`` refuse to average them, naming the
        profiles file."""
        rows = list(csv.reader(io.StringIO((BUNDLED / "profiles.csv").read_text())))
        rows[2][1] = "200000"  # the second md-100k profile
        profiles = tmp_path / "profiles.csv"
        with open(profiles, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        select = self.args_select(str(tmp_path / "plan.json"))
        select[select.index("--profiles") + 1] = str(profiles)
        predict = ["predict", "--profiles", str(profiles), "--clocks", str(BUNDLED / "clocks.json")]
        for argv in (predict, select):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {profiles}: profiles for 'md-100k' mix "
                                    "workload_param values 100000, 200000: one task id takes "
                                    "one workload_param\n")
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize("edit,reason", [
        (lambda a: a.update(ttc_s=1.0), "ttc_s 1.0 is not tq_s + tx_s = 4171.428571428572"),
        (lambda a: a.pop("tx_s"), "tq_s and tx_s must be given together"),
        (lambda a: [a.pop("tq_s"), a.pop("tx_s")], "ttc_s needs tq_s and tx_s"),
    ], ids=["ttc-not-tq-plus-tx", "tq-without-tx", "ttc-without-times"])
    def test_bad_plan_entry_exits_1_naming_file_and_entry(self, tmp_path, capsys, edit, reason):
        """An entry of the bundled model plan whose times do not add up, or
        that gives one without the other, is rejected by ``simulate``."""
        plan_path = tmp_path / "plan.json"
        assert main(self.args_select(str(plan_path))) == 0
        plan = json.loads(plan_path.read_text())
        for entry in plan["assignments"].values():
            edit(entry)
        write(plan_path, plan)
        scenario = json.loads((BUNDLED / "scenario.json").read_text())
        scenario = write(tmp_path / "scenario.json", {
            **scenario, "plan": str(plan_path), "behaviors": str(BUNDLED / "behaviors.json")})
        assert main(["simulate", "--scenario", scenario]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {plan_path}: assignments.md-100k-0000: {reason}\n"

    @pytest.mark.parametrize("trials,kept,reason", [
        (5, 1, "ttc_wkd_s holds 1 values, not trials = 5"),
        (1, 2, "ttc_wkd_s holds 2 values, not trials = 1"),
        (0, 0, "trials must be >= 1"),
    ])
    def test_result_whose_trials_miscount_its_values_exits_1(self, tmp_path, capsys, trials,
                                                             kept, reason):
        model = {**RESULTS[0], "trials": trials,
                 "per_trial": {m: v[:kept] for m, v in RESULTS[0]["per_trial"].items()}}
        model_path = write(tmp_path / "model.json", model)
        random_path = write(tmp_path / "random.json", RESULTS[1])
        assert main(["report", "--model", model_path, "--random", random_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {model_path}: {reason}\n"

    @pytest.mark.parametrize("per_trial,reason", [
        ({"ttc_wkd_s": [10.0, 20.0], "tq_wkd_s": [99.0, 5.0], "tx_wkd_s": [1.0, -3.0]},
         "trial 1: tx_wkd_s -3.0 is below 0"),
        ({"ttc_wkd_s": [10.0, 20.0], "tq_wkd_s": [9.0, 5.0], "tx_wkd_s": [1.0, 3.0]},
         "trial 1: tq_wkd_s 5.0 is not ttc_wkd_s - tx_wkd_s = 17.0"),
    ], ids=["negative-tx", "tq-not-ttc-minus-tx"])
    def test_result_simulate_cannot_write_exits_1(self, tmp_path, capsys, per_trial, reason):
        model_path = write(tmp_path / "model.json", {**RESULTS[0], "per_trial": per_trial})
        random_path = write(tmp_path / "random.json", RESULTS[1])
        assert main(["report", "--model", model_path, "--random", random_path]) == 1
        assert capsys.readouterr() == ("", f"error: {model_path}: {reason}\n")

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

    def _edited_csv(self, tmp_path, flag, edit):
        """The command of ``CSV_RUNS[flag]`` on a copy of its file with
        ``edit`` applied to the lines, and the copy's path."""
        name, argv = self.CSV_RUNS[flag]
        path = tmp_path / name
        lines = (BUNDLED / name).read_text().splitlines(keepends=True)
        path.write_bytes("".join(edit(lines)).encode())  # raw: no newline translation
        return argv + [flag, str(path)], path

    def _run_edited_csv(self, tmp_path, capsys, flag, edit):
        argv, path = self._edited_csv(tmp_path, flag, edit)
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        return code, captured.err, path

    @pytest.mark.parametrize("flag", sorted(CSV_RUNS))
    def test_carriage_return_in_unquoted_cell_ends_the_row(self, tmp_path, capsys, flag):
        """A lone ``\\r`` ends a line wherever it stands, as ``\\n`` does and
        as in a file stream opened with ``newline=""``: the CLI reads the
        row cut in two as reading such a stream does, and skips its head."""
        runs = {}
        for name, end in (("cr", "\r"), ("lf", "\n")):
            def edit(lines):
                lines[2] = lines[2][:2] + end + lines[2][2:]
                return lines

            (tmp_path / name).mkdir()
            argv, path = self._edited_csv(tmp_path / name, flag, edit)
            assert main(argv) == 0
            captured = capsys.readouterr()
            runs[name] = captured.out, captured.err.replace(str(path), "FILE")
        load = QueueWaitStore().ingest_csv if flag == "--history" else load_profiles
        with open(tmp_path / "cr" / path.name, encoding="utf-8", newline="") as fh:
            _, warnings = load(fh)
        assert len(warnings) == 1 and warnings[0].startswith("line 3: ")
        assert runs["cr"] == runs["lf"] == (runs["lf"][0], f"warning: FILE: {warnings[0]}\n")

    @pytest.mark.parametrize("flag", sorted(CSV_RUNS))
    def test_file_that_stops_being_utf8_partway_exits_1_naming_it(self, tmp_path, capsys, flag):
        """The file is read as a stream; bytes that are not UTF-8 past the
        first chunks of text and of rows still fail the whole file."""
        argv, path = self._edited_csv(tmp_path, flag, lambda lines: lines[:1] + lines[1:] * 200)
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        assert path.stat().st_size > 3 * 8192
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text: ")
        assert "0xff" in captured.err and "warning" not in captured.err

    @pytest.mark.parametrize("flag", sorted(CSV_RUNS))
    def test_nul_character_exits_1_naming_its_line(self, tmp_path, capsys, flag):
        """The csv module would read a NUL as a character; the CLI exits 1
        naming its line."""
        def edit(lines):
            lines[2] = lines[2][:1] + "\0" + lines[2][1:]
            return lines

        code, err, path = self._run_edited_csv(tmp_path, capsys, flag, edit)
        assert code == 1
        assert err == f"error: {path}: line 3: line contains NUL\n"

    @pytest.mark.parametrize("flag", sorted(CSV_RUNS))
    def test_cell_past_the_field_limit_exits_1_naming_its_line(self, tmp_path, capsys, flag):
        limit = csv.field_size_limit()

        def edit(lines):
            lines[2] = "x" * (limit + 1) + lines[2]
            return lines

        code, err, path = self._run_edited_csv(tmp_path, capsys, flag, edit)
        assert code == 1
        assert err == f"error: {path}: line 3: field larger than field limit ({limit})\n"

    @pytest.mark.parametrize("flag", sorted(CSV_RUNS))
    def test_nul_is_reported_ahead_of_a_later_error_on_every_python(self, tmp_path, capsys, flag):
        """A quoted first row sends the file to the csv module, which would
        read a NUL as a character; the NUL on line 3 is still reported,
        ahead of the cell past the field limit on line 5."""
        limit = csv.field_size_limit()

        def edit(lines):
            lines = lines + lines[1:2]  # at least five lines
            lines[1] = '"' + lines[1].replace(",", '",', 1)
            lines[2] = lines[2][:1] + "\0" + lines[2][1:]
            lines[4] = "x" * (limit + 1) + lines[4]
            return lines

        code, err, path = self._run_edited_csv(tmp_path, capsys, flag, edit)
        assert code == 1
        assert err == f"error: {path}: line 3: line contains NUL\n"

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
    """A key of the config's per-resource or per-task maps that names no
    resource or task the subcommand reads exits 1, naming the config file,
    the map and the id: a misspelt id would silently get the default
    inflation, queue or profile."""

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
        (SELECT + MODEL, "profile_overrides", "md-100k-0O1", "md-100k", "workload_64.json"),
        (SELECT + ["--strategy", "random", "--seed", "1"], "profile_overrides", "md-100k-0O1",
         "md-100k", "workload_64.json"),
    ], ids=["predict-inflation", "predict-queues", "select-model-inflation",
            "select-random-queues", "select-model-profile-overrides",
            "select-random-profile-overrides"])
    def test_unknown_resource_exits_1(self, tmp_path, capsys, argv, name, rid, value, source):
        def add(config):
            config.setdefault(name, {})[rid] = value

        config, _ = edited_bundled_copy(tmp_path, "config.json", [], add)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        what = "task" if name == "profile_overrides" else "resource"
        assert captured.out == ""
        assert (f"{config}: {name}.{rid}: no {what} {rid!r} in {tmp_path / source}"
                in captured.err), captured.err

    def test_override_of_a_workload_task_is_accepted(self, tmp_path, capsys):
        # the override names the default profile, so the plan does not change
        argv = self.SELECT + self.MODEL
        assert main([str(BUNDLED / a[1:]) if a.startswith("@") else a for a in argv]) == 0
        plan = capsys.readouterr().out
        edited_bundled_copy(tmp_path, "config.json", [], lambda config: config.update(
            profile_overrides={"md-100k-0001": "md-100k"}))
        assert main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]) == 0
        assert capsys.readouterr().out == plan


class TestCrossFileErrors:
    """An id that one input file names and another lacks exits 1 with a
    message that names both: the file that lacks the entry, then the file
    that names the id."""

    SELECT = ["select", "--workload", "@workload_64.json", "--pool", "@pool.json",
              "--config", "@config.json"]
    MODEL = SELECT + ["--profiles", "@profiles.csv", "--clocks", "@clocks.json",
                      "--history", "@history.csv", "--now", NOW]
    RANDOM = SELECT + ["--strategy", "random", "--seed", "1"]

    def run(self, tmp_path, capsys, argv):
        """Run ``argv``, its ``@name`` files read from ``tmp_path``, and
        return stderr."""
        assert main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "plan.json").exists()
        return captured.err

    def test_missing_clock_names_clocks_and_pool(self, tmp_path, capsys):
        edited_bundled_copy(tmp_path, "clocks.json", [], lambda clocks: clocks.pop(0))
        assert self.run(tmp_path, capsys, self.MODEL) == (
            f"error: {tmp_path / 'clocks.json'}: no clock for resource 'bridges' "
            f"of {tmp_path / 'pool.json'}\n")

    def test_missing_queue_history_names_history_and_pool(self, tmp_path, capsys):
        for f in BUNDLED.iterdir():
            shutil.copy(f, tmp_path)
        rows = (BUNDLED / "history.csv").read_text().splitlines(keepends=True)
        (tmp_path / "history.csv").write_text(
            "".join(r for r in rows if not r.startswith("supermic,")))
        assert self.run(tmp_path, capsys, self.MODEL) == (
            f"error: {tmp_path / 'history.csv'}: no queue history for machine 'supermic' "
            f"queue 'workq' in the past 604800 s, for resource 'supermic' "
            f"of {tmp_path / 'pool.json'}\n")

    @pytest.mark.parametrize("strategy", ["model", "random"])
    def test_empty_viable_set_names_pool_and_workload(self, tmp_path, capsys, strategy):
        edited_bundled_copy(tmp_path, "workload_64.json", ["tasks", 5, "requirements", 0],
                            lambda requirement: requirement.update(type="gpu_cycle"))
        assert self.run(tmp_path, capsys, self.MODEL if strategy == "model" else self.RANDOM) == (
            f"error: {tmp_path / 'pool.json'}: no resource can run task 'md-100k-0005' "
            f"of {tmp_path / 'workload_64.json'}\n")

    def test_missing_profile_names_profiles_and_workload(self, tmp_path, capsys):
        edited_bundled_copy(tmp_path, "config.json", [],
                            lambda config: config.update(default_profile="md-1m"))
        assert self.run(tmp_path, capsys, self.MODEL) == (
            f"error: {tmp_path / 'profiles.csv'}: no baseline profile 'md-1m' for task "
            f"'md-100k-0000' of {tmp_path / 'workload_64.json'}\n")

    @pytest.mark.parametrize("inline,name", [
        (False, "scenario.json"), (True, "scenario.json"), (False, "behaviors.json")],
        ids=["plan-file", "inline-plan", "behaviors-file"])
    def test_missing_behavior_names_scenario_and_plan(self, tmp_path, capsys, inline, name):
        """The file that holds the behaviors is named: the scenario, or the
        file its ``behaviors`` names."""
        def edit(doc):
            behaviors = doc["behaviors"] if name == "scenario.json" else doc
            del behaviors[0]  # supermic's
            if inline:
                doc["plan"] = json.loads((tmp_path / "plan.json").read_text())

        blamed, argv = edited_bundled_copy(tmp_path, name, [], edit)
        assert main(argv) == 1
        captured = capsys.readouterr()
        plan = "its plan" if inline else tmp_path / "plan.json"
        assert captured.out == ""
        assert captured.err == f"error: {blamed}: no behavior for resource 'supermic' of {plan}\n"

    def test_overflowing_trial_names_scenario(self, tmp_path, capsys):
        def edit(behavior):
            behavior["tq_dist"] = behavior["tx_dist"] = {"kind": "constant", "value": 1e308}

        scenario, argv = edited_bundled_copy(tmp_path, "scenario.json", ["behaviors", 0], edit)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {scenario}: trial 0: waits plus durations overflow "
                                "to a TTC of inf\n")

    @pytest.mark.parametrize("given,blamed", [
        (("random", "model"), "model"), (("random", "random"), "model"),
        (("model", "model"), "random"),
    ], ids=["swapped", "both-random", "both-model"])
    def test_result_of_the_wrong_strategy_names_its_file(self, tmp_path, capsys, given, blamed):
        """Swapped, the files would report the random numbers as the model's
        and a negative TTC reduction."""
        results = {"model": RESULTS[0], "random": RESULTS[1]}
        paths = {role: write(tmp_path / f"{role}.json", results[strategy])
                 for role, strategy in zip(("model", "random"), given)}
        assert main(["report", "--model", paths["model"], "--random", paths["random"]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        got = given[0] if blamed == "model" else given[1]
        assert captured.err == f"error: {paths[blamed]}: strategy {got!r}, not {blamed!r}\n"

    def test_mismatched_workloads_name_both_results(self, tmp_path, capsys):
        model = write(tmp_path / "model.json", {**RESULTS[0], "workload_id": "v"})
        random_path = write(tmp_path / "random.json", RESULTS[1])
        assert main(["report", "--model", model, "--random", random_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: mismatched workloads: 'v' in {model} "
                                f"vs 'w' in {random_path}\n")

    def test_unknown_predict_task_names_profiles(self, capsys):
        profiles = str(BUNDLED / "profiles.csv")
        assert main(["predict", "--profiles", profiles, "--clocks", str(BUNDLED / "clocks.json"),
                     "--task-id", "nope"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {profiles}: no baseline profiles for task 'nope'\n"

    def test_queue_wait_without_history_in_the_window_names_history(self, capsys):
        history = str(BUNDLED / "history.csv")
        assert main(["queue-wait", "--history", history, "--machine", "nope", "--queue", "workq",
                     "--walltime", "7200", "--cores", "1", "--now", NOW]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {history}: no queue history for machine 'nope' "
                                "queue 'workq' in the past 604800 s\n")

    PREDICT = ["predict", "--profiles", "@profiles.csv", "--clocks", "@clocks.json"]

    @pytest.mark.parametrize("command", ["predict", "select"])
    def test_clock_too_slow_for_a_finite_time_names_clocks_and_resource(self, tmp_path, capsys,
                                                                         command):
        edited_bundled_copy(tmp_path, "clocks.json", [0],
                            lambda clock: clock.update(base_ghz=5e-324))
        argv = self.PREDICT if command == "predict" else self.MODEL
        assert self.run(tmp_path, capsys, argv) == (
            f"error: {tmp_path / 'clocks.json'}: resource 'bridges': 1e+13 cycles take no "
            f"finite time at its base clock of {5e-324 * 1e9:g} Hz\n")

    def test_walltime_past_the_float_range_names_clocks_and_resource(self, tmp_path, capsys):
        # the time at the base clock is finite; times the safety factor it is not
        edited_bundled_copy(tmp_path, "clocks.json", [0],
                            lambda clock: clock.update(base_ghz=8e-305))
        assert self.run(tmp_path, capsys, self.MODEL) == (
            f"error: {tmp_path / 'config.json'}: walltime_safety_factor 1.5 gives no finite "
            f"walltime for the {1e13 / (8e-305 * 1e9):g} s that resource 'bridges' takes at its "
            f"base clock of {tmp_path / 'clocks.json'}\n")

    def test_ttc_past_the_float_range_names_history_and_clocks(self, tmp_path, capsys):
        # the wait and the time are each finite; their sum is not
        edited_bundled_copy(tmp_path, "clocks.json", [0],
                            lambda clock: clock.update(base_ghz=1e-289, max_ghz=1e-289))
        rows = (BUNDLED / "history.csv").read_text().splitlines(keepends=True)
        wait = rows[0].split(",").index("wait_s")
        (tmp_path / "history.csv").write_text(rows[0] + "".join(
            ",".join(cells[:wait] + [repr(sys.float_info.max)] + cells[wait + 1:])
            for cells in (r.split(",") for r in rows[1:])))
        assert self.run(tmp_path, capsys, self.MODEL) == (
            f"error: {tmp_path / 'history.csv'}: no finite TTC: a {sys.float_info.max:g} s queue "
            f"wait plus the {1e13 / (1e-289 * 1e9):g} s that resource 'bridges' takes at its base "
            f"clock of {tmp_path / 'clocks.json'}\n")

    def test_ttc_past_the_float_range_at_the_max_clock_names_it(self, tmp_path, capsys):
        # the time that overflows the sum is the one frequency_choice picks
        edited_bundled_copy(tmp_path, "clocks.json", [0],
                            lambda clock: clock.update(base_ghz=1e-289, max_ghz=2e-289))
        config = json.loads((tmp_path / "config.json").read_text())
        write(tmp_path / "config.json", {**config, "frequency_choice": "max"})
        rows = (BUNDLED / "history.csv").read_text().splitlines(keepends=True)
        wait = rows[0].split(",").index("wait_s")
        (tmp_path / "history.csv").write_text(rows[0] + "".join(
            ",".join(cells[:wait] + [repr(sys.float_info.max)] + cells[wait + 1:])
            for cells in (r.split(",") for r in rows[1:])))
        assert self.run(tmp_path, capsys, self.MODEL) == (
            f"error: {tmp_path / 'history.csv'}: no finite TTC: a {sys.float_info.max:g} s queue "
            f"wait plus the {1e13 / (2e-289 * 1e9):g} s that resource 'bridges' takes at its max "
            f"clock of {tmp_path / 'clocks.json'}\n")

    def test_walltime_safety_factor_past_the_float_range_names_config_and_clocks(self, tmp_path,
                                                                                 capsys):
        # the bundled clocks give a finite time; the factor alone overflows it
        edited_bundled_copy(tmp_path, "config.json", [],
                            lambda config: config.update(walltime_safety_factor=1e306))
        assert self.run(tmp_path, capsys, self.MODEL) == (
            f"error: {tmp_path / 'config.json'}: walltime_safety_factor 1e+306 gives no finite "
            f"walltime for the {1e13 / 2.3e9:g} s that resource 'bridges' takes at its "
            f"base clock of {tmp_path / 'clocks.json'}\n")

    @pytest.mark.parametrize("command", ["predict", "select"])
    def test_time_that_rounds_to_0_names_clocks_and_resource(self, tmp_path, capsys, command):
        # 1e13 cycles times 1e-320 is a subnormal count, which 1e307 Hz runs in 0 s
        edited_bundled_copy(tmp_path, "clocks.json", [0],
                            lambda clock: clock.update(base_ghz=1e298, max_ghz=1e298))
        config = json.loads((tmp_path / "config.json").read_text())
        config["inflation_factors"]["bridges"] = 1e-320
        write(tmp_path / "config.json", config)
        argv = self.PREDICT + ["--config", "@config.json"] if command == "predict" else self.MODEL
        assert self.run(tmp_path, capsys, argv) == (
            f"error: {tmp_path / 'clocks.json'}: resource 'bridges': {1e13 * 1e-320:g} cycles "
            f"take no positive time at its max clock of {1e298 * 1e9:g} Hz\n")

    def test_walltime_that_rounds_to_0_names_config_and_clocks(self, tmp_path, capsys):
        # each time is positive; times the safety factor it is 0
        edited_bundled_copy(tmp_path, "clocks.json", [0],
                            lambda clock: clock.update(base_ghz=1e298, max_ghz=1e298))
        config = json.loads((tmp_path / "config.json").read_text())
        write(tmp_path / "config.json", {**config, "walltime_safety_factor": 1e-320})
        assert self.run(tmp_path, capsys, self.MODEL) == (
            f"error: {tmp_path / 'config.json'}: walltime_safety_factor {1e-320:g} gives no "
            f"positive walltime for the {1e13 / (1e298 * 1e9):g} s that resource 'bridges' "
            f"takes at its base clock of {tmp_path / 'clocks.json'}\n")

    @pytest.mark.parametrize("command", ["predict", "select"])
    def test_inflation_past_the_float_range_names_config(self, tmp_path, capsys, command):
        # the cycle count overflows before any clock divides it
        edited_bundled_copy(tmp_path, "config.json", ["inflation_factors"],
                            lambda factors: factors.update(osg=1e308))
        argv = self.PREDICT + ["--config", "@config.json"] if command == "predict" else self.MODEL
        assert self.run(tmp_path, capsys, argv) == (
            f"error: {tmp_path / 'config.json'}: inflation_factors.osg: 1e+308 times 1e+13 "
            "predicted cycles gives no finite cycle count\n")

    def test_zero_random_ttc_names_random_result(self, tmp_path, capsys):
        model = write(tmp_path / "model.json", RESULTS[0])
        zeros = SimulationResult("w", "random", 2, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)).to_json()
        random_path = write(tmp_path / "random.json", zeros)
        assert main(["report", "--model", model, "--random", random_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {random_path}: random strategy has a mean TTC of 0: "
                                "no reduction to report\n")

    def test_random_ttc_too_small_for_a_finite_reduction_names_random_result(self, tmp_path,
                                                                             capsys):
        one = {s: SimulationResult("w", s, 1, (ttc,), (0.0,), (ttc,)).to_json()
               for s, ttc in (("model", 1.0), ("random", 5e-324))}
        model, random_path = (write(tmp_path / f"{s}.json", one[s]) for s in one)
        assert main(["report", "--model", model, "--random", random_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {random_path}: random strategy has a mean TTC of "
                                f"{5e-324:g}: no reduction to report\n")


class TestEmptyInstructions:
    """A task whose ``instructions`` is empty is rejected as it is decoded:
    exit 1, naming the file and, in a workload, the task's index."""

    EMPTY = "task must have at least one instruction"

    @pytest.mark.parametrize("pool", [None, "pool", "empty-pool"])
    def test_task_file(self, tmp_path, pool_file, capsys, pool):
        task = write(tmp_path / "task.json", {"task_id": "t1", "instructions": []})
        argv = ["aggregate", "--task", task]
        if pool is not None:
            pools = {"pool": pool_file, "empty-pool": write(tmp_path / "empty.json", [])}
            argv = ["match", "--task", task, "--pool", pools[pool]]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {task}: {self.EMPTY}\n")

    @pytest.mark.parametrize("strategy", ["model", "random"])
    def test_workload_task(self, tmp_path, capsys, strategy):
        def empty(task):
            del task["requirements"]
            task["instructions"] = []

        edited_bundled_copy(tmp_path, "workload_64.json", ["tasks", 5], empty)
        argv = TestCrossFileErrors.MODEL if strategy == "model" else TestCrossFileErrors.RANDOM
        assert main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]) == 1
        assert capsys.readouterr() == (
            "", f"error: {tmp_path / 'workload_64.json'}: tasks[5]: {self.EMPTY}\n")


def test_every_planning_error_is_blamed_on_a_file():
    """Each `ValueError` subclass that the package defines is a key of
    `cli._BLAME`, or one handled elsewhere: `DecodeError` (``_load`` names
    the file), `MissingBehaviorError` (``simulate`` names the scenario) and
    `EmptyTaskError` (a decode error).  A new planning error then cannot
    reach ``main``'s generic handler, which names no file."""
    errors = {obj for info in pkgutil.iter_modules(resselect.__path__)
              for module in [importlib.import_module(f"resselect.{info.name}")]
              for obj in vars(module).values()
              if isinstance(obj, type) and issubclass(obj, ValueError)
              and obj.__module__ == module.__name__}
    elsewhere = {codec.DecodeError, sim.MissingBehaviorError, model.EmptyTaskError}
    assert elsewhere <= errors and not elsewhere & cli._BLAME.keys()
    assert errors - elsewhere == cli._BLAME.keys()


# --- mutated inputs never crash the CLI -------------------------------------

WORKLOAD = json.loads((BUNDLED / "workload_64.json").read_text())
WORKLOAD["tasks"] = WORKLOAD["tasks"][:3]
# the last task as two instructions of half its cycles, so that mutations
# reach an instruction array; aggregate and match read it too
HALF = dict(WORKLOAD["tasks"][2]["requirements"][0], amount=5e12)
TASK = WORKLOAD["tasks"][2] = {"task_id": "md-100k-0002",
                               "instructions": [[dict(HALF)] for _ in range(2)]}
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
JSON_VALUES = [None, True, "x", 0, -1, 2, 0.5, 1e308, 5e-324, 10**400, math.nan, -math.inf, [],
               {}, [0], {"k": 1}]
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
    if code == 1:  # a validation error names the file at fault
        error = err.getvalue().splitlines()[-1]
        assert error.startswith("error: ")
        assert any(str(fuzz_dir / f"in{i}") in error for i in range(len(inputs))), error
