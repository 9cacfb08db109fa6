"""The order of input records and the layout of input files play no part in
any output: `select` (both strategies), `simulate` and `report` write the
same bytes, to stdout and to ``--out``, whatever the order of the tasks,
history rows and profile rows, the order of JSON keys, the line ends, the
quoting of CSV cells and where the history's 512-line chunks end.

The pool keeps its order: ties between resources go to pool order."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resselect.cli import main

NOW = "2026-08-20T00:00:00Z"


def _req(ctype, amount, isa):
    return {"type": ctype, "form": {"isa": [isa]}, "amount": amount}


def _cap(ctype, rate, *isa):
    return {"type": ctype, "form": {"isa": list(isa)}, "rate": rate}


BYTE = {"type": "byte", "amount": 1e9}
# four bodies, two of them the same requirements given two ways
BODIES = [
    {"requirements": [_req("x86_cycle", 1e13, "x86")]},
    {"instructions": [[_req("x86_cycle", 4e12, "x86")], [_req("x86_cycle", 6e12, "x86")]]},
    {"requirements": [_req("x86_cycle", 5e12, "x86"), BYTE]},
    {"requirements": [_req("arm_cycle", 2e13, "arm")]},
]
TASKS = [{"task_id": f"t-{i:02d}", **BODIES[i % 4]} for i in range(16)]
POOL = [
    {"resource_id": "rA", "capabilities": [_cap("x86_cycle", 2.0e9, "x86")]},
    {"resource_id": "rB", "capabilities": [_cap("x86_cycle", 2.5e9, "x86"),
                                           {"type": "byte", "rate": 1e9}]},
    {"resource_id": "rC", "capabilities": [_cap("arm_cycle", 2.0e9, "arm"),
                                           {"type": "byte", "rate": 1e9}]},
    {"resource_id": "rD", "capabilities": [_cap("x86_cycle", 3.0e9, "x86", "avx")]},
    {"resource_id": "rE", "capabilities": [_cap("x86_cycle", 2.0e9, "x86")]},  # rA's twin
]
CLOCKS = [{"resource_id": rid, "base_ghz": base, "max_ghz": top}
          for rid, base, top in (("rA", 2.0, 2.4), ("rB", 2.5, 3.0), ("rC", 2.0, 2.6),
                                 ("rD", 3.0, 3.5), ("rE", 2.0, 2.4))]
CONFIG = {
    "default_profile": "p1",
    "profile_overrides": {t["task_id"]: "p2" for t in TASKS[1::3]},
    "inflation_factors": {"rD": 1.1},
    "resource_queues": {"rA": {"machine": "mA", "queue": "q"},
                        "rB": {"machine": "mB", "queue": "q"},
                        "rC": {"machine": "mC", "queue": "q"},
                        "rD": {"machine": "mA", "queue": "big"},
                        "rE": {"machine": "mA", "queue": "q"}},
    "walltime_safety_factor": 1.5,
}
BEHAVIORS = [
    {"resource_id": rid, "pilot_mode": mode,
     "tq_dist": {"kind": "normal", "mean": tq, "stddev": tq / 5},
     "tx_dist": {"kind": "empirical", "samples": [tx, tx * 1.1, tx * 0.9]}}
    for rid, mode, tq, tx in (("rA", "single", 600.0, 5000.0), ("rB", "per_task", 900.0, 4000.0),
                              ("rC", "single", 300.0, 10000.0), ("rD", "per_task", 2000.0, 3000.0),
                              ("rE", "single", 600.0, 5000.0))]
PROFILES = [["task_id", "workload_param", "instructions", "cycles", "instr_rate",
             "avg_clock_ghz", "tx_s"]] + [
    [pid, "1000", repr(cycles * 2), repr(cycles), "2.0", "2.5", repr(cycles / 2.5e9)]
    for pid, cycles in (("p1", 5e12), ("p1", 4.9e12), ("p1", 5.2e12),
                        ("p2", 1e13), ("p2", 1.1e13))]
HEADER = ["machine", "queue", "submit_time_iso8601", "wait_s", "walltime_req_s", "cores_req"]
HISTORY = [
    [machine, queue, f"2026-08-{day:02d}T{hour:02d}:00:00+00:00", repr(wait), repr(walltime),
     str(cores)]
    for machine, queue, base in (("mA", "q", 400.0), ("mA", "big", 3000.0),
                                 ("mB", "q", 900.0), ("mC", "q", 200.0))
    for day, hour, wait, walltime, cores in (
        (14, 12, base, 7200.0, 1), (15, 12, base * 1.5, 20000.0, 1),
        (15, 12, base * 0.5, 50000.0, 2),  # the submit time of the row before
        (17, 3, base * 2, 7200.0, 1), (19, 23, base * 0.75, 20000.0, 1))]
# rows of a queue no resource uses: padding moves the chunk ends
PAD = ["mZ", "q", "2026-08-18T00:00:00+00:00", "1.0", "60.0", "1"]
TRIALS, SEED = 40, 11


def _reversed_keys(value):
    if isinstance(value, dict):
        return {k: _reversed_keys(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


def _csv_text(rows, quoted_row=None) -> str:
    """``rows`` as CSV, with the first cell of row ``quoted_row`` quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    lines = buf.getvalue().splitlines(keepends=True)
    if quoted_row is not None:
        lines[quoted_row] = '"' + lines[quoted_row].replace(",", '",', 1)
    return "".join(lines)


def _write_inputs(root, tasks, history, profiles, reverse, crlf, quoted_row):
    """The input files of one variant in ``root``, by flag."""
    root.mkdir()
    texts = {
        "workload": json.dumps({"workload_id": "w", "tasks": tasks}, indent=1),
        "pool": json.dumps(POOL, indent=1), "clocks": json.dumps(CLOCKS, indent=1),
        "config": json.dumps(CONFIG, indent=1), "behaviors": json.dumps(BEHAVIORS, indent=1),
        "history": _csv_text([HEADER] + history, quoted_row),
        "profiles": _csv_text([PROFILES[0]] + profiles),
    }
    files = {}
    for name, text in texts.items():
        if reverse and name not in ("history", "profiles"):
            text = json.dumps(_reversed_keys(json.loads(text)), indent=1)
        if crlf:
            text = text.replace("\n", "\r\n")
        files[name] = root / f"{name}.{'csv' if name in ('history', 'profiles') else 'json'}"
        files[name].write_bytes(text.encode())
    return files


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _outputs(root, files) -> dict:
    """The stdout of every command, and every file each writes, by name."""
    f, got = files, {}
    common = ["--workload", f["workload"], "--pool", f["pool"], "--config", f["config"]]
    got["select model"] = _run(["select", *common, "--profiles", f["profiles"],
                                "--clocks", f["clocks"], "--history", f["history"],
                                "--now", NOW, "--out", root / "plan_model.json"])
    got["select random"] = _run(["select", *common, "--strategy", "random", "--seed", "64",
                                 "--out", root / "plan_random.json"])
    for strategy in ("model", "random"):
        scenario = root / f"scenario_{strategy}.json"
        scenario.write_text(json.dumps({
            "plan": str(root / f"plan_{strategy}.json"), "trials": TRIALS, "seed": SEED,
            "behaviors": json.loads(f["behaviors"].read_text())}))
        got[f"simulate {strategy}"] = _run([
            "simulate", "--scenario", scenario, "--out", root / f"result_{strategy}.json",
            "--trials-csv", root / f"trials_{strategy}.csv"])
    got["report"] = _run(["report", "--model", root / "result_model.json",
                          "--random", root / "result_random.json"])
    for name in ("plan_model.json", "plan_random.json", "result_model.json",
                 "result_random.json", "trials_model.csv", "trials_random.csv"):
        got[name] = (root / name).read_bytes()
    return got


@pytest.fixture(scope="module")
def variant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("order-free")


@pytest.fixture(scope="module")
def expected(variant_dir):
    files = _write_inputs(variant_dir / "base", TASKS, HISTORY, PROFILES[1:], False, False, None)
    return _outputs(variant_dir / "base", files)


def test_the_inputs_exercise_every_mechanism(expected):
    """Plans use several resources, tasks of one body in both forms, and
    more than one profile; tied TTCs (rA and rE) go to pool order."""
    plan = json.loads(expected["plan_model.json"])
    chosen = {a["resource_id"] for a in plan["assignments"].values()}
    assert len(chosen) >= 2 and "rE" not in chosen
    assert len({a["ttc_s"] for a in plan["assignments"].values()}) >= 3
    drawn = json.loads(expected["plan_random.json"])["assignments"].values()
    assert len({a["resource_id"] for a in drawn}) >= 3


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tasks=st.permutations(TASKS), history=st.permutations(HISTORY),
       profiles=st.permutations(PROFILES[1:]), pad=st.integers(0, 600),
       reverse=st.booleans(), crlf=st.booleans(), quote=st.booleans(),
       rng=st.randoms(use_true_random=False))
def test_outputs_do_not_depend_on_order_or_layout(
        variant_dir, expected, tasks, history, profiles, pad, reverse, crlf, quote, rng):
    # padding rows spread through the real ones, so chunk ends fall among them
    rows = list(history)
    for _ in range(pad):
        rows.insert(rng.randint(0, len(rows)), PAD)
    quoted_row = rng.randint(1, len(rows)) if quote else None
    root = variant_dir / f"v{len(list(variant_dir.iterdir()))}"
    files = _write_inputs(root, tasks, rows, profiles, reverse, crlf, quoted_row)
    assert _outputs(root, files) == expected
