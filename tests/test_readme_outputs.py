"""The README's quick start, run with each ``# ->`` value checked, and its
command-line pipeline on the bundled scenario, pinned by sha256: a change
that alters any byte of these outputs fails here.  The commands run in a
temporary directory, because the bundled scenario names its plan and its
behaviors by paths relative to the working directory: the directory holds
``scenarios``, a link to the repository's, as the README's commands run
from the repository's root."""

import ast
import hashlib
import json

from resselect.cli import main

from conftest import BUNDLED

PINNED = {
    "plan.json": "b0800714cd57182bb4bbe319924a456905f3648e1503945d7aa578b8013b0564",
    "random_plan.json": "1fe7f1aefa102c862cf9d66b0e0c5445ae2dc9bfd3d9f57a00f5c1b9f44b09dd",
    "result.json": "5660189517e756afd878483b2225ec685526275a0cd3301a4172272f63d9cb48",
    "trials.csv": "75d7eee1715ac65d89efaf97e5949cebd4e0928de49f682c4000c28ac9da8643",
    "random_result.json": "72b6e949f02c73f9270e7502f3ef33fba1f4d1fc8bd51eb72d6e81952130c151",
    "random_trials.csv": "70a1ddf72be923d56504182e7e123522b38a4ef2b69215eebb33a70d113c0734",
    "report.csv": "aff5bceea4ab9cd8179f212e772ca212b43cd9e87d10c8a2974bb24da7cba553",
}


def test_readme_commands_on_bundled_scenario_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenarios").symlink_to(BUNDLED.parent, target_is_directory=True)
    select = ["select", "--workload", str(BUNDLED / "workload_64.json"),
              "--pool", str(BUNDLED / "pool.json")]
    assert main(select + [
        "--profiles", str(BUNDLED / "profiles.csv"), "--clocks", str(BUNDLED / "clocks.json"),
        "--history", str(BUNDLED / "history.csv"), "--config", str(BUNDLED / "config.json"),
        "--now", "2026-08-20T00:00:00Z", "--out", "plan.json"]) == 0
    assert main(select + ["--strategy", "random", "--seed", "1",
                          "--out", "random_plan.json"]) == 0
    scenario = json.loads((BUNDLED / "scenario.json").read_text())
    assert (scenario["plan"], scenario["behaviors"]) == (
        "plan.json", "scenarios/bundled/behaviors.json")
    (tmp_path / "random_scenario.json").write_text(
        json.dumps({**scenario, "plan": "random_plan.json"}))
    for scenario_path, prefix in ((str(BUNDLED / "scenario.json"), ""),
                                  ("random_scenario.json", "random_")):
        assert main(["simulate", "--scenario", scenario_path, "--out", f"{prefix}result.json",
                     "--trials-csv", f"{prefix}trials.csv"]) == 0
    assert main(["report", "--model", "result.json", "--random", "random_result.json",
                 "--out", "report.csv"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED}
    assert digests == PINNED


def test_readme_quick_start_gives_each_stated_value():
    readme = (BUNDLED.parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        _, arrow, stated = lines[stmt.end_lineno - 1].partition("# ->")
        if not arrow:
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        text = stated.strip()
        if text.split()[-1].isalpha():  # a unit, as in "3571.4 seconds"
            text = text.rsplit(None, 1)[0]
        expected = ast.literal_eval(text)
        if isinstance(expected, float):  # stated to as many decimals as it shows
            value = round(value, len(text.partition(".")[2]))
        assert value == expected, lines[stmt.end_lineno - 1]
        checked += 1
    assert checked == 2
