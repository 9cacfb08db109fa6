"""The README's command-line pipeline on the bundled scenario, pinned by
sha256: a change that alters any byte of these outputs fails here.  The
commands run in a temporary directory, because the bundled scenario names
its plan by a path relative to the working directory."""

import hashlib
import json

from resselect.cli import main

from conftest import BUNDLED

PINNED = {
    "plan.json": "b0800714cd57182bb4bbe319924a456905f3648e1503945d7aa578b8013b0564",
    "random_plan.json": "1fe7f1aefa102c862cf9d66b0e0c5445ae2dc9bfd3d9f57a00f5c1b9f44b09dd",
    "result.json": "dc254037aa0d0941ca01d9fd748739d8c561e2728e03089b26df1f242546a7bd",
    "trials.csv": "b0cef475034d066a8739404ee65df11d7e26335c56a9972c0a9dc50c40e6d783",
    "random_result.json": "73c903a38446f31ec6e7b7365d9d5a1a152d04896b6694bd82b1030d05a89635",
    "random_trials.csv": "b5affb340125d83ca90458bc87b6e03a966803be86864e8f7460a066d2d77c9b",
    "report.csv": "fbc0de5c979a291c29fe489f4aca189635d17e9e584b41efcd8071f7b07fa8f7",
}


def test_readme_commands_on_bundled_scenario_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    select = ["select", "--workload", str(BUNDLED / "workload_64.json"),
              "--pool", str(BUNDLED / "pool.json")]
    assert main(select + [
        "--profiles", str(BUNDLED / "profiles.csv"), "--clocks", str(BUNDLED / "clocks.json"),
        "--history", str(BUNDLED / "history.csv"), "--config", str(BUNDLED / "config.json"),
        "--now", "2026-08-20T00:00:00Z", "--out", "plan.json"]) == 0
    assert main(select + ["--strategy", "random", "--seed", "1",
                          "--out", "random_plan.json"]) == 0
    scenario = json.loads((BUNDLED / "scenario.json").read_text())
    assert scenario["plan"] == "plan.json"
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
