"""Walk through execution-time prediction from hardware-counter profiles.

Reads the bundled baseline profiles, predicts sequential cycle counts, and
projects time-to-execute onto each machine in the bundled pool at both base
and boosted clock frequencies.

Run from the repository root:

    python3 demos/prediction_walkthrough.py
"""

import json
from pathlib import Path

from resselect import diagnose, predict_sequential_cycles, predict_tx
from resselect.predict import load_clocks, load_profiles

BUNDLED = Path(__file__).resolve().parent.parent / "scenarios" / "bundled"


def main():
    with open(BUNDLED / "profiles.csv") as fh:
        profiles, warnings = load_profiles(fh)
    for w in warnings:
        print("warning:", w)

    est = predict_sequential_cycles(profiles)
    print(f"profiles: {len(profiles)} runs of task '{profiles[0].task_id}'")
    print(f"predicted sequential cycles: {est.mean:.4g} "
          f"(stddev {est.stddev:.3g}, n={est.n_samples})")

    clocks = load_clocks(json.loads((BUNDLED / "clocks.json").read_text()))
    config = json.loads((BUNDLED / "config.json").read_text())
    inflations = config.get("inflation_factors", {})

    print()
    print(f"{'machine':<10} {'base tx (s)':>12} {'boosted tx (s)':>15} {'inflation':>10}")
    for rid in sorted(clocks):
        inflation = inflations.get(rid, 1.0)
        rep = predict_tx(est.mean, clocks[rid], inflation=inflation)
        print(f"{rid:<10} {rep.tx_base_s:>12.1f} {rep.tx_max_s:>15.1f} "
              f"{inflation:>10.2f}")

    # error attribution: compare the prediction against a pretend execution
    # whose cycle count came in 5% above the profile at the profiled rate
    print()
    rate = profiles[0].instr_rate
    actual_cycles = (est.mean / rate) * 1.05
    diag = diagnose(est.mean, actual_cycles, rate)
    print("diagnosis of a 5% cycle overrun at the profiled instruction rate:")
    print(f"  instruction-count deviation epsilon: {diag.epsilon_pct:.2f}%")


if __name__ == "__main__":
    main()
