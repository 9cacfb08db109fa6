"""Host-speed calibration for the end-to-end timings.

On a shared machine the benchmark's CPU runs faster or slower, for seconds
to minutes at a time, as other tenants come and go.  Wall time follows those
swings: over 30-second windows on a shared 2-vCPU VM, the median wall time
of a stage moved by 12-52 % (quartile spread across windows), and even the
fastest of thousands of short repetitions moved by 17 %.  Most of that swing
is the CPU's speed, not the program.

So every timed stage call is bracketed by fixed pure-Python kernels, and its
wall time is divided by the mean of the two kernel times next to it.  That
ratio is the call's cost in kernel units; times the kernel's reference time
it is the call's duration in seconds at the reference speed.

Different kinds of work slow down by different amounts, so there are two
kernels, each doing the kind of work of the stages it scales:

- ``records`` builds, sorts and serializes small dicts, as the loaders, the
  planner and the CLI do (stages setup, select and report);
- ``draws`` seeds a PRNG from a hashed key and draws from it, as the
  simulator does for every sample (stage simulate).

Over the same windows, the median reference time moved by 3-8 %.  A change
to resselect moves the numerator only: the kernels live here, call nothing
in resselect and never change with it.
"""

from __future__ import annotations

import hashlib
import json
import random
from time import perf_counter

# Each kernel's median time on the VM the benchmark was written on (2 vCPUs,
# Python 3.11), so reference seconds there read close to wall seconds.
REFERENCE_S = {"records": 0.005, "draws": 0.0045}

# The kernel that scales each stage.
STAGE_KERNEL = {
    "setup": "records",
    "select": "records",
    "report": "records",
    "simulate": "draws",
}


def records() -> int:
    rng = random.Random(3)
    rows = [{"machine": f"m{i % 24}", "wait_s": rng.random() * 1000.0, "cores": i % 64}
            for i in range(3000)]
    rows.sort(key=lambda r: (r["machine"], r["wait_s"]))
    return len(json.loads(json.dumps(rows[:1000], sort_keys=True)))


def draws() -> float:
    acc = 0.0
    for i in range(500):
        token = "|".join(str(p) for p in (7, i, "resource", "task", "tx"))
        digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
        acc += random.Random(int.from_bytes(digest, "big")).gauss(1.0, 0.3)
    return acc


KERNELS = {"records": records, "draws": draws}


def measure() -> dict:
    """Wall time of one call of each kernel, in seconds, by kernel name."""
    times = {}
    for name, kernel in KERNELS.items():
        start = perf_counter()
        kernel()
        times[name] = perf_counter() - start
    return times


def reference_time(stage: str, wall_s: float, before: dict, after: dict) -> float:
    """``wall_s`` of ``stage`` at the reference speed, given the kernel times
    measured just before and just after it."""
    kernel = STAGE_KERNEL[stage]
    return wall_s * REFERENCE_S[kernel] / ((before[kernel] + after[kernel]) / 2)
