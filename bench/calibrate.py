"""Check that the speed scaling keeps a slowdown made inside the ops.

    python3 bench/calibrate.py --workload <name> --seed <n> --seconds <s>

``run.py`` scales each op time by the time of a fixed pure-Python kernel run
between ops (``measure.Normalizer``).  That is only sound if a change inside
sepcat moves the scaled times by the same fraction as the wall times.  This
script runs every op of a workload in three arms, in rotating order:

- ``plain``: the op as the benchmark runs it;
- ``python``: the op, then pure-Python busy work, inside the timed region;
- ``numpy``: the op, then numpy integer matrix products mod p (work that
  leaves the interpreter, like a numpy F_p eliminator), inside the timed region.

The busy work of an op is a fixed number of work units, sized when the op's
name is first seen to take SLOW of its plain wall time.  Each arm has its
own Normalizer.  Per arm the script prints p50, p90 and the sum of the wall
and the scaled times, and each one's ratio to the plain arm.  If the scaling
tracks the machine and not the ops, the scaled ratios match the wall ratios,
both near 1 + SLOW.  The last line is a JSON object with the same figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time

import numpy as np

from measure import Normalizer, Tally, hd_quantile
from run import ROOT, WORKLOAD_NAMES, run_checked, run_rounds

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path first)

ARMS = ("plain", "python", "numpy")
SLOW = 0.2
_MATS = np.arange(32 * 32, dtype=np.int64).reshape(32, 32) % 101


def python_unit() -> int:
    acc = {}
    for i in range(200):
        acc[i % 37] = acc.get(i % 37, 0) + i * i % 7
    return sum(acc.values())


def numpy_unit() -> int:
    return int(((_MATS @ _MATS) % 101)[0, 0])


UNITS = {"python": python_unit, "numpy": numpy_unit}


def unit_seconds(unit) -> float:
    runs = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(50):
            unit()
        runs.append((time.perf_counter() - t0) / 50)
    return statistics.median(runs)


def summary(times) -> dict:
    return {"p50": hd_quantile(times, 0.5), "p90": hd_quantile(times, 0.9), "sum": sum(times)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    out = ROOT / ".bench_out" / "calibrate"
    try:
        return calibrate(args, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def calibrate(args, out) -> int:
    wl = workloads.setup(args.workload, ROOT, args.seed, out)
    unit_s = {kind: unit_seconds(u) for kind, u in UNITS.items()}
    sized: dict[str, dict[str, int]] = {}
    norms = {arm: Normalizer() for arm in ARMS}
    tally = Tally()
    n_ops = 0

    def slowed(op, kind):
        unit, n = UNITS[kind], sized[op.name][kind]

        def run():
            result = op.run()
            for _ in range(n):
                unit()
            return result
        return workloads.Op(op.name, run, op.check)

    def step(op):
        nonlocal n_ops
        if op.name not in sized:
            plain = run_checked(op, tally)[0]
            sized[op.name] = {k: max(1, round(SLOW * plain / unit_s[k])) for k in UNITS}
        spent = 0.0
        for i in range(len(ARMS)):
            arm = ARMS[(n_ops + i) % len(ARMS)]
            dt, _, ok = run_checked(op if arm == "plain" else slowed(op, arm), tally)
            if ok:
                norms[arm].add(dt)
            spent += dt
        n_ops += 1
        return spent

    run_rounds(wl, args.seconds, step)
    for norm in norms.values():
        norm.flush()
    result = {"workload": args.workload, "seed": args.seed, "slow": SLOW,
              "ops": n_ops, "failed": tally.failed, "arms": {}}
    base = {kind: summary(getattr(norms["plain"], kind)) for kind in ("raw", "scaled")}
    for arm in ARMS:
        result["arms"][arm] = row = {}
        for kind in ("raw", "scaled"):
            s = summary(getattr(norms[arm], kind))
            row[kind] = s
            row[kind + "_ratio"] = {k: s[k] / base[kind][k] for k in s}
        print(f"{arm:>6}: wall/plain " + ", ".join(
            f"{k} {v:.3f}" for k, v in row["raw_ratio"].items()) + "; scaled/plain " + ", ".join(
            f"{k} {v:.3f}" for k, v in row["scaled_ratio"].items()))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
