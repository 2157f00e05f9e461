"""sepcat benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; sepcat is imported from ``src/``.
With ``--trace 0`` the ops are timed untraced and the end-to-end metrics are
printed; with ``--trace 1`` each op runs once untraced and once under the span
recorder (alternating which goes first) and the per-layer metrics are printed.
The timed loop runs whole rounds until at least ``--seconds`` of op time has
passed.  The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A fuller trace is written to ``.bench_out/traces/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import Normalizer, Tally, beyond, hd_quantile, p90, p90_supported
from spans import KEEP_LIMIT, LAYERS, SOLVER_GROUPS, Patches, Recorder

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/sepcat/__init__.py", "fixtures/workspace.json")
WORKLOAD_NAMES = ("cli-fixture", "separability-sweep", "dictionary-complexes")
IMPORT_PROBES = 3
# A round that overruns this much wall time is cut short, so a run always ends
# well inside its time limit even on a slow machine.
LOOP_WALL_CAP_S = 110.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """The checkout's commit, or "unknown" where root is not itself a git work tree."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": version("sympy"), "numpy": version("numpy"),
            "commit": git_commit(root), "loadavg": list(os.getloadavg())}


def setup_probe(root: Path, workload: str, seed: int, out: Path) -> float:
    """Wall time from spawning a fresh process until its first op is ready."""
    argv = [sys.executable, str(root / "bench" / "probe.py"), workload, str(seed), str(out)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
    return dt


def import_probe(root: Path, module: str) -> float:
    from workloads import fresh_env
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=fresh_env(root),
                         capture_output=True, check=True, timeout=60)
    return float(out.stdout)


def run_rounds(wl, seconds: float, step) -> None:
    """Call step(op), which returns the op's seconds, on whole rounds until at
    least `seconds` of op time has passed."""
    spent = 0.0
    t0 = time.perf_counter()
    r = 0
    while spent < seconds:
        for op in wl.round_ops(r):
            spent += step(op)
            if time.perf_counter() - t0 > LOOP_WALL_CAP_S:
                return
        r += 1


def run_checked(op, tally):
    """Run op once; returns (seconds, result, ok).  Checks run outside the timing."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op, and the run goes on
        tally.record(op.name, False, f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None, False
    dt = time.perf_counter() - t0
    try:
        ok, why = op.check(result)
    except Exception as exc:
        ok, why = False, f"check raised {type(exc).__name__}: {exc}"
    tally.record(op.name, ok, why)
    return dt, result, ok


def emit(correct, tally, metrics):
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(f"fail_frac = {tally.failed}/{tally.attempted} = {tally.fail_frac}")
    for f in tally.failures[:20]:
        print(f"failure: {f}")
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def untraced(args, root, out) -> int:
    import workloads

    wl = workloads.setup(args.workload, root, args.seed, out / "main")
    tally = Tally()
    ops = Normalizer()
    setup_s, cold_s, cold_raw = [], [], []

    def probe():
        setup_s.append(setup_probe(root, args.workload, args.seed, out / "probe"))

    def cold(i):
        def run():
            before = workloads.reference_process(root)
            dt, ok, why = workloads.cold_command(root, args.seed, out / "cold", i, wl.references)
            after = workloads.reference_process(root)
            cold_raw.append(dt)
            cold_s.append(dt * workloads.REFERENCE_PROCESS_S / ((before + after) / 2))
            tally.record(f"cold cli {' '.join(workloads.README_COMMANDS[i][0])}", ok, why)
        return run

    # Fresh-process samples are spread over the timed loop, so they see the
    # same spread of machine states as the ops do.
    colds = [cold(i) for i in range(len(workloads.README_COMMANDS))]
    fresh = [probe, *colds[:3], probe, *colds[3:6], probe, *colds[6:]]
    total = len(fresh)
    spent = 0.0

    def step(op):
        nonlocal spent
        dt, _, ok = run_checked(op, tally)
        if ok:
            ops.add(dt)
        spent += dt
        if fresh and spent >= args.seconds * (total - len(fresh) + 1) / (total + 1):
            ops.flush()
            fresh.pop(0)()
        return dt

    run_rounds(wl, args.seconds, step)
    ops.flush()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while fresh:
        fresh.pop(0)()

    times = ops.scaled
    if not times:
        emit(False, tally, {})
        return 1
    rule = "meets" if p90_supported(times) else "misses"
    print(f"ops timed: {len(times)}; ops beyond p90: {beyond(times, p90(times))}"
          f" ({rule} the rule of at least 10)")
    print(f"op wall seconds before scaling to the reference speed: "
          f"p50 {statistics.median(ops.raw)}, p90 {p90(ops.raw)}, total {sum(ops.raw)}; "
          f"set-up samples {setup_s}; cold samples {cold_raw}")
    metrics = {
        "setup_s": (hd_quantile(setup_s, 0.5), "s"),
        "op_p50_s": (hd_quantile(times, 0.5), "s"),
        "op_p90_s": (hd_quantile(times, 0.9), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cold_cmd_p50_s": (hd_quantile(cold_s, 0.5), "s"),
    }
    emit(tally.failed == 0, tally, metrics)
    return 0


def traced(args, root, out, env) -> int:
    import workloads

    imports = {m: statistics.median([import_probe(root, m) for _ in range(IMPORT_PROBES)])
               for m in ("sympy", "sepcat")}
    wl = workloads.setup(args.workload, root, args.seed, out / "main")
    rec = Recorder()
    patches = Patches(rec)
    tally = Tally()
    ratios = []
    instances = []
    patches.install()
    problems = [f"unpatched reference {site}" for site in patches.stale()]
    patches.restore()
    n_ops = 0

    def traced_run(op):
        first = len(rec.spans)
        patches.install()
        rec.begin_op(n_ops, op.name)
        try:
            t, result, _ = run_checked(op, tally)
        finally:
            rec.end_op()
            patches.restore()
        if args.workload == "separability-sweep":
            instances.append(sweep_instance(op.name, rec.spans[first:], result))
        return t

    def step(op):
        nonlocal n_ops
        n_ops += 1
        if n_ops % 2:
            plain = run_checked(op, tally)[0]
            t = traced_run(op)
        else:
            t = traced_run(op)
            plain = run_checked(op, tally)[0]
        ratios.append(t / plain - 1.0)
        return plain + t

    run_rounds(wl, args.seconds, step)
    if rec.dropped:
        problems.append(f"{rec.dropped} spans dropped beyond the limit of {KEEP_LIMIT}; "
                        "instance counts and assembly times would be short")
    missing = [g for g in wl.exercised if rec.group(g).calls == 0]
    if missing:
        problems.append(f"spans that never fired on {args.workload}: {', '.join(missing)}")
    layer_self = rec.layer_self()
    op_wall = rec.group("op").incl
    total = sum(layer_self.values())
    if abs(total - op_wall) > 1e-6 * max(1.0, op_wall):
        problems.append(f"layer self times sum to {total} s, op wall time is {op_wall} s")
    print("layer self time per op: " + ", ".join(
        f"{k} {v / n_ops:.6f} s" for k, v in layer_self.items())
        + f"; sum {total / n_ops:.6f} s = op wall {op_wall / n_ops:.6f} s")
    for inst in instances:
        print("instance " + json.dumps(inst, ensure_ascii=False))
    for p in problems:
        print(f"trace problem: {p}")

    metrics = layer_metrics(rec, n_ops, imports, wl.report_sizes, layer_self,
                            statistics.median(ratios))
    write_trace(out.parent / "traces", args, env, rec, instances, metrics, patches)
    emit(tally.failed == 0 and not problems, tally, metrics)
    return 0


def sweep_instance(name, spans, result):
    """Exact counts of the solver's own elimination in one sweep op."""
    solver_ids = {s[0] for s in spans if s[1].split(":")[0] in SOLVER_GROUPS}
    solves = [s[7] for s in spans if s[1].startswith("linalg.solve:") and s[2] in solver_ids]
    inst = {"case": name, "verdict": None if result is None else
            ("infeasible" if getattr(result, "feasible", True) is False else "feasible")}
    for key in ("rows", "vars", "nnz", "rank"):
        inst[key] = sum(c[key] for c in solves)
    return inst


def layer_metrics(rec, n_ops, imports, report_sizes, layer_self, overhead):
    """Per-layer metrics; counts and times are per traced op."""
    def per_op(x):
        return x / n_ops

    g = rec.group
    m = {"import.sepcat_s": (imports["sepcat"], "s"),
         "import.sympy_s": (imports["sympy"], "s")}
    m["workspace.parse_calls"] = (per_op(g("workspace.parse").calls), "count")
    m["workspace.parse_self_s"] = (per_op(g("workspace.parse").self_s), "s")
    m["workspace.validate_s"] = (per_op(g("workspace.validate").incl), "s")
    for group in ("equivariant.build", "equivariant.dictionary", "equivariant.characters",
                  "equivariant.eq_hom", "category.invert", "modules.hom_basis",
                  "modules.validate", "complexes.hom", "category.compose",
                  "functors.on_morphism", "linalg.solve"):
        m[f"{group}_calls"] = (per_op(g(group).calls), "count")
        m[f"{group}_s"] = (per_op(g(group).incl), "s")
    m["monads.assemble_s"] = (per_op(rec.assemble_s("monads.solve")), "s")
    m["functors.assemble_s"] = (per_op(rec.assemble_s("functors.solve")), "s")
    m["linalg.solve_max_s"] = (g("linalg.solve").max_s, "s")
    for key in ("rows", "vars", "nnz", "rank"):
        m[f"linalg.{key}"] = (per_op(rec.counters[key]), "count")
    m["linalg.infeasible_calls"] = (per_op(rec.counters["infeasible"]), "count")
    rows = rec.counters["rows"]
    m["linalg.rank_per_row"] = (rec.counters["rank"] / rows if rows else 0.0, "ratio")
    for name in ("monads.verify", "functors.verify", "monads.validate",
                 "functors.validate", "category.validate"):
        m[f"{name}_s"] = (per_op(g(name).incl), "s")
    m["cli.run_calls"] = (per_op(g("cli.run").calls), "count")
    m["cli.self_s"] = (per_op(g("cli.run").self_s), "s")
    m["cli.report_bytes"] = (sum(report_sizes) / len(report_sizes) if report_sizes else 0.0,
                             "bytes")
    for layer in LAYERS:
        m[f"trace.self_{layer}_s"] = (per_op(layer_self[layer]), "s")
    m["trace.self_remainder_s"] = (per_op(layer_self["remainder"]), "s")
    m["trace.op_wall_s"] = (per_op(g("op").incl), "s")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def write_trace(dest: Path, args, env, rec, instances, metrics, patches):
    dest.mkdir(parents=True, exist_ok=True)
    path = dest / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env,
        "span_fields": ["id", "name", "parent", "op", "start", "end", "self", "counters"],
        "spans": rec.spans, "dropped_spans": rec.dropped,
        "groups": {k: {"calls": t.calls, "incl_s": t.incl, "self_s": t.self_s, "max_s": t.max_s}
                   for k, t in sorted(rec.totals.items())},
        "instances": instances,
        "patched_sites": patches.sites(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False)
        fh.write("\n")
    print(f"trace written to {path}")


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a sepcat source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = environment(ROOT)
    print("env " + json.dumps(env))
    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            return traced(args, ROOT, out, env)
        return untraced(args, ROOT, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
