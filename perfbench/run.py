"""windplan benchmark: one workload per run, or every workload with ``all``.

    python3 perfbench/run.py --workload sizing --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a windplan checkout; the package is imported from its
``src`` directory.  Set-up (imports in a fresh interpreter, data generation
and config writing) is repeated and timed, then the workload's calls run in
a closed loop, one after another, for at least ``--seconds`` and at least
one full pass over its inputs.  Outputs are checked after the timed region.
With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed and 2 when the benchmark
could not run at all (for instance outside a windplan checkout).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource as rlimit
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread per process: on a host with few cores, numpy's thread pool
# competes with the workload's own threads and turns scheduling into noise.
# Set before numpy is first imported, here or in a child interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
KEEP = ("rc", "objective", "coverage", "digest")   # what repeated calls retain
IMPORT_PROBE = "import windplan.cli, windplan.mps, scipy.optimize"


def fail(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def percentile_with_tail(values, tail: int = 10):
    """Highest percentile that still has ``tail`` samples above it, or None."""
    n = len(values)
    if n <= tail:
        return None
    ordered = sorted(values)
    k = n - tail - 1
    return 100.0 * (k + 1) / n, ordered[k]


def timed_call(call):
    """Run one call; returns (wall seconds, record, ok).  A raising call
    counts as failed and the loop goes on."""
    gc.collect()   # every call starts from a collected heap, outside its timing
    t0 = time.perf_counter()
    try:
        record = call()
    except Exception:
        return time.perf_counter() - t0, {"rc": None, "error": traceback.format_exc(limit=3)}, False
    wall = time.perf_counter() - t0
    after = record.pop("after", None)
    if after is not None:
        after()
    return wall, record, record.get("rc") == 0


def run_calls(calls, seconds: float, keep_full: bool):
    """Calls in a closed loop, for at least ``seconds`` and one full pass."""
    walls, records, failures = [], [], []
    i, start = 0, time.perf_counter()
    while i < len(calls) or time.perf_counter() - start < seconds:
        wall, record, ok = timed_call(calls[i % len(calls)])
        walls.append(wall)
        if not ok:
            failures.append(record.get("error") or f"call {i}: exit code {record.get('rc')}")
        records.append(record if keep_full and i < len(calls)
                       else {k: record[k] for k in KEEP if k in record})
        i += 1
    return walls, records, failures


def measure_setup(workload, seed: int):
    times = []
    for r in range(SETUP_REPEATS):
        state = None   # free the previous set-up before making the next
        work = WORK / f"{workload.name}-s{seed}-{os.getpid()}-{r}"
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT)
        state = workload.setup(seed, work)
        times.append(time.perf_counter() - t0)
        if r:
            shutil.rmtree(WORK / f"{workload.name}-s{seed}-{os.getpid()}-{r - 1}",
                          ignore_errors=True)
    state["work"] = work
    return statistics.median(times), state


def run_workload(args) -> int:
    import metrics as catalogue
    import spans as tracing
    import workloads as wl

    workload = wl.WORKLOADS[args.workload](args.tiny)
    setup_s, state = measure_setup(workload, args.seed)
    calls = workload.calls(state, wl.Capture())

    walls, traced_walls, records, failures = [], [], [], []
    tracer = tracing.Tracer()
    traced_runs: list[int] = []
    start = time.perf_counter()
    if not args.trace:
        walls, records, failures = run_calls(calls, args.seconds, keep_full=True)
    else:
        # Alternate untraced and traced passes, so drift hits both alike.
        targets = tracing.targets(tracer)
        while not traced_walls or time.perf_counter() - start < args.seconds:
            w, recs, f = run_calls(calls, 0.0, keep_full=not records)
            walls, records, failures = walls + w, records + recs, failures + f
            tracer.install(targets)
            try:
                for call in calls:
                    tracer.run = len(traced_runs)
                    wall, rec, ok = timed_call(lambda: tracer.span("cli.call", call))
                    traced_walls.append(wall)
                    traced_runs.append(tracer.run)
                    records.append({k: rec[k] for k in KEEP if k in rec})
                    if not ok:
                        failures.append(rec.get("error") or f"traced call: exit {rec.get('rc')}")
            finally:
                tracer.uninstall()
    attempted = len(records)
    peak_rss_mb = rlimit.getrusage(rlimit.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, outside the timed region; records cycle through the
    # calls in pass order, so record i repeats the input of record i % n.
    try:
        errors, extra = workload.check(state, records)
    except Exception:
        errors, extra = [traceback.format_exc(limit=5)], {}
    errors += failures
    wall = statistics.median(walls)
    if args.trace:
        m = tracing.per_layer(tracer, traced_runs, workload.threads)
        m["lp.ref_relerr"] = extra.get("lp.ref_relerr", 0.0)
        traced = statistics.median(traced_walls)
        m["trace.wall_s"] = traced
        m["trace.overhead_s"] = traced - wall
        m["tracing_overhead_frac"] = traced / wall - 1.0
        if m["trace.top_level_frac"] < 0.95:
            errors.append(f"top-level spans cover only {m['trace.top_level_frac']:.3f} "
                          "of a traced call")
        tracer.write(WORK / f"trace-{workload.name}-s{args.seed}.json",
                     {"workload": workload.name, "seed": args.seed})
        values = {name: m[name] for name in catalogue.PER_LAYER_NAMES}
    else:
        values = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "coverage_frac": extra.get("coverage_frac", 0.0)}
    for name, value in values.items():
        if not math.isfinite(value):
            # JSON has no NaN or Infinity; the run is marked incorrect instead.
            errors.append(f"{name} is {value!r}, not a finite number")
            values[name] = 0.0
    failed = min(attempted, len(errors))

    tail = percentile_with_tail(walls)
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# wall_s median {wall:.6f} s over n={len(walls)} calls"
          + (f"; p{tail[0]:.0f} {tail[1]:.6f} s (10 samples above)" if tail else
             "; too few calls for a tail percentile"))
    print(f"# calls (s): {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"# setup_s median {setup_s:.6f} s over n={SETUP_REPEATS} set-ups")
    print(f"# failed_frac {failed / attempted:.4f} ({failed} of {attempted} calls)")
    if "shape" in extra:
        print(f"# shape {json.dumps(extra['shape'], sort_keys=True)}")
    for e in errors:
        print(f"# CHECK FAILED: {e.strip()}")
    for name, value in values.items():
        print(f"# {name} = {value!r} {catalogue.UNITS[name]}")
    shutil.rmtree(state["work"], ignore_errors=True)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": catalogue.UNITS[k]} for k, v in values.items()},
    }, allow_nan=False))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload in its own process; a failing one does not stop the rest."""
    import workloads as wl

    summary, code = {}, 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            print(f"[{name}] no result; stderr: {proc.stderr.strip()[-2000:]}")
        summary[name] = result
        code = max(code, proc.returncode if proc.returncode else (0 if result["correct"] else 1))
    correct = all(r["correct"] for r in summary.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}/{k}": v for w, r in summary.items() for k, v in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "windplan" / "__init__.py").is_file():
        return fail(f"no windplan sources under {SRC}; run from a windplan checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import windplan

    if Path(windplan.__file__).resolve().parent != SRC / "windplan":
        return fail(f"imported windplan from {windplan.__file__}, not from {SRC}")
    import workloads as wl

    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
