"""Stage two at the paper's horizon, written as MPS for an external solver.

Generates a synthetic 19-bus dataset (two sites per bus, hydro on) over
8,760 hours, resamples it to T = 2,920 three-hourly periods and runs
``windplan pipeline`` with ``cep.solver: mps-export`` in a temporary
directory.  Prints the time to build the capacity-expansion LP and to
write it, the size of ``cep.mps`` and the process's peak resident set
size.  Then it builds and writes the same LP again under ``tracemalloc``
(which slows both) and prints each step's traced peak beside what the LP
holds: the build keeps its matrix once, in compressed sparse column
form, and the writer reads the columns as stored and writes free-format
MPS under the LP's own names, each row name as a prefix piece and an
index piece, so it spells out no table of row names.  It asserts no
timings or sizes.

Run:  python3 demos/06_paper_horizon_export.py
"""

import json
import resource
import tempfile
import time
import tracemalloc
from pathlib import Path

from windplan import cli
from windplan.synth import gen_synthetic

BUSES, HOURS, FACTOR = 19, 8760, 3
MIB = 2 ** 20
timings: dict[str, float] = {}
instances = []


def timed(label, fn):
    """``fn``, recording the seconds of each call under ``label``."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[label] = time.perf_counter() - start
    return wrapper


def traced(fn, *args):
    """``fn(*args)``, with the bytes it allocated and still holds on
    return, and its traced peak."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    gen_synthetic(root / "data", 1, n_sites=2 * BUSES, n_partitions=BUSES, n_periods=HOURS)
    config = {
        "paths": {name: f"data/{name}.csv"
                  for name in ("wind_speeds", "demand", "runoff", "hydro_params")}
        | {"catalog": "data/sites.csv", "output_dir": "out"},
        "resolution_hours": 1.0,
        "resample_factor": FACTOR,
        "siting": {"scheme": "comp", "partitioned": True, "varsigma": 0.15, "delta": 1,
                   "targets_MW": {f"P{i + 1}": 2000.0 for i in range(BUSES)},
                   "anneal": {"iterations": 10, "neighbors": 10, "radius": 1},
                   "n_runs": 2, "base_seed": 1},
        "cep": {"solver": "mps-export", "reserve_margin": 0.2, "shed_penalty": 500.0},
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")

    build_lp = cli.build_lp

    def kept(instance):
        instances.append(instance)
        return build_lp(instance)

    cli.build_lp = timed("build", kept)
    cli.mps_io.export_mps = timed("export", cli.mps_io.export_mps)
    start = time.perf_counter()
    rc = cli.main(["pipeline", str(root / "config.json"), "--out", str(root / "out"),
                   "--threads", "1"])
    total = time.perf_counter() - start
    assert rc == 0, f"pipeline exited {rc}"
    mps = root / "out" / "cep.mps"
    print(f"T = {HOURS // FACTOR} periods, {BUSES} buses, {2 * BUSES} sites")
    print(f"pipeline: {total:.2f} s")
    print(f"  build_lp:   {timings['build']:.2f} s")
    print(f"  export_mps: {timings['export']:.2f} s")
    print(f"cep.mps: {mps.stat().st_size / 1e6:.1f} MB")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS (ru_maxrss): {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")

    (lp, _), held, peak = traced(build_lp, instances[0])
    print(f"traced build_lp: peak {peak / MIB:.0f} MiB, {peak / held:.2f} times the "
          f"{held / MIB:.0f} MiB it returns")
    _, _, peak = traced(cli.mps_io.export_mps, lp, root / "out" / "traced.mps")
    print(f"traced export_mps: peak {peak / MIB:.0f} MiB above its start")
