"""The benchmark's workloads: inputs made from a seed, the timed calls, and
the output checks run after the timed region.

* ``sizing`` — ``windplan pipeline`` with the embedded simplex on a pool of
  small ``synth`` datasets whose CO2 budget binds; the LP solve dominates.
* ``siting-paper`` — library-level ``comp`` siting on a paper-shaped
  catalog (19 zones, 2,472 candidates, k=353, W=2,920); no LP.
* ``export-19bus`` — ``windplan pipeline`` with ``cep.solver: mps-export``
  on a 19-bus ``synth`` dataset; LP assembly and MPS writing dominate.

Every check takes the recorded outputs as plain data, so the self-test can
corrupt them and see the check fire.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import windplan.cli as cli
import windplan.mps as mps_io
import windplan.siting as siting
from windplan import fileio, resource
from windplan.synth import gen_synthetic
from windplan.timeseries import TimeSeries

# ---------------------------------------------------------------------------
# Output capture (always on, tracing or not): keeps the results the checks
# need from functions the timed call reaches only indirectly.
# ---------------------------------------------------------------------------

class Capture:
    """Wraps a few public functions so a call's results land in its record."""

    def __init__(self) -> None:
        self.record: dict | None = None
        for module, attr, key in ((cli, "build_lp", "built"), (cli, "solve", "solution"),
                                  (cli, "run_multistart", "siting"),
                                  (cli, "build_criticality_matrix", "matrix"),
                                  (siting, "greedy_init", "greedy")):
            setattr(module, attr, self._wrap(getattr(module, attr), key))

    def _wrap(self, original, key: str):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if self.record is not None:
                self.record[key] = result
            return result
        return wrapper

    def run(self, fn) -> dict:
        """Call ``fn(record)`` with capturing on; returns the record."""
        self.record = {}
        try:
            fn(self.record)
            return self.record
        finally:
            self.record = None


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], dict]
    calls: Callable[[dict, Capture], list[Callable[[], dict]]]
    check: Callable[[dict, list[dict]], tuple[list[str], dict]]
    threads: int = 1


# ---------------------------------------------------------------------------
# Pipeline workloads (sizing, export-19bus)
# ---------------------------------------------------------------------------

_GAS_T_PER_MWH = 0.225 / 0.41   # default gas turbine: t CO2 per MWh electric


def _pipeline_setup(work: Path, seeds, sites: int, partitions: int, periods: int,
                    solver: str, co2_fraction: float | None, varsigma: float) -> dict:
    instances = []
    for seed in seeds:
        root = work / f"case{seed}"
        gen_synthetic(root / "data", seed, n_sites=sites, n_partitions=partitions,
                      n_periods=periods)
        cep = {"solver": solver, "reserve_margin": 0.2, "shed_penalty": 500.0}
        if co2_fraction is not None:
            # A budget below the emissions of the unconstrained optimum (70-90 %
            # of an all-gas supply on these datasets) so the co2 row binds.
            demand = fileio.read_series_csv(root / "data" / "demand.csv", 1.0)
            all_gas = sum(float(s.values.sum()) for s in demand.values()) * _GAS_T_PER_MWH
            cep.update(co2_budget_fraction=co2_fraction, co2_baseline_emissions=all_gas)
        config = {
            "paths": {name: f"data/{name}.csv" for name in
                      ("wind_speeds", "demand", "runoff", "hydro_params")}
            | {"catalog": "data/sites.csv", "output_dir": "out"},
            "resolution_hours": 1.0,
            "resample_factor": 3,
            "siting": {
                "scheme": "comp", "partitioned": True, "varsigma": varsigma, "delta": 1,
                "targets_MW": {f"P{i + 1}": 2000.0 for i in range(partitions)},
                "anneal": {"iterations": 10, "neighbors": 10, "radius": 1},
                "n_runs": 2, "base_seed": seed,
            },
            "cep": cep,
        }
        path = root / "config.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        instances.append({"config": path, "out": root / "out"})
    return {"instances": instances}


def _pipeline_calls(state: dict, capture: Capture) -> list[Callable[[], dict]]:
    def make(inst):
        argv = ["pipeline", str(inst["config"]), "--out", str(inst["out"]), "--threads", "1"]

        def call() -> dict:
            record = capture.run(lambda rec: rec.update(rc=cli.main(argv)))
            record["after"] = lambda: _summarise_pipeline(record, inst["out"])
            return record
        return call
    return [make(inst) for inst in state["instances"]]


def _summarise_pipeline(record: dict, out: Path) -> None:
    """Scalars every call keeps, beside the objects only the checks need;
    run after the call's timing has stopped."""
    if "siting" in record and "matrix" in record:
        record["coverage"] = record["siting"].objective / record["matrix"].n_windows
    solution_json = out / "cep_solution.json"
    if record.get("solution") is not None and solution_json.exists():
        record["objective"] = json.loads(solution_json.read_text())["objective"]
    mps = out / "cep.mps"
    if mps.exists():
        record["mps"] = mps
        record["digest"] = hashlib.sha256(mps.read_bytes()).hexdigest()


def linprog_objective(lp) -> tuple[str, float]:
    """Optimum of a CanonicalLp by scipy's HiGHS, as an independent reference."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    senses = np.array(lp.senses)
    a = sp.csr_matrix((lp.entry_vals, (lp.entry_rows, lp.entry_cols)),
                      shape=(lp.n_rows, lp.n_vars))
    le, ge, eq = senses == "<", senses == ">", senses == "="
    a_ub = sp.vstack([a[le], -a[ge]])
    b_ub = np.concatenate([lp.rhs[le], -lp.rhs[ge]])
    bounds = [(lo if math.isfinite(lo) else None, up if math.isfinite(up) else None)
              for lo, up in zip(lp.lower, lp.upper)]
    res = linprog(lp.objective, A_ub=a_ub if a_ub.shape[0] else None,
                  b_ub=b_ub if b_ub.size else None,
                  A_eq=a[eq] if eq.any() else None, b_eq=lp.rhs[eq] if eq.any() else None,
                  bounds=bounds, method="highs")
    return ("optimal" if res.status == 0 else res.message), float(res.fun)


def _check_repeats(outputs: list[dict], n_instances: int, keys) -> list[str]:
    errors = []
    for i, out in enumerate(outputs[n_instances:], start=n_instances):
        first = outputs[i % n_instances]
        for key in keys:
            if out.get(key) != first.get(key):
                errors.append(f"call {i}: {key} differs from the first run of the same input")
    return errors


def check_sizing(state: dict, outputs: list[dict]) -> tuple[list[str], dict]:
    """Each solve is optimal, its co2 row has a non-zero dual, its objective
    matches HiGHS on the same LP within 1e-6 and the written report agrees."""
    errors, relerrs, coverage, duals = [], [], [], []
    n = len(state["instances"])
    for i, out in enumerate(outputs[:n]):
        if out.get("rc") != 0:
            errors.append(f"instance {i}: exit code {out.get('rc')}")
            continue
        lp, _ = out["built"]
        sol = out["solution"]
        if sol.status != "optimal":
            errors.append(f"instance {i}: solver status {sol.status}")
            continue
        duals.append(abs(sol.duals[lp.row_names.index("co2")]) if "co2" in lp.row_names else 0.0)
        if duals[-1] <= 1e-9:
            errors.append(f"instance {i}: the CO2 budget does not bind")
        status, ref = linprog_objective(lp)
        relerr = abs(sol.objective - ref) / max(1.0, abs(ref))
        relerrs.append(relerr)
        if status != "optimal" or relerr > 1e-6:
            errors.append(f"instance {i}: objective {sol.objective!r} vs HiGHS {ref!r} ({status})")
        if out.get("objective") != sol.objective:
            errors.append(f"instance {i}: cep_solution.json objective {out.get('objective')!r} "
                          f"!= solver objective {sol.objective!r}")
        coverage.append(out.get("coverage", 0.0))
    errors += _check_repeats(outputs, n, ("rc", "objective", "coverage"))
    return errors, {"coverage_frac": float(np.mean(coverage)) if coverage else 0.0,
                    "lp.ref_relerr": max(relerrs, default=0.0),
                    "shape": {"optimal_solves": len(relerrs), "cases": n,
                              "co2_dual_abs_min": min(duals, default=0.0),
                              "co2_dual_abs_max": max(duals, default=0.0)}}


def check_export(state: dict, outputs: list[dict]) -> tuple[list[str], dict]:
    """The MPS file imports back to the built LP to 12 significant digits and
    every run of the same input writes the same bytes."""
    errors = []
    out = outputs[0]
    if out.get("rc") != 0:
        return [f"exit code {out.get('rc')}"], {"coverage_frac": 0.0}
    try:
        errors += compare_lp(out["built"][0], mps_io.import_mps(out["mps"]))
    except (ValueError, KeyError, IndexError, OSError) as exc:
        errors.append(f"MPS round trip failed: {exc}")
    errors += _check_repeats(outputs, 1, ("rc", "digest", "coverage"))
    lp = out["built"][0]
    return errors, {"coverage_frac": out.get("coverage", 0.0),
                    "shape": {"vars": lp.n_vars, "rows": lp.n_rows, "nnz": int(lp.entry_vals.size),
                              "mps_bytes": out["mps"].stat().st_size}}


def compare_lp(built, back, rtol: float = 1e-11) -> list[str]:
    errors = []
    if (built.n_vars, built.n_rows, built.entry_vals.size) != (back.n_vars, back.n_rows,
                                                              back.entry_vals.size):
        return [f"shape {(back.n_vars, back.n_rows, back.entry_vals.size)} != "
                f"{(built.n_vars, built.n_rows, built.entry_vals.size)}"]
    if list(back.var_names) != mps_io.mangle_names(built.var_names)[0] \
            or list(back.row_names) != mps_io.mangle_names(built.row_names)[0]:
        errors.append("names differ")
    if back.senses != built.senses:
        errors.append("row senses differ")

    def close(a, b) -> bool:
        a, b = np.asarray(a, float), np.asarray(b, float)
        same_inf = np.array_equal(np.isinf(a), np.isinf(b)) and np.array_equal(a[np.isinf(a)],
                                                                                b[np.isinf(b)])
        fin = np.isfinite(a)
        return same_inf and bool(np.all(np.abs(a[fin] - b[fin]) <= rtol * np.abs(a[fin])))

    for attr in ("objective", "rhs", "lower", "upper"):
        if not close(getattr(built, attr), getattr(back, attr)):
            errors.append(f"{attr} differs beyond 12 significant digits")
    order_a = np.lexsort((built.entry_cols, built.entry_rows))
    order_b = np.lexsort((back.entry_cols, back.entry_rows))
    if not (np.array_equal(built.entry_rows[order_a], back.entry_rows[order_b])
            and np.array_equal(built.entry_cols[order_a], back.entry_cols[order_b])
            and close(built.entry_vals[order_a], back.entry_vals[order_b])):
        errors.append("constraint matrix differs")
    return errors


def sizing(tiny: bool) -> Workload:
    periods, pool = (48, 2) if tiny else (192, 12)

    def setup(seed: int, work: Path) -> dict:
        return _pipeline_setup(work, [seed * 100 + i for i in range(pool)], 8, 2, periods,
                               "embedded", co2_fraction=0.6, varsigma=0.2)

    return Workload(
        "sizing",
        f"LP solve ~75 % of wall: {pool} synth cases, 8 sites, 2 buses, T={periods // 3}, "
        "binding CO2 budget, embedded simplex; solver and row-count changes show, siting "
        "changes must not",
        setup, _pipeline_calls, check_sizing)


def export_19bus(tiny: bool) -> Workload:
    buses, periods = (3, 48) if tiny else (19, 480)

    def setup(seed: int, work: Path) -> dict:
        # Two sites per bus are all selected; a low varsigma keeps stage one
        # light, so the LP build and export carry the run.
        return _pipeline_setup(work, [seed], 2 * buses, buses, periods, "mps-export", None,
                               varsigma=0.15)

    return Workload(
        "export-19bus",
        f"same LP layer built large and written, not solved: {buses} buses, {2 * buses} sites, "
        f"T={periods // 3}; MPS export ~65 % and build_lp ~12 % of wall, so assembly and "
        "row-layout changes show",
        setup, _pipeline_calls, check_export)


# ---------------------------------------------------------------------------
# Paper-scale siting (library level)
# ---------------------------------------------------------------------------

# zone, capacity target (GW), candidates, legacy sites: the 19 zones of the
# paper's deployment table (2,472 candidates, 135 legacy, k = 353).
ZONE_TABLE = (
    ("UK", 80, 700, 39), ("NL", 60, 102, 8), ("FR", 57, 231, 7), ("DE", 36, 81, 17),
    ("DK", 35, 119, 15), ("NO", 30, 187, 1), ("PL", 28, 51, 10), ("IE", 22, 219, 5),
    ("IT", 20, 112, 2), ("SE", 20, 254, 9), ("FI", 15, 128, 5), ("ES", 13, 77, 0),
    ("GR", 10, 39, 11), ("PT", 9, 17, 1), ("BE", 6, 4, 2), ("LV", 4, 8, 1),
    ("LT", 3, 49, 0), ("EE", 1, 47, 2), ("HR", 1, 47, 0),
)
_TINY_ZONES = (("AA", 20, 30, 2), ("BB", 12, 20, 1), ("CC", 6, 10, 0))


def _ar1(rng, rows: int, n: int, phi: float, sigma: float) -> np.ndarray:
    noise = rng.normal(0.0, sigma, size=(rows, n))
    out = np.empty_like(noise)
    out[:, 0] = noise[:, 0] / math.sqrt(1 - phi * phi)
    for t in range(1, n):
        out[:, t] = phi * out[:, t - 1] + noise[:, t]
    return out


def paper_catalog(seed: int, zones, windows: int, resolution: float = 3.0):
    """Catalog, system demand and targets with zone-correlated weather.

    Wind speed at a site is its own mean plus a continental AR(1) factor,
    its zone's AR(1) factor (both with about half a day of memory at the
    three-hourly resolution), a seasonal cycle and site noise; capacity
    factors come from the packaged ``high_wind`` curve.  The first sites of
    each zone carry legacy capacity.
    """
    rng = np.random.default_rng(seed)
    hours = np.arange(windows) * resolution
    common = _ar1(rng, 1, windows, 0.8, 0.5)[0]
    zone_noise = _ar1(rng, len(zones), windows, 0.8, 0.6)
    seasonal = np.sin(2 * np.pi * hours / 8760.0 + 1.0)
    curve = fileio.load_default_curves()["high_wind"]
    sites = []
    for z, (zone, _, n, legacy) in enumerate(zones):
        weather = 0.6 * common + zone_noise[z] + seasonal
        mean = rng.uniform(7.5, 10.0, n)
        speeds = np.maximum(mean[:, None] + 1.3 * weather + _ar1(rng, n, windows, 0.9, 0.4), 0.0)
        cf = curve.evaluate(speeds)
        potential = rng.uniform(400.0, 1200.0, n)
        for j in range(n):
            sites.append(resource.make_site(
                f"{zone}{j:03d}", float(z), float(j), zone, 150.0 if j < legacy else 0.0,
                float(potential[j]), TimeSeries(cf[j], resolution)))
    catalog = resource.SiteCatalog(tuple(sites))
    level = 733.0 * sum(gw for _, gw, *_ in zones)   # MW; ~330 GW for the paper table
    demand = level * (1 + 0.12 * np.cos(2 * np.pi * hours / 8760.0)
                      + 0.1 * np.sin(2 * np.pi * (hours - 9.0) / 24.0))
    demand += _ar1(rng, 1, windows, 0.8, 0.012 * level)[0]
    targets = {zone: gw * 1000.0 for zone, gw, *_ in zones}
    return catalog, TimeSeries(demand, resolution), targets


def siting_paper(tiny: bool) -> Workload:
    zones, windows = (_TINY_ZONES, 120) if tiny else (ZONE_TABLE, 2920)
    params = siting.AnnealParams(iterations=20 if tiny else 250, neighbors=50 if tiny else 500,
                                 radius=1)
    n_runs, threads, varsigma = 4, 2, (0.5 if tiny else 0.33)

    def setup(seed: int, work: Path) -> dict:
        catalog, demand, targets = paper_catalog(seed, zones, windows)
        plan = siting.build_plan(catalog, targets)
        return {"catalog": catalog, "demand": demand, "plan": plan, "seed": seed}

    def calls(state: dict, capture: Capture):
        catalog, demand, plan = state["catalog"], state["demand"], state["plan"]
        deploy = (siting.DEFAULT_POWER_DENSITY_MW_KM2 * siting.DEFAULT_SITE_AREA_KM2
                  * siting.DEFAULT_UTILIZATION)

        def body(record: dict) -> None:
            matrix = resource.build_criticality_matrix(
                catalog, demand, varsigma=varsigma, k=plan.k, delta=1,
                c=plan.default_threshold())
            solution = siting.run_multistart(matrix, catalog, plan, params, n_runs=n_runs,
                                             base_seed=state["seed"], threads=threads)
            residual = siting.residual_demand(demand, catalog, solution.selected, deploy)
            record.update(rc=0, matrix=matrix, siting=solution, objective=solution.objective,
                          coverage=solution.objective / matrix.n_windows,
                          summary=siting.residual_summary(residual))

        return [lambda: capture.run(body)]

    return Workload(
        "siting-paper",
        f"siting ~96 % of wall, no LP: {sum(z[2] for z in zones)} candidates in {len(zones)} "
        f"zones, W={windows}, greedy then {n_runs}x{params.iterations} iterations x "
        f"{params.neighbors} neighbours on {threads} threads; greedy and search changes show",
        setup, calls, check_siting, threads=threads)


def check_siting(state: dict, outputs: list[dict]) -> tuple[list[str], dict]:
    """An independent recount of covered windows equals the objective,
    quotas and legacy sites hold, and the search improves on a greedy start
    that lies strictly inside (0, W)."""
    out = outputs[0]
    matrix, solution, catalog, plan = out["matrix"], out["siting"], state["catalog"], state["plan"]
    errors = []
    idx = [matrix.index_of[s] for s in solution.selected if s in matrix.index_of]
    if len(idx) != len(solution.selected):
        errors.append("selection names sites the matrix does not index")
    counts = matrix.dense[idx].sum(axis=0, dtype=np.int64)
    recount = int(np.count_nonzero(counts >= matrix.threshold_c))
    if recount != solution.objective:
        errors.append(f"recount {recount} != reported objective {solution.objective}")
    for quota in plan.quotas:
        got = sum(1 for s in catalog.partitions[quota.partition_id] if s in solution.selected)
        if got != quota.final_k:
            errors.append(f"zone {quota.partition_id}: {got} sites, quota {quota.final_k}")
    if catalog.legacy_ids - solution.selected:
        errors.append(f"{len(catalog.legacy_ids - solution.selected)} legacy sites dropped")
    greedy = out["greedy"].objective
    if not 0 < greedy < matrix.n_windows:
        errors.append(f"greedy objective {greedy} not strictly inside (0, {matrix.n_windows})")
    if not solution.objective > greedy:
        errors.append(f"search ({solution.objective}) does not improve on greedy ({greedy})")
    errors += _check_repeats(outputs, 1, ("rc", "objective"))
    return errors, {"coverage_frac": recount / matrix.n_windows,
                    "shape": {"windows": matrix.n_windows, "greedy_objective": greedy,
                              "objective": solution.objective, "k": plan.k,
                              "c": matrix.threshold_c}}


WORKLOADS = {"sizing": sizing, "siting-paper": siting_paper, "export-19bus": export_19bus}
