"""Batch command line driving the two-stage pipeline.

Subcommands: ``synth`` (generate a synthetic dataset), ``site`` (stage
one), ``cep`` (stage two), ``pipeline`` (both stages) and ``export-mps``
(write the CEP model or the complementarity MIR for an external solver).
Everything is configured from a single JSON file; outputs embed the
config hash for provenance.  Exit codes: 0 ok, 1 usage, 2 data or
feasibility problem, 3 solver failure; errors are mirrored as a JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import windplan.fileio as fileio
import windplan.mps as mps_io
from windplan import __version__
from windplan.cep import (
    Bus, CepInstance, CostCheckError, Line, Placement, SitedAsset, Technology, build_lp,
    decode_solution, with_connection_cost,
)
from windplan.fileio import technology_from_dict
from windplan.hydro import (
    RunoffCell, RunoffGrid, calibrate_flow_multiplier, phs_storage,
    ror_capacity_factors, unit_head_inflow,
)
from windplan.lp import solve
from windplan.resource import build_criticality_matrix, capacity_factors_from_speeds
from windplan.siting import (
    AnnealParams, build_plan, residual_demand, residual_summary, run_multistart,
    solve_prod,
)
from windplan.synth import gen_synthetic
from windplan.timeseries import TimeSeries, resample_mean

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_SOLVER = 0, 1, 2, 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class SolverFailure(Exception):
    def __init__(self, status: str, message: str | None = None):
        super().__init__(message or f"solver did not reach optimality: {status}")
        self.status = status


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_DEFAULT_ANNEAL = {"iterations": 5000, "neighbors": 500, "radius": 1,
                   "t0": 100.0, "decay": 10.0, "return_mode": "best_visited"}

_DEFAULT_OFFSHORE = {
    "id": "offshore_wind", "kind": "res", "capex": 1881.08, "lifetime_years": 25.0,
    "fixed_om": 49.11, "variable_om": 0.0, "capacity_credit": "computed",
}

_DEFAULT_TECHNOLOGIES = [
    {"id": "gas_turbine", "kind": "dispatchable", "capex": 838.87, "lifetime_years": 30.0,
     "fixed_om": 3.03, "variable_om": 0.0076, "fuel_cost": 0.0265, "efficiency": 0.41,
     "co2_per_mwh_th": 0.225},
    {"id": "battery", "kind": "storage", "capex": 100.0, "energy_capex": 94.0,
     "lifetime_years": 10.0, "fixed_om": 0.54, "variable_om": 0.0017,
     "eta_charge": 0.93, "eta_discharge": 0.93, "eta_self": 0.995},
]


@dataclass
class PipelineConfig:
    raw: dict
    path: Path
    config_hash: str

    @property
    def paths(self) -> dict:
        return self.raw["paths"]

    def resolve(self, key: str, required: bool = True) -> Path | None:
        value = self.paths.get(key)
        if value is None:
            if required:
                raise DataError(f"config paths.{key} is required")
            return None
        resolved = (self.path.parent / value).resolve()
        if not resolved.exists():
            raise DataError(f"config paths.{key}: {resolved} does not exist")
        return resolved

    @property
    def siting(self) -> dict:
        return self.raw.get("siting", {})

    @property
    def cep(self) -> dict:
        return self.raw.get("cep", {})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"config is not valid JSON: {exc}") from exc
    if "paths" not in raw:
        raise DataError("config must contain a 'paths' section")
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    cfg = PipelineConfig(raw=raw, path=path, config_hash=digest)
    factor = raw.get("resample_factor", 1)
    if not (_is_int(factor) and factor >= 1):
        raise DataError("resample_factor must be a positive integer")
    resolution = raw.get("resolution_hours", 1.0)
    if not (_is_number(resolution) and 0 < resolution < math.inf):
        raise DataError("resolution_hours must be a positive number")
    siting = cfg.siting
    if "varsigma" in siting and not _is_number(siting["varsigma"]):
        raise DataError("siting.varsigma must be a number")
    for key in ("delta", "coverage_threshold"):
        if key in siting and not _is_int(siting[key]):
            raise DataError(f"siting.{key} must be an integer")
    if "varsigma" in siting and not 0 < siting["varsigma"] <= 1:
        raise DataError("siting.varsigma must lie in (0, 1]")
    if "delta" in siting and siting["delta"] < 1:
        raise DataError("siting.delta must be >= 1")
    if siting.get("scheme", "comp") not in ("prod", "comp"):
        raise DataError("siting.scheme must be 'prod' or 'comp'")
    if cfg.cep.get("solver", "embedded") not in ("embedded", "mps-export"):
        raise DataError("cep.solver must be 'embedded' or 'mps-export'")
    return cfg


# ---------------------------------------------------------------------------
# Stage one
# ---------------------------------------------------------------------------

def _resampled(series: dict, factor: int) -> dict:
    try:
        return {k: resample_mean(v, factor) for k, v in series.items()}
    except ValueError as exc:
        raise DataError(f"cannot apply resample_factor {factor}: {exc}") from exc


def _load_stage_inputs(config: PipelineConfig):
    resolution = float(config.raw.get("resolution_hours", 1.0))
    factor = int(config.raw.get("resample_factor", 1))
    speeds = fileio.read_series_csv(config.resolve("wind_speeds"), resolution)
    demand = fileio.read_series_csv(config.resolve("demand"), resolution)
    if factor > 1:
        speeds = _resampled(speeds, factor)
        demand = _resampled(demand, factor)
    curves_dir = config.resolve("curves_dir", required=False)
    curves = fileio.load_curves_dir(curves_dir) if curves_dir else fileio.load_default_curves()
    siting_cfg = config.siting
    cf = capacity_factors_from_speeds(
        speeds, curves, smoothing_factor=float(siting_cfg.get("smoothing_factor", 0.15))
    )
    catalog = fileio.load_catalog(
        config.resolve("catalog"), cf,
        legacy_threshold_MW=float(siting_cfg.get("legacy_threshold_MW", 100.0)),
    )
    return catalog, demand


def _system_demand(demand: dict[str, TimeSeries]) -> TimeSeries:
    ids = list(demand)
    total = np.zeros(len(demand[ids[0]]))
    for key in ids:
        total = total + demand[key].values
    return demand[ids[0]].with_values(total)


def run_siting(config: PipelineConfig, out_dir: Path, threads: int = 1,
               seed_override: int | None = None):
    """Execute stage one and persist its artifacts into ``out_dir``."""
    catalog, demand = _load_stage_inputs(config)
    siting_cfg = config.siting
    targets = siting_cfg.get("targets_MW")
    if not targets:
        raise DataError("siting.targets_MW must map partitions to MW targets")
    density = float(siting_cfg.get("power_density_MW_km2", 6.0))
    area = float(siting_cfg.get("site_area_km2", 442.5))
    utilization = float(siting_cfg.get("utilization", 0.5))
    try:
        plan = build_plan(
            catalog, targets, density, area, utilization,
            partitioned=bool(siting_cfg.get("partitioned", True)),
        )
    except ValueError as exc:
        raise DataError(f"infeasible deployment plan: {exc}") from exc
    scheme = siting_cfg.get("scheme", "comp")
    total_demand = _system_demand(demand)
    stamp = {"config_hash": config.config_hash, "tool_version": __version__}

    matrix = None
    if scheme == "prod":
        try:
            solution = solve_prod(catalog, plan)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
    else:
        try:
            params = AnnealParams(**{**_DEFAULT_ANNEAL, **siting_cfg.get("anneal", {})})
        except (TypeError, ValueError) as exc:
            raise DataError(f"invalid siting.anneal: {exc}") from exc
        try:
            matrix = build_criticality_matrix(
                catalog, total_demand,
                varsigma=float(siting_cfg.get("varsigma", 0.3)),
                k=plan.k,
                delta=int(siting_cfg.get("delta", 1)),
                c=siting_cfg.get("coverage_threshold", plan.default_threshold()),
            )
        except ValueError as exc:
            raise DataError(f"invalid criticality matrix settings: {exc}") from exc
        base_seed = int(seed_override if seed_override is not None
                        else siting_cfg.get("base_seed", 0))
        try:
            solution = run_multistart(
                matrix, catalog, plan, params,
                n_runs=int(siting_cfg.get("n_runs", 30)),
                base_seed=base_seed,
                threads=threads,
            )
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        fileio.save_criticality(out_dir / "criticality.bin", matrix)

    deploy = density * area * utilization
    residual = residual_demand(total_demand, catalog, solution.selected, deploy)
    stats = {"deploy_MW_per_site": deploy, **residual_summary(residual), **stamp}
    (out_dir / "residual_stats.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_plot_csvs(out_dir, residual, config.config_hash)
    fileio.write_solution_json(out_dir / "siting_solution.json", solution, extra=stamp)
    fileio.write_solution_geojson(out_dir / "siting_solution.geojson", solution, catalog, extra=stamp)
    return catalog, plan, solution, matrix


def _write_plot_csvs(out_dir: Path, residual: TimeSeries, config_hash: str) -> None:
    """Plot-ready data: the residual series plus its block spreads in long
    format (one row per disjoint block)."""
    from windplan.siting import block_spread

    fileio.write_series_csv(out_dir / "residual_series.csv", {"residual_MW": residual},
                            comments=[f"config_hash={config_hash}"])
    rows = [f"# config_hash={config_hash}", "block_hours,block_index,spread_MW"]
    for hours in (12.0, 24.0):
        for idx, spread in enumerate(block_spread(residual, hours)):
            rows.append(f"{hours!r},{idx},{spread!r}")
    (out_dir / "residual_spreads.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Stage two
# ---------------------------------------------------------------------------

_HYDRO_TECHS = [
    Technology(id="ror_hydro", kind="res", variable_om=0.0119,
               capacity_credit="computed"),
    Technology(id="reservoir_hydro", kind="storage", charge_ratio=0.0,
               eta_discharge=0.9, variable_om=0.0152),
    Technology(id="pumped_hydro", kind="storage", eta_charge=0.9, eta_discharge=0.9,
               variable_om=0.0002),
]


def _hydro_components(config: PipelineConfig, bus_ids, weight_hours: float):
    """Hydro fleet placements from runoff and country-parameter files.

    Run-of-river enters as a fixed-capacity renewable with the clipped
    runoff profile; reservoirs become fixed storage fed by calibrated
    energy inflows (the calibration target is the yearly hydro energy
    prorated to the horizon length); pumped storage is fixed with its
    energy capacity resolved through the duration precedence.
    """
    runoff_path = config.resolve("runoff", required=False)
    hydro_path = config.resolve("hydro_params", required=False)
    if runoff_path is None or hydro_path is None:
        return [], []
    resolution = float(config.raw.get("resolution_hours", 1.0))
    factor = int(config.raw.get("resample_factor", 1))
    params = fileio.read_hydro_params_csv(hydro_path)
    grid = fileio.read_runoff_manifest(runoff_path, resolution)
    if factor > 1:
        # runoff is a depth per period: aggregated blocks accumulate it
        means = _resampled(dict(enumerate(cell.runoff_m for cell in grid.cells)), factor)
        grid = RunoffGrid(tuple(
            RunoffCell(cell.cell_id, cell.country, cell.area_km2,
                       means[i].with_values(means[i].values * factor))
            for i, cell in enumerate(grid.cells)
        ))
    countries = [c for c in grid.countries() if c in set(bus_ids)]
    ror = ror_capacity_factors(grid, {c: params[c] for c in countries if c in params})
    placements = []
    horizon_hours = len(grid.cells[0].runoff_m) * weight_hours
    for country in countries:
        if country not in params:
            raise DataError(f"hydro parameters missing for bus {country!r}")
        p = params[country]
        if p.ror_capacity_MW > 0:
            placements.append(Placement(
                bus=country, tech="ror_hydro",
                legacy_MW=p.ror_capacity_MW, potential_MW=p.ror_capacity_MW,
                availability=ror[country].capacity_factors,
            ))
        if p.sto_capacity_MW > 0:
            base = unit_head_inflow(grid, country, p.avg_head_m)
            fm = p.flow_multiplier
            if fm is None:
                ror_energy = ror[country].capacity_factors.with_values(
                    ror[country].capacity_factors.values * p.ror_capacity_MW * weight_hours
                )
                target = p.yearly_hydro_MWh * horizon_hours / 8760.0
                fm = calibrate_flow_multiplier(target, ror_energy, base)
            inflow = base.with_values(base.values * fm)
            placements.append(Placement(
                bus=country, tech="reservoir_hydro",
                legacy_MW=p.sto_capacity_MW, potential_MW=p.sto_capacity_MW,
                legacy_energy_MWh=p.sto_energy_MWh, potential_energy_MWh=p.sto_energy_MWh,
                inflow=inflow,
            ))
        if p.phs_power_MW > 0:
            energy = phs_storage(p.phs_power_MW, p.phs_energy_MWh, p.phs_duration_h)
            placements.append(Placement(
                bus=country, tech="pumped_hydro",
                legacy_MW=p.phs_power_MW, potential_MW=p.phs_power_MW,
                legacy_energy_MWh=energy, potential_energy_MWh=energy,
            ))
    return (list(_HYDRO_TECHS), placements) if placements else ([], [])


def _build_instance(config: PipelineConfig, catalog, selected_ids) -> CepInstance:
    cep_cfg = config.cep
    resolution = float(config.raw.get("resolution_hours", 1.0))
    factor = int(config.raw.get("resample_factor", 1))
    demand = fileio.read_series_csv(config.resolve("demand"), resolution)
    if factor > 1:
        demand = _resampled(demand, factor)
    reserve = float(cep_cfg.get("reserve_margin", 0.2))
    buses = tuple(Bus(id=bid, demand=series, reserve_margin=reserve)
                  for bid, series in demand.items())
    bus_ids = [b.id for b in buses]

    offshore_doc = {**_DEFAULT_OFFSHORE, **cep_cfg.get("sited_technology", {})}
    share = float(cep_cfg.get("offshore_connection_share", 0.2))
    if offshore_doc.get("capex") is not None:
        offshore_doc["capex"] = with_connection_cost(offshore_doc["capex"], share)
    tech_docs = [offshore_doc] + list(cep_cfg.get("technologies", _DEFAULT_TECHNOLOGIES))
    technologies = [technology_from_dict(doc) for doc in tech_docs]
    hydro_techs, hydro_placements = _hydro_components(
        config, list(demand), float(cep_cfg.get("weight_hours", resolution * factor))
    )
    technologies.extend(hydro_techs)
    technologies = tuple(technologies)

    placement_docs = cep_cfg.get("placements")
    placements = list(hydro_placements)
    hydro_ids = {tech.id for tech in hydro_techs}
    if placement_docs is None:
        for tech in technologies:
            if tech.id == offshore_doc["id"] or tech.id in hydro_ids:
                continue
            for bid in bus_ids:
                placements.append(Placement(bus=bid, tech=tech.id))
    else:
        for doc in placement_docs:
            placements.append(Placement(
                bus=doc["bus"], tech=doc["tech"],
                legacy_MW=float(doc.get("legacy_MW", 0.0)),
                potential_MW=doc.get("potential_MW"),
                legacy_energy_MWh=float(doc.get("legacy_energy_MWh", 0.0)),
                potential_energy_MWh=doc.get("potential_energy_MWh"),
            ))

    line_docs = cep_cfg.get("lines")
    lines = []
    if line_docs is None:
        for a, b in zip(bus_ids, bus_ids[1:]):
            lines.append(Line(
                id=f"{a}-{b}", from_bus=a, to_bus=b, legacy_MW=500.0,
                capex=1.76, lifetime_years=40.0, fixed_om=0.021, kind="DC",
            ))
    else:
        for doc in line_docs:
            lines.append(Line(
                id=doc["id"], from_bus=doc["from_bus"], to_bus=doc["to_bus"],
                legacy_MW=float(doc.get("legacy_MW", 0.0)),
                potential_MW=doc.get("potential_MW"),
                capex=doc.get("capex"), lifetime_years=doc.get("lifetime_years"),
                annuity=doc.get("annuity"),
                fixed_om=float(doc.get("fixed_om", 0.0)),
                variable_om=float(doc.get("variable_om", 0.0)),
                kind=doc.get("kind", "AC"),
                length_km=doc.get("length_km"),
                efficiency_per_1000km=float(doc.get("efficiency_per_1000km", 1.0)),
            ))

    sited = tuple(
        SitedAsset(
            id=site.id, bus=site.partition_id, legacy_MW=site.legacy_capacity_MW,
            potential_MW=site.technical_potential_MW, cf=site.capacity_factors,
        )
        for site in catalog.sites if site.id in selected_ids
    )
    budget = cep_cfg.get("co2_budget")
    if budget is None and cep_cfg.get("co2_budget_fraction") is not None:
        baseline = cep_cfg.get("co2_baseline_emissions")
        if baseline is None:
            raise DataError("co2_budget_fraction given without co2_baseline_emissions")
        budget = float(cep_cfg["co2_budget_fraction"]) * float(baseline)
    default_firm = ["gas_turbine"] + (["reservoir_hydro"] if hydro_placements else [])
    return CepInstance(
        buses=buses,
        technologies=technologies,
        placements=tuple(placements),
        lines=tuple(lines),
        sited=sited,
        sited_technology=offshore_doc["id"],
        co2_budget=budget,
        shed_penalty=float(cep_cfg.get("shed_penalty", 500.0)),
        weight_hours=float(cep_cfg.get("weight_hours", resolution * factor)),
        firm_technologies=frozenset(cep_cfg.get("firm_technologies", default_firm)),
        discount_rate=float(cep_cfg.get("discount_rate", 0.07)),
        storage_cyclic=bool(cep_cfg.get("storage_cyclic", True)),
        apply_line_losses=bool(cep_cfg.get("apply_line_losses", False)),
    )


def _export_cep(config: PipelineConfig, out_dir: Path, catalog, selected_ids) -> Path:
    """Build the sizing problem for a selection and write it as ``cep.mps``."""
    lp, _ = build_lp(_build_instance(config, catalog, selected_ids))
    return mps_io.export_mps(lp, out_dir / "cep.mps",
                             comments=[f"config_hash={config.config_hash}"])


def run_cep(config: PipelineConfig, out_dir: Path, catalog, selected_ids):
    """Build and solve (or export) the sizing problem for a selection."""
    if config.cep.get("solver", "embedded") == "mps-export":
        _export_cep(config, out_dir, catalog, selected_ids)
        return None
    instance = _build_instance(config, catalog, selected_ids)
    lp, index = build_lp(instance)
    stamp = {"config_hash": config.config_hash, "tool_version": __version__}
    solution = solve(lp, iteration_limit=int(config.cep.get("iteration_limit", 200000)))
    if solution.status != "optimal":
        raise SolverFailure(solution.status)
    try:
        decoded = decode_solution(solution, index, instance)
    except CostCheckError as exc:
        raise SolverFailure("cost_mismatch", str(exc)) from exc
    fileio.write_cep_report_csv(out_dir / "cep_report.csv", decoded, instance,
                                comments=[f"config_hash={config.config_hash}"])
    doc = {
        "objective": decoded.objective,
        "emissions_t": decoded.emissions_t,
        "shed_MWh": decoded.shed_MWh,
        "site_capacity_total": {k: v for k, v in sorted(decoded.site_capacity_total.items())},
        "tech_capacity_total": {f"{b}|{t}": v for (b, t), v in sorted(decoded.tech_capacity_total.items())},
        "storage_energy_total": {f"{b}|{t}": v for (b, t), v in sorted(decoded.storage_energy_total.items())},
        "line_capacity_total": {k: v for k, v in sorted(decoded.line_capacity_total.items())},
        "cost_breakdown": decoded.cost_breakdown,
        **stamp,
    }
    (out_dir / "cep_solution.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return decoded


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _out_dir(config: PipelineConfig, override: str | None) -> Path:
    if override:
        out = Path(override)
    else:
        value = config.paths.get("output_dir")
        if value is None:
            raise DataError("config paths.output_dir is required (or pass --out)")
        out = (config.path.parent / value).resolve()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_selected(path: Path) -> frozenset[str]:
    if not path.exists():
        raise DataError(f"siting output {path} not found; run the site stage first")
    doc = json.loads(path.read_text(encoding="utf-8"))
    return frozenset(doc["site_ids"])


def build_arg_parser() -> _Parser:
    parser = _Parser(prog="windplan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"windplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--sites", type=int, default=8)
    p_synth.add_argument("--partitions", type=int, default=2)
    p_synth.add_argument("--periods", type=int, default=336)

    for name in ("site", "cep", "pipeline"):
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("config")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
    p_exp = sub.add_parser("export-mps", help="export a model as MPS")
    p_exp.add_argument("config")
    p_exp.add_argument("--target", choices=("cep", "comp-mir"), default="cep")
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--threads", type=int, default=1)
    p_exp.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            gen_synthetic(args.out, args.seed, n_sites=args.sites,
                          n_partitions=args.partitions, n_periods=args.periods)
            return EXIT_OK
        config = load_config(args.config)
        out_dir = _out_dir(config, args.out)
        if args.command == "site":
            run_siting(config, out_dir, threads=args.threads, seed_override=args.seed)
            return EXIT_OK
        if args.command == "cep":
            catalog, _ = _load_stage_inputs(config)
            selected = _read_selected(out_dir / "siting_solution.json")
            run_cep(config, out_dir, catalog, selected)
            return EXIT_OK
        if args.command == "pipeline":
            catalog, _, solution, _ = run_siting(
                config, out_dir, threads=args.threads, seed_override=args.seed
            )
            run_cep(config, out_dir, catalog, solution.selected)
            return EXIT_OK
        if args.command == "export-mps":
            catalog, plan, solution, matrix = run_siting(
                config, out_dir, threads=args.threads, seed_override=args.seed
            )
            if args.target == "comp-mir":
                if matrix is None:
                    raise DataError("comp-mir export requires siting.scheme == 'comp'")
                from windplan.siting import build_comp_mir

                mir = build_comp_mir(matrix, catalog, plan)
                mps_io.export_mps(mir, out_dir / "comp_mir.mps",
                                  comments=[f"config_hash={config.config_hash}"])
            else:
                _export_cep(config, out_dir, catalog, solution.selected)
            return EXIT_OK
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        _emit_error("usage", str(exc), EXIT_USAGE)
        return EXIT_USAGE
    except DataError as exc:
        _emit_error("data", str(exc), EXIT_DATA)
        return EXIT_DATA
    except SolverFailure as exc:
        _emit_error("solver", str(exc), EXIT_SOLVER, status=exc.status)
        return EXIT_SOLVER


def _emit_error(kind: str, message: str, code: int, **extra) -> None:
    doc = {"error": kind, "message": message, "exit_code": code, **extra}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
