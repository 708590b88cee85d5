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
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import windplan.fileio as fileio
import windplan.mps as mps_io
from windplan import __version__
from windplan.cep import (
    Bus, CepInstance, CostCheckError, Placement, SitedAsset, Technology, build_lp,
    decode_solution,
)
from windplan.config import DEFAULT_FIRM, PipelineConfig, load_config
from windplan.hydro import (
    RunoffGrid, calibrate_flow_multiplier, phs_storage, ror_capacity_factors, unit_head_inflow,
)
from windplan.lp import solve
from windplan.resource import build_criticality_matrix, capacity_factors_from_speeds
from windplan.siting import (
    block_spread, build_comp_mir, build_plan, residual_demand, residual_summary,
    run_multistart, solve_prod,
)
from windplan.synth import gen_synthetic
from windplan.timeseries import TimeSeries, resample_mean

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_SOLVER = 0, 1, 2, 3


class UsageError(Exception):
    pass


class DataError(ValueError):
    """A data or feasibility problem; every ValueError reaching main exits 2."""


class SolverFailure(Exception):
    def __init__(self, status: str, message: str | None = None):
        super().__init__(message or f"solver did not reach optimality: {status}")
        self.status = status


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def integer(text: str) -> int:   # argparse reports "invalid integer value" on a ValueError
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)
    return integer


# ---------------------------------------------------------------------------
# Stage one
# ---------------------------------------------------------------------------

def _stamp(config: PipelineConfig) -> dict:
    """The provenance every JSON output carries."""
    return {"config_hash": config.config_hash, "tool_version": __version__}


def _comments(config: PipelineConfig) -> list[str]:
    """The provenance every CSV and MPS output carries."""
    return [f"config_hash={config.config_hash}"]


def _resampled(series: dict, factor: int) -> dict:
    try:
        return {k: resample_mean(v, factor) for k, v in series.items()}
    except ValueError as exc:
        raise DataError(f"cannot apply resample_factor {factor}: {exc}") from exc


def _load_stage_inputs(config: PipelineConfig):
    """The site catalog and the per-bus demand, both resampled."""
    factor = config.resample_factor
    speeds = fileio.read_series_csv(config.resolve("wind_speeds"), config.resolution_hours)
    demand = fileio.read_series_csv(config.resolve("demand"), config.resolution_hours)
    if factor > 1:
        speeds = _resampled(speeds, factor)
        demand = _resampled(demand, factor)
    curves_dir = config.resolve("curves_dir", required=False)
    curves = fileio.load_curves_dir(curves_dir) if curves_dir else fileio.load_default_curves()
    cf = capacity_factors_from_speeds(speeds, curves,
                                      smoothing_factor=config.siting.smoothing_factor)
    catalog = fileio.load_catalog(config.resolve("catalog"), cf,
                                  legacy_threshold_MW=config.siting.legacy_threshold_MW)
    return catalog, demand


def _system_demand(demand: dict[str, TimeSeries]) -> TimeSeries:
    first = next(iter(demand.values()))
    return first.with_values(sum(series.values for series in demand.values()))


def run_siting(config: PipelineConfig, out_dir: Path, catalog, demand, threads: int = 1,
               seed_override: int | None = None):
    """Execute stage one and persist its artifacts into ``out_dir``."""
    siting = config.siting
    if not siting.targets_MW:
        raise DataError("siting.targets_MW must map partitions to MW targets")
    try:
        plan = build_plan(
            catalog, siting.targets_MW, siting.power_density_MW_km2, siting.site_area_km2,
            siting.utilization, partitioned=siting.partitioned,
        )
    except ValueError as exc:
        raise DataError(f"infeasible deployment plan: {exc}") from exc
    total_demand = _system_demand(demand)
    stamp = _stamp(config)

    matrix = None
    if siting.scheme == "prod":
        solution = solve_prod(catalog, plan)
    else:
        threshold = siting.coverage_threshold
        try:
            matrix = build_criticality_matrix(
                catalog, total_demand, varsigma=siting.varsigma, k=plan.k, delta=siting.delta,
                c=plan.default_threshold() if threshold is None else threshold,
            )
        except ValueError as exc:
            raise DataError(f"invalid criticality matrix settings: {exc}") from exc
        solution = run_multistart(
            matrix, catalog, plan, siting.anneal, n_runs=siting.n_runs,
            base_seed=siting.base_seed if seed_override is None else seed_override,
            threads=threads,
        )
        fileio.save_criticality(out_dir / "criticality.bin", matrix)

    deploy = siting.power_density_MW_km2 * siting.site_area_km2 * siting.utilization
    residual = residual_demand(total_demand, catalog, solution.selected, deploy)
    fileio.write_json(out_dir / "residual_stats.json",
                      {"deploy_MW_per_site": deploy, **residual_summary(residual), **stamp})
    comments = _comments(config)
    fileio.write_series_csv(out_dir / "residual_series.csv", {"residual_MW": residual}, comments)
    fileio.write_table(out_dir / "residual_spreads.csv", ("block_hours", "block_index", "spread_MW"),
                       [(hours, str(idx), spread) for hours in (12.0, 24.0)
                        for idx, spread in enumerate(block_spread(residual, hours))], comments)
    fileio.write_solution_json(out_dir / "siting_solution.json", solution, extra=stamp)
    fileio.write_solution_geojson(out_dir / "siting_solution.geojson", solution, catalog, extra=stamp)
    return plan, solution, matrix


# ---------------------------------------------------------------------------
# Stage two
# ---------------------------------------------------------------------------

_HYDRO_TECHS = (
    Technology(id="ror_hydro", kind="res", variable_om=0.0119, capacity_credit="computed"),
    Technology(id="reservoir_hydro", kind="storage", charge_ratio=0.0,
               eta_discharge=0.9, variable_om=0.0152),
    Technology(id="pumped_hydro", kind="storage", eta_charge=0.9, eta_discharge=0.9,
               variable_om=0.0002),
)


def _hydro_components(config: PipelineConfig, bus_ids):
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
        return (), []
    factor = config.resample_factor
    weight_hours = config.cep.weight_hours
    params = fileio.read_hydro_params_csv(hydro_path)
    grid = fileio.read_runoff_manifest(runoff_path, config.resolution_hours)
    # Runoff cells of countries without a bus feed nothing and are dropped.
    cells = tuple(cell for cell in grid.cells if cell.country in bus_ids)
    if not cells:
        return (), []
    grid = RunoffGrid(cells)
    countries = grid.countries()
    for country in countries:
        if country not in params:
            raise DataError(f"hydro parameters missing for bus {country!r}")
    if factor > 1:
        # runoff is a depth per period: aggregated blocks accumulate it
        means = _resampled(dict(enumerate(cell.runoff_m for cell in grid.cells)), factor)
        grid = RunoffGrid(tuple(
            replace(cell, runoff_m=means[i].with_values(means[i].values * factor))
            for i, cell in enumerate(grid.cells)))
    ror = ror_capacity_factors(grid, params)
    placements = []
    horizon_hours = len(grid.cells[0].runoff_m) * weight_hours
    for country in countries:
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
                cf = ror[country].capacity_factors
                ror_energy = cf.with_values(cf.values * p.ror_capacity_MW * weight_hours)
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
    return (_HYDRO_TECHS, placements) if placements else ((), [])


def _build_instance(config: PipelineConfig, catalog, demand, selected_ids) -> CepInstance:
    cep = config.cep
    bus_ids = list(demand)
    hydro_techs, hydro_placements = _hydro_components(config, bus_ids)
    firm = cep.firm_technologies
    if firm is None:
        firm = DEFAULT_FIRM | ({"reservoir_hydro"} if hydro_placements else set())
    sited = tuple(
        SitedAsset(
            id=site.id, bus=site.partition_id, legacy_MW=site.legacy_capacity_MW,
            potential_MW=site.technical_potential_MW, cf=site.capacity_factors,
        )
        for site in catalog.sites if site.id in selected_ids
    )
    return CepInstance(
        buses=tuple(Bus(id=bid, demand=series, reserve_margin=cep.reserve_margin)
                    for bid, series in demand.items()),
        technologies=(cep.sited_technology, *cep.technologies, *hydro_techs),
        placements=(*hydro_placements, *cep.placements_for(bus_ids)),
        lines=cep.lines_for(bus_ids),
        sited=sited,
        sited_technology=cep.sited_technology.id,
        co2_budget=cep.co2_budget,
        shed_penalty=cep.shed_penalty,
        weight_hours=cep.weight_hours,
        firm_technologies=firm,
        discount_rate=cep.discount_rate,
        storage_cyclic=cep.storage_cyclic,
        apply_line_losses=cep.apply_line_losses,
    )


def _export_cep(config: PipelineConfig, out_dir: Path, catalog, demand, selected_ids) -> Path:
    """Build the sizing problem for a selection and write it as ``cep.mps``."""
    lp, _ = build_lp(_build_instance(config, catalog, demand, selected_ids))
    return mps_io.export_mps(lp, out_dir / "cep.mps", comments=_comments(config))


def run_cep(config: PipelineConfig, out_dir: Path, catalog, demand, selected_ids):
    """Build and solve (or export) the sizing problem for a selection."""
    if config.cep.solver == "mps-export":
        _export_cep(config, out_dir, catalog, demand, selected_ids)
        return None
    instance = _build_instance(config, catalog, demand, selected_ids)
    lp, index = build_lp(instance)
    solution = solve(lp, iteration_limit=config.cep.iteration_limit)
    if solution.status != "optimal":
        raise SolverFailure(solution.status)
    try:
        decoded = decode_solution(solution, index, instance)
    except CostCheckError as exc:
        raise SolverFailure("cost_mismatch", str(exc)) from exc
    fileio.write_cep_report_csv(out_dir / "cep_report.csv", decoded, instance, _comments(config))
    fileio.write_cep_solution_json(out_dir / "cep_solution.json", decoded, extra=_stamp(config))
    return decoded


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _out_dir(config: PipelineConfig, override: str | None) -> Path:
    out = Path(override) if override else config.output_dir
    if out is None:
        raise DataError("config paths.output_dir is required (or pass --out)")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _read_selected(path: Path, catalog) -> frozenset[str]:
    """The site ids of a siting output, each of which the catalog must hold."""
    if not path.exists():
        raise DataError(f"siting output {path} not found; run the site stage first")
    try:
        doc = json.loads(fileio._read(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or "site_ids" not in doc:
        raise DataError(f"siting output {path} has no site_ids")
    selected = frozenset(fileio.list_of(fileio.string)(doc["site_ids"], f"{path.name} site_ids"))
    unknown = selected - {site.id for site in catalog.sites}
    if unknown:
        raise DataError(f"siting output {path} names sites not in the catalog: {sorted(unknown)}")
    return selected


@functools.cache
def build_arg_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after it:
    parsing leaves it unchanged, and building it costs about a millisecond,
    a few per cent of a small pipeline run."""
    parser = _Parser(prog="windplan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"windplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=_at_least(0), default=42)
    p_synth.add_argument("--sites", type=_at_least(1), default=8)
    p_synth.add_argument("--partitions", type=_at_least(1), default=2)
    p_synth.add_argument("--periods", type=_at_least(1), default=336)

    for name in ("site", "cep", "pipeline", "export-mps"):
        p = sub.add_parser(name, help="export a model as MPS" if name == "export-mps"
                           else f"run the {name} stage")
        p.add_argument("config")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=_at_least(0), default=None)
        p.add_argument("--threads", type=_at_least(1), default=1)
    sub.choices["export-mps"].add_argument("--target", choices=("cep", "comp-mir"),
                                           default="cep")
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
        catalog, demand = _load_stage_inputs(config)
        if args.command == "cep":
            run_cep(config, out_dir, catalog, demand,
                    _read_selected(out_dir / "siting_solution.json", catalog))
            return EXIT_OK
        plan, solution, matrix = run_siting(
            config, out_dir, catalog, demand, threads=args.threads, seed_override=args.seed
        )
        if args.command == "pipeline":
            run_cep(config, out_dir, catalog, demand, solution.selected)
        elif args.command == "export-mps":
            if args.target == "comp-mir":
                if matrix is None:
                    raise DataError("comp-mir export requires siting.scheme == 'comp'")
                mir = build_comp_mir(matrix, catalog, plan)
                mps_io.export_mps(mir, out_dir / "comp_mir.mps", comments=_comments(config))
            else:
                _export_cep(config, out_dir, catalog, demand, solution.selected)
        return EXIT_OK
    except UsageError as exc:
        return _emit_error("usage", str(exc), EXIT_USAGE)
    except ValueError as exc:
        return _emit_error("data", str(exc), EXIT_DATA)
    except SolverFailure as exc:
        return _emit_error("solver", str(exc), EXIT_SOLVER, status=exc.status)
    except OSError as exc:   # an output that cannot be written; readers raise ValueError
        return _emit_error("data", f"cannot write output: {exc}", EXIT_DATA)


def _emit_error(kind: str, message: str, code: int, **extra) -> int:
    doc = {"error": kind, "message": message, "exit_code": code, **extra}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
