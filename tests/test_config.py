"""The run configuration: every key through the CLI, pinned against an
instance assembled from library constructors."""

import contextlib
import copy
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windplan import fileio
from windplan.cep import (
    Bus, CepInstance, Line, Placement, SitedAsset, Technology, build_lp, with_connection_cost,
)
from windplan.cli import load_config, main
from windplan.hydro import (
    RunoffCell, RunoffGrid, calibrate_flow_multiplier, phs_storage, ror_capacity_factors,
    unit_head_inflow,
)
from windplan.mps import export_mps
from windplan.resource import (
    DEFAULT_LEGACY_THRESHOLD_MW, DEFAULT_SMOOTHING_FACTOR, capacity_factors_from_speeds,
)
from windplan.siting import (
    DEFAULT_POWER_DENSITY_MW_KM2, DEFAULT_SITE_AREA_KM2, DEFAULT_UTILIZATION, AnnealParams,
)
from windplan.synth import gen_synthetic
from windplan.timeseries import resample_mean

# ---------------------------------------------------------------------------
# Every key set away from its default
# ---------------------------------------------------------------------------

GAS = {"id": "gas", "kind": "dispatchable", "capex": 700.0, "lifetime_years": 25.0,
       "fixed_om": 4.0, "variable_om": 0.01, "fuel_cost": 0.03, "efficiency": 0.45,
       "co2_per_mwh_th": 0.2, "ramp_up": 0.6, "ramp_down": 0.5, "must_run": 0.05,
       "capacity_credit": 0.9}
BATTERY = {"id": "battery", "kind": "storage", "capex": 120.0, "energy_capex": 80.0,
           "lifetime_years": 12.0, "fixed_om": 0.6, "variable_om": 0.002,
           "eta_charge": 0.95, "eta_discharge": 0.92, "eta_self": 0.99, "min_soc": 0.1,
           "charge_ratio": 0.8}
PLACEMENTS = [
    {"bus": "P1", "tech": "gas", "legacy_MW": 200.0, "potential_MW": 3000.0},
    {"bus": "P2", "tech": "gas"},
    {"bus": "P2", "tech": "battery", "legacy_MW": 20.0, "potential_MW": 900.0,
     "legacy_energy_MWh": 40.0, "potential_energy_MWh": 4000.0},
]
LINES = [
    {"id": "north", "from_bus": "P1", "to_bus": "P2", "legacy_MW": 300.0,
     "potential_MW": 2500.0, "capex": 2.0, "lifetime_years": 35.0, "fixed_om": 0.03,
     "variable_om": 0.001, "kind": "AC", "length_km": 400.0, "efficiency_per_1000km": 0.9},
]
SITED = {"capex": 2100.0, "fixed_om": 52.0}

FULL_CONFIG = {
    "paths": {
        "catalog": "data/sites.csv",
        "wind_speeds": "data/wind_speeds.csv",
        "demand": "data/demand.csv",
        "runoff": "data/runoff.csv",
        "hydro_params": "data/hydro_params.csv",
        "curves_dir": "data/curves",
        "output_dir": "out",
    },
    "resolution_hours": 0.5,
    "resample_factor": 3,
    "siting": {
        "scheme": "comp",
        "partitioned": False,
        "varsigma": 0.25,
        "delta": 2,
        "coverage_threshold": 2,
        "targets_MW": {"P1": 1500.0, "P2": 2500.0},
        "anneal": {"iterations": 12, "neighbors": 6, "radius": 2, "t0": 50.0,
                   "decay": 5.0, "return_mode": "final_incumbent"},
        "n_runs": 2,
        "base_seed": 5,
        "smoothing_factor": 0.1,
        "legacy_threshold_MW": 160.0,
        "power_density_MW_km2": 5.0,
        "site_area_km2": 400.0,
        "utilization": 0.6,
    },
    "cep": {
        "solver": "mps-export",
        "reserve_margin": 0.15,
        "shed_penalty": 800.0,
        "iteration_limit": 50000,
        "technologies": [GAS, BATTERY],
        "placements": PLACEMENTS,
        "lines": LINES,
        "sited_technology": SITED,
        "offshore_connection_share": 0.25,
        "weight_hours": 2.0,
        "co2_budget_fraction": 0.5,
        "co2_baseline_emissions": 40000.0,
        "firm_technologies": ["gas", "reservoir_hydro"],
        "discount_rate": 0.05,
        "storage_cyclic": False,
        "apply_line_losses": True,
    },
}

# Recorded from the CLI before the config was parsed into typed sections.
PINNED_SITING = {
    "config_hash": "7ce323e9ba87d7755faa56d94db0dd4e71a3d0e5f809e08e092c93e3da59eead",
    "objective": 30.0,
    "per_partition_counts": {"__all__": 5},
    "scheme": "comp",
    "seed": 5,
    "site_ids": ["s01", "s02", "s03", "s04", "s06"],
    "tool_version": "0.1.0",
}


@pytest.fixture()
def full_run(tmp_path):
    data = tmp_path / "data"
    gen_synthetic(data, seed=11, n_sites=6, n_partitions=2, n_periods=96)
    (data / "curves").mkdir()
    for name, curve in fileio.load_default_curves().items():
        fileio.write_power_curve_csv(data / "curves" / f"{name}.csv", curve)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FULL_CONFIG, indent=1), encoding="utf-8")
    assert main(["pipeline", str(config)]) == 0
    return data, tmp_path / "out"


def _resampled(series):
    return {key: resample_mean(value, 3) for key, value in series.items()}


def _library_instance(data: Path, selected) -> CepInstance:
    """The sizing problem of ``FULL_CONFIG``, built without the CLI."""
    speeds = _resampled(fileio.read_series_csv(data / "wind_speeds.csv", 0.5))
    demand = _resampled(fileio.read_series_csv(data / "demand.csv", 0.5))
    cf = capacity_factors_from_speeds(speeds, fileio.load_curves_dir(data / "curves"),
                                      smoothing_factor=0.1)
    catalog = fileio.load_catalog(data / "sites.csv", cf, legacy_threshold_MW=160.0)

    params = fileio.read_hydro_params_csv(data / "hydro_params.csv")
    grid = fileio.read_runoff_manifest(data / "runoff.csv", 0.5)
    grid = RunoffGrid(tuple(
        RunoffCell(c.cell_id, c.country, c.area_km2,
                   c.runoff_m.with_values(resample_mean(c.runoff_m, 3).values * 3))
        for c in grid.cells))
    ror = ror_capacity_factors(grid, params)
    hydro = []
    for bus, p in params.items():
        hydro.append(Placement(bus=bus, tech="ror_hydro", legacy_MW=p.ror_capacity_MW,
                               potential_MW=p.ror_capacity_MW,
                               availability=ror[bus].capacity_factors))
        base = unit_head_inflow(grid, bus, p.avg_head_m)
        ror_energy = ror[bus].capacity_factors.with_values(
            ror[bus].capacity_factors.values * p.ror_capacity_MW * 2.0)
        fm = calibrate_flow_multiplier(p.yearly_hydro_MWh * 32 * 2.0 / 8760.0, ror_energy, base)
        hydro.append(Placement(bus=bus, tech="reservoir_hydro", legacy_MW=p.sto_capacity_MW,
                               potential_MW=p.sto_capacity_MW,
                               legacy_energy_MWh=p.sto_energy_MWh,
                               potential_energy_MWh=p.sto_energy_MWh,
                               inflow=base.with_values(base.values * fm)))
        energy = phs_storage(p.phs_power_MW, p.phs_energy_MWh, p.phs_duration_h)
        hydro.append(Placement(bus=bus, tech="pumped_hydro", legacy_MW=p.phs_power_MW,
                               potential_MW=p.phs_power_MW, legacy_energy_MWh=energy,
                               potential_energy_MWh=energy))

    offshore = Technology(id="offshore_wind", kind="res",
                          capex=with_connection_cost(2100.0, 0.25), lifetime_years=25.0,
                          fixed_om=52.0, variable_om=0.0, capacity_credit="computed")
    hydro_techs = (
        Technology(id="ror_hydro", kind="res", variable_om=0.0119, capacity_credit="computed"),
        Technology(id="reservoir_hydro", kind="storage", charge_ratio=0.0, eta_discharge=0.9,
                   variable_om=0.0152),
        Technology(id="pumped_hydro", kind="storage", eta_charge=0.9, eta_discharge=0.9,
                   variable_om=0.0002),
    )
    return CepInstance(
        buses=tuple(Bus(id=b, demand=s, reserve_margin=0.15) for b, s in demand.items()),
        technologies=(offshore, Technology(**GAS), Technology(**BATTERY)) + hydro_techs,
        placements=tuple(hydro) + tuple(Placement(**doc) for doc in PLACEMENTS),
        lines=tuple(Line(**doc) for doc in LINES),
        sited=tuple(SitedAsset(id=s.id, bus=s.partition_id, legacy_MW=s.legacy_capacity_MW,
                               potential_MW=s.technical_potential_MW, cf=s.capacity_factors)
                    for s in catalog.sites if s.id in selected),
        sited_technology="offshore_wind",
        co2_budget=0.5 * 40000.0,
        shed_penalty=800.0,
        weight_hours=2.0,
        firm_technologies=frozenset({"gas", "reservoir_hydro"}),
        discount_rate=0.05,
        storage_cyclic=False,
        apply_line_losses=True,
    )


def test_every_config_key_pinned(full_run, tmp_path):
    data, out = full_run
    siting = json.loads((out / "siting_solution.json").read_text())
    assert siting == PINNED_SITING
    lp, _ = build_lp(_library_instance(data, set(siting["site_ids"])))
    expected = export_mps(lp, tmp_path / "expected.mps",
                          comments=[f"config_hash={siting['config_hash']}"])
    assert (out / "cep.mps").read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------------------
# load_config
# ---------------------------------------------------------------------------

def _load(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_config(path)


def test_defaults_come_from_the_library(tmp_path):
    config = _load(tmp_path, {"paths": {"demand": "d.csv"}, "resample_factor": 3})
    assert config.siting.anneal == AnnealParams()
    assert config.siting.smoothing_factor == DEFAULT_SMOOTHING_FACTOR
    assert config.siting.legacy_threshold_MW == DEFAULT_LEGACY_THRESHOLD_MW
    assert (config.siting.power_density_MW_km2, config.siting.site_area_km2,
            config.siting.utilization) == (DEFAULT_POWER_DENSITY_MW_KM2, DEFAULT_SITE_AREA_KM2,
                                           DEFAULT_UTILIZATION)
    assert config.cep.weight_hours == 3.0
    assert config.cep.co2_budget is None
    assert config.cep.sited_technology.capex == with_connection_cost(1881.08)
    assert config.paths == {"demand": (tmp_path / "d.csv").resolve()}
    assert config.output_dir is None


@pytest.mark.parametrize("value", [
    "data/f.csv", "./data//f.csv", "data/g.csv", "linked/x.csv", "linked/../data/f.csv",
    "missing/x.csv", "data/f.csv/x", "..", "", "linked", "ABSOLUTE/linked/y",
])
def test_paths_resolve_as_path_resolve_does(tmp_path, value):
    """A configured path is ``(config dir / value).resolve()``: with links
    inside the value, ``..`` after a link, missing components, an absolute
    value, and the config read through a linked directory."""
    real = tmp_path / "real"
    (real / "data").mkdir(parents=True)
    (real / "data" / "f.csv").write_text("", encoding="utf-8")
    (real / "elsewhere").mkdir()
    (real / "linked").symlink_to(real / "elsewhere")
    (real / "data" / "g.csv").symlink_to(real / "data" / "f.csv")
    (tmp_path / "via").symlink_to(real)
    value = value.replace("ABSOLUTE", str(tmp_path / "via"))
    path = tmp_path / "via" / "config.json"
    path.write_text(json.dumps({"paths": {"demand": value}}), encoding="utf-8")
    assert load_config(path).paths["demand"] == (tmp_path / "via" / value).resolve()


def test_cep_records_and_resolved_values(tmp_path):
    config = _load(tmp_path, {"paths": {}, **{k: FULL_CONFIG[k] for k in ("siting", "cep")}})
    cep = config.cep
    assert cep.technologies == (Technology(**GAS), Technology(**BATTERY))
    assert cep.placements == tuple(Placement(**doc) for doc in PLACEMENTS)
    assert cep.lines == tuple(Line(**doc) for doc in LINES)
    assert cep.sited_technology.capex == with_connection_cost(2100.0, 0.25)
    assert cep.sited_technology.fixed_om == 52.0
    assert cep.co2_budget == 0.5 * 40000.0
    assert cep.weight_hours == 2.0
    assert cep.firm_technologies == {"gas", "reservoir_hydro"}
    assert config.siting.anneal.return_mode == "final_incumbent"
    assert config.siting.partitioned is False
    # an explicit budget wins over the fraction
    doc = {"paths": {}, "cep": {**FULL_CONFIG["cep"], "co2_budget": 7.0}}
    assert _load(tmp_path, doc).cep.co2_budget == 7.0


@pytest.mark.parametrize("doc, message", [
    ({"paths": {}, "siting": {"partitioned": "false"}}, "siting.partitioned"),
    ({"paths": {}, "cep": {"co2_budget_fraction": 0.5}}, "co2_baseline_emissions"),
    ({"paths": {}, "siting": {"scheme": "prod", "anneal": {"radius": 0}}},
     "siting.anneal: radius must be >= 1"),
    ({"paths": {}, "siting": {"targets_MW": {"P1": "2000"}}}, "siting.targets_MW.P1"),
    ({"paths": {}, "cep": {"technologies": [{**GAS, "capacity_credit": "x"}]}},
     "cep.technologies[0].capacity_credit must be a number or 'computed'"),
    ({"paths": {}, "resolution_hours": float("nan")}, "resolution_hours must be"),
    ({"siting": {}}, "'paths' section"),
    ([], "the document must be an object"),
    ({"paths": {}, "cep": {"placements": [{"bus": "A", "tech": "gas", "legacy_mw": 5.0}]}},
     "unknown cep.placements[0] fields: ['legacy_mw']"),
    ({"paths": {}, "cep": {"lines": [{"id": "L", "from_bus": "A", "to_bus": "B",
                                      "lenght_km": 3.0}]}},
     "unknown cep.lines[0] fields: ['lenght_km']"),
    ({"paths": {}, "siting": {"anneal": {"iterations": 15, "decay": -1000.0}}},
     "siting.anneal: decay must be >= 0"),
], ids=["string-bool", "fraction-without-baseline", "prod-with-bad-anneal", "string-target",
        "bad-credit", "nan", "no-paths", "not-an-object", "placement-typo", "line-typo",
        "negative-decay"])
def test_load_config_rejects(tmp_path, doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _load(tmp_path, doc)


def test_readme_minimal_configuration_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A minimal configuration:", 1)[1].split("```json", 1)[1]
    doc = json.loads(block.split("```", 1)[0])
    config = _load(tmp_path, doc)
    assert config.siting.anneal == AnnealParams(**doc["siting"]["anneal"])
    assert config.cep.co2_budget == doc["cep"]["co2_budget"]
    assert set(config.paths) | {"output_dir"} == set(doc["paths"])
    assert config.output_dir == (tmp_path / doc["paths"]["output_dir"]).resolve()


# ---------------------------------------------------------------------------
# Property: no mutation of a valid config escapes main
# ---------------------------------------------------------------------------

def _key_paths(doc, prefix=()):
    """Every object key in ``doc`` as a path, descending into lists."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _key_paths(value, prefix + (i,))


KEY_PATHS = list(_key_paths(FULL_CONFIG))
MUTATIONS = ["drop", "rename"] + [("set", v) for v in (None, "x", -1, 0, 0.5, True, [], {})]


def _mutated(path, mutation):
    doc = copy.deepcopy(FULL_CONFIG)
    *parents, key = path
    parent = doc
    for step in parents:
        parent = parent[step]
    if mutation == "drop":
        del parent[key]
    elif mutation == "rename":
        parent[key + "_x"] = parent.pop(key)
    else:
        parent[key] = mutation[1]
    return doc


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    gen_synthetic(root / "data", seed=11, n_sites=6, n_partitions=2, n_periods=48)
    (root / "data" / "curves").mkdir()
    for name, curve in fileio.load_default_curves().items():
        fileio.write_power_curve_csv(root / "data" / "curves" / f"{name}.csv", curve)
    return root


@settings(max_examples=80, deadline=None)
@given(path=st.sampled_from(KEY_PATHS), mutation=st.sampled_from(MUTATIONS))
def test_mutated_config_exits_cleanly(small_dataset, path, mutation):
    run = Path(tempfile.mkdtemp(dir=small_dataset))
    (run / "data").symlink_to(small_dataset / "data")
    (run / "config.json").write_text(json.dumps(_mutated(path, mutation)), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["pipeline", str(run / "config.json")])
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


# The synth CSVs a run reads; what a mutation puts in one cell (the last a
# byte that is not UTF-8) or does to a whole file.
DATA_FILES = ("sites.csv", "wind_speeds.csv", "demand.csv", "runoff.csv", "runoff_series.csv",
              "hydro_params.csv")
CELL_TEXTS = ("nan", "inf", "-5", "1e400", "", "text", "\xff")
FILE_MUTATIONS = ("empty", "header-only", "directory", "repeat-last-row", "drop-last-row")


def _mutate_file(path: Path, mutation: str, row: int, column: int) -> None:
    """Apply ``mutation`` to the CSV at ``path``; a cell text goes to the
    cell at ``row`` (the header is row 0) and ``column``, each taken modulo
    the file's own count."""
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    if mutation == "directory":
        path.unlink()
        path.mkdir()
    elif mutation in FILE_MUTATIONS:
        path.write_bytes({"empty": b"", "header-only": lines[0],
                          "repeat-last-row": raw + lines[-1],
                          "drop-last-row": b"".join(lines[:-1])}[mutation])
    else:
        at = row % len(lines)
        cells = lines[at].rstrip(b"\r\n").split(b",")
        cells[column % len(cells)] = mutation.encode("latin-1")
        lines[at] = b",".join(cells) + b"\n"
        path.write_bytes(b"".join(lines))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(DATA_FILES), mutation=st.sampled_from(FILE_MUTATIONS + CELL_TEXTS),
       row=st.integers(0, 100), column=st.integers(0, 20))
def test_mutated_input_file_exits_cleanly(small_dataset, name, mutation, row, column):
    run = Path(tempfile.mkdtemp(dir=small_dataset))
    shutil.copytree(small_dataset / "data", run / "data")
    _mutate_file(run / "data" / name, mutation, row, column)
    (run / "config.json").write_text(json.dumps(FULL_CONFIG), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["pipeline", str(run / "config.json")])
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
    for path in [*run.glob("out/*.json"), *run.glob("out/*.geojson")]:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)


# ---------------------------------------------------------------------------
# Components a sizing problem cannot hold
# ---------------------------------------------------------------------------

def _pipeline_error(dataset, doc):
    """Exit code and stderr document of ``windplan pipeline`` on ``doc``."""
    run = Path(tempfile.mkdtemp(dir=dataset))
    (run / "data").symlink_to(dataset / "data")
    (run / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["pipeline", str(run / "config.json")])
    return code, json.loads(err.getvalue())


@pytest.mark.parametrize("solver", ["embedded", "mps-export"])
@pytest.mark.parametrize("key, items, message", [
    ("placements", [*PLACEMENTS, PLACEMENTS[0]], "duplicate placement ('P1', 'gas')"),
    ("lines", [LINES[0], {**LINES[0], "from_bus": "P2", "to_bus": "P1"}],
     "duplicate line id 'north'"),
], ids=["placement", "line"])
def test_repeated_components_exit_2_naming_the_repeat(small_dataset, key, items, message,
                                                      solver):
    # with no firm technology and no CO2 budget no row held both copies of a
    # repeated placement: it passed the LP and failed the cost check (exit 3),
    # or was exported without a word
    cep = {name: value for name, value in FULL_CONFIG["cep"].items()
           if not name.startswith("co2_")}
    doc = {**FULL_CONFIG, "cep": {**cep, key: items, "solver": solver, "firm_technologies": []}}
    code, err = _pipeline_error(small_dataset, doc)
    assert code == 2 and err["exit_code"] == 2
    assert message in err["message"]


@pytest.mark.parametrize("line, message", [
    ({"efficiency_per_1000km": 1.5}, "efficiency_per_1000km must lie in (0, 1]"),
    ({"efficiency_per_1000km": 0.0}, "efficiency_per_1000km must lie in (0, 1]"),
    ({"legacy_MW": -1.0}, "legacy capacity and length must be non-negative"),
    ({"length_km": -400.0}, "legacy capacity and length must be non-negative"),
], ids=["gaining", "lossy-to-nothing", "negative-legacy", "negative-length"])
def test_lines_that_create_energy_exit_2(small_dataset, line, message):
    doc = {**FULL_CONFIG, "cep": {**FULL_CONFIG["cep"], "lines": [{**LINES[0], **line}]}}
    code, err = _pipeline_error(small_dataset, doc)
    assert code == 2
    assert err["message"] == f"cep.lines[0]: line north: {message}"
