import json
import re
from pathlib import Path

import numpy as np
import pytest

from windplan import fileio
from windplan.cli import main
from windplan.resource import capacity_factors_from_speeds
from windplan.siting import build_plan, greedy_init, solve_prod
from windplan.synth import gen_synthetic


def file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def write_config(tmp_path, data_dir, **overrides):
    config = {
        "paths": {
            "catalog": f"{data_dir}/sites.csv",
            "wind_speeds": f"{data_dir}/wind_speeds.csv",
            "demand": f"{data_dir}/demand.csv",
            "output_dir": "out",
        },
        "resolution_hours": 1.0,
        "resample_factor": 3,
        "siting": {
            "scheme": "comp",
            "partitioned": True,
            "varsigma": 0.3,
            "delta": 1,
            "targets_MW": {"P1": 2000.0, "P2": 2000.0},
            "anneal": {"iterations": 15, "neighbors": 10, "radius": 1},
            "n_runs": 2,
            "base_seed": 7,
        },
        "cep": {
            "solver": "embedded",
            "reserve_margin": 0.2,
            "shed_penalty": 500.0,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in config:
            config[key].update(value)
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


@pytest.fixture()
def dataset(tmp_path):
    data_dir = tmp_path / "data"
    gen_synthetic(data_dir, seed=7, n_sites=6, n_partitions=2, n_periods=96)
    return tmp_path, data_dir


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def test_synth_same_seed_identical_files(tmp_path):
    gen_synthetic(tmp_path / "a", seed=42, n_sites=4, n_partitions=2, n_periods=48)
    gen_synthetic(tmp_path / "b", seed=42, n_sites=4, n_partitions=2, n_periods=48)
    gen_synthetic(tmp_path / "c", seed=43, n_sites=4, n_partitions=2, n_periods=48)
    assert file_bytes(tmp_path / "a") == file_bytes(tmp_path / "b")
    assert file_bytes(tmp_path / "a") != file_bytes(tmp_path / "c")


def test_synth_partition_split(tmp_path):
    paths = gen_synthetic(tmp_path, seed=1, n_sites=8, n_partitions=2, n_periods=24)
    rows = fileio.read_catalog_csv(paths["catalog"])
    split = {}
    for row in rows:
        split[row["partition"]] = split.get(row["partition"], 0) + 1
    assert split == {"P1": 4, "P2": 4}
    # uneven split goes to the earlier partitions
    gen_synthetic(tmp_path / "u", seed=1, n_sites=7, n_partitions=3, n_periods=24)
    rows = fileio.read_catalog_csv(tmp_path / "u" / "sites.csv")
    counts = {}
    for row in rows:
        counts[row["partition"]] = counts.get(row["partition"], 0) + 1
    assert counts == {"P1": 3, "P2": 2, "P3": 2}


def test_synth_derived_cfs_in_unit_interval(tmp_path):
    paths = gen_synthetic(tmp_path, seed=3, n_sites=5, n_partitions=1, n_periods=48)
    speeds = fileio.read_series_csv(paths["wind_speeds"])
    cf = capacity_factors_from_speeds(speeds, fileio.load_default_curves())
    for series in cf.values():
        assert np.all(series.values >= 0.0) and np.all(series.values <= 1.0)


def test_synth_csvs_read_back_byte_for_byte(tmp_path):
    """Each input CSV read by its reader and written by its writer is the
    same file: the readers lose nothing the writers put in."""
    assert main(["synth", "--out", str(tmp_path / "data"), "--seed", "7", "--sites", "6",
                 "--partitions", "2", "--periods", "96"]) == 0
    data, back = tmp_path / "data", tmp_path / "back"
    back.mkdir()
    for name in ("wind_speeds", "demand", "runoff_series"):
        fileio.write_series_csv(back / f"{name}.csv", fileio.read_series_csv(data / f"{name}.csv"))
    fileio.write_catalog_csv(back / "sites.csv", fileio.read_catalog_csv(data / "sites.csv"))
    fileio.write_hydro_params_csv(back / "hydro_params.csv",
                                  fileio.read_hydro_params_csv(data / "hydro_params.csv"))
    for name in ("sites", "wind_speeds", "demand", "runoff_series", "hydro_params"):
        assert (back / f"{name}.csv").read_bytes() == (data / f"{name}.csv").read_bytes(), name
    bundled = Path(fileio.__file__).parent / "data" / "power_curves"
    for name, curve in fileio.load_default_curves().items():
        written = fileio.write_power_curve_csv(back / f"{name}.csv", curve)
        assert written.read_bytes() == (bundled / f"{name}.csv").read_bytes(), name


def test_synth_validation(tmp_path):
    with pytest.raises(ValueError):
        gen_synthetic(tmp_path, seed=0, n_sites=2, n_partitions=5)
    with pytest.raises(ValueError):
        gen_synthetic(tmp_path, seed=0, n_sites=0)


# ---------------------------------------------------------------------------
# CLI stages
# ---------------------------------------------------------------------------

def load_stage_catalog(config_path):
    from windplan.cli import _load_stage_inputs, load_config

    return _load_stage_inputs(load_config(config_path))


def test_cli_prod_matches_library(dataset):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir, siting={"scheme": "prod"})
    assert main(["site", str(config)]) == 0
    doc = json.loads((tmp_path / "out" / "siting_solution.json").read_text())
    catalog, _ = load_stage_catalog(config)
    plan = build_plan(catalog, {"P1": 2000.0, "P2": 2000.0})
    expected = solve_prod(catalog, plan)
    assert set(doc["site_ids"]) == set(expected.selected)
    assert doc["objective"] == pytest.approx(expected.objective)
    assert doc["scheme"] == "prod"


def test_cli_comp_zero_iterations_is_greedy(dataset):
    tmp_path, data_dir = dataset
    config = write_config(
        tmp_path, data_dir,
        siting={"anneal": {"iterations": 0, "neighbors": 5}, "n_runs": 1},
    )
    assert main(["site", str(config)]) == 0
    out = tmp_path / "out"
    doc = json.loads((out / "siting_solution.json").read_text())
    catalog, _ = load_stage_catalog(config)
    plan = build_plan(catalog, {"P1": 2000.0, "P2": 2000.0})
    matrix = fileio.load_criticality(out / "criticality.bin",
                                     tuple(s.id for s in catalog.sites))
    greedy = greedy_init(matrix, catalog, plan)
    assert set(doc["site_ids"]) == set(greedy.selected)
    assert doc["objective"] == greedy.objective


def test_cli_site_on_a_schedule_cooled_to_zero(dataset):
    # the temperature underflows to 0.0 for the last three of 15 iterations
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir,
                          siting={"anneal": {"iterations": 15, "neighbors": 10, "decay": 1000}})
    assert main(["site", str(config)]) == 0


def test_cli_unpartitioned_dominates_partitioned(dataset):
    tmp_path, data_dir = dataset
    part_cfg = write_config(tmp_path, data_dir)
    assert main(["site", str(part_cfg), "--out", str(tmp_path / "part")]) == 0
    free_cfg = write_config(tmp_path, data_dir, siting={"partitioned": False})
    assert main(["site", str(free_cfg), "--out", str(tmp_path / "free")]) == 0
    part = json.loads((tmp_path / "part" / "siting_solution.json").read_text())
    free = json.loads((tmp_path / "free" / "siting_solution.json").read_text())
    assert free["objective"] >= part["objective"]


def test_cli_pipeline_and_reports(dataset):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    assert main(["pipeline", str(config)]) == 0
    out = tmp_path / "out"
    expected = {"siting_solution.json", "siting_solution.geojson", "criticality.bin",
                "residual_stats.json", "residual_series.csv", "residual_spreads.csv",
                "cep_report.csv", "cep_solution.json"}
    assert expected <= {p.name for p in out.iterdir()}
    spreads = (out / "residual_spreads.csv").read_text().splitlines()
    assert spreads[1] == "block_hours,block_index,spread_MW"
    assert any(line.startswith("12.0,") for line in spreads)
    assert any(line.startswith("24.0,") for line in spreads)
    config_hash = json.loads(config.read_text())
    report = (out / "cep_report.csv").read_text()
    assert report.startswith("# config_hash=")
    cep_doc = json.loads((out / "cep_solution.json").read_text())
    site_doc = json.loads((out / "siting_solution.json").read_text())
    stats = json.loads((out / "residual_stats.json").read_text())
    assert cep_doc["config_hash"] == site_doc["config_hash"] == stats["config_hash"]
    assert len(cep_doc["config_hash"]) == 64
    assert cep_doc["shed_MWh"] == pytest.approx(0.0, abs=1e-6)


def test_cli_pipeline_csvs_hold_numbers(dataset):
    tmp_path, data_dir = dataset
    assert main(["pipeline", str(write_config(tmp_path, data_dir))]) == 0
    out = tmp_path / "out"

    def data_rows(name):
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# config_hash=")
        return [line.split(",") for line in lines[2:]]
    for name in ("residual_series.csv", "residual_spreads.csv"):
        rows = data_rows(name)
        assert rows and [float(field) for row in rows for field in row]
    report = data_rows("cep_report.csv")
    assert [float(field) for row in report for field in row[1:] if field]


def test_cli_pipeline_with_hydro(dataset):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    raw = json.loads(config.read_text())
    raw["paths"]["runoff"] = f"{data_dir}/runoff.csv"
    raw["paths"]["hydro_params"] = f"{data_dir}/hydro_params.csv"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["pipeline", str(config)]) == 0
    doc = json.loads((tmp_path / "out" / "cep_solution.json").read_text())
    caps = doc["tech_capacity_total"]
    assert any(key.endswith("|ror_hydro") for key in caps)
    assert any(key.endswith("|reservoir_hydro") for key in caps)
    assert any(key.endswith("|pumped_hydro") for key in caps)
    params = fileio.read_hydro_params_csv(data_dir / "hydro_params.csv")
    # hydro fleets are fixed at their recorded capacities
    for country, p in params.items():
        assert caps[f"{country}|ror_hydro"] == pytest.approx(p.ror_capacity_MW)
        assert caps[f"{country}|reservoir_hydro"] == pytest.approx(p.sto_capacity_MW)
        energy = doc["storage_energy_total"][f"{country}|pumped_hydro"]
        assert energy == pytest.approx(p.phs_power_MW * 6.0)  # default duration


def test_cli_mps_export_mode(dataset):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir, cep={"solver": "mps-export"})
    assert main(["pipeline", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / "cep.mps").exists()
    assert not (out / "cep_solution.json").exists()
    from windplan.mps import import_mps

    lp = import_mps(out / "cep.mps")
    assert lp.n_vars > 0 and lp.n_rows > 0


def test_cli_export_refuses_an_id_free_mps_cannot_hold(dataset, capsys):
    """A site id holding a space loads, and the embedded solver sizes the
    system, but a free MPS file cannot hold a name built from it."""
    tmp_path, data_dir = dataset
    for name in ("sites.csv", "wind_speeds.csv"):
        path = data_dir / name
        path.write_text(path.read_text(encoding="utf-8").replace("s01", "s 01"), encoding="utf-8")
    config = write_config(tmp_path, data_dir)
    assert main(["export-mps", str(config)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data" and err["exit_code"] == 2
    assert re.fullmatch(r"cannot write the column name '[^']*\|s 01' to MPS: it holds whitespace",
                        err["message"])
    assert not (tmp_path / "out" / "cep.mps").exists()
    assert main(["pipeline", str(config)]) == 0


def test_cli_export_comp_mir(dataset):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    assert main(["export-mps", str(config), "--target", "comp-mir"]) == 0
    from windplan.mps import import_mps

    lp = import_mps(tmp_path / "out" / "comp_mir.mps")
    assert int(lp.integer.sum()) == 6  # one binary per candidate site


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_usage_on_bad_command(capsys):
    assert main(["definitely-not-a-command"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"


@pytest.mark.parametrize("argv, message", [
    (["pipeline", "config.json", "--seed", "-1"], "argument --seed: must be an integer >= 0"),
    (["synth", "--out", "data", "--seed", "-2"], "argument --seed: must be an integer >= 0"),
    (["site", "config.json", "--threads", "0"], "argument --threads: must be an integer >= 1"),
    (["pipeline", "config.json", "--threads", "-3"], "argument --threads: must be an integer >= 1"),
    (["export-mps", "config.json", "--threads", "two"], "argument --threads: invalid integer"),
    (["synth", "--out", "data", "--sites", "0"], "argument --sites: must be an integer >= 1, got 0"),
    (["synth", "--out", "data", "--partitions", "-1"],
     "argument --partitions: must be an integer >= 1, got -1"),
    (["synth", "--out", "data", "--periods", "0"], "argument --periods: must be an integer >= 1"),
], ids=["negative-seed", "negative-synth-seed", "zero-threads", "negative-threads", "no-integer",
        "zero-sites", "negative-partitions", "zero-periods"])
def test_exit_usage_on_bad_seed_or_threads(argv, message, capsys):
    # rejected while parsing: no config is read and no thread starts
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and err["message"].startswith(message)


def test_exit_data_on_more_partitions_than_sites(tmp_path, capsys):
    argv = ["synth", "--out", str(tmp_path / "data"), "--sites", "2", "--partitions", "3"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and err["message"] == "more partitions than sites"


def test_exit_data_on_missing_config(tmp_path, capsys):
    assert main(["site", str(tmp_path / "nope.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data"


@pytest.mark.parametrize("command, blocked", [
    ("pipeline", "out/siting_solution.json"),
    ("export-mps", "out/cep.mps"),
    ("synth", "afile/data"),
])
def test_exit_data_on_an_output_that_cannot_be_written(dataset, capsys, command, blocked):
    """A directory where an output file goes, or a file where an output
    directory goes, ends in exit 2 with one JSON line naming the path."""
    tmp_path, data_dir = dataset
    path = tmp_path / blocked
    if command == "synth":
        path.parent.write_text("", encoding="utf-8")
        argv = ["synth", "--out", str(path)]
    else:
        path.mkdir(parents=True)
        argv = [command, str(write_config(tmp_path, data_dir))]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data" and err["exit_code"] == 2
    assert err["message"].startswith("cannot write output: ") and str(path) in err["message"]


def test_exit_data_on_missing_input_path(dataset, capsys):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    raw = json.loads(config.read_text())
    raw["paths"]["demand"] = "missing.csv"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["site", str(config)]) == 2


def test_exit_data_on_infeasible_plan(dataset, capsys):
    tmp_path, data_dir = dataset
    config = write_config(
        tmp_path, data_dir,
        siting={"targets_MW": {"P1": 2000.0, "P2": 2000.0, "NOPE": 100.0}},
    )
    assert main(["site", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "NOPE" in err["message"]


@pytest.mark.parametrize("siting, message", [
    ({"anneal": {"iterations": 15, "bogus": 1}}, "bogus"),
    ({"anneal": {"radius": 0}}, "radius must be >= 1"),
    ({"coverage_threshold": 99}, "threshold must satisfy"),
    ({"coverage_threshold": 0}, "threshold must satisfy"),
    ({"delta": 1000}, "exceeds series length"),
    ({"varsigma": "0.3"}, "siting.varsigma must be a number"),
    ({"anneal": {"iterations": 15, "decay": -1000.0}}, "decay must be >= 0"),
], ids=["unknown-anneal-key", "radius-zero", "threshold-above-sites", "threshold-zero",
        "delta-beyond-horizon", "string-varsigma", "negative-decay"])
def test_exit_data_on_bad_comp_settings(dataset, capsys, siting, message):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir, siting=siting)
    assert main(["site", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and err["exit_code"] == 2
    assert message in err["message"]


@pytest.mark.parametrize("overrides, message", [
    ({"resample_factor": 5}, "not divisible by factor 5"),
    ({"resample_factor": 0}, "resample_factor must be a positive integer"),
    ({"resample_factor": "x"}, "resample_factor must be a positive integer"),
    ({"resolution_hours": 0}, "resolution_hours must be a positive number"),
], ids=["resample-not-dividing", "resample-zero", "resample-string", "resolution-zero"])
def test_exit_data_on_bad_stage_inputs(dataset, capsys, overrides, message):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir, **overrides)
    assert main(["site", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and err["exit_code"] == 2
    assert message in err["message"]


def _with_hydro(config, data_dir):
    raw = json.loads(config.read_text())
    raw["paths"]["runoff"] = f"{data_dir}/runoff.csv"
    raw["paths"]["hydro_params"] = f"{data_dir}/hydro_params.csv"
    config.write_text(json.dumps(raw), encoding="utf-8")


def _cut_runoff(config, data_dir):
    series = data_dir / "runoff_series.csv"
    lines = series.read_text().splitlines()
    series.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")  # 93 periods
    _with_hydro(config, data_dir)


def _manifest_without_series_path(config, data_dir):
    manifest = data_dir / "runoff.csv"
    rows = [line.rsplit(",", 1)[0] for line in manifest.read_text().splitlines()]
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    _with_hydro(config, data_dir)


def _add_country_without_bus(data_dir):
    """A runoff cell and a hydro parameters row for P3, which has no bus."""
    manifest = data_dir / "runoff.csv"
    manifest.write_text(manifest.read_text() + "P3_cell1,P3,900.0,runoff_series.csv\n",
                        encoding="utf-8")
    series = data_dir / "runoff_series.csv"
    lines = series.read_text().splitlines()
    lines = [line if line.startswith("#") else line + "," + line.split(",")[0] for line in lines]
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[header] = lines[header].rsplit(",", 1)[0] + ",P3_cell1"
    series.write_text("\n".join(lines) + "\n", encoding="utf-8")
    params = data_dir / "hydro_params.csv"
    rows = params.read_text().splitlines()
    params.write_text("\n".join(rows + [rows[1].replace("P1", "P3", 1)]) + "\n",
                      encoding="utf-8")


def test_runoff_of_a_country_without_bus_is_ignored(dataset):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    _with_hydro(config, data_dir)
    assert main(["pipeline", str(config), "--out", str(tmp_path / "a")]) == 0
    _add_country_without_bus(data_dir)
    assert "P3" in fileio.read_runoff_manifest(data_dir / "runoff.csv").countries()
    assert main(["pipeline", str(config), "--out", str(tmp_path / "b")]) == 0
    assert file_bytes(tmp_path / "b") == file_bytes(tmp_path / "a")


def test_exit_data_on_bus_without_hydro_parameters(dataset, capsys):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    _with_hydro(config, data_dir)
    params = data_dir / "hydro_params.csv"
    params.write_text("\n".join(line for line in params.read_text().splitlines()
                                if not line.startswith("P2,")) + "\n", encoding="utf-8")
    assert main(["pipeline", str(config)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data" and err["exit_code"] == 2
    assert err["message"] == "hydro parameters missing for bus 'P2'"


GAS = {"id": "gas_turbine", "kind": "dispatchable", "capex": 838.87, "lifetime_years": 30.0}


@pytest.mark.parametrize("overrides, setup, message", [
    ({"cep": {"technologies": [{"id": "gas"}]}}, None, "missing fields ['kind']"),
    ({"cep": {"placements": [{"tech": "gas_turbine"}]}}, None, "missing fields ['bus']"),
    ({"cep": {"lines": [{"id": "L", "from_bus": "P1", "to_bus": "NOPE"}]}}, None,
     "line L references an unknown bus"),
    ({"cep": {"weight_hours": -1}}, None, "cep.weight_hours must be a positive number"),
    ({"paths": ["data/sites.csv"]}, None, "paths must be an object"),
    ({"cep": {"co2_budget_fraction": "x"}}, None, "cep.co2_budget_fraction must be"),
    ({"cep": {"technologies": [{**GAS, "efficiency": 2}]}}, None,
     "efficiency must lie in (0, 1]"),
    ({"cep": {"sited_technology": {"bogus": 1}}}, None,
     "unknown cep.sited_technology fields: ['bogus']"),
    ({}, _cut_runoff, "series length differs"),
    ({}, _manifest_without_series_path, "runoff manifest columns missing"),
], ids=["technology-without-kind", "placement-without-bus", "line-to-unknown-bus",
        "negative-weight-hours", "paths-as-list", "string-co2-fraction", "efficiency-two",
        "unknown-sited-technology-field", "runoff-cut-to-93", "manifest-without-series-path"])
def test_exit_data_on_bad_cep_inputs(dataset, capsys, overrides, setup, message):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir, **overrides)
    if setup is not None:
        setup(config, data_dir)
    assert main(["pipeline", str(config)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data" and err["exit_code"] == 2
    assert message in err["message"]


@pytest.mark.parametrize("overrides, message", [
    ({"siting": {"partitioned": "false"}}, "siting.partitioned must be true or false"),
    ({"siting": {"n_runs": "3"}}, "siting.n_runs must be a positive integer"),
    ({"cep": {"storage_cyclic": 0}}, "cep.storage_cyclic must be true or false"),
    ({"cep": {"placements": [{"bus": "P1", "tech": "gas_turbine", "legacy_mw": 50.0}]}},
     "unknown cep.placements[0] fields: ['legacy_mw']"),
    ({"cep": {"reserve_margn": 0.2}}, "unknown cep fields: ['reserve_margn']"),
    ({"siting": {"anneal": {"iterations": 15, "neighbors": 10, "radius": True}}},
     "siting.anneal.radius must be an integer"),
    ({"resample": 3}, "unknown top-level fields: ['resample']"),
    ({"paths": {"catalog": "data/sites.csv", "weather": "w.csv"}},
     "unknown paths fields: ['weather']"),
], ids=["string-bool", "string-int", "number-bool", "placement-typo", "cep-typo",
        "bool-int", "top-level-typo", "paths-typo"])
def test_exit_data_on_config_typos(dataset, capsys, overrides, message):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir, **overrides)
    assert main(["pipeline", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and message in err["message"]
    assert not (tmp_path / "out" / "siting_solution.json").exists()


def test_demand_read_once(dataset, monkeypatch):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    _with_hydro(config, data_dir)
    reads = []
    real_read = fileio.read_series_csv

    def counting_read(path, *args, **kwargs):
        reads.append(Path(path).name)
        return real_read(path, *args, **kwargs)

    monkeypatch.setattr(fileio, "read_series_csv", counting_read)
    assert main(["pipeline", str(config)]) == 0
    assert sorted(reads) == ["demand.csv", "runoff_series.csv", "wind_speeds.csv"]
    reads.clear()
    assert main(["cep", str(config)]) == 0
    assert sorted(reads) == ["demand.csv", "runoff_series.csv", "wind_speeds.csv"]


def test_exit_data_on_runoff_not_dividing(dataset, capsys):
    tmp_path, data_dir = dataset
    series = data_dir / "runoff_series.csv"
    lines = series.read_text().splitlines()
    series.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")  # 95 periods
    config = write_config(tmp_path, data_dir)
    raw = json.loads(config.read_text())
    raw["paths"]["runoff"] = f"{data_dir}/runoff.csv"
    raw["paths"]["hydro_params"] = f"{data_dir}/hydro_params.csv"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["pipeline", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and "not divisible by factor 3" in err["message"]


def test_exit_data_when_siting_output_missing(dataset, capsys):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    (tmp_path / "out").mkdir()
    assert main(["cep", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "siting output" in err["message"]


def test_exit_data_on_malformed_siting_output_names_it(dataset, capsys):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    path = tmp_path / "out" / "siting_solution.json"
    path.parent.mkdir()
    path.write_text("{'site_ids': []}", encoding="utf-8")
    assert main(["cep", str(config)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data"
    assert err["message"] == f"{path}: Expecting property name enclosed in double quotes: " \
                             "line 1 column 2 (char 1)"


@pytest.mark.parametrize("doc, message", [
    ({"seed": 7}, "has no site_ids"),
    (["s00"], "has no site_ids"),
    ({"site_ids": "s00"}, "siting_solution.json site_ids must be a list"),
    ({"site_ids": ["s00", 3]}, "siting_solution.json site_ids[1] must be a string"),
], ids=["missing", "not-an-object", "string", "non-string-id"])
def test_exit_data_on_bad_site_ids(dataset, capsys, doc, message):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "siting_solution.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["cep", str(config)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data" and message in err["message"]


def test_exit_solver_on_iteration_limit(dataset, capsys):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir, cep={"iteration_limit": 2})
    assert main(["pipeline", str(config)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "solver"
    assert err["status"] == "iteration_limit"


def test_exit_solver_on_cost_check_mismatch(dataset, capsys, monkeypatch):
    import dataclasses

    import windplan.cli as cli

    real_solve = cli.solve

    def off_by_one_percent(lp, **kwargs):
        solution = real_solve(lp, **kwargs)
        return dataclasses.replace(solution, objective=solution.objective * 1.01 + 1.0)

    monkeypatch.setattr(cli, "solve", off_by_one_percent)
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    assert main(["pipeline", str(config)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "solver" and err["exit_code"] == 3
    assert err["status"] == "cost_mismatch"
    assert "disagrees with solver objective" in err["message"]


def test_cep_export_same_from_pipeline_and_export_mps(dataset):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir, cep={"solver": "mps-export"})
    assert main(["pipeline", str(config), "--out", str(tmp_path / "a")]) == 0
    assert main(["export-mps", str(config), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "cep.mps").read_bytes() == (tmp_path / "b" / "cep.mps").read_bytes()


def test_seed_override_changes_outputs(dataset):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    assert main(["site", str(config), "--out", str(tmp_path / "s7")]) == 0
    assert main(["site", str(config), "--out", str(tmp_path / "s7b"), "--seed", "7"]) == 0
    a = json.loads((tmp_path / "s7" / "siting_solution.json").read_text())
    b = json.loads((tmp_path / "s7b" / "siting_solution.json").read_text())
    assert a["site_ids"] == b["site_ids"]  # config base_seed is 7 as well
    assert a["seed"] == b["seed"]


# ---------------------------------------------------------------------------
# Unreadable and malformed input files
# ---------------------------------------------------------------------------

def _edit(name, edit):
    """A setup that rewrites one dataset file, then adds the hydro inputs."""
    def setup(config, data_dir):
        path = data_dir / name
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        _with_hydro(config, data_dir)
    return setup


def _curves_with_three_field_row(config, data_dir):
    curves = data_dir / "curves"
    curves.mkdir()
    for name, curve in fileio.load_default_curves().items():
        fileio.write_power_curve_csv(curves / f"{name}.csv", curve)
    path = curves / "low_wind.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[6] += ",1.0"   # the second breakpoint, line 7
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    raw = json.loads(config.read_text())
    raw["paths"]["curves_dir"] = str(curves)
    config.write_text(json.dumps(raw), encoding="utf-8")


def _not_utf8(config, data_dir):
    (data_dir / "wind_speeds.csv").write_bytes(b"s01,s02\n\xff\xfe,1.0\n")


def _second_hydro_row(text):
    lines = text.splitlines()
    return "\n".join(lines + [lines[1].replace("0.9", "0.5", 1)]) + "\n"


@pytest.mark.parametrize("overrides, setup, message", [
    ({}, _edit("runoff.csv", lambda t: t.replace("runoff_series.csv", "missing.csv")),
     "missing.csv: [Errno 2]"),
    ({"paths": {"catalog": "data"}}, None, "data is a directory"),
    ({"paths": {"curves_dir": "data/sites.csv"}}, None, "sites.csv is not a directory"),
    ({}, _not_utf8, "wind_speeds.csv: 'utf-8' codec can't decode"),
    ({}, _edit("wind_speeds.csv", lambda t: t.replace("s02", "s01", 1)),
     "wind_speeds.csv: series id 's01' appears more than once"),
    ({}, _edit("demand.csv", lambda t: t.replace("P2", "P1", 1)),
     "demand.csv: series id 'P1' appears more than once"),
    ({}, _edit("hydro_params.csv", _second_hydro_row),
     "hydro_params.csv: country 'P1' appears more than once"),
    ({}, _edit("sites.csv", lambda t: t.replace(",-", ",x-", 1)),
     "sites.csv: line 2: could not convert string to float: 'x-"),
    ({}, _curves_with_three_field_row, "low_wind.csv: line 7: expected 2 fields, got 3"),
], ids=["runoff-series-missing", "catalog-is-directory", "curves-dir-is-file",
        "wind-speeds-not-utf8", "duplicate-wind-speed-column", "duplicate-demand-column",
        "duplicate-hydro-country", "catalog-bad-float", "curve-row-three-fields"])
def test_exit_data_on_unreadable_inputs(dataset, capsys, overrides, setup, message):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir, **overrides)
    if setup is not None:
        setup(config, data_dir)
    assert main(["pipeline", str(config)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data" and err["exit_code"] == 2
    assert message in err["message"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("column, cell", [("lon", "nan"), ("lat", "inf"), ("lon", "-inf")])
def test_non_finite_catalog_coordinates_exit_data(dataset, capsys, column, cell):
    """A site's coordinates go into ``siting_solution.geojson``, where a
    non-finite one would be a bare ``NaN`` or ``Infinity``: not JSON, so
    the catalog refuses it, naming the file and the line."""
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    path = data_dir / "sites.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    at = lines[0].split(",").index(column)
    cells = lines[3].split(",")
    cells[at] = cell
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["pipeline", str(config)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data" and err["exit_code"] == 2
    assert f"sites.csv: line 4: {column} '{cell}' is not a finite number" in err["message"]
    assert not (tmp_path / "out" / "siting_solution.geojson").exists()


def test_every_pipeline_json_artifact_is_strict_json(dataset):
    tmp_path, data_dir = dataset
    assert main(["pipeline", str(write_config(tmp_path, data_dir))]) == 0
    documents = sorted((tmp_path / "out").glob("*.*json"))
    assert {path.name for path in documents} >= {"siting_solution.geojson", "cep_solution.json"}
    for path in documents:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)


def test_write_json_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError, match="not JSON compliant"):
        fileio.write_json(tmp_path / "doc.json", {"x": float("nan")})


# ---------------------------------------------------------------------------
# Unusable output paths
# ---------------------------------------------------------------------------

def _solution_is_directory(tmp_path):
    (tmp_path / "out" / "siting_solution.json").mkdir(parents=True)
    return ["cep"]


def _out_is_a_file(tmp_path):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    return ["site", "--out", str(tmp_path / "taken")]


@pytest.mark.parametrize("setup, message", [
    (_solution_is_directory, "cannot read "),
    (_out_is_a_file, "cannot create output directory "),
], ids=["siting-solution-is-directory", "out-is-a-file"])
def test_exit_data_on_unusable_output_paths(dataset, capsys, setup, message):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    command, *rest = setup(tmp_path)
    assert main([command, str(config), *rest]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data" and err["exit_code"] == 2
    assert message in err["message"]


def test_cep_rejects_site_ids_not_in_the_catalog(dataset, capsys):
    tmp_path, data_dir = dataset
    config = write_config(tmp_path, data_dir)
    assert main(["site", str(config)]) == 0
    path = tmp_path / "out" / "siting_solution.json"
    doc = json.loads(path.read_text())
    doc["site_ids"] += ["s99", "zz"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["cep", str(config)]) == 2
    assert not (tmp_path / "out" / "cep_solution.json").exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "data"
    assert err["message"] == f"siting output {path} names sites not in the catalog: ['s99', 'zz']"
