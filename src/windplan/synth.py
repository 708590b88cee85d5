"""Reproducible synthetic dataset generator.

Produces a small but structurally realistic input set in the documented
CSV schemas: a site catalog, per-site wind speeds with diurnal and
seasonal structure, per-bus demand with a daily shape and weekday factor,
a runoff grid and hydro country parameters.  Identical seeds produce
byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from windplan import fileio
from windplan.hydro import HydroCountryParams
from windplan.timeseries import TimeSeries


def _ar1(rng: np.random.Generator, n: int, phi: float, sigma: float) -> np.ndarray:
    noise = rng.normal(0.0, sigma, size=n)
    out = np.empty(n)
    out[0] = noise[0] / max(1e-9, np.sqrt(1 - phi * phi))
    for t in range(1, n):
        out[t] = phi * out[t - 1] + noise[t]
    return out


def gen_synthetic(
    out_dir: str | Path,
    seed: int,
    n_sites: int = 8,
    n_partitions: int = 2,
    n_periods: int = 336,
    resolution_hours: float = 1.0,
) -> dict[str, Path]:
    """Write the synthetic dataset and return the paths by role.

    Sites are split across partitions in contiguous blocks as evenly as
    possible (remainders go to the earlier partitions); the first site of
    every partition carries legacy capacity above the default threshold.
    """
    if min(n_sites, n_partitions, n_periods) < 1:
        raise ValueError("sizes must be positive")
    if n_partitions > n_sites:
        raise ValueError("more partitions than sites")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    hours = np.arange(n_periods) * resolution_hours

    partitions = [f"P{i + 1}" for i in range(n_partitions)]
    base = n_sites // n_partitions
    extra = n_sites % n_partitions
    sizes = [base + (1 if i < extra else 0) for i in range(n_partitions)]

    catalog_rows = []
    speeds: dict[str, TimeSeries] = {}
    site_no = 0
    for p_idx, (partition, size) in enumerate(zip(partitions, sizes)):
        for local in range(size):
            site_no += 1
            sid = f"s{site_no:02d}"
            mean = float(rng.uniform(6.5, 10.5))
            diurnal_amp = float(rng.uniform(0.3, 0.8))
            seasonal_amp = float(rng.uniform(0.5, 1.5))
            phase_d = float(rng.uniform(0, 2 * np.pi))
            phase_s = float(rng.uniform(0, 2 * np.pi))
            wander = _ar1(rng, n_periods, 0.95, 0.35)
            values = (
                mean
                + seasonal_amp * np.sin(2 * np.pi * hours / (24 * 365) + phase_s)
                + diurnal_amp * np.sin(2 * np.pi * hours / 24 + phase_d)
                + wander
            )
            speeds[sid] = TimeSeries(np.maximum(values, 0.0), resolution_hours)
            catalog_rows.append({
                "id": sid,
                "lon": round(-2.0 + 1.3 * p_idx + 0.23 * local + float(rng.uniform(-0.05, 0.05)), 4),
                "lat": round(53.0 + 0.9 * p_idx + 0.17 * local + float(rng.uniform(-0.05, 0.05)), 4),
                "partition": partition,
                "legacy_MW": 150.0 if local == 0 else 0.0,
                "potential_MW": round(float(rng.uniform(250.0, 600.0)), 1),
            })

    demand: dict[str, TimeSeries] = {}
    for partition in partitions:
        level = float(rng.uniform(800.0, 1200.0))
        daily_amp = float(rng.uniform(0.10, 0.20)) * level
        weekday = 1.0 + 0.08 * (((hours // 24).astype(int) % 7) < 5)
        noise = _ar1(rng, n_periods, 0.8, 0.02 * level)
        values = (level + daily_amp * np.sin(2 * np.pi * (hours - 9.0) / 24)) * weekday + noise
        demand[partition] = TimeSeries(np.maximum(values, 50.0), resolution_hours)

    runoff: dict[str, TimeSeries] = {}
    manifest_rows = []
    for partition in partitions:
        for cell_no in range(2):
            cell_id = f"{partition}_cell{cell_no + 1}"
            base_ro = float(rng.uniform(2e-4, 6e-4))
            seasonal = 0.5 * base_ro * np.sin(2 * np.pi * hours / (24 * 365) + float(rng.uniform(0, 6.28)))
            noise = _ar1(rng, n_periods, 0.9, 0.1 * base_ro)
            runoff[cell_id] = TimeSeries(np.maximum(base_ro + seasonal + noise, 0.0), resolution_hours)
            manifest_rows.append((cell_id, partition, round(float(rng.uniform(800, 1500)), 1),
                                  "runoff_series.csv"))

    hydro_params = {}
    for partition in partitions:
        ror_capacity = round(float(rng.uniform(50, 150)), 1)
        # yearly hydro well above what run-of-river alone can produce, so
        # the reservoir flow-multiplier calibration has a positive target
        yearly = round(ror_capacity * 8760.0 * float(rng.uniform(1.2, 2.0)), 1)
        hydro_params[partition] = HydroCountryParams(
            country=partition,
            flood_threshold=0.9,
            ror_capacity_MW=ror_capacity,
            sto_capacity_MW=round(float(rng.uniform(100, 300)), 1),
            sto_energy_MWh=round(float(rng.uniform(5000, 20000)), 1),
            yearly_hydro_MWh=yearly,
            avg_head_m=1.0,
            phs_power_MW=round(float(rng.uniform(100, 400)), 1),
        )

    return {
        "catalog": fileio.write_catalog_csv(out_dir / "sites.csv", catalog_rows),
        "wind_speeds": fileio.write_series_csv(out_dir / "wind_speeds.csv", speeds),
        "demand": fileio.write_series_csv(out_dir / "demand.csv", demand),
        "runoff_series": fileio.write_series_csv(out_dir / "runoff_series.csv", runoff),
        "hydro_params": fileio.write_hydro_params_csv(out_dir / "hydro_params.csv", hydro_params),
        "runoff": fileio.write_table(out_dir / "runoff.csv",
                                     ("cell_id", "country", "area_km2", "series_path"),
                                     manifest_rows),
    }
