"""Stage one at the paper's size: 2,472 candidate sites, 2,920 windows.

Draws three-hourly wind speeds for one year at 2,472 sites in 19 zones
(a continental and a per-zone AR(1) weather factor plus site noise),
converts them to capacity factors through class-selected, farm-smoothed
power curves, builds the criticality matrix for k = 353 deployments, then
selects the sites: the greedy start and an annealed search that swaps two
sites per neighbour.  Last, a best-of-4 multistart runs on 1 worker and on
2 forked workers, which must agree.  Prints the time of each step, the
capacity-factor range and the covered windows.

Run:  python3 demos/05_paper_scale_stage_one.py
"""

import time

import numpy as np

from windplan import fileio, siting
from windplan.resource import (
    SiteCatalog, build_criticality_matrix, capacity_factors_from_speeds, make_site,
)
from windplan.timeseries import TimeSeries

N_SITES, N_ZONES, T, RESOLUTION, K = 2472, 19, 2920, 3.0, 353
rng = np.random.default_rng(5)


def ar1(rows: int, phi: float, sigma: float) -> np.ndarray:
    """``rows`` stationary AR(1) series of length T, one per row."""
    out = rng.normal(0.0, sigma, size=(rows, T))  # the noise, overwritten in place
    out[:, 0] /= np.sqrt(1 - phi * phi)
    for t in range(1, T):
        out[:, t] += phi * out[:, t - 1]
    return out


# 1. Wind speeds: site mean (6-11 m/s, so both turbine classes are picked)
#    plus shared weather and site noise, floored at calm.
start = time.perf_counter()
zone_of = np.repeat(np.arange(N_ZONES), np.diff(np.linspace(0, N_SITES, N_ZONES + 1).astype(int)))
weather = 0.6 * ar1(1, 0.8, 0.5) + ar1(N_ZONES, 0.8, 0.6)
speeds = rng.uniform(6.0, 11.0, N_SITES)[:, None] + 1.3 * weather[zone_of]
speeds += ar1(N_SITES, 0.9, 0.4)
np.maximum(speeds, 0.0, out=speeds)
ids = [f"Z{z:02d}-{i:04d}" for i, z in enumerate(zone_of)]
series = {sid: TimeSeries(row, RESOLUTION) for sid, row in zip(ids, speeds)}
del speeds
print(f"wind speeds: {N_SITES} sites x {T} windows drawn in {time.perf_counter() - start:.2f} s")

# 2. Wind speed -> capacity factor: one smoothed curve per site.
start = time.perf_counter()
cf = capacity_factors_from_speeds(series, fileio.load_default_curves())
print(f"capacity factors: {time.perf_counter() - start:.2f} s")
del series
means = np.array([cf[sid].mean for sid in ids])
print(f"  CF range {min(s.values.min() for s in cf.values()):.3f}-"
      f"{max(s.values.max() for s in cf.values()):.3f}, "
      f"site means {means.min():.3f}-{means.max():.3f}")

# 3. Criticality matrix: a site covers a window when its potential output
#    reaches its share of a third of the demand.
potential = rng.uniform(400.0, 1200.0, N_SITES)
catalog = SiteCatalog(tuple(
    make_site(sid, float(zone_of[i]), float(i), f"Z{zone_of[i]:02d}", 0.0, float(potential[i]),
              cf[sid])
    for i, sid in enumerate(ids)))
hours = np.arange(T) * RESOLUTION
demand = TimeSeries(330_000.0 * (1 + 0.12 * np.cos(2 * np.pi * hours / 8760.0)), RESOLUTION)
start = time.perf_counter()
matrix = build_criticality_matrix(catalog, demand, varsigma=0.33, k=K, delta=1, c=(K + 1) // 2)
print(f"criticality matrix: {time.perf_counter() - start:.2f} s, "
      f"{matrix.dense.mean():.1%} of {matrix.dense.size:,} cells covering")

# 4. Site selection: one zone per partition, k = 353 split in proportion to
#    the zones' candidates; greedy start, then a radius-2 annealed search.
counts = np.bincount(zone_of)
quota = np.floor(K * counts / N_SITES).astype(int)
quota[np.argsort(-counts)[:K - quota.sum()]] += 1
plan = siting.build_plan(catalog, {f"Z{z:02d}": float(q) * 1327.5 for z, q in enumerate(quota)})
start = time.perf_counter()
init = siting.greedy_init(matrix, catalog, plan)
print(f"greedy start: {time.perf_counter() - start:.2f} s, "
      f"{init.objective:.0f} of {T} windows covered")
params = siting.AnnealParams(iterations=250, neighbors=100, radius=2)
start = time.perf_counter()
best = siting.local_search(init, matrix, catalog, plan, params, rng=7)
print(f"radius-2 search, {params.iterations} x {params.neighbors} neighbours: "
      f"{time.perf_counter() - start:.2f} s, {best.objective:.0f} windows covered")

# 5. Multistart: 4 radius-1 runs on 1 worker, then spread over 2 forked
#    workers (fewer where this process may use fewer CPUs).  The best
#    solution does not depend on the worker count.
params = siting.AnnealParams(iterations=2000, neighbors=500, radius=1)
found = {}
for threads in (1, 2):
    start = time.perf_counter()
    found[threads] = siting.run_multistart(matrix, catalog, plan, params, n_runs=4, base_seed=7,
                                           threads=threads, init=init)
    print(f"multistart, 4 x {params.iterations} x {params.neighbors} neighbours, "
          f"threads={threads}: {time.perf_counter() - start:.2f} s, "
          f"{found[threads].objective:.0f} windows covered")
assert found[1] == found[2], "the best solution depends on the worker count"
