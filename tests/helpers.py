"""Shared builders for the test suite."""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from windplan.resource import CriticalityMatrix, SiteCatalog, make_site
from windplan.siting import CardinalityPlan, PartitionQuota, adjust_cardinality
from windplan.timeseries import TimeSeries


def build_catalog(cf_rows, partitions, legacy_MW=None, potentials=None,
                  resolution_hours=1.0, legacy_threshold=100.0) -> SiteCatalog:
    """Catalog from a (sites, T) capacity-factor array.

    ``partitions`` maps each site index to a partition id (string per site
    or one id for all).  ``legacy_MW``/``potentials`` default to 0 MW and
    400 MW.
    """
    cf_rows = np.asarray(cf_rows, dtype=float)
    n = cf_rows.shape[0]
    if isinstance(partitions, str):
        partitions = [partitions] * n
    legacy_MW = [0.0] * n if legacy_MW is None else list(legacy_MW)
    potentials = [400.0] * n if potentials is None else list(potentials)
    sites = tuple(
        make_site(
            f"s{i:02d}", float(i), 50.0 + i, partitions[i], legacy_MW[i], potentials[i],
            TimeSeries(cf_rows[i], resolution_hours),
            legacy_threshold_MW=legacy_threshold,
        )
        for i in range(n)
    )
    return SiteCatalog(sites, legacy_threshold)


def plan_for(catalog: SiteCatalog, k_by_partition) -> CardinalityPlan:
    """Plan with explicit final quotas (raw set equal to final)."""
    quotas = []
    for pid, ids in catalog.partitions.items():
        legacy = sum(1 for sid in ids if catalog.site(sid).is_legacy)
        k = k_by_partition[pid]
        quotas.append(PartitionQuota(
            partition_id=pid, target_capacity_MW=float(k) * 1327.5,
            candidate_count=len(ids), legacy_count=legacy,
            raw_k=k, final_k=adjust_cardinality(k, len(ids), legacy),
        ))
    return CardinalityPlan(tuple(quotas))


def random_matrix(rng, n_sites, n_windows, density=0.4, c=1) -> CriticalityMatrix:
    bits = rng.random((n_sites, n_windows)) < density
    ids = tuple(f"s{i:02d}" for i in range(n_sites))
    return CriticalityMatrix.from_bool(bits, threshold_c=c, window_length=1, site_ids=ids)


def naive_coverage(matrix: CriticalityMatrix, selected) -> int:
    """Independent scalar recount of the covered-window number."""
    sel = [matrix.index_of[s] for s in selected]
    rows = [matrix.dense[l].tolist() for l in sel]  # plain python ints
    covered = 0
    for w in range(matrix.n_windows):
        hits = 0
        for row in rows:
            hits += row[w]
        if hits >= matrix.threshold_c:
            covered += 1
    return covered


def brute_force_comp(matrix, catalog, plan):
    """Exhaustive optimum of the coverage objective over feasible sets."""
    from windplan.siting import coverage_count

    pools = []
    for pid, ids in catalog.partitions.items():
        quota = plan.by_partition[pid]
        legacy = [s for s in ids if catalog.site(s).is_legacy]
        others = [s for s in ids if not catalog.site(s).is_legacy]
        free = quota.final_k - len(legacy)
        pools.append([tuple(legacy) + combo for combo in combinations(others, free)])
    best = -1
    best_set = None
    for choice in product(*pools):
        ids = [s for part in choice for s in part]
        f = coverage_count(matrix, ids)
        if f > best:
            best, best_set = f, frozenset(ids)
    return best, best_set


def brute_force_prod(catalog, plan):
    """Exhaustive optimum of the mean-capacity-factor objective."""
    pools = []
    for pid, ids in catalog.partitions.items():
        quota = plan.by_partition[pid]
        legacy = [s for s in ids if catalog.site(s).is_legacy]
        others = [s for s in ids if not catalog.site(s).is_legacy]
        free = quota.final_k - len(legacy)
        pools.append([tuple(legacy) + combo for combo in combinations(others, free)])
    best = -1.0
    for choice in product(*pools):
        ids = [s for part in choice for s in part]
        objective = math.fsum(catalog.site(s).mean_cf for s in ids) / plan.k
        best = max(best, objective)
    return best


class ScriptedRng:
    """Deterministic stand-in for a Generator: pops scripted uniforms."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.uniforms.pop(0)


# the CEP's per-period limits on one dispatch variable
LIMIT_ROWS = ("avail|", "mustrun|", "dis|", "chg|", "socmax|", "socmin|")


def limit_rows_with_one_free_entry(lp) -> list[str]:
    """Names of the limit rows with exactly one entry off the fixed columns:
    limits that the model should have set as that column's bound."""
    free = (lp.lower != lp.upper)[lp.entry_cols]
    counts = np.bincount(lp.entry_rows[free], minlength=lp.n_rows)
    return [name for name, count in zip(lp.row_names, counts)
            if count == 1 and name.startswith(LIMIT_ROWS)]
