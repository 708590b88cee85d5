"""Site selection schemes.

Two schemes are implemented over a common :class:`~windplan.resource.SiteCatalog`:

* ``prod`` — pick the highest-mean-capacity-factor sites per partition.
  The problem decomposes by partition, so a sort is globally optimal.
* ``comp`` — maximise the number of non-critical time windows (windows in
  which at least ``c`` selected sites cover demand).  The integer program
  is attacked with a deterministic greedy initialiser followed by an
  annealed local search over fixed-cardinality swaps; a mixed-integer
  relaxation can alternatively be exported as an MPS file and the incumbent
  of any external solver imported back as the initial point.

Cardinality preprocessing converts per-partition capacity targets into
site counts, and residual-demand diagnostics summarise what a selection
does to the system load.  A criticality matrix must list the catalog's
sites in catalog order, as :func:`~windplan.resource.build_criticality_matrix`
builds it; the ``comp`` functions raise ``ValueError`` otherwise.

:func:`run_multistart` spreads its runs over forked worker processes, which
share the matrix copy-on-write; a caller that runs threads of its own
should pass ``threads=1``, since forking a multi-threaded process is unsafe.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Mapping

import numpy as np

from windplan.resource import CriticalityMatrix, SiteCatalog
from windplan.timeseries import TimeSeries

DEFAULT_POWER_DENSITY_MW_KM2 = 6.0
DEFAULT_SITE_AREA_KM2 = 442.5
DEFAULT_UTILIZATION = 0.5


# ---------------------------------------------------------------------------
# Cardinality preprocessing
# ---------------------------------------------------------------------------

def compute_cardinalities(
    targets_MW: Mapping[str, float],
    power_density_MW_km2: float = DEFAULT_POWER_DENSITY_MW_KM2,
    site_area_km2: float = DEFAULT_SITE_AREA_KM2,
    utilization: float = DEFAULT_UTILIZATION,
) -> dict[str, int]:
    """Raw per-partition site counts from capacity targets.

    A single generic site accommodates ``density * area * utilization`` MW,
    so the raw count is the ceiling of the target divided by that amount.
    """
    if power_density_MW_km2 <= 0 or site_area_km2 <= 0 or utilization <= 0:
        raise ValueError("power density, site area and utilization must all be positive")
    per_site = power_density_MW_km2 * site_area_km2 * utilization
    out: dict[str, int] = {}
    for partition, target in targets_MW.items():
        if target <= 0:
            raise ValueError(f"partition {partition}: capacity target must be positive")
        out[partition] = math.ceil(target / per_site)
    return out


def adjust_cardinality(raw_k: int, candidate_count: int, legacy_count: int) -> int:
    """Clamp a raw site count to what the partition can actually host:
    never fewer than its legacy sites, never more than its candidates."""
    if legacy_count > candidate_count:
        raise ValueError(
            f"catalog inconsistency: {legacy_count} legacy sites but only "
            f"{candidate_count} candidates"
        )
    return min(candidate_count, max(legacy_count, raw_k))


@dataclass(frozen=True)
class PartitionQuota:
    partition_id: str
    target_capacity_MW: float
    candidate_count: int
    legacy_count: int
    raw_k: int
    final_k: int

    def __post_init__(self) -> None:
        if not self.legacy_count <= self.final_k <= self.candidate_count:
            raise ValueError(
                f"partition {self.partition_id}: quota {self.final_k} outside "
                f"[{self.legacy_count}, {self.candidate_count}]"
            )
        if self.final_k != adjust_cardinality(self.raw_k, self.candidate_count, self.legacy_count):
            raise ValueError(f"partition {self.partition_id}: final quota is not the clamped raw quota")


@dataclass(frozen=True)
class CardinalityPlan:
    """Per-partition deployment quotas plus the system-wide total."""

    quotas: tuple[PartitionQuota, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "quotas", tuple(self.quotas))
        ids = [q.partition_id for q in self.quotas]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate partition in plan")

    @property
    def k(self) -> int:
        return sum(q.final_k for q in self.quotas)

    @property
    def by_partition(self) -> dict[str, PartitionQuota]:
        return {q.partition_id: q for q in self.quotas}

    def default_threshold(self) -> int:
        """Coverage threshold requiring at least half the deployments."""
        return math.ceil(self.k / 2)


def build_plan(
    catalog: SiteCatalog,
    targets_MW: Mapping[str, float],
    power_density_MW_km2: float = DEFAULT_POWER_DENSITY_MW_KM2,
    site_area_km2: float = DEFAULT_SITE_AREA_KM2,
    utilization: float = DEFAULT_UTILIZATION,
    partitioned: bool = True,
) -> CardinalityPlan:
    """Assemble the deployment plan for a catalog.

    With ``partitioned=False`` the per-partition quotas are first computed
    as in the partitioned case, then collapsed into a single pool covering
    the whole catalog (total quota re-clamped to the catalog size).
    """
    unknown = set(targets_MW) - set(catalog.partitions)
    if unknown:
        raise ValueError(f"targets reference unknown partitions: {sorted(unknown)}")
    raw = compute_cardinalities(targets_MW, power_density_MW_km2, site_area_km2, utilization)
    quotas = []
    for partition, raw_k in raw.items():
        ids = catalog.partitions[partition]
        legacy = sum(1 for sid in ids if catalog.site(sid).is_legacy)
        quotas.append(
            PartitionQuota(
                partition_id=partition,
                target_capacity_MW=float(targets_MW[partition]),
                candidate_count=len(ids),
                legacy_count=legacy,
                raw_k=raw_k,
                final_k=adjust_cardinality(raw_k, len(ids), legacy),
            )
        )
    if partitioned:
        return CardinalityPlan(tuple(quotas))
    total_k = sum(q.final_k for q in quotas)
    candidates = sum(q.candidate_count for q in quotas)
    legacy = sum(q.legacy_count for q in quotas)
    merged = PartitionQuota(
        partition_id=_MERGED_PARTITION,
        target_capacity_MW=float(sum(targets_MW.values())),
        candidate_count=candidates,
        legacy_count=legacy,
        raw_k=total_k,
        final_k=adjust_cardinality(total_k, candidates, legacy),
    )
    return CardinalityPlan((merged,))


_MERGED_PARTITION = "__all__"


def _partition_members(catalog: SiteCatalog, plan: CardinalityPlan) -> dict[str, tuple[str, ...]]:
    """Site ids per plan partition (the merged pseudo-partition spans all)."""
    if len(plan.quotas) == 1 and plan.quotas[0].partition_id == _MERGED_PARTITION:
        return {_MERGED_PARTITION: tuple(site.id for site in catalog.sites)}
    members = {}
    for quota in plan.quotas:
        if quota.partition_id not in catalog.partitions:
            raise ValueError(f"plan references unknown partition {quota.partition_id!r}")
        members[quota.partition_id] = catalog.partitions[quota.partition_id]
    return members


def _layout(catalog: SiteCatalog, plan: CardinalityPlan,
            matrix: CriticalityMatrix | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per catalog site, in catalog order: the position of its quota in
    ``plan`` (-1 outside every quota) and its legacy flag.  A matrix must
    list the catalog's sites in catalog order, so site indices agree."""
    if matrix is not None and matrix.site_ids != tuple(catalog.index_of):
        raise ValueError("criticality matrix sites are not the catalog's sites in catalog order")
    part = np.full(len(catalog.sites), -1, dtype=np.intp)
    for p, ids in enumerate(_partition_members(catalog, plan).values()):
        part[[catalog.index_of[sid] for sid in ids]] = p
    legacy = np.array([site.is_legacy for site in catalog.sites], dtype=bool)
    return part, legacy


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SitingSolution:
    """A feasible selection of catalog sites: every legacy site included,
    exact quotas met, every other site inside a quota."""

    scheme: str
    selected: frozenset[str]
    per_partition_counts: dict[str, int]
    objective: float
    rng_seed: int | None = None


def _finish_solution(
    catalog: SiteCatalog,
    plan: CardinalityPlan,
    selected: Iterable[str],
    objective: float,
    scheme: str,
    rng_seed: int | None = None,
) -> SitingSolution:
    selected = frozenset(selected)
    part, legacy = _layout(catalog, plan)
    picked = np.array([site.id in selected for site in catalog.sites], dtype=bool)
    in_quota = part[picked]
    chosen = np.bincount(in_quota[in_quota >= 0], minlength=len(plan.quotas)).tolist()
    counts = {quota.partition_id: count for quota, count in zip(plan.quotas, chosen)}
    for quota, count in zip(plan.quotas, chosen):
        if count != quota.final_k:
            raise ValueError(f"partition {quota.partition_id}: selected {count} sites, "
                             f"quota is {quota.final_k}")
    missing_legacy = catalog.legacy_ids - selected
    if missing_legacy:
        raise ValueError(f"legacy sites missing from selection: {sorted(missing_legacy)}")
    unknown = selected - catalog.index_of.keys()
    if unknown:
        raise ValueError(f"selected ids not in the catalog: {sorted(unknown)}")
    outside = picked & (part < 0) & ~legacy
    if outside.any():
        raise ValueError("selected sites outside every quota: "
                         f"{sorted(catalog.sites[i].id for i in np.flatnonzero(outside))}")
    return SitingSolution(scheme, selected, counts, float(objective), rng_seed)


# ---------------------------------------------------------------------------
# Output-maximising scheme
# ---------------------------------------------------------------------------

def solve_prod(catalog: SiteCatalog, plan: CardinalityPlan) -> SitingSolution:
    """Globally optimal aggregate-output selection.

    In each partition the legacy sites are kept and the remaining slots go
    to the candidates with the highest mean capacity factor (ties to the
    lower catalog index).  The objective is the mean of the selected sites'
    mean capacity factors.
    """
    part, legacy = _layout(catalog, plan)
    mean_cf = np.array([site.mean_cf for site in catalog.sites])
    chosen = np.zeros(len(catalog.sites), dtype=bool)
    for p, quota in enumerate(plan.quotas):
        held = np.flatnonzero((part == p) & legacy)
        free = np.flatnonzero((part == p) & ~legacy)
        free_slots = quota.final_k - held.size
        if free_slots < 0 or quota.final_k > held.size + free.size:
            raise ValueError(f"partition {quota.partition_id}: infeasible quota {quota.final_k}")
        ranked = free[np.lexsort((free, -mean_cf[free]))]
        chosen[held] = True
        chosen[ranked[:free_slots]] = True
    # fsum: exactly rounded, so the objective is independent of summation order
    objective = math.fsum(mean_cf[chosen]) / plan.k
    selected = [site.id for site, pick in zip(catalog.sites, chosen) if pick]
    return _finish_solution(catalog, plan, selected, objective, "prod")


# ---------------------------------------------------------------------------
# Coverage counting
# ---------------------------------------------------------------------------

def coverage_count(matrix: CriticalityMatrix, selected: Iterable[str]) -> int:
    """Number of windows covered by at least ``threshold_c`` selected sites;
    a repeated id counts once."""
    ids = list(selected)
    unknown = [sid for sid in ids if sid not in matrix.index_of]
    if unknown:
        raise ValueError(f"site ids not indexed in matrix: {unknown}")
    picked = np.zeros(matrix.n_sites, dtype=bool)
    picked[[matrix.index_of[sid] for sid in ids]] = True
    counts = matrix.dense[picked].sum(axis=0, dtype=np.int32)
    return int(np.count_nonzero(counts >= matrix.threshold_c))


class _Coverage:
    """Window counts of the incumbent and the one swap evaluator of the search.

    Swapping at most ``r`` sites in and ``r`` out moves each count by at most
    ``r``, so only boundary windows with a count in ``[c - r, c + r - 1]`` can
    cross the threshold; the boundary columns are cached until :meth:`move`.
    """

    def __init__(self, matrix: CriticalityMatrix, selection: np.ndarray):
        self.matrix = matrix
        self.c = matrix.threshold_c
        self.counts = matrix.dense[selection].sum(axis=0, dtype=np.int32)
        self.f = int(np.count_nonzero(self.counts >= self.c))
        self._boundary: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}

    def gains(self, ins: np.ndarray, outs: np.ndarray) -> np.ndarray:
        """Objective change of neighbour ``j`` adding ``ins[j]`` and dropping
        ``outs[j]`` (2-D index arrays, one row per neighbour)."""
        r = max(ins.shape[1], outs.shape[1])
        if r not in self._boundary:
            cols = np.flatnonzero((self.counts >= self.c - r) & (self.counts <= self.c + r - 1))
            base = self.counts[cols]
            sub = np.ascontiguousarray(self.matrix.columns(cols))
            self._boundary[r] = (base, sub, np.count_nonzero(base >= self.c))
        base, sub, f_base = self._boundary[r]
        new = np.broadcast_to(base, (len(ins), base.size))
        for site in ins.T:
            new = new + sub.take(site, axis=0)
        for site in outs.T:
            new = new - sub.take(site, axis=0)
        return np.add.reduce(new >= self.c, axis=1, dtype=np.intp) - f_base

    def move(self, ins: np.ndarray, outs: np.ndarray, gain: int) -> None:
        for site in ins:
            self.counts += self.matrix.dense[site]
        for site in outs:
            self.counts -= self.matrix.dense[site]
        self.f += gain
        self._boundary.clear()


# ---------------------------------------------------------------------------
# Greedy initialisation
# ---------------------------------------------------------------------------

def greedy_init(
    matrix: CriticalityMatrix,
    catalog: SiteCatalog,
    plan: CardinalityPlan,
) -> SitingSolution:
    """Deterministic coverage-greedy starting point.

    Starts from the legacy sites and repeatedly adds the candidate whose
    addition covers the most additional windows, restricted to partitions
    with remaining quota; ties break to the lower catalog index.  Stands in
    for solving a mixed-integer relaxation with an external solver (see
    :func:`build_comp_mir` for that escape hatch).

    A candidate's gain is the number of windows at ``c - 1`` it covers.
    Counts only grow, so a pick changes the gains only on its windows that
    moved from ``c - 1`` to ``c`` or from ``c - 2`` to ``c - 1``; the gains
    are updated on those columns alone, O(L·W) for the whole start instead
    of O(L·W) per pick.
    """
    part, legacy = _layout(catalog, plan, matrix)
    dense = matrix.dense
    c = matrix.threshold_c
    start = legacy & (part >= 0)
    selected = np.flatnonzero(start).tolist()
    remaining = (np.array([quota.final_k for quota in plan.quotas], dtype=np.int64)
                 - np.bincount(part[start], minlength=len(plan.quotas)))
    counts = dense[start].sum(axis=0, dtype=np.int32)
    cand_idx = np.flatnonzero((part >= 0) & ~legacy)
    cand_part = part[cand_idx]
    is_open = remaining[cand_part] > 0

    def covering(windows: np.ndarray) -> np.ndarray:  # per site, flagged windows covered
        return matrix.columns(np.flatnonzero(windows)).sum(axis=1, dtype=np.int64)

    gains = covering(counts == c - 1)
    while (remaining > 0).any():
        if not is_open.any():
            raise ValueError("quota left open but no candidates remain")
        best = int(np.argmax(np.where(is_open, gains[cand_idx], -1)))  # first = lowest catalog index
        selected.append(int(cand_idx[best]))
        remaining[cand_part[best]] -= 1
        is_open[best] = False
        is_open &= remaining[cand_part] > 0
        row = dense[cand_idx[best]]
        counts += row
        hit = row.astype(bool)
        gains -= covering(hit & (counts == c))
        gains += covering(hit & (counts == c - 1))
    return _finish_solution(catalog, plan, [matrix.site_ids[i] for i in selected],
                            int(np.count_nonzero(counts >= c)), "comp")


# ---------------------------------------------------------------------------
# Neighbourhood structure
# ---------------------------------------------------------------------------

class _SearchSpace:
    """Index-level view of the swap neighbourhood.

    Selected and unselected non-legacy sites are kept in flat arrays grouped
    by partition; per-partition segment sizes are invariant under swaps, so
    :meth:`sampler` lays out a radius's allocations once for the search and
    :meth:`draw`, the one swap sampler of every radius, draws batches.
    """

    def __init__(self, matrix: CriticalityMatrix, catalog: SiteCatalog,
                 plan: CardinalityPlan, selected: Iterable[str]):
        self.matrix, self.catalog, self.plan = matrix, catalog, plan
        part, legacy = _layout(catalog, plan, matrix)
        self.legacy_idx = np.flatnonzero(legacy)
        self._pool_of = np.where(legacy, -1, part)  # quota position of a swappable site
        selected = set(selected)
        self.sel_flat, self.sel_sizes, self.uns_flat, self.uns_sizes = self._pools(
            np.array([sid in selected for sid in matrix.site_ids], dtype=bool))
        self.sel_off = np.concatenate([[0], np.cumsum(self.sel_sizes)[:-1]])
        self.uns_off = np.concatenate([[0], np.cumsum(self.uns_sizes)[:-1]])
        self.caps = np.minimum(self.sel_sizes, self.uns_sizes)

    def _pools(self, selection: np.ndarray) -> tuple[np.ndarray, ...]:
        """Selected flat pool, its segment sizes, unselected flat pool and its
        segment sizes for a selection mask over the matrix sites."""
        out = []
        for mask in (selection, ~selection):
            idx = np.flatnonzero(mask & (self._pool_of >= 0))
            idx = idx[np.argsort(self._pool_of[idx], kind="stable")]
            out += [idx, np.bincount(self._pool_of[idx], minlength=len(self.plan.quotas))]
        return tuple(out)

    def pool_indices(self, ids: Iterable[str]) -> np.ndarray:
        """Matrix indices of a scripted non-legacy selection.  It may name
        each swappable site once; a legacy site, a site outside every quota
        or a repeat would enter the swap gains from nowhere or twice, and an
        id the matrix does not index has no column at all."""
        ids, index_of = list(ids), self.matrix.index_of
        unknown = [sid for sid in ids if sid not in index_of]
        if unknown:
            raise ValueError("scripted neighbour names sites the matrix does not index: "
                             f"{unknown}")
        idx = np.array([index_of[sid] for sid in ids], dtype=np.intp)
        named = np.bincount(idx, minlength=self.matrix.n_sites)
        bad = np.flatnonzero((named > 1) | ((named > 0) & (self._pool_of < 0)))
        if bad.size:
            raise ValueError("scripted neighbour names legacy, unquota'd or repeated sites: "
                             f"{[self.matrix.site_ids[i] for i in bad]}")
        return idx

    def selection_ids(self) -> frozenset[str]:
        ids = [self.matrix.site_ids[i] for i in self.sel_flat]
        ids += [self.matrix.site_ids[i] for i in self.legacy_idx]
        return frozenset(ids)

    def sampler(self, r: int) -> None:
        """Lay out the swaps of radius ``r`` for :meth:`draw`, reduced to
        ``caps.sum()`` swaps when the pools cannot host ``r``.  An
        allocation is a row of slot partitions (a multiset, descending);
        a slot keeps, for both pools, its segment's offset and Floyd's bound:
        the segment size less the later slots of its partition."""
        r_eff = min(r, int(self.caps.sum()))
        if r_eff == 0:
            raise ValueError("no feasible swap anywhere: every partition pool is empty")
        rows = np.array(list(combinations_with_replacement(np.flatnonzero(self.caps)[::-1], r_eff)))
        same = rows[:, :, None] == rows[:, None, :]  # slots j and l share a partition
        keep = (same.sum(axis=2) <= self.caps[rows]).all(axis=1)
        rows, later = rows[keep], np.triu(same[keep], 1).sum(axis=2)
        self._slots = [(off[rows], size[rows] - later) for off, size in
                       ((self.sel_off, self.sel_sizes), (self.uns_off, self.uns_sizes))]

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``(n, r)`` flat positions of ``n`` swaps, selected leaving and
        unselected entering: a uniform allocation each, then Floyd's sample
        per partition (a draw that an earlier slot of the partition holds
        becomes the slot's last position; partitions' positions never meet)."""
        alloc = rng.integers(0, len(self._slots[0][0]), size=n)
        out = []
        for base, high in self._slots:
            base, high = base.take(alloc, axis=0), high.take(alloc, axis=0)
            at = base + rng.integers(0, high)
            for j in range(1, at.shape[1]):
                hit = (at[:, :j] == at[:, j, None]).any(axis=1)
                at[hit, j] = base[hit, j] + high[hit, j] - 1
            out.append(at)
        return out[0], out[1]

    def swap(self, sel_at: np.ndarray, uns_at: np.ndarray) -> None:
        out_sites = self.sel_flat[sel_at]
        self.sel_flat[sel_at] = self.uns_flat[uns_at]
        self.uns_flat[uns_at] = out_sites


def sample_neighbor(
    selected: Iterable[str],
    matrix: CriticalityMatrix,
    catalog: SiteCatalog,
    plan: CardinalityPlan,
    r: int,
    rng: np.random.Generator,
) -> frozenset[str]:
    """Draw one feasible neighbour of a selection uniformly at random.

    The number of swaps per partition is drawn uniformly over the feasible
    allocations of the radius (partitions without swappable sites always
    receive zero), then that many selected/unselected non-legacy sites are
    exchanged within each partition, Floyd's uniform subset of each pool,
    as :func:`local_search` draws.  The result meets the same per-partition
    quotas and shares ``k - r`` members with the input whenever the pools
    can host ``r`` swaps.
    """
    solution = _finish_solution(catalog, plan, selected, 0.0, "probe")
    space = _SearchSpace(matrix, catalog, plan, solution.selected)
    space.sampler(r)
    space.swap(*space.draw(1, rng))
    return space.selection_ids()


# ---------------------------------------------------------------------------
# Annealed local search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnealParams:
    """Local-search schedule: ``temperature(i) = t0 * exp(-decay * i / iterations)``."""

    iterations: int = 5000
    neighbors: int = 500
    radius: int = 1
    t0: float = 100.0
    decay: float = 10.0
    return_mode: str = "best_visited"

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.neighbors < 1:
            raise ValueError("neighbors per iteration must be >= 1")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if not self.t0 > 0:
            raise ValueError("initial temperature must be positive")
        if not self.decay >= 0:  # a negative decay heats the schedule until exp overflows
            raise ValueError("decay must be >= 0")
        if self.return_mode not in ("best_visited", "final_incumbent"):
            raise ValueError(f"unknown return mode {self.return_mode!r}")

    def temperature(self, i: int) -> float:
        """The schedule at iteration ``i``; ``t0`` when there are no iterations."""
        return self.t0 * math.exp(-self.decay * i / max(self.iterations, 1))


def local_search(
    init: SitingSolution,
    matrix: CriticalityMatrix,
    catalog: SiteCatalog,
    plan: CardinalityPlan,
    params: AnnealParams,
    rng: np.random.Generator | int,
    neighbor_sampler: Callable[[tuple[str, ...], int, int, object], Iterable[str]] | None = None,
    on_iteration: Callable[[int, float, bool, int], None] | None = None,
) -> SitingSolution:
    """Simulated-annealing style local search over fixed-cardinality swaps.

    Each iteration draws a batch of ``params.neighbors`` candidates as
    :func:`sample_neighbor` draws one, keeps the best coverage gain,
    accepts it outright when strictly positive and otherwise with Bernoulli
    probability ``exp(gain / temperature(i))`` (a zero gain is therefore
    always accepted).  Legacy sites never move and are re-attached to the
    returned selection.

    ``neighbor_sampler(current_non_legacy_ids, i, j, rng)`` may be supplied
    to script the neighbour sequence (it must return the full non-legacy
    selection of neighbour ``j``; a legacy site, a site outside every quota
    or a repeated site in it raises ``ValueError``); ``on_iteration(i,
    gain, accepted, incumbent_objective)`` observes the incumbent
    trajectory.

    In ``best_visited`` mode the highest-coverage solution ever evaluated
    (the initial one included) is returned, so the result never scores
    below the input; ``final_incumbent`` returns the last incumbent as in
    the plain annealing loop.

    Neighbours are scored only on the boundary windows ``B`` whose count
    lies in ``[c - r, c + r - 1]``, the only ones ``r`` swaps can flip: an
    iteration costs O(n·r·|B|) instead of O(n·W), and ``B`` is recomputed
    only after an accepted move.  Draws and results equal a full recount.
    """
    seed: int | None = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    f_init = coverage_count(matrix, init.selected)
    solution = _finish_solution(catalog, plan, init.selected, f_init, "comp", seed)
    space = _SearchSpace(matrix, catalog, plan, solution.selected)
    # Nothing to explore once every pool is frozen (all-legacy quotas or
    # full selections): the initial point is the whole neighbourhood.
    if params.iterations == 0 or int(space.caps.sum()) == 0:
        return solution
    free_slots = plan.k - len(catalog.legacy_ids & solution.selected)
    if params.radius > free_slots:
        raise ValueError(f"radius {params.radius} exceeds the {free_slots} swappable slots")

    cover = _Coverage(matrix, np.concatenate([space.sel_flat, space.legacy_idx]))
    best_f, best_sel = cover.f, space.sel_flat.copy()

    space.sampler(params.radius)
    n = params.neighbors
    for i in range(params.iterations):
        # Every sampler yields, per neighbour, the sites entering and leaving.
        if neighbor_sampler is not None:
            current_ids = tuple(matrix.site_ids[s] for s in space.sel_flat)
            scripted = [space.pool_indices(neighbor_sampler(current_ids, i, j, rng))
                        for j in range(n)]
            ins = [cand[~np.isin(cand, space.sel_flat)] for cand in scripted]
            outs = [space.sel_flat[~np.isin(space.sel_flat, cand)] for cand in scripted]
            gains = [int(cover.gains(a[None], b[None])[0]) for a, b in zip(ins, outs)]
        else:
            sel_at, uns_at = space.draw(n, rng)
            ins, outs = space.uns_flat[uns_at], space.sel_flat[sel_at]
            gains = cover.gains(ins, outs)
        j = int(np.argmax(gains))  # ties to the lowest draw index
        gain = int(gains[j])
        accepted = _accept(gain, params.temperature(i), rng)
        if accepted:
            cover.move(ins[j], outs[j], gain)
            if neighbor_sampler is not None:
                _replace_selection(space, scripted[j])
            else:
                space.swap(sel_at[j], uns_at[j])
        # A new best has a positive gain, which is always accepted.
        if cover.f > best_f:
            best_f, best_sel = cover.f, space.sel_flat.copy()
        if on_iteration is not None:
            on_iteration(i, float(gain), accepted, cover.f)

    final_sel = best_sel if params.return_mode == "best_visited" else space.sel_flat
    ids = [matrix.site_ids[s] for s in final_sel] + [matrix.site_ids[s] for s in space.legacy_idx]
    objective = coverage_count(matrix, ids)
    return _finish_solution(catalog, plan, ids, objective, "comp", seed)


def _accept(delta: float, temperature: float, rng) -> bool:
    """Metropolis acceptance.  A schedule that has cooled to 0.0 still
    accepts a zero gain and rejects a loss; every non-positive gain takes
    one draw, so each seed's stream does not depend on the temperature."""
    if delta > 0:
        return True
    if temperature > 0:
        exponent = delta / temperature
        p = math.exp(exponent) if exponent > -700 else 0.0
    else:
        p = float(delta == 0)
    return bool(rng.random() < p)


def _replace_selection(space: _SearchSpace, new_sel: np.ndarray) -> None:
    """Overwrite the pools with an externally supplied non-legacy selection."""
    selection = np.zeros(space.matrix.n_sites, dtype=bool)
    selection[new_sel] = True
    sel_flat, sel_sizes, uns_flat, _ = space._pools(selection)
    changed = np.flatnonzero(sel_sizes != space.sel_sizes)
    if changed.size:
        partition = space.plan.quotas[changed[0]].partition_id
        raise ValueError(f"scripted neighbour changes the quota of partition {partition}")
    space.sel_flat[:] = sel_flat
    space.uns_flat[:] = uns_flat


def run_multistart(
    matrix: CriticalityMatrix,
    catalog: SiteCatalog,
    plan: CardinalityPlan,
    params: AnnealParams,
    n_runs: int = 30,
    base_seed: int = 0,
    threads: int = 1,
    init: SitingSolution | None = None,
) -> SitingSolution:
    """Best of ``n_runs`` independent local searches.

    Run ``i`` is seeded with ``base_seed + i`` and all runs start from the
    same (deterministic) greedy initialisation, so the result only depends
    on the inputs and the base seed.  Ties go to the lowest seed, which
    makes the reduction independent of the worker count.

    The runs go to ``min(threads, n_runs, usable CPUs)`` worker processes.
    Workers are forked: they inherit the matrix, its unpacked ``dense``
    cache and the start read-only, and send back only their solutions.
    With one worker, or where ``fork`` is not a start method, the runs
    execute in this process.  Forking a process that runs threads of its
    own can deadlock the children, so such a caller should pass
    ``threads=1``.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if init is None:
        init = greedy_init(matrix, catalog, plan)
    job = (init, matrix, catalog, plan, params)
    seeds = range(base_seed, base_seed + n_runs)
    workers = min(threads, n_runs, _usable_cpus())
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        results = [local_search(*job, seed) for seed in seeds]
    else:
        from concurrent.futures.process import ProcessPoolExecutor

        matrix.dense  # unpack before the fork, so that the workers share it
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker, initargs=job) as pool:
            results = list(pool.map(_run_seed, seeds))
    return max(results, key=lambda result: result.objective)   # the first of a tie


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker_job: tuple | None = None


def _start_worker(*job) -> None:
    """Pool initializer: keep the search inputs, inherited through the fork."""
    global _worker_job
    _worker_job = job


def _run_seed(seed: int) -> SitingSolution:
    return local_search(*_worker_job, seed)


# ---------------------------------------------------------------------------
# Mixed-integer relaxation escape hatch
# ---------------------------------------------------------------------------

def build_comp_mir(matrix: CriticalityMatrix, catalog: SiteCatalog, plan: CardinalityPlan):
    """Mixed-integer relaxation of the complementarity problem.

    Site variables stay binary while window indicators are relaxed to
    [0, 1]; the canonical LP (minimisation of the negated window count) can
    be exported with :func:`windplan.mps.export_mps` and handed to any MILP
    solver.  Use :func:`mir_solution_to_init` to turn the returned site
    values into a search initialisation.
    """
    from windplan.lp import LpBuilder, Names

    part, legacy = _layout(catalog, plan, matrix)
    builder = LpBuilder(name="comp_mir")
    x_vars = builder.add_vars([f"x|{sid}" for sid in matrix.site_ids],
                              lower=np.where(legacy, 1.0, 0.0), upper=1.0, integer=True)
    windows = range(matrix.n_windows)
    y_vars = builder.add_vars(Names.family("y", windows), upper=1.0, objective=-1.0)
    cov = builder.add_rows(Names.family("cov", windows), ">", 0.0,
                           (y_vars, -float(matrix.threshold_c)))
    sites, covered = np.nonzero(matrix.dense)
    builder.add_entries(cov[covered], x_vars[sites], 1.0)
    card = builder.add_rows([f"card|{quota.partition_id}" for quota in plan.quotas], "=",
                            [float(quota.final_k) for quota in plan.quotas])
    builder.add_entries(card[part[part >= 0]], x_vars[part >= 0], 1.0)
    return builder.build()


def mir_solution_to_init(
    values: Mapping[str, float],
    matrix: CriticalityMatrix,
    catalog: SiteCatalog,
    plan: CardinalityPlan,
) -> SitingSolution:
    """Interpret external solver values for the MIR site variables.

    Any feasible incumbent is accepted: site variables at or above 0.5 are
    read as selected.
    """
    chosen = [sid for sid in matrix.site_ids if values.get(f"x|{sid}", 0.0) >= 0.5]
    objective = coverage_count(matrix, chosen)
    return _finish_solution(catalog, plan, chosen, objective, "comp")


# ---------------------------------------------------------------------------
# Residual demand diagnostics
# ---------------------------------------------------------------------------

def residual_demand(
    demand: TimeSeries,
    catalog: SiteCatalog,
    selected: Iterable[str],
    deploy_MW_per_site: float,
) -> TimeSeries:
    """System demand minus the feed-in of the selected sites, each deployed
    at a uniform ``deploy_MW_per_site``."""
    if len(demand) != catalog.time_length:
        raise ValueError("demand length does not match catalog series length")
    feed_in = np.zeros(len(demand))
    # Sorted accumulation keeps the float result independent of set order.
    for sid in sorted(selected):
        feed_in += deploy_MW_per_site * catalog.site(sid).capacity_factors.values
    return demand.with_values(demand.values - feed_in)


def block_spread(series: TimeSeries, block_hours: float) -> np.ndarray:
    """Max-minus-min spread over disjoint blocks of the given duration.

    The block must span a whole number of periods; a trailing partial block
    is dropped.
    """
    periods = block_hours / series.resolution_hours
    if abs(periods - round(periods)) > 1e-9 or round(periods) < 1:
        raise ValueError(
            f"block of {block_hours} h is not a whole number of {series.resolution_hours} h periods"
        )
    periods = int(round(periods))
    n_blocks = len(series) // periods
    if n_blocks == 0:
        raise ValueError("series shorter than one block")
    blocks = series.values[: n_blocks * periods].reshape(n_blocks, periods)
    return blocks.max(axis=1) - blocks.min(axis=1)


def residual_summary(residual: TimeSeries) -> dict[str, dict[str, float]]:
    """Quartile summaries of the residual series and of its 12-hourly and
    daily block spreads."""
    def describe(values: np.ndarray) -> dict[str, float]:
        q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75], method="linear")
        return {
            "min": float(values.min()),
            "q1": float(q1),
            "median": float(med),
            "q3": float(q3),
            "max": float(values.max()),
        }

    return {
        "residual": describe(residual.values),
        "spread_12h": describe(block_spread(residual, 12.0)),
        "spread_daily": describe(block_spread(residual, 24.0)),
    }
