"""Full-recount reference implementations of the siting search.

``greedy_init`` scores every open candidate against all W windows on every
pick, and ``local_search`` scores every neighbour by recounting all W
windows.  Both consume random draws in exactly the order of the library
implementations, so the incremental, boundary-window versions in
``windplan.siting`` must reproduce their selections, objectives and
``on_iteration`` traces bit for bit.  Pool bookkeeping (segment layout,
swap draws, quota checks, acceptance test) is shared with the library;
coverage scoring is not.
"""

from __future__ import annotations

import math

import numpy as np

from windplan.siting import (
    _SearchSpace, _accept, _finish_solution, _partition_members, _replace_selection,
    coverage_count,
)


def _counts_for(dense: np.ndarray, indices) -> np.ndarray:
    counts = np.zeros(dense.shape[1], dtype=np.int32)
    for idx in indices:
        counts += dense[idx]
    return counts


def _objective(counts: np.ndarray, c: int) -> int:
    return int(np.count_nonzero(counts >= c))


def _swap(space: _SearchSpace, sel_at, uns_at) -> None:
    out_sites = space.sel_flat[sel_at].copy()
    space.sel_flat[sel_at] = space.uns_flat[uns_at]
    space.uns_flat[uns_at] = out_sites


def greedy_init(matrix, catalog, plan):
    """Coverage greedy that rescores all open candidates over all windows."""
    members = _partition_members(catalog, plan)
    dense = matrix.dense
    c = matrix.threshold_c
    selected: list[str] = []
    remaining: dict[str, int] = {}
    partition_of: dict[str, str] = {}
    for quota in plan.quotas:
        legacy = [sid for sid in members[quota.partition_id] if catalog.site(sid).is_legacy]
        selected.extend(legacy)
        remaining[quota.partition_id] = quota.final_k - len(legacy)
        for sid in members[quota.partition_id]:
            partition_of[sid] = quota.partition_id
    counts = _counts_for(dense, [matrix.index_of[sid] for sid in selected])
    chosen = set(selected)
    candidates = [site.id for site in catalog.sites if site.id not in chosen and site.id in partition_of]
    while any(v > 0 for v in remaining.values()):
        open_ids = [sid for sid in candidates if sid not in chosen and remaining[partition_of[sid]] > 0]
        if not open_ids:
            raise ValueError("quota left open but no candidates remain")
        idx = np.array([matrix.index_of[sid] for sid in open_ids], dtype=np.intp)
        needy = (counts == c - 1).astype(np.int64)
        gains = dense[idx] @ needy
        pick = open_ids[int(np.argmax(gains))]
        chosen.add(pick)
        selected.append(pick)
        remaining[partition_of[pick]] -= 1
        counts += dense[matrix.index_of[pick]]
    return _finish_solution(catalog, plan, selected, _objective(counts, c), "comp")


def local_search(init, matrix, catalog, plan, params, rng, neighbor_sampler=None,
                 on_iteration=None):
    """Annealed swap search that scores each neighbour over all W windows."""
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    else:
        seed = getattr(rng, "windplan_seed", None)
    f_init = coverage_count(matrix, init.selected)
    solution = _finish_solution(catalog, plan, init.selected, f_init, "comp", seed)
    space = _SearchSpace(matrix, catalog, plan, solution.selected)
    if params.iterations == 0 or int(space.caps.sum()) == 0:
        return solution
    free_slots = plan.k - len(catalog.legacy_ids & solution.selected)
    if params.radius > free_slots:
        raise ValueError(f"radius {params.radius} exceeds the {free_slots} swappable slots")

    dense = matrix.dense
    c = matrix.threshold_c
    counts = _counts_for(dense, np.concatenate([space.sel_flat, space.legacy_idx]))
    f_cur = _objective(counts, c)
    best_f = f_cur
    best_sel = space.sel_flat.copy()
    space.sampler(params.radius)
    n = params.neighbors
    for i in range(params.iterations):
        if neighbor_sampler is not None:
            delta_best = -math.inf
            best_counts = counts
            chosen_sel = space.sel_flat
            current_ids = tuple(matrix.site_ids[s] for s in space.sel_flat)
            for j in range(n):
                cand_ids = tuple(neighbor_sampler(current_ids, i, j, rng))
                cand_idx = np.array([matrix.index_of[s] for s in cand_ids], dtype=np.intp)
                cand_counts = _counts_for(dense, np.concatenate([cand_idx, space.legacy_idx]))
                delta = _objective(cand_counts, c) - f_cur
                if delta > delta_best:
                    delta_best, best_counts, chosen_sel = delta, cand_counts, cand_idx
            if _objective(best_counts, c) > best_f:
                best_f = _objective(best_counts, c)
                best_sel = chosen_sel.copy()
            accepted = _accept(delta_best, params.temperature(i), rng)
            if accepted:
                _replace_selection(space, chosen_sel)
                counts, f_cur = best_counts, f_cur + int(delta_best)
        else:
            sel_at, uns_at = space.draw(n, rng)
            trial = (counts[None, :] + dense[space.uns_flat[uns_at]].sum(axis=1, dtype=np.int32)
                     - dense[space.sel_flat[sel_at]].sum(axis=1, dtype=np.int32))
            f_new = (trial >= c).sum(axis=1)
            j = int(np.argmax(f_new))
            delta_best = int(f_new[j]) - f_cur
            if int(f_new[j]) > best_f:
                best_f = int(f_new[j])
                best_sel = space.sel_flat.copy()
                best_sel[sel_at[j]] = space.uns_flat[uns_at[j]]
            accepted = _accept(delta_best, params.temperature(i), rng)
            if accepted:
                _swap(space, sel_at[j], uns_at[j])
                counts = trial[j]
                f_cur += delta_best
        if on_iteration is not None:
            on_iteration(i, float(delta_best), bool(accepted), int(f_cur))

    final_sel = best_sel if params.return_mode == "best_visited" else space.sel_flat
    ids = [matrix.site_ids[s] for s in final_sel] + [matrix.site_ids[s] for s in space.legacy_idx]
    return _finish_solution(catalog, plan, ids, coverage_count(matrix, ids), "comp", seed)
