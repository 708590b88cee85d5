"""The incremental greedy start and the boundary-window swap evaluator
against the full-recount oracle, plus outputs pinned on a mid-size catalog."""

from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import siting_oracle as oracle
from helpers import build_catalog, plan_for, random_matrix
from windplan.resource import CriticalityMatrix
from windplan.siting import (
    AnnealParams, _SearchSpace, build_plan, greedy_init, local_search, run_multistart,
)


@st.composite
def instances(draw):
    """Random catalog, matrix and plan: 1-3 partitions of 1-6 sites with up
    to two legacy sites each, partitioned or merged quotas, any threshold."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    legacy = [draw(st.integers(0, min(2, n))) for n in sizes]
    quotas = {f"P{p}": draw(st.integers(max(l, 1), n))
              for p, (n, l) in enumerate(zip(sizes, legacy))}
    parts = [f"P{p}" for p, n in enumerate(sizes) for _ in range(n)]
    legacy_MW = [150.0 if j < l else 0.0 for n, l in zip(sizes, legacy) for j in range(n)]
    catalog = build_catalog(np.full((len(parts), 2), 0.5), parts, legacy_MW=legacy_MW)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.random((len(parts), draw(st.integers(1, 40)))) < draw(st.floats(0.05, 0.95))
    c = draw(st.integers(1, len(parts)))
    matrix = CriticalityMatrix.from_bool(bits, c, 1, tuple(catalog.index_of))
    if draw(st.booleans()):
        plan = build_plan(catalog, {p: q * 1327.5 for p, q in quotas.items()}, partitioned=False)
    else:
        plan = plan_for(catalog, quotas)
    return catalog, matrix, plan


def random_swapper(catalog, radius):
    """Scripted sampler: up to ``radius`` same-partition swaps drawn from the
    search's own generator (zero swaps repeat the incumbent)."""
    def sampler(current, i, j, rng):
        chosen = list(current)
        for _ in range(int(rng.integers(0, radius + 1))):
            pos = int(rng.integers(0, len(chosen)))
            pool = [s for s in catalog.partitions[catalog.site(chosen[pos]).partition_id]
                    if not catalog.site(s).is_legacy and s not in chosen]
            if pool:
                chosen[pos] = pool[int(rng.integers(0, len(pool)))]
        return tuple(chosen)
    return sampler


def run_search(search, *args, **kwargs):
    trace = []
    try:
        out = search(*args, on_iteration=lambda *event: trace.append(event), **kwargs)
    except ValueError as exc:
        return "ValueError", str(exc)
    return out, trace


@settings(max_examples=150, deadline=None)
@given(instances())
def test_greedy_matches_full_recount_oracle(instance):
    catalog, matrix, plan = instance
    assert greedy_init(matrix, catalog, plan) == oracle.greedy_init(matrix, catalog, plan)


@settings(max_examples=150, deadline=None)
@given(
    instance=instances(),
    radius=st.integers(1, 3),
    mode=st.sampled_from(["best_visited", "final_incumbent"]),
    scripted=st.booleans(),
    t0=st.sampled_from([0.5, 5.0, 100.0]),
    iterations=st.integers(0, 12),
    neighbors=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_local_search_matches_full_recount_oracle(instance, radius, mode, scripted, t0,
                                                  iterations, neighbors, seed):
    catalog, matrix, plan = instance
    init = oracle.greedy_init(matrix, catalog, plan)
    params = AnnealParams(iterations=iterations, neighbors=neighbors, radius=radius, t0=t0,
                          decay=3.0, return_mode=mode)
    sampler = random_swapper(catalog, radius) if scripted else None
    args = (init, matrix, catalog, plan, params, seed)
    assert (run_search(local_search, *args, neighbor_sampler=sampler)
            == run_search(oracle.local_search, *args, neighbor_sampler=sampler))


# ---------------------------------------------------------------------------
# The swap sampler
# ---------------------------------------------------------------------------

def test_radius_one_draws_equal_the_inline_single_swap_formula(pinned_instance):
    """Radius one draws a partition among the open ones (descending), then
    one position in each of its pools, in that order from the generator."""
    catalog, matrix, plans = pinned_instance
    for plan in plans.values():
        space = _SearchSpace(matrix, catalog, plan, greedy_init(matrix, catalog, plan).selected)
        space.sampler(1)
        parts = np.flatnonzero(space.caps)[::-1]
        for seed in range(6):
            rng = np.random.default_rng(seed)
            part = parts[rng.integers(0, len(parts), size=500)]
            sel_at = (space.sel_off[part] + rng.integers(0, space.sel_sizes[part]))[:, None]
            uns_at = (space.uns_off[part] + rng.integers(0, space.uns_sizes[part]))[:, None]
            got = space.draw(500, np.random.default_rng(seed))
            assert np.array_equal(got[0], sel_at) and np.array_equal(got[1], uns_at)


@pytest.fixture(scope="module")
def small_space():
    """Three pools: A selects 2 of 5, B 2 of 4 and C 1 of 3 (one legacy
    site in A stays out), so the per-partition swap caps are 2, 2 and 1."""
    catalog = build_catalog(np.full((13, 2), 0.5), ["A"] * 6 + ["B"] * 4 + ["C"] * 3,
                            legacy_MW=[150.0] + [0.0] * 12)
    matrix = random_matrix(np.random.default_rng(0), 13, 4)
    plan = plan_for(catalog, {"A": 3, "B": 2, "C": 1})
    return _SearchSpace(matrix, catalog, plan, ["s00", "s01", "s02", "s06", "s07", "s10"])


@pytest.mark.parametrize("r", [2, 3])
def test_draws_follow_the_enumerated_neighbour_distribution(small_space, r):
    """Uniform over the feasible allocations, then a uniform subset of each
    pool.  Each neighbour's count in n draws is binomial; 5 standard
    deviations per neighbour leave a chance under 1e-4 that one of the 48
    (r = 2) or 74 (r = 3) neighbours falls outside by luck alone."""
    space = small_space
    sel_pools = np.split(space.sel_flat, np.cumsum(space.sel_sizes)[:-1])
    uns_pools = np.split(space.uns_flat, np.cumsum(space.uns_sizes)[:-1])
    allocs = [a for a in product(*(range(int(cap) + 1) for cap in space.caps)) if sum(a) == r]
    expected = {}
    for alloc in allocs:
        ways = [[(out, into) for out in combinations(sel.tolist(), s)
                 for into in combinations(uns.tolist(), s)]
                for sel, uns, s in zip(sel_pools, uns_pools, alloc)]
        p = 1.0 / len(allocs) / np.prod([comb(len(sel), s) * comb(len(uns), s)
                                         for sel, uns, s in zip(sel_pools, uns_pools, alloc)])
        for pick in product(*ways):
            key = (frozenset(x for out, _ in pick for x in out),
                   frozenset(x for _, into in pick for x in into))
            expected[key] = p
    assert abs(sum(expected.values()) - 1.0) < 1e-12

    n = 200_000
    space.sampler(r)
    sel_at, uns_at = space.draw(n, np.random.default_rng(2024))
    seen = Counter(zip(map(frozenset, space.sel_flat[sel_at].tolist()),
                       map(frozenset, space.uns_flat[uns_at].tolist())))
    assert set(seen) <= set(expected)
    for key, p in expected.items():
        assert abs(seen[key] - n * p) <= 5 * np.sqrt(n * p * (1 - p)), key


@settings(max_examples=150, deadline=None)
@given(instance=instances(), r=st.integers(1, 4), n=st.integers(1, 30),
       seed=st.integers(0, 10_000))
def test_each_drawn_row_is_a_feasible_swap(instance, r, n, seed):
    catalog, matrix, plan = instance
    space = _SearchSpace(matrix, catalog, plan, greedy_init(matrix, catalog, plan).selected)
    if int(space.caps.sum()) == 0:
        with pytest.raises(ValueError, match="no feasible swap"):
            space.sampler(r)
        return
    space.sampler(r)
    r_eff = min(r, int(space.caps.sum()))
    sel_at, uns_at = space.draw(n, np.random.default_rng(seed))
    assert sel_at.shape == uns_at.shape == (n, r_eff)
    sel_part = np.repeat(np.arange(len(plan.quotas)), space.sel_sizes)
    uns_part = np.repeat(np.arange(len(plan.quotas)), space.uns_sizes)
    for out_row, in_row in zip(sel_at, uns_at):
        assert len(set(out_row.tolist())) == len(set(in_row.tolist())) == r_eff
        out_counts = np.bincount(sel_part[out_row], minlength=len(plan.quotas))
        in_counts = np.bincount(uns_part[in_row], minlength=len(plan.quotas))
        assert np.array_equal(out_counts, in_counts)
        assert (out_counts <= space.caps).all()


# ---------------------------------------------------------------------------
# Outputs pinned on a mid-size catalog (three zones, 60 sites, W = 500)
# ---------------------------------------------------------------------------

_ZONES = (("AA", 30, 2, 7), ("BB", 20, 1, 5), ("CC", 10, 0, 3))  # zone, sites, legacy, quota


@pytest.fixture(scope="module")
def pinned_instance():
    rng = np.random.default_rng(2472)
    parts = [zone for zone, n, _, _ in _ZONES for _ in range(n)]
    legacy = [150.0 if j < l else 0.0 for _, n, l, _ in _ZONES for j in range(n)]
    catalog = build_catalog(np.full((len(parts), 2), 0.5), parts, legacy_MW=legacy)
    weather = rng.normal(size=500)
    skill = rng.uniform(0.2, 1.2, len(parts))
    bits = weather[None, :] * skill[:, None] + rng.normal(size=(len(parts), 500)) > 0.3
    plan = plan_for(catalog, {zone: k for zone, _, _, k in _ZONES})
    matrix = CriticalityMatrix.from_bool(bits, plan.default_threshold(), 1,
                                         tuple(catalog.index_of))
    merged = build_plan(catalog, {zone: k * 1327.5 for zone, _, _, k in _ZONES},
                        partitioned=False)
    return catalog, matrix, {"zones": plan, "merged": merged}


def _ids(numbers):
    return sorted(f"s{i:02d}" for i in numbers)


def test_pinned_greedy(pinned_instance):
    catalog, matrix, plans = pinned_instance
    assert matrix.threshold_c == 8
    start = greedy_init(matrix, catalog, plans["zones"])
    assert start.objective == 189
    assert sorted(start.selected) == _ids([0, 1, 2, 3, 4, 5, 28, 30, 32, 42, 43, 47, 52, 57, 58])


@pytest.mark.parametrize("plan_name, radius, mode, base_seed, objective, seed, sites", [
    ("zones", 1, "best_visited", 11, 201, 12, [0, 1, 3, 11, 16, 25, 28, 30, 39, 42, 48, 49, 52, 53, 58]),
    ("zones", 1, "final_incumbent", 11, 201, 12, [0, 1, 3, 11, 16, 18, 28, 30, 39, 42, 47, 49, 52, 53, 58]),
    ("zones", 2, "best_visited", 11, 200, 11, [0, 1, 3, 16, 17, 24, 25, 30, 33, 39, 42, 44, 52, 53, 58]),
    ("zones", 2, "final_incumbent", 11, 200, 11, [0, 1, 3, 4, 16, 18, 25, 30, 33, 39, 42, 44, 52, 53, 58]),
    ("merged", 1, "best_visited", 5, 201, 5, [0, 1, 3, 5, 30, 37, 39, 40, 42, 47, 48, 51, 52, 57, 58]),
    ("merged", 2, "best_visited", 5, 200, 6, [0, 1, 11, 16, 24, 28, 29, 30, 32, 39, 42, 44, 52, 53, 58]),
])
def test_pinned_multistart(pinned_instance, plan_name, radius, mode, base_seed, objective, seed, sites):
    catalog, matrix, plans = pinned_instance
    params = AnnealParams(iterations=60, neighbors=40, radius=radius, t0=20.0, decay=6.0,
                          return_mode=mode)
    for threads in (1, 2):
        out = run_multistart(matrix, catalog, plans[plan_name], params, n_runs=3,
                             base_seed=base_seed, threads=threads)
        assert (out.objective, out.rng_seed, sorted(out.selected)) == (objective, seed, _ids(sites))
