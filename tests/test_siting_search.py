"""The incremental greedy start and the boundary-window swap evaluator
against the full-recount oracle, plus outputs pinned on a mid-size catalog."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import siting_oracle as oracle
from helpers import build_catalog, plan_for
from windplan.resource import CriticalityMatrix
from windplan.siting import AnnealParams, build_plan, greedy_init, local_search, run_multistart


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
    ("zones", 2, "best_visited", 11, 201, 13, [0, 1, 3, 11, 16, 24, 25, 30, 33, 39, 42, 47, 52, 57, 58]),
    ("zones", 2, "final_incumbent", 11, 201, 13, [0, 1, 3, 11, 16, 24, 25, 30, 33, 39, 42, 47, 52, 57, 58]),
    ("merged", 1, "best_visited", 5, 201, 5, [0, 1, 3, 5, 30, 37, 39, 40, 42, 47, 48, 51, 52, 57, 58]),
    ("merged", 2, "best_visited", 5, 197, 7, [0, 1, 8, 11, 24, 25, 30, 32, 35, 42, 44, 51, 52, 53, 58]),
])
def test_pinned_multistart(pinned_instance, plan_name, radius, mode, base_seed, objective, seed, sites):
    catalog, matrix, plans = pinned_instance
    params = AnnealParams(iterations=60, neighbors=40, radius=radius, t0=20.0, decay=6.0,
                          return_mode=mode)
    for threads in (1, 2):
        out = run_multistart(matrix, catalog, plans[plan_name], params, n_runs=3,
                             base_seed=base_seed, threads=threads)
        assert (out.objective, out.rng_seed, sorted(out.selected)) == (objective, seed, _ids(sites))
