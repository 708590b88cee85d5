import numpy as np
import pytest

from helpers import (
    ScriptedRng, brute_force_comp, brute_force_prod, build_catalog, naive_coverage,
    plan_for, random_matrix,
)
from windplan.resource import CriticalityMatrix, build_criticality_matrix
from windplan.siting import (
    AnnealParams, CardinalityPlan, _accept, _finish_solution, adjust_cardinality, block_spread,
    build_comp_mir, build_plan, compute_cardinalities, coverage_count, greedy_init, local_search,
    mir_solution_to_init, residual_demand, residual_summary, run_multistart,
    SitingSolution, sample_neighbor, solve_prod,
)
from windplan.timeseries import TimeSeries


# ---------------------------------------------------------------------------
# Cardinalities
# ---------------------------------------------------------------------------

def test_cardinality_from_capacity_targets():
    raw = compute_cardinalities({"UK": 80000.0, "HR": 1000.0})
    assert raw == {"UK": 61, "HR": 1}


def test_cardinality_exact_single_site():
    assert compute_cardinalities({"X": 1327.5}) == {"X": 1}


def test_cardinality_rejects_nonpositive():
    with pytest.raises(ValueError):
        compute_cardinalities({"X": 0.0})
    with pytest.raises(ValueError):
        compute_cardinalities({"X": 100.0}, power_density_MW_km2=0.0)


def test_adjustment_examples():
    assert adjust_cardinality(8, 39, 11) == 11
    assert adjust_cardinality(5, 4, 2) == 4
    assert adjust_cardinality(1, 47, 2) == 2


def test_adjustment_rejects_inconsistent_catalog():
    with pytest.raises(ValueError):
        adjust_cardinality(3, 2, 5)


def test_build_plan_unpartitioned_merges_quotas():
    catalog = build_catalog(
        np.full((6, 4), 0.5), ["A", "A", "A", "B", "B", "B"],
        legacy_MW=[150.0, 0, 0, 150.0, 0, 0],
    )
    part = build_plan(catalog, {"A": 2655.0, "B": 2655.0})  # 2 sites each
    assert [q.final_k for q in part.quotas] == [2, 2]
    merged = build_plan(catalog, {"A": 2655.0, "B": 2655.0}, partitioned=False)
    assert len(merged.quotas) == 1
    assert merged.k == 4
    assert merged.quotas[0].legacy_count == 2


# ---------------------------------------------------------------------------
# PROD
# ---------------------------------------------------------------------------

def test_prod_three_site_example():
    catalog = build_catalog([[0.5], [0.3], [0.4]], "P")
    solution = solve_prod(catalog, plan_for(catalog, {"P": 2}))
    assert solution.selected == {"s00", "s02"}
    assert solution.objective == pytest.approx(0.45)


def test_prod_full_selection():
    catalog = build_catalog([[0.5], [0.3]], "P")
    solution = solve_prod(catalog, plan_for(catalog, {"P": 2}))
    assert solution.selected == {"s00", "s01"}


def test_prod_legacy_dominates_quality():
    catalog = build_catalog([[0.1], [0.9]], "P", legacy_MW=[150.0, 0.0])
    solution = solve_prod(catalog, plan_for(catalog, {"P": 1}))
    assert solution.selected == {"s00"}


def test_prod_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        n_parts = int(rng.integers(1, 4))
        parts = [f"P{rng.integers(0, n_parts)}" for _ in range(n)]
        legacy = [150.0 if rng.random() < 0.2 else 0.0 for _ in range(n)]
        catalog = build_catalog(rng.uniform(0, 1, (n, 6)), parts, legacy_MW=legacy)
        quotas = {}
        for pid, ids in catalog.partitions.items():
            n_leg = sum(1 for s in ids if catalog.site(s).is_legacy)
            quotas[pid] = int(rng.integers(max(1, n_leg), min(len(ids), max(n_leg, 4)) + 1))
        plan = plan_for(catalog, quotas)
        solution = solve_prod(catalog, plan)
        assert solution.objective == brute_force_prod(catalog, plan)


# ---------------------------------------------------------------------------
# Coverage counting
# ---------------------------------------------------------------------------

def _matrix_from_rows(rows, c):
    bits = np.array(rows, dtype=bool).T  # rows are windows here
    return CriticalityMatrix.from_bool(
        bits, threshold_c=c, window_length=1,
        site_ids=tuple(f"s{i}" for i in range(bits.shape[0])),
    )


def test_coverage_examples():
    m = _matrix_from_rows([[1, 1], [0, 1]], c=2)
    assert coverage_count(m, {"s0", "s1"}) == 1
    m1 = _matrix_from_rows([[1, 1], [0, 1]], c=1)
    assert coverage_count(m1, {"s1"}) == 2
    assert coverage_count(m1, set()) == 0


def test_coverage_rejects_unknown_ids():
    m = _matrix_from_rows([[1, 0]], c=1)
    with pytest.raises(ValueError, match="not indexed"):
        coverage_count(m, {"nope"})


def test_coverage_matches_naive_recount():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = random_matrix(rng, int(rng.integers(2, 20)), int(rng.integers(1, 60)),
                          density=float(rng.uniform(0.1, 0.9)),
                          c=1)
        m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows,
                              int(rng.integers(1, m.n_sites + 1)), 1, m.site_ids)
        sel = [sid for sid in m.site_ids if rng.random() < 0.5]
        assert coverage_count(m, sel) == naive_coverage(m, sel)


def test_coverage_counts_a_repeated_id_once():
    m = _matrix_from_rows([[1, 0], [1, 1], [0, 1]], c=2)
    assert coverage_count(m, ["s0", "s0"]) == 0
    assert coverage_count(m, ["s0", "s1", "s1", "s0"]) == coverage_count(m, ["s0", "s1"]) == 1


def test_coverage_monotone_in_selection():
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 12, 80, c=3)
    ids = list(m.site_ids)
    current: list[str] = []
    last = 0
    for sid in ids:
        current.append(sid)
        f = coverage_count(m, current)
        assert f >= last
        last = f


def test_all_ones_and_all_zeros():
    ones = CriticalityMatrix.from_bool(np.ones((4, 9), dtype=bool), 2, 1,
                                       tuple(f"s{i}" for i in range(4)))
    zeros = CriticalityMatrix.from_bool(np.zeros((4, 9), dtype=bool), 1, 1,
                                        tuple(f"s{i}" for i in range(4)))
    assert coverage_count(ones, {"s0", "s1"}) == 9
    assert coverage_count(zeros, {"s0", "s1", "s2", "s3"}) == 0


# ---------------------------------------------------------------------------
# Greedy initialisation
# ---------------------------------------------------------------------------

def test_greedy_legacy_only():
    catalog = build_catalog(np.full((3, 4), 0.5), "P", legacy_MW=[150.0, 0, 0])
    plan = plan_for(catalog, {"P": 1})
    m = random_matrix(np.random.default_rng(0), 3, 4)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 1, 1,
                          tuple(catalog.index_of))
    solution = greedy_init(m, catalog, plan)
    assert solution.selected == {"s00"}


def test_greedy_picks_max_column_sum():
    # c=1, no legacy, one free slot: the site covering most windows wins
    bits = np.array([
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 1, 1, 1],
    ], dtype=bool)
    catalog = build_catalog(np.full((3, 5), 0.5), "P")
    m = CriticalityMatrix.from_bool(bits, 1, 1, tuple(catalog.index_of))
    solution = greedy_init(m, catalog, plan_for(catalog, {"P": 1}))
    assert solution.selected == {"s02"}
    assert solution.objective == 3


def test_greedy_tie_breaks_to_lower_index():
    bits = np.array([
        [1, 1, 0, 0],
        [1, 1, 0, 0],  # identical coverage as s00
        [0, 0, 0, 1],
    ], dtype=bool)
    catalog = build_catalog(np.full((3, 4), 0.5), "P")
    m = CriticalityMatrix.from_bool(bits, 1, 1, tuple(catalog.index_of))
    solution = greedy_init(m, catalog, plan_for(catalog, {"P": 1}))
    assert solution.selected == {"s00"}


def test_greedy_satisfies_constraints():
    rng = np.random.default_rng(9)
    catalog = build_catalog(
        rng.uniform(0, 1, (8, 10)), ["A"] * 4 + ["B"] * 4,
        legacy_MW=[150.0, 0, 0, 0, 0, 150.0, 0, 0],
    )
    demand = TimeSeries(rng.uniform(100, 500, 10))
    m = build_criticality_matrix(catalog, demand, 0.3, 4, 1, 2)
    plan = plan_for(catalog, {"A": 2, "B": 3})
    solution = greedy_init(m, catalog, plan)
    assert solution.per_partition_counts == {"A": 2, "B": 3}
    assert {"s00", "s05"} <= solution.selected


# ---------------------------------------------------------------------------
# Neighbourhood sampling
# ---------------------------------------------------------------------------

@pytest.fixture
def swap_setup():
    rng = np.random.default_rng(10)
    catalog = build_catalog(
        rng.uniform(0, 1, (9, 6)), ["A"] * 4 + ["B"] * 5,
        legacy_MW=[150.0, 0, 0, 0, 0, 0, 0, 0, 0],
    )
    m = random_matrix(rng, 9, 30, c=2)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 2, 1,
                          tuple(catalog.index_of))
    plan = plan_for(catalog, {"A": 2, "B": 2})
    init = greedy_init(m, catalog, plan)
    return catalog, m, plan, init


def test_sample_neighbor_single_swap(swap_setup):
    catalog, m, plan, init = swap_setup
    neighbor = sample_neighbor(init.selected, m, catalog, plan, 1, np.random.default_rng(1))
    assert len(neighbor) == plan.k
    assert len(neighbor & init.selected) == plan.k - 1
    assert "s00" in neighbor  # legacy never swapped


@pytest.mark.parametrize("r", [2, 3])
def test_sample_neighbor_multi_swap_keeps_quotas(swap_setup, r):
    catalog, m, plan, init = swap_setup
    rng = np.random.default_rng(r)
    for _ in range(20):
        neighbor = sample_neighbor(init.selected, m, catalog, plan, r, rng)
        assert len(neighbor & init.selected) == plan.k - r
        assert "s00" in neighbor
        for quota in plan.quotas:
            members = set(catalog.partitions[quota.partition_id])
            assert len(neighbor & members) == quota.final_k


def test_sample_neighbor_deterministic(swap_setup):
    catalog, m, plan, init = swap_setup
    a = sample_neighbor(init.selected, m, catalog, plan, 1, np.random.default_rng(3))
    b = sample_neighbor(init.selected, m, catalog, plan, 1, np.random.default_rng(3))
    assert a == b


def test_sample_neighbor_skips_saturated_partition():
    # partition A is fully selected above legacy: no swap can touch it
    catalog = build_catalog(np.full((5, 4), 0.5), ["A", "A", "B", "B", "B"],
                            legacy_MW=[150.0, 0, 0, 0, 0])
    m = random_matrix(np.random.default_rng(4), 5, 12)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 1, 1,
                          tuple(catalog.index_of))
    plan = plan_for(catalog, {"A": 2, "B": 1})
    init = greedy_init(m, catalog, plan)
    rng = np.random.default_rng(5)
    for _ in range(20):
        neighbor = sample_neighbor(init.selected, m, catalog, plan, 1, rng)
        assert {"s00", "s01"} <= neighbor  # A unchanged every draw


def test_sample_neighbor_rejects_when_frozen():
    catalog = build_catalog(np.full((2, 3), 0.5), "P", legacy_MW=[150.0, 150.0])
    m = random_matrix(np.random.default_rng(6), 2, 6)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 1, 1,
                          tuple(catalog.index_of))
    plan = plan_for(catalog, {"P": 2})
    init = greedy_init(m, catalog, plan)
    with pytest.raises(ValueError, match="no feasible swap"):
        sample_neighbor(init.selected, m, catalog, plan, 1, np.random.default_rng(7))


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------

def test_anneal_defaults_and_schedule():
    params = AnnealParams()
    assert params.iterations == 5000
    assert params.neighbors == 500
    assert params.radius == 1
    assert params.t0 == 100.0
    assert params.decay == 10.0
    assert params.return_mode == "best_visited"
    # temperature(i) = 100 * exp(-10 * i / iterations)
    assert params.temperature(0) == pytest.approx(100.0)
    assert params.temperature(5000) == pytest.approx(100.0 * np.exp(-10.0))
    assert AnnealParams(iterations=0).temperature(0) == 100.0
    import inspect

    assert inspect.signature(run_multistart).parameters["n_runs"].default == 30


def test_local_search_zero_iterations_returns_init(swap_setup):
    catalog, m, plan, init = swap_setup
    params = AnnealParams(iterations=0, neighbors=10)
    out = local_search(init, m, catalog, plan, params, 0)
    assert out.selected == init.selected
    assert out.objective == init.objective


def test_local_search_best_visited_never_worse(swap_setup):
    catalog, m, plan, init = swap_setup
    params = AnnealParams(iterations=40, neighbors=8, radius=1, t0=50.0, decay=5.0)
    for seed in range(10):
        out = local_search(init, m, catalog, plan, params, seed)
        assert out.objective >= init.objective
        assert out.per_partition_counts == init.per_partition_counts
        assert "s00" in out.selected


def test_local_search_final_incumbent_mode(swap_setup):
    catalog, m, plan, init = swap_setup
    params = AnnealParams(iterations=40, neighbors=8, return_mode="final_incumbent")
    out = local_search(init, m, catalog, plan, params, 3)
    assert out.per_partition_counts == init.per_partition_counts


def test_local_search_radius_two_constraints(swap_setup):
    catalog, m, plan, init = swap_setup
    params = AnnealParams(iterations=25, neighbors=6, radius=2)
    out = local_search(init, m, catalog, plan, params, 11)
    assert out.per_partition_counts == init.per_partition_counts
    assert out.objective >= init.objective


def test_local_search_rejects_oversized_radius(swap_setup):
    catalog, m, plan, init = swap_setup
    params = AnnealParams(iterations=5, neighbors=4, radius=4)  # only 3 free slots
    with pytest.raises(ValueError, match="radius"):
        local_search(init, m, catalog, plan, params, 0)


def test_local_search_deterministic_given_seed(swap_setup):
    catalog, m, plan, init = swap_setup
    params = AnnealParams(iterations=60, neighbors=12)
    a = local_search(init, m, catalog, plan, params, 21)
    b = local_search(init, m, catalog, plan, params, 21)
    assert a == b


def test_zero_gain_always_accepted():
    # scripted neighbour with identical objective: strict test fails,
    # Bernoulli branch has p = exp(0) = 1
    catalog = build_catalog(np.full((3, 4), 0.5), "P")
    bits = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)
    m = CriticalityMatrix.from_bool(bits, 1, 1, tuple(catalog.index_of))
    plan = plan_for(catalog, {"P": 1})
    init = greedy_init(m, catalog, plan)  # picks s00 (f = 2)
    trace = []
    out = local_search(
        init, m, catalog, plan,
        AnnealParams(iterations=1, neighbors=1, return_mode="final_incumbent"),
        ScriptedRng([0.999999]),
        neighbor_sampler=lambda cur, i, j, rng: ("s01",),  # same windows as s00
        on_iteration=lambda i, d, acc, f: trace.append((i, d, acc, f)),
    )
    assert trace == [(0, 0.0, True, 2)]
    assert out.selected == {"s01"}


def test_zero_temperature_accepts_a_zero_gain_and_rejects_a_loss():
    rng = ScriptedRng([0.999999, 0.0])
    assert _accept(0, 0.0, rng)
    assert not _accept(-1, 0.0, rng)
    assert rng.calls == 2   # one draw per non-positive gain, as at T > 0


@pytest.mark.parametrize("decay", [-1000.0, -1e-300, float("nan")])
def test_anneal_rejects_a_negative_decay(decay):
    # exp(-decay * i / iterations) would grow with i: -1000 overflows from i = 12 of 15
    with pytest.raises(ValueError, match="decay must be >= 0"):
        AnnealParams(iterations=15, decay=decay)
    assert AnnealParams(iterations=15, decay=0.0).temperature(12) == 100.0


def test_local_search_on_a_schedule_cooled_to_zero(swap_setup):
    # decay 1000 over 15 iterations: the temperature underflows to 0.0 from i = 12
    catalog, m, plan, init = swap_setup
    params = AnnealParams(iterations=15, neighbors=8, decay=1000.0,
                          return_mode="final_incumbent")
    assert params.temperature(11) > 0.0 == params.temperature(12)
    trace = []
    out = local_search(init, m, catalog, plan, params, 5,
                       on_iteration=lambda i, gain, accepted, f: trace.append((i, gain, accepted)))
    assert out.per_partition_counts == init.per_partition_counts
    assert [accepted for i, gain, accepted in trace if i >= 12] \
        == [gain >= 0 for i, gain, accepted in trace if i >= 12]


def test_incremental_counts_equal_full_recount(swap_setup):
    # the returned objective is a fresh recount; the traced incumbent score
    # comes from incremental column updates, and the two must agree exactly
    catalog, m, plan, init = swap_setup
    for radius in (1, 2):
        trace = []
        out = local_search(
            init, m, catalog, plan,
            AnnealParams(iterations=50, neighbors=9, radius=radius,
                         return_mode="final_incumbent"),
            13,
            on_iteration=lambda i, d, acc, f: trace.append(f),
        )
        assert trace[-1] == out.objective == coverage_count(m, out.selected)


def test_multistart_deterministic_and_tie_to_lowest_seed(swap_setup):
    catalog, m, plan, init = swap_setup
    params = AnnealParams(iterations=30, neighbors=10)
    a = run_multistart(m, catalog, plan, params, n_runs=6, base_seed=100)
    b = run_multistart(m, catalog, plan, params, n_runs=6, base_seed=100)
    c = run_multistart(m, catalog, plan, params, n_runs=6, base_seed=100, threads=4)
    assert a == b == c
    # all-ones matrix: every feasible selection ties at f = W, lowest seed wins
    ones = CriticalityMatrix.from_bool(np.ones((9, 11), dtype=bool), 1, 1, m.site_ids)
    tied = run_multistart(ones, catalog, plan, params, n_runs=5, base_seed=40)
    assert tied.objective == 11
    assert tied.rng_seed == 40


@pytest.mark.parametrize("threads", [0, -3])
def test_multistart_rejects_fewer_than_one_thread(swap_setup, threads):
    catalog, m, plan, init = swap_setup
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_multistart(m, catalog, plan, AnnealParams(iterations=1, neighbors=1), n_runs=1,
                       threads=threads, init=init)


def test_multistart_single_run_equals_local_search(swap_setup):
    catalog, m, plan, init = swap_setup
    params = AnnealParams(iterations=20, neighbors=5)
    single = local_search(greedy_init(m, catalog, plan), m, catalog, plan, params, 77)
    multi = run_multistart(m, catalog, plan, params, n_runs=1, base_seed=77)
    assert single == multi


def test_local_search_reaches_brute_force_on_small_instance():
    rng = np.random.default_rng(42)
    catalog = build_catalog(rng.uniform(0, 1, (8, 10)), "P")
    m = random_matrix(rng, 8, 60, density=0.25, c=2)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 2, 1,
                          tuple(catalog.index_of))
    plan = plan_for(catalog, {"P": 3})
    best, _ = brute_force_comp(m, catalog, plan)
    params = AnnealParams(iterations=120, neighbors=40)
    out = run_multistart(m, catalog, plan, params, n_runs=3, base_seed=0)
    assert out.objective == best


# ---------------------------------------------------------------------------
# MIR escape hatch
# ---------------------------------------------------------------------------

def test_comp_mir_structure():
    catalog = build_catalog(np.full((4, 6), 0.5), "P", legacy_MW=[150.0, 0, 0, 0])
    m = random_matrix(np.random.default_rng(3), 4, 5, c=2)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 2, 1,
                          tuple(catalog.index_of))
    plan = plan_for(catalog, {"P": 2})
    lp = build_comp_mir(m, catalog, plan)
    x_cols = [j for j, name in enumerate(lp.var_names) if name.startswith("x|")]
    y_cols = [j for j, name in enumerate(lp.var_names) if name.startswith("y|")]
    assert len(x_cols) == 4 and all(lp.integer[j] for j in x_cols)
    assert len(y_cols) == 5 and not any(lp.integer[j] for j in y_cols)
    assert all(lp.lower[j] == 0 and lp.upper[j] == 1 for j in y_cols)
    legacy_col = lp.var_names.index("x|s00")
    assert lp.lower[legacy_col] == 1.0  # legacy pinned selected
    assert sum(1 for s in lp.senses if s == "=") == 1  # one cardinality row


def test_mir_solution_round_trip():
    catalog = build_catalog(np.full((4, 6), 0.5), "P")
    m = random_matrix(np.random.default_rng(4), 4, 5, c=1)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 1, 1,
                          tuple(catalog.index_of))
    plan = plan_for(catalog, {"P": 2})
    values = {"x|s00": 1.0, "x|s01": 0.0, "x|s02": 1.0, "x|s03": 0.0}
    init = mir_solution_to_init(values, m, catalog, plan)
    assert init.selected == {"s00", "s02"}
    assert init.objective == coverage_count(m, {"s00", "s02"})
    with pytest.raises(ValueError):
        mir_solution_to_init({"x|s00": 1.0}, m, catalog, plan)  # quota unmet


# ---------------------------------------------------------------------------
# Residual demand diagnostics
# ---------------------------------------------------------------------------

def test_residual_empty_selection_is_demand():
    catalog = build_catalog(np.full((2, 6), 0.5), "P")
    demand = TimeSeries(np.arange(6.0) + 10.0)
    out = residual_demand(demand, catalog, set(), 100.0)
    assert np.array_equal(out.values, demand.values)


def test_residual_constant_cf_subtracts_capacity():
    catalog = build_catalog(np.ones((1, 4)), "P")
    demand = TimeSeries([50.0, 60.0, 70.0, 80.0])
    out = residual_demand(demand, catalog, {"s00"}, 30.0)
    assert np.allclose(out.values, demand.values - 30.0)


def test_residual_rejects_length_mismatch():
    catalog = build_catalog(np.full((1, 4), 0.5), "P")
    with pytest.raises(ValueError):
        residual_demand(TimeSeries([1.0, 2.0]), catalog, set(), 1.0)


def test_block_spread_of_constant_is_zero():
    series = TimeSeries(np.full(48, 7.5), resolution_hours=1.0)
    assert np.all(block_spread(series, 12.0) == 0.0)
    assert np.all(block_spread(series, 24.0) == 0.0)


def test_block_spread_shapes_and_values():
    series = TimeSeries(np.arange(10.0), resolution_hours=6.0)
    spreads = block_spread(series, 12.0)  # blocks of two periods
    assert spreads.tolist() == [1.0] * 5
    with pytest.raises(ValueError):
        block_spread(series, 9.0)  # 1.5 periods per block


def test_residual_summary_keys():
    rng = np.random.default_rng(12)
    series = TimeSeries(rng.uniform(0, 100, 96), resolution_hours=1.0)
    summary = residual_summary(series)
    assert set(summary) == {"residual", "spread_12h", "spread_daily"}
    for block in summary.values():
        assert set(block) == {"min", "q1", "median", "q3", "max"}
        assert block["min"] <= block["q1"] <= block["median"] <= block["q3"] <= block["max"]


# ---------------------------------------------------------------------------
# Input errors
# ---------------------------------------------------------------------------

def test_local_search_rejects_init_breaking_a_quota(swap_setup):
    catalog, m, plan, _ = swap_setup
    init = SitingSolution("comp", frozenset({"s00", "s01", "s02", "s04", "s05"}), {}, 0.0)
    with pytest.raises(ValueError, match="^partition A: selected 3 sites, quota is 2$"):
        local_search(init, m, catalog, plan, AnnealParams(iterations=1, neighbors=1), 0)


def test_local_search_rejects_init_without_legacy(swap_setup):
    catalog, m, plan, _ = swap_setup
    init = SitingSolution("comp", frozenset({"s01", "s02", "s04", "s05"}), {}, 0.0)
    with pytest.raises(ValueError, match=r"^legacy sites missing from selection: \['s00'\]$"):
        local_search(init, m, catalog, plan, AnnealParams(iterations=1, neighbors=1), 0)


@pytest.mark.parametrize("plan_legacy_MW, legacy_MW, message", [
    ([150.0, 150.0, 150.0], [0.0, 0.0], "partition A: infeasible quota 3"),
    ([0.0, 0.0, 0.0], [150.0, 150.0], "partition A: infeasible quota 1"),
], ids=["plan-needs-more-sites", "catalog-has-more-legacy"])
def test_prod_rejects_plan_of_another_catalog(plan_legacy_MW, legacy_MW, message):
    planned = build_catalog(np.full((3, 4), 0.5), "A", legacy_MW=plan_legacy_MW)
    plan = plan_for(planned, {"A": 1})
    catalog = build_catalog(np.full((len(legacy_MW), 4), 0.5), "A", legacy_MW=legacy_MW)
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_prod(catalog, plan)


def test_scripted_neighbour_must_keep_partition_quotas(swap_setup):
    catalog, m, plan, init = swap_setup
    held_a = sorted(s for s in init.selected if catalog.site(s).partition_id == "A" and s != "s00")
    held_b = sorted(s for s in init.selected if catalog.site(s).partition_id == "B")
    free_a = next(s for s in ("s01", "s02", "s03") if s not in init.selected)
    moved = (*held_a, free_a, held_b[0])  # one B slot moves to A
    with pytest.raises(ValueError, match="^scripted neighbour changes the quota of partition A$"):
        local_search(init, m, catalog, plan, AnnealParams(iterations=1, neighbors=1),
                     ScriptedRng([0.0]), neighbor_sampler=lambda cur, i, j, rng: moved)


def test_matrix_must_follow_catalog_order(swap_setup):
    catalog, m, plan, init = swap_setup
    order = np.arange(m.n_sites)[::-1]
    permuted = CriticalityMatrix.from_bool(m.dense[order].astype(bool), m.threshold_c, 1,
                                           tuple(m.site_ids[i] for i in order))
    params = AnnealParams(iterations=1, neighbors=1)
    for call in (lambda: greedy_init(permuted, catalog, plan),
                 lambda: local_search(init, permuted, catalog, plan, params, 0),
                 lambda: build_comp_mir(permuted, catalog, plan)):
        with pytest.raises(ValueError, match="catalog order"):
            call()


@pytest.fixture
def plan_for_a_only():
    """Six sites, A = s00-s02 and B = s03-s05 with s04 legacy; the plan
    holds a quota for A only."""
    catalog = build_catalog(np.full((6, 4), 0.5), ["A"] * 3 + ["B"] * 3,
                            legacy_MW=[0.0, 0.0, 0.0, 0.0, 150.0, 0.0])
    plan = CardinalityPlan(plan_for(catalog, {"A": 2, "B": 2}).quotas[:1])
    return catalog, plan


def test_finish_solution_rejects_ids_not_in_catalog(plan_for_a_only):
    catalog, plan = plan_for_a_only
    with pytest.raises(ValueError, match=r"^selected ids not in the catalog: \['nope', 'zz'\]$"):
        _finish_solution(catalog, plan, {"nope", "s00", "s01", "s04", "zz"}, 0.0, "comp")


def test_finish_solution_rejects_sites_outside_every_quota(plan_for_a_only):
    catalog, plan = plan_for_a_only
    with pytest.raises(ValueError, match=r"^selected sites outside every quota: \['s03', 's05'\]$"):
        _finish_solution(catalog, plan, {"s00", "s01", "s03", "s04", "s05"}, 0.0, "comp")
    m = random_matrix(np.random.default_rng(3), 6, 8)
    with pytest.raises(ValueError, match=r"^selected sites outside every quota: \['s05'\]$"):
        sample_neighbor({"s00", "s01", "s04", "s05"}, m, catalog, plan, 1,
                        np.random.default_rng(1))
    # a legacy site outside every quota is required, not rejected
    solution = _finish_solution(catalog, plan, {"s00", "s01", "s04"}, 0.0, "comp")
    assert solution.selected == {"s00", "s01", "s04"}
    assert solution.per_partition_counts == {"A": 2}


def test_scripted_neighbour_naming_a_legacy_site_is_rejected_before_scoring():
    # s00 is legacy and covers windows 0 and 1 at c = 2; a neighbour naming
    # it again would count it twice and trace a gain of 2 for a selection
    # that recounts to 0
    catalog = build_catalog(np.full((4, 4), 0.5), "P", legacy_MW=[150.0, 0.0, 0.0, 0.0])
    bits = np.zeros((4, 4), dtype=bool)
    bits[0, :2] = True
    m = CriticalityMatrix.from_bool(bits, 2, 1, tuple(catalog.index_of))
    plan = plan_for(catalog, {"P": 2})
    init = greedy_init(m, catalog, plan)
    assert init.selected == {"s00", "s01"} and init.objective == 0
    trace = []
    with pytest.raises(ValueError, match=r"^scripted neighbour names legacy, unquota'd or "
                                         r"repeated sites: \['s00'\]$"):
        local_search(init, m, catalog, plan, AnnealParams(iterations=1, neighbors=1),
                     ScriptedRng([]), neighbor_sampler=lambda cur, i, j, rng: ("s00", "s02"),
                     on_iteration=lambda *args: trace.append(args))
    assert trace == []


def test_scripted_neighbour_outside_every_quota_is_rejected(plan_for_a_only):
    catalog, plan = plan_for_a_only
    m = CriticalityMatrix.from_bool(np.ones((6, 4), dtype=bool), 1, 1, tuple(catalog.index_of))
    init = _finish_solution(catalog, plan, {"s00", "s01", "s04"}, 0.0, "comp")
    with pytest.raises(ValueError, match=r"^scripted neighbour names legacy, unquota'd or "
                                         r"repeated sites: \['s03', 's04'\]$"):
        local_search(init, m, catalog, plan, AnnealParams(iterations=1, neighbors=2),
                     ScriptedRng([]),
                     neighbor_sampler=lambda cur, i, j, rng: ("s00", "s02") if j == 0
                     else ("s04", "s00", "s03"))


def test_scripted_neighbour_naming_a_site_twice_is_rejected():
    # s01 named twice would enter twice: a traced gain of 2 for a selection
    # {s01, s02} that recounts to 0
    catalog = build_catalog(np.full((5, 4), 0.5), "P")
    bits = np.zeros((5, 4), dtype=bool)
    bits[1, :2] = True
    m = CriticalityMatrix.from_bool(bits, 2, 1, tuple(catalog.index_of))
    plan = plan_for(catalog, {"P": 2})
    init = _finish_solution(catalog, plan, {"s03", "s04"}, 0, "comp")
    with pytest.raises(ValueError, match=r"^scripted neighbour names legacy, unquota'd or "
                                         r"repeated sites: \['s01'\]$"):
        local_search(init, m, catalog, plan, AnnealParams(iterations=1, neighbors=1, radius=2),
                     ScriptedRng([]), neighbor_sampler=lambda cur, i, j, rng: ("s01", "s01", "s02"))


def test_scripted_neighbour_naming_an_unknown_site_is_rejected():
    catalog = build_catalog(np.full((5, 4), 0.5), "P")
    m = CriticalityMatrix.from_bool(np.ones((5, 4), dtype=bool), 1, 1, tuple(catalog.index_of))
    plan = plan_for(catalog, {"P": 2})
    init = _finish_solution(catalog, plan, {"s03", "s04"}, 0, "comp")
    with pytest.raises(ValueError, match=r"^scripted neighbour names sites the matrix does "
                                         r"not index: \['zz'\]$"):
        local_search(init, m, catalog, plan, AnnealParams(iterations=1, neighbors=1),
                     ScriptedRng([]), neighbor_sampler=lambda cur, i, j, rng: ("s01", "zz"))
