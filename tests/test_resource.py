import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import criticality_oracle
from helpers import build_catalog
from windplan.fileio import load_default_curves
from windplan.resource import (
    CriticalityMatrix, SiteCatalog, _block_sites, build_criticality_matrix,
    capacity_factors_from_speeds, make_site,
)
from windplan.timeseries import TimeSeries, window_values


def test_site_invariants():
    cf = TimeSeries([0.5, 0.5])
    with pytest.raises(ValueError, match="legacy capacity exceeds"):
        make_site("a", 0, 0, "P", 500.0, 400.0, cf)
    with pytest.raises(ValueError, match="capacity factors"):
        make_site("a", 0, 0, "P", 0.0, 400.0, TimeSeries([0.5, 1.5]))
    site = make_site("a", 0, 0, "P", 100.0, 400.0, cf)
    assert site.is_legacy  # at the threshold counts as legacy
    assert not make_site("a", 0, 0, "P", 99.9, 400.0, cf).is_legacy


def test_catalog_checks_consistency():
    cf = TimeSeries([0.5, 0.5])
    s1 = make_site("a", 0, 0, "P", 0.0, 400.0, cf)
    with pytest.raises(ValueError, match="duplicate site id"):
        SiteCatalog((s1, s1))
    short = make_site("b", 0, 0, "P", 0.0, 400.0, TimeSeries([0.5]))
    with pytest.raises(ValueError, match="length differs"):
        SiteCatalog((s1, short))
    flagged = make_site("c", 0, 0, "P", 200.0, 400.0, cf, legacy_threshold_MW=300.0)
    with pytest.raises(ValueError, match="legacy flag"):
        SiteCatalog((s1, flagged))  # catalog uses the default 100 MW threshold


def test_catalog_partitions_follow_site_order():
    catalog = build_catalog(np.full((4, 3), 0.5), ["B", "A", "B", "A"])
    assert catalog.partitions == {"B": ("s00", "s02"), "A": ("s01", "s03")}
    assert catalog.time_length == 3


def test_matrix_boundary_is_non_strict():
    catalog = build_catalog([[0.3], [0.29]], "P", potentials=[100.0, 100.0])
    demand = TimeSeries([500.0])
    m = build_criticality_matrix(catalog, demand, varsigma=0.3, k=5, delta=1, c=1)
    dense = m.dense
    assert dense[0, 0] == 1  # 100 * 0.30 == 0.3 * 500 / 5 exactly
    assert dense[1, 0] == 0  # just below the reference level


def test_matrix_matches_direct_evaluation():
    cf = np.array([[0.2, 0.5, 0.9, 0.1], [0.8, 0.3, 0.4, 0.6]])
    potentials = [120.0, 350.0]
    catalog = build_catalog(cf, "P", potentials=potentials)
    demand = TimeSeries([400.0, 700.0, 300.0, 900.0])
    varsigma, k, delta = 0.4, 3, 2
    m = build_criticality_matrix(catalog, demand, varsigma, k, delta, c=1)
    assert m.n_windows == 4 - delta + 1
    # independent cell-by-cell evaluation of the coverage condition
    for l in range(2):
        for w in range(m.n_windows):
            cf_bar = cf[l, w : w + delta].mean()
            lam_bar = demand.values[w : w + delta].mean()
            expected = potentials[l] * cf_bar >= varsigma * lam_bar / k
            assert bool(m.dense[l, w]) == expected, (l, w)


def test_matrix_window_count_all_deltas():
    rng = np.random.default_rng(2)
    catalog = build_catalog(rng.uniform(0, 1, (3, 20)), "P")
    demand = TimeSeries(rng.uniform(100, 900, 20))
    for delta in (1, 4, 20):
        m = build_criticality_matrix(catalog, demand, 0.3, 2, delta, c=1)
        assert m.n_windows == 20 - delta + 1
        assert m.window_length == delta


def test_matrix_scaling_invariance():
    rng = np.random.default_rng(3)
    cf = rng.uniform(0, 1, (5, 30))
    potentials = rng.uniform(100, 500, 5).tolist()
    demand_values = rng.uniform(200, 1200, 30)
    catalog = build_catalog(cf, "P", potentials=potentials)
    m1 = build_criticality_matrix(catalog, TimeSeries(demand_values), 0.35, 4, 3, c=2)
    scale = 7.5
    scaled_catalog = build_catalog(cf, "P", potentials=[p * scale for p in potentials])
    m2 = build_criticality_matrix(
        scaled_catalog, TimeSeries(demand_values * scale), 0.35, 4, 3, c=2
    )
    assert np.array_equal(m1.packed_rows, m2.packed_rows)


def test_matrix_varsigma_monotonicity():
    rng = np.random.default_rng(4)
    catalog = build_catalog(rng.uniform(0, 1, (6, 40)), "P",
                            potentials=rng.uniform(100, 500, 6).tolist())
    demand = TimeSeries(rng.uniform(200, 1200, 40))
    previous = None
    for varsigma in (0.1, 0.3, 0.6, 1.0):
        m = build_criticality_matrix(catalog, demand, varsigma, 3, 1, c=1).dense
        if previous is not None:
            assert np.all(m <= previous)  # raising the share never adds coverage
        previous = m


def test_matrix_window_cf_equals_per_row_windows():
    # the criticality build windows all rows at once; the per-row means
    # computed by window_values must come out bit for bit the same
    rng = np.random.default_rng(21)
    catalog = build_catalog(rng.uniform(0, 1, (7, 48)), "P",
                            potentials=rng.uniform(300, 900, 7))
    demand = TimeSeries(rng.uniform(500, 1500, 48))
    potentials = np.array([site.technical_potential_MW for site in catalog.sites])
    for delta in (1, 3, 8):
        window_cf = np.stack([window_values(row, delta) for row in catalog.cf_matrix])
        assert np.array_equal(
            np.lib.stride_tricks.sliding_window_view(catalog.cf_matrix, delta, axis=1).mean(axis=2),
            window_cf)
        reference = 0.3 * window_values(demand.values, delta) / 3
        expected = potentials[:, None] * window_cf >= reference[None, :]
        matrix = build_criticality_matrix(catalog, demand, 0.3, 3, delta, 2)
        assert np.array_equal(matrix.dense.astype(bool), expected)


# The shortest series whose block is the minimum of 8 sites.
LONG = next(p for p in range(1, 1 << 24) if _block_sites(p) == 8)
QUARTERS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def criticality_cases(draw):
    """Site count (around one and two blocks), periods, window length, seed
    and whether capacity factors and demand are chosen to tie."""
    periods = draw(st.one_of(st.integers(600, 3000), st.just(LONG)))
    block = _block_sites(periods)
    n_sites = draw(st.sampled_from([1, 7, 8, 9, block - 1, block, block + 1, 2 * block + 3]))
    return (n_sites, periods, draw(st.sampled_from([1, 2, 5])), draw(st.integers(0, 2**32 - 1)),
            draw(st.booleans()))


@settings(max_examples=30, deadline=None)
@given(criticality_cases())
@example((_block_sites(2920) - 1, 2920, 1, 0, False))
@example((_block_sites(2920) + 1, 2920, 2, 1, True))
@example((2 * _block_sites(2920) + 3, 2920, 5, 2, False))
@example((2 * 8 + 3, LONG, 1, 3, True))
@example((9, 700, 5, 4, True))
def test_matrix_matches_full_matrix_oracle(case):
    n_sites, periods, delta, seed, ties = case
    rng = np.random.default_rng(seed)
    if ties:  # quarters times 400 MW against 400 MW shares of the last site's output
        cf = rng.choice(QUARTERS, (n_sites, periods))
        potentials, demand = [400.0] * n_sites, TimeSeries(3200.0 * cf[-1])
        varsigma, k = 0.5, 4
    else:
        cf = rng.uniform(0.0, 1.0, (n_sites, periods))
        potentials, demand = rng.uniform(100.0, 1000.0, n_sites), TimeSeries(
            rng.uniform(500.0, 5000.0, periods))
        varsigma, k = 0.3, 3
    catalog = build_catalog(cf, "P", potentials=potentials)
    got = build_criticality_matrix(catalog, demand, varsigma, k, delta, 1)
    want = criticality_oracle.build_criticality_matrix(catalog, demand, varsigma, k, delta, 1)
    assert (got.n_windows, got.n_sites, got.window_length, got.site_ids) == (
        want.n_windows, want.n_sites, want.window_length, want.site_ids)
    assert got.packed_rows.tobytes() == want.packed_rows.tobytes()
    want_dense = criticality_oracle.dense(want)
    assert got.dense.shape == want_dense.shape and got.dense.dtype == want_dense.dtype
    assert got.dense.tobytes() == want_dense.tobytes()
    if ties and delta < 5:  # window means of quarters are exact: the last site ties
        assert got.dense[-1].all()


def test_matrix_build_memory_is_bounded():
    """The build plus ``dense`` stays under half of one float64 (sites,
    periods) matrix; a full-matrix build peaks at about three."""
    n_sites = 16 * _block_sites(LONG) + 3  # 17 blocks, the last one partial
    rng = np.random.default_rng(9)
    catalog = build_catalog(rng.uniform(0.0, 1.0, (n_sites, LONG)), "P",
                            potentials=rng.uniform(100.0, 1000.0, n_sites))
    demand = TimeSeries(rng.uniform(500.0, 5000.0, LONG))
    tracemalloc.start()
    try:
        build_criticality_matrix(catalog, demand, 0.3, 3, 1, 1).dense
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n_sites * LONG * 8


def test_matrix_rejects_bad_inputs():
    catalog = build_catalog(np.full((2, 4), 0.5), "P")
    with pytest.raises(ValueError, match="demand length"):
        build_criticality_matrix(catalog, TimeSeries([1.0, 2.0]), 0.3, 1, 1, 1)
    demand = TimeSeries([1.0] * 4)
    with pytest.raises(ValueError):
        build_criticality_matrix(catalog, demand, 0.0, 1, 1, 1)
    with pytest.raises(ValueError):
        build_criticality_matrix(catalog, demand, 0.3, 0, 1, 1)


def test_packed_binary_round_trip():
    rng = np.random.default_rng(5)
    bits = rng.random((10, 33)) < 0.5
    m = CriticalityMatrix.from_bool(bits, threshold_c=4, window_length=2,
                                    site_ids=tuple(f"s{i}" for i in range(10)))
    blob = m.to_bytes()
    back = CriticalityMatrix.from_bytes(blob, m.site_ids)
    assert back.n_windows == m.n_windows
    assert back.n_sites == m.n_sites
    assert back.threshold_c == 4
    assert back.window_length == 2
    assert np.array_equal(back.packed_rows, m.packed_rows)
    assert np.array_equal(back.dense, m.dense)
    with pytest.raises(ValueError, match="magic"):
        CriticalityMatrix.from_bytes(b"XXXX" + blob[4:])


@pytest.mark.parametrize("size", [0, 4, 5, 20])
def test_a_blob_shorter_than_the_header_is_refused(size):
    blob = CriticalityMatrix.from_bool(np.ones((3, 9), dtype=bool), 1, 1).to_bytes()[:size]
    with pytest.raises(ValueError, match=f"^criticality matrix blob of {size} bytes is shorter "
                                         "than its 21-byte header$"):
        CriticalityMatrix.from_bytes(blob)


def test_matrix_columns_are_dense_columns():
    rng = np.random.default_rng(6)
    for n_sites in (1, 7, 8, 9, 21):
        m = CriticalityMatrix.from_bool(rng.random((n_sites, 30)) < 0.4, 1, 1)
        for windows in (np.arange(30), np.array([29, 3, 3, 0]), np.array([], dtype=np.intp)):
            got = m.columns(windows)
            assert got.shape == (n_sites, windows.size)
            assert np.array_equal(got, m.dense[:, windows])


def test_capacity_factors_from_speeds_uses_class_table():
    rng = np.random.default_rng(6)
    curves = load_default_curves()
    strong = TimeSeries(np.full(50, 11.0) + rng.normal(0, 0.1, 50))
    weak = TimeSeries(np.full(50, 6.0) + rng.normal(0, 0.1, 50))
    cf = capacity_factors_from_speeds({"hi": strong, "lo": weak}, curves)
    assert set(cf) == {"hi", "lo"}
    for series in cf.values():
        assert np.all(series.values >= 0) and np.all(series.values <= 1)
    # the strong site uses the high-wind class, so it produces more
    assert cf["hi"].mean > cf["lo"].mean
