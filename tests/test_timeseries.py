import numpy as np
import pytest

from windplan.timeseries import (
    TimeSeries, empirical_quantile, resample_mean, window_aggregate, window_values,
)


def test_validation_rejects_bad_series():
    with pytest.raises(ValueError):
        TimeSeries([])
    with pytest.raises(ValueError):
        TimeSeries([1.0, np.nan])
    with pytest.raises(ValueError):
        TimeSeries([1.0, np.inf])
    with pytest.raises(ValueError):
        TimeSeries([1.0], resolution_hours=0.0)


def test_values_are_read_only():
    ts = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 5.0


def test_resample_block_means():
    ts = TimeSeries([1, 2, 3, 4, 5, 6], resolution_hours=1.0)
    out = resample_mean(ts, 3)
    assert out.values.tolist() == [2.0, 5.0]
    assert out.resolution_hours == 3.0


def test_resample_factor_one_is_identity():
    ts = TimeSeries([0.5, 0.25, 0.125])
    assert resample_mean(ts, 1) is ts


def test_resample_rejects_remainder_with_count():
    ts = TimeSeries(np.arange(7.0))
    with pytest.raises(ValueError, match="1 trailing"):
        resample_mean(ts, 3)


def test_resample_ten_year_hourly_length():
    ts = TimeSeries(np.zeros(87648), resolution_hours=1.0)
    assert len(resample_mean(ts, 3)) == 29216


def test_resample_preserves_global_mean():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 3.0, 600)
    ts = TimeSeries(values, 1.0)
    out = resample_mean(ts, 6)
    assert abs(out.mean - ts.mean) <= 1e-12 * max(1.0, abs(ts.mean))


def test_window_moving_average():
    cf = TimeSeries([0.2, 0.4, 0.6])
    assert window_aggregate(cf, 2).tolist() == pytest.approx([0.3, 0.5])


def test_window_length_one_is_identity():
    cf = TimeSeries([0.1, 0.9, 0.4])
    out = window_aggregate(cf, 1)
    assert out.tolist() == [0.1, 0.9, 0.4]
    assert len(out) == len(cf)


def test_window_constant_series_invariant():
    cf = TimeSeries(np.full(17, 0.7))
    for delta in (1, 2, 5, 17):
        assert np.allclose(window_aggregate(cf, delta), 0.7)


def test_window_count_is_t_minus_delta_plus_one():
    rng = np.random.default_rng(0)
    cf = TimeSeries(rng.uniform(0, 1, 50))
    for delta in (1, 2, 7, 50):
        assert window_aggregate(cf, delta).size == 50 - delta + 1
    with pytest.raises(ValueError):
        window_aggregate(cf, 51)


def test_window_values_on_a_block_windows_each_row():
    rng = np.random.default_rng(1)
    block = rng.uniform(0, 1, (5, 40))
    for delta in (1, 2, 7, 40):
        out = window_values(block, delta)
        rows = np.stack([window_values(row, delta) for row in block])
        assert out.tobytes() == rows.tobytes()
        assert not np.shares_memory(out, block)
    with pytest.raises(ValueError):
        window_values(block, 41)


def test_window_rejects_other_measures():
    with pytest.raises(ValueError):
        window_aggregate(TimeSeries([1.0, 2.0]), 1, measure="median")


def test_quantile_interpolates_between_order_statistics():
    values = [0.1] * 9 + [1.0]
    # position (10 - 1) * 0.9 = 8.1 between the ninth and tenth statistics
    assert empirical_quantile(values, 0.9) == pytest.approx(0.19, abs=1e-12)
    with pytest.raises(ValueError):
        empirical_quantile(values, 1.5)
