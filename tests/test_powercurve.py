import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import powercurve_oracle
from windplan.fileio import load_default_curves
from windplan.powercurve import (
    DEFAULT_CLASS_TABLE, SPEED_GRID, PowerCurve, apply_transfer, select_turbine,
    smooth_power_curve,
)
from windplan.resource import capacity_factors_from_speeds
from windplan.timeseries import TimeSeries


@pytest.fixture(scope="module")
def ramp_curve():
    # Linear ramp between cut-in 4 and rated 15, flat to cut-out 25.
    return PowerCurve(
        np.array([0.0, 4.0, 15.0, 25.0]),
        np.array([0.0, 0.0, 1.0, 1.0]),
        cut_in=4.0, rated_speed=15.0, cut_out=25.0,
    )


@pytest.fixture(scope="module")
def step_curve():
    return PowerCurve(
        np.array([0.0, 10.0 - 1e-6, 10.0, 25.0]),
        np.array([0.0, 0.0, 1.0, 1.0]),
        cut_in=10.0, rated_speed=10.0, cut_out=25.0,
    )


def test_nominal_shape_validation():
    with pytest.raises(ValueError, match="zero below cut-in"):
        PowerCurve(np.array([0.0, 3.0, 15.0]), np.array([0.2, 0.5, 1.0]),
                   cut_in=4.0, rated_speed=15.0, cut_out=25.0)
    with pytest.raises(ValueError, match="one from rated"):
        PowerCurve(np.array([0.0, 4.0, 15.0]), np.array([0.0, 0.0, 0.9]),
                   cut_in=4.0, rated_speed=15.0, cut_out=25.0)
    with pytest.raises(ValueError, match="non-decreasing"):
        PowerCurve(np.array([0.0, 4.0, 8.0, 10.0, 15.0, 25.0]),
                   np.array([0.0, 0.0, 0.6, 0.3, 1.0, 1.0]),
                   cut_in=4.0, rated_speed=15.0, cut_out=25.0)


def test_select_turbine_default_table():
    assert select_turbine(10.0) == "high_wind"
    assert select_turbine(0.0) == "low_wind"
    # closed lower bound: the threshold speed belongs to the upper class
    assert select_turbine(8.0) == "high_wind"
    assert select_turbine(7.999) == "low_wind"


def test_select_turbine_validation():
    with pytest.raises(ValueError):
        select_turbine(-1.0)
    with pytest.raises(ValueError):
        select_turbine(5.0, class_table=((3.0, "x"),))


def test_smooth_sigma_zero_identity(ramp_curve):
    out = smooth_power_curve(ramp_curve, 0.0)
    assert np.allclose(out.powers, ramp_curve.evaluate(SPEED_GRID))
    assert out.smoothed


def test_smooth_step_value_at_jump(step_curve):
    out = smooth_power_curve(step_curve, 1.0)
    at_ten = out.powers[np.where(SPEED_GRID == 10.0)][0]
    assert at_ten == pytest.approx(0.5, abs=0.01)


def test_smooth_zero_region(step_curve):
    # curve is zero on [0, 3*sigma] (3 * 3.0 = 9 < the jump at 10);
    # the truncated kernel sees nothing else at v=0
    out = smooth_power_curve(step_curve, 3.0)
    assert out.powers[0] <= 1e-6


def test_smooth_output_in_unit_interval(ramp_curve):
    for sigma in (0.3, 1.0, 2.5):
        out = smooth_power_curve(ramp_curve, sigma)
        assert np.all(out.powers >= 0.0) and np.all(out.powers <= 1.0)
    with pytest.raises(ValueError):
        smooth_power_curve(ramp_curve, -0.1)


def test_transfer_rated_point(ramp_curve):
    out = apply_transfer(ramp_curve, TimeSeries([15.0]))
    assert out.values[0] == 1.0


def test_transfer_beyond_cut_out(ramp_curve):
    out = apply_transfer(ramp_curve, TimeSeries([30.0]))
    assert out.values[0] == 0.0


def test_transfer_linear_interpolation(ramp_curve):
    out = apply_transfer(ramp_curve, TimeSeries([9.5]))
    assert out.values[0] == pytest.approx(0.5, abs=1e-9)


def test_transfer_rejects_negative_speed(ramp_curve):
    with pytest.raises(ValueError):
        apply_transfer(ramp_curve, TimeSeries([-0.1, 5.0]))


def test_transfer_range_property():
    rng = np.random.default_rng(11)
    curves = load_default_curves()
    speeds = TimeSeries(rng.uniform(0.0, 40.0, 500))
    for curve in curves.values():
        for sigma in (0.0, 0.8, 1.6):
            smoothed = smooth_power_curve(curve, sigma)
            cf = apply_transfer(smoothed, speeds)
            assert np.all(cf.values >= 0.0) and np.all(cf.values <= 1.0)


def test_default_class_table_covers_examples():
    # the bundled table and curve files agree on ids
    curves = load_default_curves()
    for _, curve_id in DEFAULT_CLASS_TABLE:
        assert curve_id in curves


# ---------------------------------------------------------------------------
# Smoothing as a correlation over the kernel's support
# ---------------------------------------------------------------------------

_PACKAGED = load_default_curves()

# The oracle divides a sum of at most 3,501 nonnegative products by a sum of
# the same weights; recursive summation keeps each sum within 3,501 * eps / 2
# of its exact value, relative, so its ratio in [0, 1] is within 3,501 * eps
# of the exact one.  The library's numerator also has at most 3,501 nonzero
# terms, but its denominator is mass[hi] - mass[lo], a difference of two
# cumsum prefixes over up to 7,001 kernel entries.  That difference is at
# least half the kernel's total mass (the centre weight, and as much weight
# as one whole side holds, always fall inside [0, 35] m/s), and mass[lo] is at
# most half of it, so the first-order worst case of the denominator alone is
# 7,000 * (1 + 1/2) * 2 * eps / 2 = 10,500 * eps, relative.  The bound below
# is therefore empirical rather than proven for the library side: the largest
# difference measured over 616 (curve, sigma) pairs, both packaged curves
# with sigma in [1e-4, 50], was 1.5e-14 (69 * eps), 100 times below it.
_SUM_BOUND = 2 * 3501 * np.finfo(np.float64).eps


def _nominal_ramp(cut_in, ramp, flat, exponent) -> PowerCurve:
    """Zero to cut-in, ``u ** exponent`` up to rated speed, one to cut-out."""
    rated = cut_in + ramp
    u = np.linspace(0.0, 1.0, 8)
    return PowerCurve(np.concatenate(([0.0], cut_in + ramp * u, [rated + flat])),
                      np.concatenate(([0.0], u ** exponent, [1.0])),
                      cut_in=cut_in, rated_speed=rated, cut_out=rated + flat)


_curves = st.one_of(
    st.sampled_from(sorted(_PACKAGED)),
    st.tuples(st.floats(0.0, 12.0), st.floats(0.5, 15.0), st.floats(0.0, 15.0),
              st.floats(0.5, 3.0)),
)


@settings(max_examples=100, deadline=None)
@given(_curves, st.floats(1e-4, 50.0))
@example("high_wind", 1e-4)
@example("low_wind", 35.0 / 3.0)  # the 3-sigma cut at exactly 35 m/s
@example("high_wind", 50.0)
@example((3.0, 9.0, 10.0, 1.0), 35.0 / 3.0)
# 3 sigma lands on a quadrature offset (0.01, 0.3 and 3.9 m/s): the offset
# at the cut is inside it, the next one is not
@example("high_wind", 0.01 / 3.0)
@example("low_wind", 0.1)
@example("high_wind", 1.3)
@example((3.0, 9.0, 10.0, 1.0), 1.3)
def test_smoothing_matches_dense_oracle(spec, sigma):
    curve = _PACKAGED[spec] if isinstance(spec, str) else _nominal_ramp(*spec)
    out = smooth_power_curve(curve, sigma)
    ref = powercurve_oracle.smooth_power_curve(curve, sigma)
    assert np.max(np.abs(out.powers - ref.powers)) <= _SUM_BOUND
    assert out.speeds.tobytes() == ref.speeds.tobytes()
    assert (out.cut_in, out.rated_speed, out.cut_out, out.smoothed) == (
        ref.cut_in, ref.rated_speed, ref.cut_out, ref.smoothed)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 1.8))
@example(0.01 / 3.0)
@example(0.1)
@example(1.3)
def test_smoothing_leaves_a_linear_stretch_unchanged(ramp_curve, sigma):
    # a symmetric kernel wholly inside the 4-15 m/s ramp averages to the ramp
    # itself; a window shifted by one quadrature step would be off by 0.01/11
    out = smooth_power_curve(ramp_curve, sigma)
    inside = (SPEED_GRID - 3 * sigma >= 4.0 + 1e-9) & (SPEED_GRID + 3 * sigma <= 15.0 - 1e-9)
    assert inside.any()
    expected = ramp_curve.evaluate(SPEED_GRID[inside])
    assert np.max(np.abs(out.powers[inside] - expected)) <= _SUM_BOUND


@pytest.mark.parametrize("sigma", [5e-324, 1e-300, 1e300, float("inf")])
def test_smoothing_at_extreme_sigma(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, curve in _PACKAGED.items():
            out = smooth_power_curve(curve, sigma).powers
            if sigma < 1:  # the centre weight only: the curve sampled on the grid
                ref = smooth_power_curve(curve, 0.0).powers
                assert np.max(np.abs(out - ref)) <= 1e-12, name
            else:  # every weight is one: a flat average over [0, 35] m/s
                ref = powercurve_oracle.smooth_power_curve(curve, sigma).powers
                assert np.max(np.abs(out - ref)) <= _SUM_BOUND, name
                assert np.ptp(out) <= _SUM_BOUND, name


def test_capacity_factors_from_tiny_mean_speeds():
    # sigma = 0.15 * 1.5e-300 keeps only the centre weight: no overflow, no
    # 0/0 and no non-finite breakpoint
    speeds = {"s1": TimeSeries([1e-300, 2e-300])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cf = capacity_factors_from_speeds(speeds, _PACKAGED)
    assert np.array_equal(cf["s1"].values, [0.0, 0.0])


def test_smooth_rejects_nan_sigma(ramp_curve):
    with pytest.raises(ValueError, match="^sigma must be non-negative$"):
        smooth_power_curve(ramp_curve, float("nan"))


@pytest.mark.parametrize("speeds, powers", [
    ([0.0, 1.0, 2.0], [0.0, float("nan"), 1.0]),
    ([0.0, float("nan"), 2.0], [0.0, 0.5, 1.0]),
    ([0.0, 1.0, float("inf")], [0.0, 0.5, 1.0]),
    ([float("-inf"), 1.0, 2.0], [0.0, 0.5, 1.0]),
], ids=["nan-power", "nan-speed", "inf-speed", "minus-inf-speed"])
def test_curve_rejects_non_finite_breakpoints(speeds, powers):
    with pytest.raises(ValueError, match="^breakpoint speeds and powers must be finite$"):
        PowerCurve(speeds, powers, cut_in=0.0, rated_speed=1.0, cut_out=2.0, smoothed=True)
