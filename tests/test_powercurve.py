import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import powercurve_oracle
from windplan.fileio import load_default_curves
from windplan.powercurve import (
    _QUAD_STEP, DEFAULT_CLASS_TABLE, SPEED_GRID, PowerCurve, _kernel_layout, apply_transfer,
    select_turbine, smooth_power_curve,
)
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
# Smoothing on the cached distance layout
# ---------------------------------------------------------------------------

_PACKAGED = load_default_curves()


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
def test_smoothing_matches_dense_oracle(spec, sigma):
    curve = _PACKAGED[spec] if isinstance(spec, str) else _nominal_ramp(*spec)
    out = smooth_power_curve(curve, sigma)
    ref = powercurve_oracle.smooth_power_curve(curve, sigma)
    assert out.powers.tobytes() == ref.powers.tobytes()
    assert out.speeds.tobytes() == ref.speeds.tobytes()
    assert (out.cut_in, out.rated_speed, out.cut_out, out.smoothed) == (
        ref.cut_in, ref.rated_speed, ref.cut_out, ref.smoothed)


def test_kernel_layout_rebuilds_distances_and_is_read_only():
    quad, distinct, inverse = _kernel_layout()
    dense_quad = np.arange(0.0, 35.0 + _QUAD_STEP / 2, _QUAD_STEP)
    assert quad.tobytes() == dense_quad.tobytes()
    dist = np.abs(SPEED_GRID[:, None] - dense_quad[None, :])
    assert inverse.shape == dist.shape and inverse.dtype == np.intp
    assert distinct[inverse].tobytes() == dist.tobytes()
    assert np.all(np.diff(distinct) > 0)
    assert _kernel_layout() is _kernel_layout()
    for array in (quad, distinct, inverse):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_kernel_layout_not_built_at_import():
    code = ("import windplan, windplan.powercurve as p; "
            "assert p._kernel_layout.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True)


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
