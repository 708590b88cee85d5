"""Wind turbine power curves: class selection, farm-level smoothing and
speed-to-capacity-factor conversion.

A :class:`PowerCurve` is a piecewise-linear lookup table in per-unit power.
Nominal (manufacturer-style) curves are zero below cut-in, one from rated
speed to cut-out and zero above cut-out.  Farm-level curves derived via
:func:`smooth_power_curve` deliberately violate the nominal shape (output
is smeared across the cut-in and cut-out cliffs) and are flagged as
``smoothed`` so construction-time shape checks are skipped for them.

The smoothing integrates on a fixed 0.01 m/s quadrature grid whose every
tenth point is a grid speed, so it is a correlation of the quadrature
samples with the truncated kernel: each grid speed reads a window of the
zero-padded samples as wide as the kernel's support, and nothing outside
that support is touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from windplan.timeseries import TimeSeries

# Fixed evaluation grid for smoothed curves: 0 to 35 m/s, 0.1 m/s step.
SPEED_GRID = np.round(np.arange(0.0, 35.0 + 1e-9, 0.1), 1)
_QUAD_STEP = 0.01  # internal quadrature step for kernel integration
_SHAPE_TOL = 1e-9

#: Default mean-speed class table: closed lower bounds, covers [0, inf).
DEFAULT_CLASS_TABLE: tuple[tuple[float, str], ...] = (
    (0.0, "low_wind"),
    (8.0, "high_wind"),
)


@dataclass(frozen=True)
class PowerCurve:
    """Piecewise-linear transfer function from wind speed to per-unit power.

    Parameters
    ----------
    speeds, powers : array-like
        Finite breakpoint coordinates; speeds non-decreasing, powers in
        [0, 1].
    cut_in, rated_speed, cut_out : float
        Operational range markers in m/s.
    smoothed : bool
        True for farm-level curves produced by :func:`smooth_power_curve`;
        disables the nominal shape validation.
    """

    speeds: np.ndarray
    powers: np.ndarray
    cut_in: float
    rated_speed: float
    cut_out: float
    smoothed: bool = field(default=False)

    def __post_init__(self) -> None:
        speeds = np.array(self.speeds, dtype=np.float64)
        powers = np.array(self.powers, dtype=np.float64)
        if speeds.ndim != 1 or speeds.shape != powers.shape or speeds.size < 2:
            raise ValueError("breakpoints must be two equal-length 1-D arrays with >= 2 points")
        if not (np.isfinite(speeds).all() and np.isfinite(powers).all()):
            raise ValueError("breakpoint speeds and powers must be finite")
        if np.any(np.diff(speeds) < 0):
            raise ValueError("breakpoint speeds must be non-decreasing")
        if np.any(powers < -_SHAPE_TOL) or np.any(powers > 1 + _SHAPE_TOL):
            raise ValueError("breakpoint powers must lie in [0, 1]")
        if not 0 <= self.cut_in <= self.rated_speed <= self.cut_out:
            raise ValueError("expected 0 <= cut_in <= rated_speed <= cut_out")
        speeds.setflags(write=False)
        powers.setflags(write=False)
        object.__setattr__(self, "speeds", speeds)
        object.__setattr__(self, "powers", np.clip(powers, 0.0, 1.0))
        self.powers.setflags(write=False)
        if not self.smoothed:
            self._validate_nominal_shape()

    def _validate_nominal_shape(self) -> None:
        below = self.speeds < self.cut_in - _SHAPE_TOL
        if np.any(self.powers[below] > _SHAPE_TOL):
            raise ValueError("nominal curve must be zero below cut-in")
        rated = (self.speeds >= self.rated_speed - _SHAPE_TOL) & (
            self.speeds <= self.cut_out + _SHAPE_TOL
        )
        if np.any(np.abs(self.powers[rated] - 1.0) > _SHAPE_TOL):
            raise ValueError("nominal curve must be one from rated speed to cut-out")
        operating = (self.speeds >= self.cut_in - _SHAPE_TOL) & (
            self.speeds <= self.rated_speed + _SHAPE_TOL
        )
        if np.any(np.diff(self.powers[operating]) < -_SHAPE_TOL):
            raise ValueError("nominal curve must be non-decreasing between cut-in and rated speed")

    def evaluate(self, speeds) -> np.ndarray:
        """Per-unit power at the given speeds (linear interpolation,
        hard zero above cut-out)."""
        v = np.asarray(speeds, dtype=np.float64)
        p = np.interp(v, self.speeds, self.powers)
        return np.where(v > self.cut_out, 0.0, p)


def select_turbine(mean_wind_speed: float, class_table=DEFAULT_CLASS_TABLE) -> str:
    """Return the curve id whose speed class contains the mean wind speed.

    ``class_table`` is a sequence of ``(lower_bound, curve_id)`` pairs with
    closed lower bounds; the first bound must be 0 so the table covers
    [0, inf).  The entry with the largest bound not exceeding the mean
    speed wins.
    """
    if mean_wind_speed < 0:
        raise ValueError("mean wind speed must be non-negative")
    table = sorted(class_table, key=lambda item: item[0])
    if not table or table[0][0] != 0.0:
        raise ValueError("class table must start at a lower bound of 0.0")
    chosen = table[0][1]
    for bound, curve_id in table:
        if mean_wind_speed >= bound:
            chosen = curve_id
    return chosen


def smooth_power_curve(curve: PowerCurve, sigma: float) -> PowerCurve:
    """Gaussian-kernel smoothing of a power curve onto the fixed speed grid.

    Each output value is the kernel-weighted average of the input transfer
    function (including its hard zero above cut-out), with the kernel
    truncated at three standard deviations and renormalised over the part
    of its support that falls inside [0, 35] m/s.  ``sigma = 0`` returns
    the input curve sampled on the grid unchanged; a negative or NaN
    ``sigma`` raises ``ValueError``.

    The kernel is sampled once per call at the quadrature offsets within
    the cut, and the weighted sums are one product of the strided
    (351 x window) view of the zero-padded samples with it; the kernel mass
    inside [0, 35] m/s is a difference of two of its prefix sums.  A
    ``sigma`` too small to reach the next quadrature point keeps the centre
    weight only, and an infinite one averages evenly over [0, 35] m/s.
    """
    if not sigma >= 0:  # also rejects NaN
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        values = curve.evaluate(SPEED_GRID)
    else:
        samples = curve.evaluate(np.arange(0.0, 35.0 + _QUAD_STEP / 2, _QUAD_STEP))
        cut = 3.0 * sigma + 1e-12
        # an offset or two past the cut, trimmed next; min() keeps an infinite cut out of int()
        offsets = np.arange(min(int(min(cut, 35.0) / _QUAD_STEP) + 2, samples.size)) * _QUAD_STEP
        offsets = offsets[offsets <= cut]
        reach = offsets.size - 1
        half = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernel = np.concatenate((half[:0:-1], half))
        padded = np.zeros(samples.size + 2 * reach)
        padded[reach:reach + samples.size] = samples
        # grid speed i is quadrature point 10 i; its window covers 10 i +- reach
        windows = sliding_window_view(padded, kernel.size)[::10]
        centre = 10 * np.arange(SPEED_GRID.size)
        lo = np.maximum(reach - centre, 0)  # kernel entries that fall inside [0, 35] m/s
        hi = np.minimum(reach - centre + samples.size, kernel.size)
        mass = np.concatenate(([0.0], np.cumsum(kernel)))
        values = (windows @ kernel) / (mass[hi] - mass[lo])
    return PowerCurve(
        SPEED_GRID,
        np.clip(values, 0.0, 1.0),
        cut_in=curve.cut_in,
        rated_speed=curve.rated_speed,
        cut_out=curve.cut_out,
        smoothed=True,
    )


def apply_transfer(curve: PowerCurve, speeds: TimeSeries) -> TimeSeries:
    """Convert a wind-speed series to a per-unit capacity-factor series."""
    if np.any(speeds.values < 0):
        raise ValueError("wind speeds must be non-negative")
    cf = np.clip(curve.evaluate(speeds.values), 0.0, 1.0)
    return speeds.with_values(cf)
