"""Wind turbine power curves: class selection, farm-level smoothing and
speed-to-capacity-factor conversion.

A :class:`PowerCurve` is a piecewise-linear lookup table in per-unit power.
Nominal (manufacturer-style) curves are zero below cut-in, one from rated
speed to cut-out and zero above cut-out.  Farm-level curves derived via
:func:`smooth_power_curve` deliberately violate the nominal shape (output
is smeared across the cut-in and cut-out cliffs) and are flagged as
``smoothed`` so construction-time shape checks are skipped for them.

The smoothing integrates on a fixed 0.01 m/s quadrature grid.  The
351 x 3,501 grid-to-quadrature distance matrix holds only 14,804 distinct
values, so the first smoothing call caches them with each pair's index
among them (~0.1 s once, 9.8 MB resident); every call after that takes
``exp`` of the distinct distances only and gathers the dense weight
matrix from the cache.  The result is bit-identical to evaluating the
kernel on the whole matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from windplan.timeseries import TimeSeries

# Fixed evaluation grid for smoothed curves: 0 to 35 m/s, 0.1 m/s step.
SPEED_GRID = np.round(np.arange(0.0, 35.0 + 1e-9, 0.1), 1)
_QUAD_STEP = 0.01  # internal quadrature step for kernel integration
_LAYOUT_ROWS = 32  # grid rows per block while the distance layout is built
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


@functools.cache
def _kernel_layout() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quadrature grid, the sorted distinct distances between it and
    ``SPEED_GRID``, and each (grid, quadrature) pair's index among them.

    Built once per process on first use, a block of grid rows at a time so
    that the whole distance matrix and its sort are never held at once.
    The arrays are read-only.
    """
    quad = np.arange(0.0, 35.0 + _QUAD_STEP / 2, _QUAD_STEP)
    starts = range(0, SPEED_GRID.size, _LAYOUT_ROWS)

    def block(lo: int) -> np.ndarray:
        return np.abs(SPEED_GRID[lo:lo + _LAYOUT_ROWS, None] - quad[None, :])

    distinct = np.unique(np.concatenate([np.unique(block(lo)) for lo in starts]))
    inverse = np.empty((SPEED_GRID.size, quad.size), dtype=np.intp)
    for lo in starts:
        inverse[lo:lo + _LAYOUT_ROWS] = np.searchsorted(distinct, block(lo))
    for array in (quad, distinct, inverse):
        array.setflags(write=False)
    return quad, distinct, inverse


def smooth_power_curve(curve: PowerCurve, sigma: float) -> PowerCurve:
    """Gaussian-kernel smoothing of a power curve onto the fixed speed grid.

    Each output value is the kernel-weighted average of the input transfer
    function (including its hard zero above cut-out), with the kernel
    truncated at three standard deviations and renormalised over the part
    of its support that falls inside [0, 35] m/s.  ``sigma = 0`` returns
    the input curve sampled on the grid unchanged; a negative or NaN
    ``sigma`` raises ``ValueError``.

    The first call with ``sigma > 0`` builds the cached distance layout
    (~0.1 s once per process, 9.8 MB resident); later calls reuse it.
    """
    if not sigma >= 0:  # also rejects NaN
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        values = curve.evaluate(SPEED_GRID)
    else:
        quad, distinct, inverse = _kernel_layout()
        samples = curve.evaluate(quad)
        kernel = np.exp(-0.5 * (distinct / sigma) ** 2)
        kernel[distinct > 3.0 * sigma + 1e-12] = 0.0
        # the dense gather keeps the summation order of the BLAS product
        weights = kernel[inverse]
        values = (weights @ samples) / weights.sum(axis=1)
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
