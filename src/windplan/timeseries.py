"""Time-series container plus the resampling and windowing primitives used
throughout the siting and sizing stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _validated_values(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("series must contain at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Evenly sampled sequence of finite real values.

    Parameters
    ----------
    values : array-like
        Per-period values (per-unit or physical units).
    resolution_hours : float
        Duration of one period in hours.  Must be positive.
    """

    values: np.ndarray
    resolution_hours: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validated_values(self.values))
        if not self.resolution_hours > 0:
            raise ValueError("resolution_hours must be positive")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    def with_values(self, values, resolution_hours: float | None = None) -> "TimeSeries":
        """Copy of this series with new values (and optionally resolution)."""
        res = self.resolution_hours if resolution_hours is None else resolution_hours
        return TimeSeries(values, res)


def resample_mean(series: TimeSeries, factor: int) -> TimeSeries:
    """Downsample by averaging consecutive blocks of ``factor`` periods.

    The block mean preserves the global mean of the series exactly (up to
    floating-point rounding).  The output resolution is the input
    resolution multiplied by ``factor``.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    factor = int(factor)
    if factor == 1:
        return series
    n = len(series)
    remainder = n % factor
    if remainder:
        raise ValueError(
            f"series length {n} is not divisible by factor {factor} "
            f"({remainder} trailing values would be dropped)"
        )
    blocks = series.values.reshape(n // factor, factor)
    return TimeSeries(blocks.mean(axis=1), series.resolution_hours * factor)


def window_values(values: np.ndarray, delta: int) -> np.ndarray:
    """Means of all overlapping windows of ``delta`` consecutive entries
    along the last axis.

    Successive windows share ``delta - 1`` entries, so a length-T series
    yields ``T - delta + 1`` window values; a (sites, T) block yields one
    such row per site.  The result is always a new array.
    """
    if delta < 1 or int(delta) != delta:
        raise ValueError("delta must be a positive integer")
    delta = int(delta)
    length = values.shape[-1]
    if delta > length:
        raise ValueError(f"window length {delta} exceeds series length {length}")
    if delta == 1:
        return np.array(values, dtype=np.float64)
    view = np.lib.stride_tricks.sliding_window_view(values, delta, axis=-1)
    return view.mean(axis=-1)


def window_aggregate(cf: TimeSeries, delta: int, measure: str = "mean") -> np.ndarray:
    """Aggregate a capacity-factor series over overlapping windows.

    Only the ``mean`` measure is supported; it acts as a moving-average
    filter whose smoothing strength is controlled by ``delta``.
    """
    if measure != "mean":
        raise ValueError(f"unsupported window measure {measure!r}")
    return window_values(cf.values, delta)


def empirical_quantile(values, q: float) -> float:
    """Project-wide quantile convention: linear interpolation between
    order statistics (position ``(n - 1) * q``)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile level must be in [0, 1]")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q, method="linear"))
