"""Dense reference implementation of the farm-level power-curve smoothing.

``smooth_power_curve`` builds the full 351 x 3,501 grid-to-quadrature
distance matrix and takes ``exp`` of every entry on every call.  The
library version in ``windplan.powercurve`` correlates the quadrature
samples with the kernel over its support only and sums in another order,
so its ``powers`` must equal this function's within float64 summation
error (at most 3,501 terms per sum), not byte for byte.
"""

from __future__ import annotations

import numpy as np

from windplan.powercurve import _QUAD_STEP, SPEED_GRID, PowerCurve


def smooth_power_curve(curve: PowerCurve, sigma: float) -> PowerCurve:
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        values = curve.evaluate(SPEED_GRID)
    else:
        quad = np.arange(0.0, 35.0 + _QUAD_STEP / 2, _QUAD_STEP)
        samples = curve.evaluate(quad)
        dist = np.abs(SPEED_GRID[:, None] - quad[None, :])
        weights = np.exp(-0.5 * (dist / sigma) ** 2)
        weights[dist > 3.0 * sigma + 1e-12] = 0.0
        values = (weights @ samples) / weights.sum(axis=1)
    return PowerCurve(
        SPEED_GRID,
        np.clip(values, 0.0, 1.0),
        cut_in=curve.cut_in,
        rated_speed=curve.rated_speed,
        cut_out=curve.cut_out,
        smoothed=True,
    )
