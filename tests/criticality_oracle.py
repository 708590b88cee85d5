"""Full-matrix reference build of the window criticality matrix.

``build_criticality_matrix`` stacks the whole catalog into one float
(sites, periods) matrix, takes its window means and the scaled product in
full and packs a transposed bool matrix.  The library version in
``windplan.resource`` streams blocks of sites through the same element-wise
expressions, so its ``packed_rows`` and ``dense`` must equal this
function's byte for byte.
"""

from __future__ import annotations

import numpy as np

from windplan.resource import CriticalityMatrix, SiteCatalog
from windplan.timeseries import TimeSeries, window_values


def build_criticality_matrix(
    catalog: SiteCatalog,
    demand: TimeSeries,
    varsigma: float,
    k: int,
    delta: int,
    c: int,
) -> CriticalityMatrix:
    if len(demand) != catalog.time_length:
        raise ValueError(
            f"demand length {len(demand)} does not match catalog length {catalog.time_length}"
        )
    if not 0 < varsigma <= 1:
        raise ValueError("varsigma must lie in (0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    window_demand = window_values(demand.values, delta)  # also validates delta
    window_cf = np.lib.stride_tricks.sliding_window_view(catalog.cf_matrix, int(delta), axis=1).mean(axis=2)
    potentials = np.array([site.technical_potential_MW for site in catalog.sites])
    reference = varsigma * window_demand / k
    covered = potentials[:, None] * window_cf >= reference[None, :]
    return from_bool(
        covered,
        threshold_c=c,
        window_length=int(delta),
        site_ids=tuple(site.id for site in catalog.sites),
    )


def from_bool(
    matrix: np.ndarray,
    threshold_c: int,
    window_length: int,
    site_ids: tuple[str, ...] = (),
) -> CriticalityMatrix:
    """Pack a boolean (sites, windows) matrix into row-major bit rows."""
    matrix = np.asarray(matrix, dtype=bool)
    n_sites, n_windows = matrix.shape
    packed = np.packbits(matrix.T, axis=1)
    return CriticalityMatrix(n_windows, n_sites, packed, threshold_c, window_length, site_ids)


def dense(matrix: CriticalityMatrix) -> np.ndarray:
    """Unpacked matrix as (sites, windows) uint8, from the packed rows."""
    bits = np.unpackbits(matrix.packed_rows, axis=1)[:, : matrix.n_sites]
    return np.ascontiguousarray(bits.T)
