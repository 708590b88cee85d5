"""Site catalog and window criticality matrix.

The catalog holds candidate generation sites partitioned into disjoint
regions (one per electrical bus / maritime zone).  The criticality matrix
records, for every overlapping time window, which sites could on their own
supply a prescribed share of system demand; it is the sole input of the
complementarity siting scheme.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from windplan.powercurve import PowerCurve, apply_transfer, select_turbine, smooth_power_curve
from windplan.timeseries import TimeSeries, window_values

#: A site counts as legacy once at least this much capacity is installed.
DEFAULT_LEGACY_THRESHOLD_MW = 100.0

#: Default smoothing width as a fraction of the site mean wind speed.
DEFAULT_SMOOTHING_FACTOR = 0.15

_MATRIX_MAGIC = b"WCRM"
_MATRIX_VERSION = 1
_MATRIX_HEADER = 21   # magic, version byte, four uint32 dimensions

#: Float64 bytes per block of sites in the criticality build.
_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class Site:
    """Candidate deployment location with its capacity-factor series."""

    id: str
    longitude: float
    latitude: float
    partition_id: str
    is_legacy: bool
    legacy_capacity_MW: float
    technical_potential_MW: float
    capacity_factors: TimeSeries

    def __post_init__(self) -> None:
        if self.legacy_capacity_MW < 0:
            raise ValueError(f"site {self.id}: legacy capacity must be >= 0")
        if self.technical_potential_MW <= 0:
            raise ValueError(f"site {self.id}: technical potential must be > 0")
        if self.legacy_capacity_MW > self.technical_potential_MW:
            raise ValueError(f"site {self.id}: legacy capacity exceeds technical potential")
        cf = self.capacity_factors.values
        if np.any(cf < 0) or np.any(cf > 1):
            raise ValueError(f"site {self.id}: capacity factors must lie in [0, 1]")

    @property
    def mean_cf(self) -> float:
        return self.capacity_factors.mean


def make_site(
    id: str,
    longitude: float,
    latitude: float,
    partition_id: str,
    legacy_capacity_MW: float,
    technical_potential_MW: float,
    capacity_factors: TimeSeries,
    legacy_threshold_MW: float = DEFAULT_LEGACY_THRESHOLD_MW,
) -> Site:
    """Build a site, deriving the legacy flag from the capacity threshold."""
    return Site(
        id=id,
        longitude=longitude,
        latitude=latitude,
        partition_id=partition_id,
        is_legacy=legacy_capacity_MW >= legacy_threshold_MW,
        legacy_capacity_MW=legacy_capacity_MW,
        technical_potential_MW=technical_potential_MW,
        capacity_factors=capacity_factors,
    )


@dataclass(frozen=True)
class SiteCatalog:
    """Immutable collection of sites grouped into disjoint partitions.

    Partition membership is taken from each site's ``partition_id``; the
    per-partition site order follows the catalog order.  All sites must
    share the same series length and resolution.
    """

    sites: tuple[Site, ...]
    legacy_threshold_MW: float = DEFAULT_LEGACY_THRESHOLD_MW

    def __post_init__(self) -> None:
        sites = tuple(self.sites)
        if not sites:
            raise ValueError("catalog must contain at least one site")
        object.__setattr__(self, "sites", sites)
        seen: set[str] = set()
        length = len(sites[0].capacity_factors)
        resolution = sites[0].capacity_factors.resolution_hours
        for site in sites:
            if site.id in seen:
                raise ValueError(f"duplicate site id {site.id!r}")
            seen.add(site.id)
            if len(site.capacity_factors) != length:
                raise ValueError(f"site {site.id}: series length differs from catalog")
            if site.capacity_factors.resolution_hours != resolution:
                raise ValueError(f"site {site.id}: series resolution differs from catalog")
            expected = site.legacy_capacity_MW >= self.legacy_threshold_MW
            if site.is_legacy != expected:
                raise ValueError(
                    f"site {site.id}: legacy flag inconsistent with "
                    f"{self.legacy_threshold_MW} MW threshold"
                )

    @cached_property
    def partitions(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for site in self.sites:
            out.setdefault(site.partition_id, []).append(site.id)
        return {pid: tuple(ids) for pid, ids in out.items()}

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {site.id: i for i, site in enumerate(self.sites)}

    @property
    def time_length(self) -> int:
        return len(self.sites[0].capacity_factors)

    @property
    def resolution_hours(self) -> float:
        return self.sites[0].capacity_factors.resolution_hours

    @cached_property
    def cf_matrix(self) -> np.ndarray:
        """Capacity factors as a (sites, periods) matrix in catalog order.

        The first access stacks a full float64 copy of every series and
        keeps it for the catalog's lifetime; ``build_criticality_matrix``
        reads the series block by block and never builds it.
        """
        mat = np.stack([site.capacity_factors.values for site in self.sites])
        mat.setflags(write=False)
        return mat

    @cached_property
    def legacy_ids(self) -> frozenset[str]:
        return frozenset(site.id for site in self.sites if site.is_legacy)

    def site(self, site_id: str) -> Site:
        return self.sites[self.index_of[site_id]]


@dataclass(frozen=True)
class CriticalityMatrix:
    """Binary window-by-site coverage matrix with its counting threshold.

    Rows (windows) are stored as packed bit strings over sites in catalog
    order, most significant bit first.  Readers count on ``dense`` or
    :meth:`columns`; besides ``dense`` itself, only :meth:`columns` and
    :meth:`to_bytes` read ``packed_rows``.  ``threshold_c`` is the number of
    covering sites required for a window to count as non-critical;
    ``window_length`` is the number of periods each window spans, so
    ``n_windows == T - window_length + 1``.
    """

    n_windows: int
    n_sites: int
    packed_rows: np.ndarray
    threshold_c: int
    window_length: int
    site_ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        rows = np.ascontiguousarray(self.packed_rows, dtype=np.uint8)
        expected = (self.n_windows, (self.n_sites + 7) // 8)
        if rows.shape != expected:
            raise ValueError(f"packed rows have shape {rows.shape}, expected {expected}")
        rows.setflags(write=False)
        object.__setattr__(self, "packed_rows", rows)
        if not 1 <= self.threshold_c <= self.n_sites:
            raise ValueError("threshold must satisfy 1 <= c <= number of sites")
        if self.window_length < 1:
            raise ValueError("window length must be >= 1")
        if not self.site_ids:
            object.__setattr__(self, "site_ids", tuple(str(i) for i in range(self.n_sites)))
        elif len(self.site_ids) != self.n_sites:
            raise ValueError("site id count does not match matrix width")

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {sid: i for i, sid in enumerate(self.site_ids)}

    @cached_property
    def dense(self) -> np.ndarray:
        """Unpacked matrix as (sites, windows) uint8, read-only.

        Matrices from ``from_bool`` and ``build_criticality_matrix`` carry
        it from the start; others unpack ``packed_rows`` on first access.
        """
        bits = np.unpackbits(self.packed_rows, axis=1)[:, : self.n_sites]
        cols = np.ascontiguousarray(bits.T)
        cols.setflags(write=False)
        return cols

    def columns(self, windows: np.ndarray) -> np.ndarray:
        """``dense[:, windows]`` as a (sites, windows) view of the windows'
        unpacked rows; for a few windows this beats gathering ``dense``."""
        return np.unpackbits(self.packed_rows[windows], axis=1, count=self.n_sites).T

    @classmethod
    def from_bool(
        cls,
        matrix: np.ndarray,
        threshold_c: int,
        window_length: int,
        site_ids: tuple[str, ...] = (),
    ) -> "CriticalityMatrix":
        """Pack a boolean (sites, windows) matrix into row-major bit rows."""
        matrix = np.asarray(matrix, dtype=bool)
        n_sites, n_windows = matrix.shape
        return cls._from_blocks(n_sites, n_windows, [(0, matrix)], threshold_c, window_length,
                                site_ids)

    @classmethod
    def _from_blocks(
        cls,
        n_sites: int,
        n_windows: int,
        blocks: Iterable[tuple[int, np.ndarray]],
        threshold_c: int,
        window_length: int,
        site_ids: tuple[str, ...],
    ) -> "CriticalityMatrix":
        """Matrix from ``(first site, bool (sites, windows) block)`` pairs
        covering every site once.  Each block's first site is a multiple of
        8, so it fills whole bytes: its rows go into ``dense`` and its bytes
        of ``packed_rows`` at once."""
        dense = np.empty((n_sites, n_windows), dtype=np.uint8)
        packed = np.empty((n_windows, (n_sites + 7) // 8), dtype=np.uint8)
        for start, covered in blocks:
            dense[start : start + len(covered)] = covered
            bits = np.packbits(np.ascontiguousarray(covered.T), axis=1)  # ~3x faster contiguous
            packed[:, start // 8 : start // 8 + bits.shape[1]] = bits
        matrix = cls(n_windows, n_sites, packed, threshold_c, window_length, site_ids)
        dense.setflags(write=False)
        object.__setattr__(matrix, "dense", dense)  # fills the cached property
        return matrix

    def to_bytes(self) -> bytes:
        """Serialize to the packed binary interchange format.

        Layout: magic ``WCRM``, one version byte, then W, L, c and the
        window length as little-endian uint32, followed by the row-major
        packed bit rows.  Column order is the catalog site order; ids are
        not stored.
        """
        header = _MATRIX_MAGIC + bytes([_MATRIX_VERSION])
        dims = np.array(
            [self.n_windows, self.n_sites, self.threshold_c, self.window_length],
            dtype="<u4",
        )
        return header + dims.tobytes() + self.packed_rows.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes, site_ids: tuple[str, ...] = ()) -> "CriticalityMatrix":
        """The matrix :meth:`to_bytes` wrote.  A blob shorter than the
        header, with other magic bytes or version, or whose payload is not
        W rows of ceil(L / 8) bytes raises ValueError."""
        if len(blob) < _MATRIX_HEADER:
            raise ValueError(f"criticality matrix blob of {len(blob)} bytes is shorter than "
                             f"its {_MATRIX_HEADER}-byte header")
        if blob[:4] != _MATRIX_MAGIC:
            raise ValueError("not a criticality matrix blob (bad magic bytes)")
        if blob[4] != _MATRIX_VERSION:
            raise ValueError(f"unsupported criticality matrix version {blob[4]}")
        w, l, c, delta = np.frombuffer(blob[5:_MATRIX_HEADER], dtype="<u4")
        row_bytes = (int(l) + 7) // 8
        body = np.frombuffer(blob[_MATRIX_HEADER:], dtype=np.uint8)
        if body.size != int(w) * row_bytes:
            raise ValueError("criticality matrix payload size mismatch")
        rows = body.reshape(int(w), row_bytes)
        return cls(int(w), int(l), rows, int(c), int(delta), site_ids)


def _block_sites(periods: int) -> int:
    """Sites per criticality build block: ``_BLOCK_BYTES`` of float64
    series, rounded down to a multiple of 8 and at least 8."""
    return max(8, _BLOCK_BYTES // (8 * periods) // 8 * 8)


def build_criticality_matrix(
    catalog: SiteCatalog,
    demand: TimeSeries,
    varsigma: float,
    k: int,
    delta: int,
    c: int,
) -> CriticalityMatrix:
    """Classify every (site, window) pair as covering or critical.

    A site covers a window when its maximum theoretical generation over the
    window (technical potential times windowed capacity factor) reaches the
    per-site share ``varsigma * window_demand / k``; the comparison is
    non-strict.  Window demand is aggregated with the same mean measure as
    the capacity factors so both sides average over identical spans.

    The matrix is built in blocks of sites (``_BLOCK_BYTES`` of float64
    series, a multiple of 8 sites), straight from the sites' series, and
    each block is written into ``dense`` and its byte columns of
    ``packed_rows`` at once.  No float array larger than one block is made,
    so beyond the returned matrix (9/8 byte per cell) the build needs a few
    blocks' worth of memory, not several (sites, periods) float64 copies;
    ``catalog.cf_matrix`` is not built.
    """
    if len(demand) != catalog.time_length:
        raise ValueError(
            f"demand length {len(demand)} does not match catalog length {catalog.time_length}"
        )
    if not 0 < varsigma <= 1:
        raise ValueError("varsigma must lie in (0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    window_demand = window_values(demand.values, delta)  # also validates delta
    delta = int(delta)
    reference = varsigma * window_demand / k
    sites = catalog.sites
    step = _block_sites(catalog.time_length)

    def blocks():
        for start in range(0, len(sites), step):
            chunk = sites[start : start + step]
            window_cf = window_values(np.stack([site.capacity_factors.values for site in chunk]),
                                      delta)
            potentials = np.array([site.technical_potential_MW for site in chunk])
            # in place: the product takes no float block of its own
            yield start, np.multiply(potentials[:, None], window_cf, out=window_cf) >= reference

    return CriticalityMatrix._from_blocks(
        len(sites), reference.size, blocks(), c, delta, tuple(site.id for site in sites)
    )


def capacity_factors_from_speeds(
    speed_series: dict[str, TimeSeries],
    curves: dict[str, PowerCurve],
    class_table=None,
    smoothing_factor: float = DEFAULT_SMOOTHING_FACTOR,
) -> dict[str, TimeSeries]:
    """Convert per-site wind speeds to capacity factors.

    For each site the long-run mean speed picks a curve from the class
    table, the curve is smoothed with ``sigma = smoothing_factor * mean``
    and the smoothed transfer function is applied to the speed series.
    """
    from windplan.powercurve import DEFAULT_CLASS_TABLE

    table = DEFAULT_CLASS_TABLE if class_table is None else class_table
    out: dict[str, TimeSeries] = {}
    for site_id, speeds in speed_series.items():
        mean_speed = speeds.mean
        curve_id = select_turbine(mean_speed, table)
        if curve_id not in curves:
            raise ValueError(f"class table selected unknown curve {curve_id!r}")
        curve = smooth_power_curve(curves[curve_id], smoothing_factor * mean_speed)
        out[site_id] = apply_transfer(curve, speeds)
    return out
