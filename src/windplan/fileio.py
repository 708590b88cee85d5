"""Documented on-disk formats (schema version 1).

Every CSV is written by :func:`write_table` (``# `` comment lines, a header,
one unquoted row per line, numbers as ``repr(float(x))``) and every CSV
input is read by its inverse :func:`read_table`; every JSON document is
written by :func:`write_json` (two-space indent, sorted keys, a final
newline, no ``NaN`` or ``Infinity``).  The pipeline's JSON outputs carry ``config_hash`` and
``tool_version``, its CSVs a ``# config_hash=`` comment.

How a CSV is read
    A line whose first non-blank character is ``#`` is a comment (its text
    after the ``#``) and a blank line is skipped.  The first other line is
    the header and every later one a row with as many cells, split at each
    comma; there is no quoting, and a line holding ``"`` is refused.
    Comments and text cells (the header, ids, partitions, countries, paths)
    are stripped of whitespace at both ends, and numbers parse with
    ``float``.  A reader requires its documented columns; a power curve
    requires the header ``wind_speed_ms,power_pu``.

Time-series CSV
    A header of distinct series ids (one column per site/bus/cell) and one
    row per period, such as ``residual_series.csv`` (``residual_MW``).
    Resolution is supplied by the caller, not stored in the file.

Site catalog CSV
    Columns ``id, lon, lat, partition, legacy_MW, potential_MW``; ``lon``
    and ``lat`` are finite.  The legacy flag is derived from the configured
    capacity threshold.

Power curve CSV
    ``# key=value`` comment lines carrying ``cut_in``, ``rated_speed``,
    ``cut_out`` and optionally ``smoothed`` (other comments are ignored),
    then ``wind_speed_ms, power_pu`` breakpoints.

Hydro country CSV
    Columns are the fields of :class:`windplan.hydro.HydroCountryParams`,
    in order, one row per country; a field whose default is ``None`` may
    be blank (unknown).

Runoff manifest CSV (``runoff.csv`` of ``windplan synth``)
    Columns ``cell_id, country, area_km2, series_path`` where the series
    path points at a time-series CSV (relative to the manifest) whose
    column header equals the cell id.

Criticality matrix
    Packed binary: a 21-byte header (magic ``WCRM``, a version byte, then
    W, L, c and the window length as little-endian uint32) and W packed
    bit rows of ceil(L / 8) bytes; see
    :meth:`windplan.resource.CriticalityMatrix.to_bytes`.  A file shorter
    than the header, with other magic or version, or with a payload of
    another size is refused with ``ValueError`` naming it.

Siting outputs
    The solution as JSON and as a GeoJSON point collection for mapping;
    ``residual_stats.json`` (``deploy_MW_per_site`` and the
    :func:`windplan.siting.residual_summary` statistics) and
    ``residual_spreads.csv`` (``block_hours, block_index, spread_MW``).

CEP outputs
    ``cep_solution.json`` (objective, emissions, shed energy, capacity
    totals with ``bus|tech`` keys, cost breakdown) and ``cep_report.csv``
    (``row, capacity, production``, per technology group and in total).

A writer refuses what would not read back as it was written: a header or
text cell holding a comma, a quote or a line break, a comment holding a
line break, either with whitespace at an end, a line whose first cell
starts with ``#`` or that would be blank, and a row whose width differs
from the header's.  Every reader raises ``ValueError`` naming the file, and
the line where there is one, for an unreadable or non-UTF-8 file, a quote,
a value that does not parse, a row with the wrong number of fields, a
missing column or a repeated id.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from windplan.cep import CepInstance, CepSolution, Technology
from windplan.hydro import HydroCountryParams, RunoffCell, RunoffGrid
from windplan.powercurve import PowerCurve
from windplan.resource import (
    DEFAULT_LEGACY_THRESHOLD_MW, CriticalityMatrix, Site, SiteCatalog, make_site,
)
from windplan.siting import SitingSolution
from windplan.timeseries import TimeSeries


# the line ends of str.splitlines, which read_table splits at, and the
# characters that end or quote a field
_LINE_BREAK = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_IN_COMMENT, _IN_CELL = re.compile(f"[{_LINE_BREAK}]"), re.compile(f'[,"{_LINE_BREAK}]')


def _cell(text: str, refused=_IN_CELL) -> str:
    if refused.search(text) or text != text.strip():
        raise ValueError(f"cannot write {text!r}: it holds a comma, a quote or a line break, "
                         "or whitespace at an end")
    return text


def _line(cells: list[str], width: int) -> str:
    line = ",".join(cells)
    if len(cells) != width:
        raise ValueError(f"cannot write {line!r}: {len(cells)} cells under a header of {width}")
    if not line or line.startswith("#"):
        raise ValueError(f"cannot write a line starting with {line.partition(',')[0]!r}: "
                         "it would read back as a blank line or a comment")
    return line


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
                comments: Sequence[str] = ()) -> Path:
    """Write a CSV table that :func:`read_table` reads back exactly.  A
    string cell is written as it is, any other as ``repr(float(cell))``; a
    numpy row is converted with one ``tolist``."""
    path = Path(path)
    out = [f"# {_cell(c, _IN_COMMENT)}" for c in comments]
    out.append(_line([_cell(c) for c in header], len(header)))
    for row in rows:
        if isinstance(row, np.ndarray):
            row = row.tolist()
        out.append(_line([_cell(c) if isinstance(c, str) else repr(float(c)) for c in row],
                         len(header)))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def write_json(path: str | Path, doc) -> Path:
    """Write a JSON document: two-space indent, sorted keys, final newline.
    JSON has no NaN or infinity, so a non-finite number raises ValueError."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")
    return path


def _read(path: Path, binary: bool = False):
    """A file's text (or bytes); a missing, unreadable or undecodable file
    raises ValueError naming it.  Text is UTF-8; a byte-order mark at the
    start, as spreadsheet tools save, is dropped."""
    try:
        return path.read_bytes() if binary else path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def read_table(path: str | Path) -> tuple[list[str], list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped comments and header and the ``(line number, cells)`` rows
    of a CSV table, the inverse of :func:`write_table` by the module's rules.
    Every line is checked before this returns; the rows are split as they
    are iterated.  A file of no table has an empty header."""
    path = Path(path)
    comments, header, lines = [], [], []
    for n, line in enumerate(_read(path).splitlines(), start=1):
        start = line.lstrip()
        if start.startswith("#"):
            comments.append(start[1:].strip())
        elif not start:
            continue
        elif '"' in line:
            raise ValueError(f"{path}: line {n}: a quote cannot be read")
        elif not header:
            header = [cell.strip() for cell in line.split(",")]
        elif line.count(",") != len(header) - 1:
            raise ValueError(f"{path}: line {n}: expected {len(header)} fields, "
                             f"got {line.count(',') + 1}")
        else:
            lines.append((n, line))
    return comments, header, ((n, line.split(",")) for n, line in lines)


def _parse_rows(path: Path, numbered, parse) -> list:
    """``parse`` applied to each item of ``(line number, item)`` pairs; a
    ValueError names the file and the line."""
    parsed, lineno = [], None
    try:
        for lineno, item in numbered:
            parsed.append(parse(item))
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return parsed


def _records(path: Path, columns, what: str, parse) -> list:
    """``parse`` of each row, a dict of stripped cells by column name, of a
    table that has ``columns``."""
    _, header, rows = read_table(path)
    missing = set(columns) - set(header)
    if missing:
        raise ValueError(f"{path}: {what} columns missing: {sorted(missing)}")
    _check_unique(path, header, "column")
    return _parse_rows(path, ((n, dict(zip(header, map(str.strip, c)))) for n, c in rows), parse)


def _check_unique(path: Path, ids, what: str) -> None:
    seen = set()
    for key in ids:
        if key in seen:
            raise ValueError(f"{path}: {what} {key!r} appears more than once")
        seen.add(key)


# ---------------------------------------------------------------------------
# Time-series CSV
# ---------------------------------------------------------------------------

def write_series_csv(path: str | Path, series: Mapping[str, TimeSeries],
                     comments: Sequence[str] = ()) -> Path:
    ids = list(series)
    if not ids:
        raise ValueError("no series to write")
    for sid in ids[1:]:
        if len(series[sid]) != len(series[ids[0]]):
            raise ValueError(f"series {sid!r} length differs")
    return write_table(path, ids, np.column_stack([series[sid].values for sid in ids]),
                       comments)


def read_series_csv(path: str | Path, resolution_hours: float = 1.0) -> dict[str, TimeSeries]:
    path = Path(path)
    _, header, rows = read_table(path)
    _check_unique(path, header, "series id")
    data = np.array(_parse_rows(path, rows, lambda cells: list(map(float, cells))), dtype=float)
    if data.ndim != 2:
        raise ValueError(f"{path}: no data rows")
    return {name: TimeSeries(data[:, j], resolution_hours) for j, name in enumerate(header)}


# ---------------------------------------------------------------------------
# Site catalog CSV
# ---------------------------------------------------------------------------

CATALOG_HEADER = ("id", "lon", "lat", "partition", "legacy_MW", "potential_MW")


def write_catalog_csv(path: str | Path, rows: Iterable[Mapping], comments: Sequence[str] = ()) -> Path:
    return write_table(path, CATALOG_HEADER, (
        [str(row[key]) if key in ("id", "partition") else row[key] for key in CATALOG_HEADER]
        for row in rows), comments)


def read_catalog_csv(path: str | Path) -> list[dict]:
    def parse(row: dict) -> dict:
        record = {key: row[key] if key in ("id", "partition") else float(row[key])
                  for key in CATALOG_HEADER}
        for key in ("lon", "lat"):
            if not math.isfinite(record[key]):
                raise ValueError(f"{key} {row[key]!r} is not a finite number")
        return record
    return _records(Path(path), CATALOG_HEADER, "catalog", parse)


def load_catalog(
    catalog_csv: str | Path,
    capacity_factors: Mapping[str, TimeSeries],
    legacy_threshold_MW: float = DEFAULT_LEGACY_THRESHOLD_MW,
) -> SiteCatalog:
    """Assemble a catalog from its CSV and per-site capacity factors."""
    sites: list[Site] = []
    for row in read_catalog_csv(catalog_csv):
        if row["id"] not in capacity_factors:
            raise ValueError(f"no capacity-factor series for site {row['id']!r}")
        sites.append(make_site(
            row["id"], row["lon"], row["lat"], row["partition"], row["legacy_MW"],
            row["potential_MW"], capacity_factors[row["id"]], legacy_threshold_MW,
        ))
    return SiteCatalog(tuple(sites), legacy_threshold_MW)


# ---------------------------------------------------------------------------
# Power curve CSV
# ---------------------------------------------------------------------------

def write_power_curve_csv(path: str | Path, curve: PowerCurve) -> Path:
    meta = [f"{key}={float(getattr(curve, key))!r}" for key in ("cut_in", "rated_speed", "cut_out")]
    return write_table(path, ("wind_speed_ms", "power_pu"),
                       np.column_stack([curve.speeds, curve.powers]),
                       [*meta, f"smoothed={int(curve.smoothed)}"])


def read_power_curve_csv(path: str | Path) -> PowerCurve:
    """Only the ``cut_in``, ``rated_speed``, ``cut_out`` and ``smoothed``
    comments are read; other comments are free text."""
    path = Path(path)
    comments, header, rows = read_table(path)
    if header != ["wind_speed_ms", "power_pu"]:
        raise ValueError(f"{path}: expected the header wind_speed_ms,power_pu, "
                         f"got {','.join(header)!r}")
    meta = {key.strip(): value for key, _, value in (c.partition("=") for c in comments)}
    try:
        speeds_ms = {key: float(meta[key]) for key in ("cut_in", "rated_speed", "cut_out")}
        smoothed = bool(float(meta.get("smoothed", 0)))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: missing or unreadable curve metadata: {exc}") from exc
    points = np.array(_parse_rows(path, rows, lambda cells: list(map(float, cells))))
    speeds, powers = points.reshape(-1, 2).T.copy()
    return PowerCurve(speeds, powers, smoothed=smoothed, **speeds_ms)


def load_default_curves() -> dict[str, PowerCurve]:
    """Bundled generic low-wind and high-wind class curves."""
    from importlib import resources

    curves: dict[str, PowerCurve] = {}
    package = resources.files("windplan") / "data" / "power_curves"
    for entry in sorted(package.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".csv"):
            with resources.as_file(entry) as concrete:
                curves[entry.name[:-4]] = read_power_curve_csv(concrete)
    return curves


def load_curves_dir(directory: str | Path) -> dict[str, PowerCurve]:
    directory = Path(directory)
    curves = {entry.stem: read_power_curve_csv(entry) for entry in sorted(directory.glob("*.csv"))}
    if not curves:
        raise ValueError(f"no curve CSVs found in {directory}")
    return curves


# ---------------------------------------------------------------------------
# Hydro CSVs
# ---------------------------------------------------------------------------

HYDRO_HEADER = tuple(f.name for f in dataclasses.fields(HydroCountryParams))


def write_hydro_params_csv(path: str | Path, params: Mapping[str, HydroCountryParams],
                           comments: Sequence[str] = ()) -> Path:
    return write_table(path, HYDRO_HEADER, (
        ["" if value is None else value
         for value in (getattr(params[country], key) for key in HYDRO_HEADER)]
        for country in sorted(params)), comments)


def read_hydro_params_csv(path: str | Path) -> dict[str, HydroCountryParams]:
    """A blank field whose default is ``None`` is unknown."""
    path = Path(path)
    fields = dataclasses.fields(HydroCountryParams)[1:]
    params = _records(path, HYDRO_HEADER, "hydro", lambda record: HydroCountryParams(
        country=record["country"], **{f.name: None if f.default is None and not record[f.name]
                                      else float(record[f.name]) for f in fields}))
    _check_unique(path, [p.country for p in params], "country")
    return {p.country: p for p in params}


def read_runoff_manifest(path: str | Path, resolution_hours: float = 1.0) -> RunoffGrid:
    path = Path(path)
    series_cache: dict[Path, dict[str, TimeSeries]] = {}

    def cell(record) -> RunoffCell:
        series_path = (path.parent / record["series_path"]).resolve()
        if series_path not in series_cache:
            series_cache[series_path] = read_series_csv(series_path, resolution_hours)
        table = series_cache[series_path]
        if record["cell_id"] not in table:
            raise ValueError(f"{series_path}: no column for cell {record['cell_id']!r}")
        return RunoffCell(record["cell_id"], record["country"],
                          float(record["area_km2"]), table[record["cell_id"]])
    cells = _records(path, ("cell_id", "country", "area_km2", "series_path"), "runoff manifest",
                     cell)
    _check_unique(path, [c.cell_id for c in cells], "cell_id")
    return RunoffGrid(tuple(cells))


# ---------------------------------------------------------------------------
# Criticality matrix persistence
# ---------------------------------------------------------------------------

def save_criticality(path: str | Path, matrix: CriticalityMatrix) -> Path:
    path = Path(path)
    path.write_bytes(matrix.to_bytes())
    return path


def load_criticality(path: str | Path, site_ids: tuple[str, ...] = ()) -> CriticalityMatrix:
    path = Path(path)
    blob = _read(path, binary=True)
    try:
        return CriticalityMatrix.from_bytes(blob, site_ids)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Siting solution outputs
# ---------------------------------------------------------------------------

def write_solution_json(path: str | Path, solution: SitingSolution,
                        extra: Mapping | None = None) -> Path:
    return write_json(path, {
        "scheme": solution.scheme,
        "seed": solution.rng_seed,
        "objective": solution.objective,
        "per_partition_counts": dict(sorted(solution.per_partition_counts.items())),
        "site_ids": sorted(solution.selected),
        **(extra or {}),
    })


def write_solution_geojson(path: str | Path, solution: SitingSolution, catalog: SiteCatalog,
                           extra: Mapping | None = None) -> Path:
    features = [{
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [site.longitude, site.latitude]},
        "properties": {
            "id": site.id,
            "partition": site.partition_id,
            "selected": site.id in solution.selected,
            "legacy": site.is_legacy,
        },
    } for site in catalog.sites]
    doc = {"type": "FeatureCollection", "features": features}
    if extra:
        doc["properties"] = dict(extra)
    return write_json(path, doc)


# ---------------------------------------------------------------------------
# Typed JSON records (config.json)
# ---------------------------------------------------------------------------

def checker(test, what: str, convert=lambda value: value):
    """Field checker ``(value, where) -> value`` that raises ValueError
    naming the key path ``where`` when ``test(value)`` fails."""
    def check(value, where: str):
        if not test(value):
            raise ValueError(f"{where} must be {what}, got {value!r}")
        return convert(value)
    return check


def _is_number(value) -> bool:
    """Finite and representable as a float; a bool is not a number."""
    return type(value) is float and math.isfinite(value) \
        or type(value) is int and abs(value) < 2 ** 1023


def number(what: str = "a number", ok=lambda value: True):
    """A finite JSON number (a bool is not one), returned as a float."""
    return checker(lambda v: _is_number(v) and ok(v), what, float)


def integer(what: str = "an integer", ok=lambda value: True):
    return checker(lambda v: type(v) is int and ok(v), what)


def optional(check):
    return lambda value, where: None if value is None else check(value, where)


def list_of(parse):
    """A JSON list whose items ``parse`` checks, as a tuple."""
    def check(value, where):
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return tuple(parse(item, f"{where}[{i}]") for i, item in enumerate(value))
    return check


boolean = checker(lambda v: isinstance(v, bool), "true or false")
string = checker(lambda v: isinstance(v, str), "a string")
mapping = checker(lambda v: isinstance(v, Mapping), "an object")

# The checker of a field by its annotation; ``float | str`` is a capacity credit.
_SCALARS = {"str": string, "bool": boolean, "int": integer(), "float": number(),
            "float | str": checker(lambda v: v == "computed" or _is_number(v),
                                   "a number or 'computed'",
                                   lambda v: v if v == "computed" else float(v))}
_BY_ANNOTATION = {**_SCALARS, **{f"{kind} | None": optional(check)
                                 for kind, check in _SCALARS.items()}}


@functools.cache
def field_checks(cls) -> Mapping:
    """The JSON fields of dataclass ``cls``, each with the checker of its
    raw value: the field's ``check`` metadata, else the checker its
    annotation names.  A field of any other type (a series, a nested
    record) is not a JSON field.  The read-only map is built once."""
    checks = {f.name: f.metadata.get("check", _BY_ANNOTATION.get(f.type))
              for f in dataclasses.fields(cls)}
    return MappingProxyType({name: check for name, check in checks.items() if check})


def typed_fields(doc, types: Mapping, where: str) -> dict:
    """The checked values of the keys a JSON object gives; each key must
    appear in ``types``, which maps it to its checker.  ``where`` is the
    object's key path, empty at a document's top level."""
    mapping(doc, where or "the document")
    unknown = set(doc) - set(types)
    if unknown:
        raise ValueError(f"unknown {where or 'top-level'} fields: {sorted(unknown)}")
    return {key: types[key](value, f"{where}.{key}" if where else key)
            for key, value in doc.items()}


def record_from_dict(cls, doc, where: str):
    """A ``cls`` dataclass from a JSON object of its :func:`field_checks`
    fields.  Absent keys take the class defaults, and a rejected value
    names its key path."""
    kwargs = typed_fields(doc, field_checks(cls), where)
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in kwargs
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    at = f"{where}: " if where else ""
    if missing:
        raise ValueError(f"{at}missing fields {missing}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{at}{exc}") from exc


def technology_from_dict(doc, where: str = "technology") -> Technology:
    return record_from_dict(Technology, doc, where)


# ---------------------------------------------------------------------------
# CEP outputs
# ---------------------------------------------------------------------------

def write_cep_report_csv(path: str | Path, solution: CepSolution, instance: CepInstance,
                         comments: Sequence[str] = ()) -> Path:
    """Capacity/production table: one row per technology group plus the
    total system cost (capacities in MW or MWh, production in MWh)."""
    omega = instance.weight_hours
    offshore_p = omega * sum(float(v.sum()) for v in solution.site_generation.values())
    rows = [("W_off", sum(solution.site_capacity_total.values()), offshore_p)]
    for tech_id in sorted({pl.tech for pl in instance.placements}):
        keys = [k for k in solution.tech_capacity_total if k[1] == tech_id]
        storage = instance.technology(tech_id).kind == "storage"
        output = solution.discharge if storage else solution.generation
        rows.append((tech_id, sum(solution.tech_capacity_total[k] for k in keys),
                     omega * sum(float(output[k].sum()) for k in keys)))
    line_p = omega * sum(
        float(solution.flow_fw[l].sum() + solution.flow_bw[l].sum()) for l in solution.flow_fw
    )
    rows += [("transmission", sum(solution.line_capacity_total.values()), line_p),
             ("shed_energy", "", solution.shed_MWh), ("emissions_t", "", solution.emissions_t),
             ("total_cost", solution.objective, "")]
    return write_table(path, ("row", "capacity", "production"), rows, comments)


def write_cep_solution_json(path: str | Path, solution: CepSolution,
                            extra: Mapping | None = None) -> Path:
    """The sizing result; keys ``bus|tech`` name technology and storage totals."""
    def by_key(totals):
        return {k if isinstance(k, str) else "|".join(k): v for k, v in sorted(totals.items())}
    return write_json(path, {
        "objective": solution.objective,
        "emissions_t": solution.emissions_t,
        "shed_MWh": solution.shed_MWh,
        "site_capacity_total": by_key(solution.site_capacity_total),
        "tech_capacity_total": by_key(solution.tech_capacity_total),
        "storage_energy_total": by_key(solution.storage_energy_total),
        "line_capacity_total": by_key(solution.line_capacity_total),
        "cost_breakdown": solution.cost_breakdown,
        **(extra or {}),
    })
