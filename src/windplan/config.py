"""The run configuration: one ``config.json``, parsed and checked once.

:func:`load_config` turns the document into frozen dataclasses.  Each field
carries its default, and the checker of its raw value unless its annotation
names one (:func:`windplan.fileio.field_checks`); an unknown key, a wrong
type or a value out of range raises ``ValueError`` naming its key path.
``cep`` records arrive as built ``Technology``, ``Placement`` and ``Line``
objects, with the period weight and the CO2 budget resolved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import stat
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Mapping

from windplan.cep import DEFAULT_CONNECTION_SHARE, Line, Placement, Technology, with_connection_cost
from windplan.fileio import (
    checker, field_checks, integer, list_of, mapping, number, optional, record_from_dict, string,
    technology_from_dict, typed_fields,
)
from windplan.resource import DEFAULT_LEGACY_THRESHOLD_MW, DEFAULT_SMOOTHING_FACTOR
from windplan.siting import (
    DEFAULT_POWER_DENSITY_MW_KM2, DEFAULT_SITE_AREA_KM2, DEFAULT_UTILIZATION, AnnealParams,
)


def _key(check, **default):
    """A config field: its raw value's checker and its ``default(_factory)``."""
    return dataclasses.field(metadata={"check": check}, **default)


_POSITIVE = number("a positive number", lambda v: v > 0)
_NON_NEGATIVE = number("a non-negative number", lambda v: v >= 0)
_POSITIVE_INT = integer("a positive integer", lambda v: v >= 1)
_NON_NEGATIVE_INT = integer("a non-negative integer", lambda v: v >= 0)


def _one_of(*choices):
    return checker(lambda v: v in choices, " or ".join(map(repr, choices)))


def _targets(value, where) -> dict:
    return {key: number()(item, f"{where}.{key}") for key, item in mapping(value, where).items()}

# The sited offshore technology before cep.sited_technology overrides its
# fields and the grid-connection share is added to its capex.
_OFFSHORE = {
    "id": "offshore_wind", "kind": "res", "capex": 1881.08, "lifetime_years": 25.0,
    "fixed_om": 49.11, "variable_om": 0.0, "capacity_credit": "computed",
}

DEFAULT_TECHNOLOGIES = (
    Technology(id="gas_turbine", kind="dispatchable", capex=838.87, lifetime_years=30.0,
               fixed_om=3.03, variable_om=0.0076, fuel_cost=0.0265, efficiency=0.41,
               co2_per_mwh_th=0.225),
    Technology(id="battery", kind="storage", capex=100.0, energy_capex=94.0,
               lifetime_years=10.0, fixed_om=0.54, variable_om=0.0017,
               eta_charge=0.93, eta_discharge=0.93, eta_self=0.995),
)

# Firm technologies of the adequacy rows; reservoir hydro joins with hydro fleets.
DEFAULT_FIRM = frozenset({"gas_turbine"})


@dataclass(frozen=True)
class SitingConfig:
    scheme: str = _key(_one_of("prod", "comp"), default="comp")
    partitioned: bool = True
    targets_MW: Mapping[str, float] = _key(_targets, default_factory=dict)
    power_density_MW_km2: float = _key(_POSITIVE, default=DEFAULT_POWER_DENSITY_MW_KM2)
    site_area_km2: float = _key(_POSITIVE, default=DEFAULT_SITE_AREA_KM2)
    utilization: float = _key(_POSITIVE, default=DEFAULT_UTILIZATION)
    varsigma: float = _key(number("a number in (0, 1]", lambda v: 0 < v <= 1), default=0.3)
    delta: int = _key(_POSITIVE_INT, default=1)
    coverage_threshold: int | None = None  # None: ceil(k/2)
    anneal: AnnealParams = _key(partial(record_from_dict, AnnealParams), default=AnnealParams())
    n_runs: int = _key(_POSITIVE_INT, default=30)
    base_seed: int = _key(_NON_NEGATIVE_INT, default=0)
    smoothing_factor: float = _key(_NON_NEGATIVE, default=DEFAULT_SMOOTHING_FACTOR)
    legacy_threshold_MW: float = _key(_NON_NEGATIVE, default=DEFAULT_LEGACY_THRESHOLD_MW)


@dataclass(frozen=True)
class CepConfig:
    solver: str = _key(_one_of("embedded", "mps-export"), default="embedded")
    reserve_margin: float = _key(_NON_NEGATIVE, default=0.2)
    shed_penalty: float = _key(_NON_NEGATIVE, default=500.0)
    iteration_limit: int = _key(_NON_NEGATIVE_INT, default=200000)
    technologies: tuple[Technology, ...] = _key(list_of(technology_from_dict),
                                                default=DEFAULT_TECHNOLOGIES)
    placements: tuple[Placement, ...] | None = _key(list_of(partial(record_from_dict, Placement)),
                                                    default=None)
    lines: tuple[Line, ...] | None = _key(list_of(partial(record_from_dict, Line)), default=None)
    # load_config adds the grid-connection share to the capex
    sited_technology: Technology = _key(
        lambda v, where: technology_from_dict({**_OFFSHORE, **mapping(v, where)}, where),
        default=technology_from_dict(_OFFSHORE))
    weight_hours: float | None = _key(_POSITIVE, default=None)  # None: period length
    co2_budget: float | None = _key(optional(_NON_NEGATIVE), default=None)
    firm_technologies: frozenset[str] | None = _key(
        lambda v, where: frozenset(list_of(string)(v, where)), default=None)
    discount_rate: float = _key(_NON_NEGATIVE, default=0.07)
    storage_cyclic: bool = True
    apply_line_losses: bool = False

    def placements_for(self, bus_ids) -> tuple[Placement, ...]:
        """The configured placements, or every technology at every bus."""
        if self.placements is not None:
            return self.placements
        return tuple(Placement(bus=bus, tech=tech.id)
                     for tech in self.technologies for bus in bus_ids)

    def lines_for(self, bus_ids) -> tuple[Line, ...]:
        """The configured lines, or DC links chaining consecutive buses."""
        if self.lines is not None:
            return self.lines
        return tuple(Line(id=f"{a}-{b}", from_bus=a, to_bus=b, legacy_MW=500.0, capex=1.76,
                          lifetime_years=40.0, fixed_om=0.021, kind="DC")
                     for a, b in zip(bus_ids, bus_ids[1:]))


@dataclass(frozen=True)
class PipelineConfig:
    config_hash: str
    paths: Mapping[str, Path]                # inputs, resolved against the config's directory
    output_dir: Path | None
    resolution_hours: float
    resample_factor: int
    siting: SitingConfig
    cep: CepConfig

    def resolve(self, key: str, required: bool = True) -> Path | None:
        """An input path, checked to exist and to be a directory for
        ``curves_dir`` and a file otherwise; ``None`` for an absent optional one."""
        resolved = self.paths.get(key)
        if resolved is None and required:
            raise ValueError(f"config paths.{key} is required")
        if resolved is not None:
            try:
                is_dir = stat.S_ISDIR(os.stat(resolved).st_mode)
            except OSError as exc:   # missing, or a component not searchable
                raise ValueError(f"config paths.{key}: {resolved}: {exc.strerror}") from None
            if is_dir != (key == "curves_dir"):
                kind = "a directory" if is_dir else "not a directory"
                raise ValueError(f"config paths.{key}: {resolved} is {kind}")
        return resolved


_PATH_TYPES = dict.fromkeys(("catalog", "wind_speeds", "demand", "runoff", "hydro_params",
                             "curves_dir", "output_dir"), optional(string))

# the CepConfig fields and the inputs _cep_config resolves
_CEP_TYPES = {**field_checks(CepConfig), "offshore_connection_share": _NON_NEGATIVE,
              "co2_budget_fraction": optional(_NON_NEGATIVE),
              "co2_baseline_emissions": optional(_NON_NEGATIVE)}

_TOP_TYPES = {
    "paths": lambda v, where: typed_fields(v, _PATH_TYPES, where),
    "resolution_hours": _POSITIVE,
    "resample_factor": _POSITIVE_INT,
    "siting": partial(record_from_dict, SitingConfig),
    "cep": lambda v, where: typed_fields(v, _CEP_TYPES, where),
}


def _cep_config(values: dict, period_hours: float) -> CepConfig:
    """``cep`` with the connection share, period weight and CO2 budget resolved."""
    share = values.pop("offshore_connection_share", DEFAULT_CONNECTION_SHARE)
    fraction = values.pop("co2_budget_fraction", None)
    baseline = values.pop("co2_baseline_emissions", None)
    if values.get("co2_budget") is None and fraction is not None:
        if baseline is None:
            raise ValueError("cep.co2_budget_fraction given without co2_baseline_emissions")
        values["co2_budget"] = fraction * baseline
    values.setdefault("weight_hours", period_hours)   # the JSON value is never null
    sited = values.get("sited_technology", CepConfig.sited_technology)
    if sited.capex is not None:
        values["sited_technology"] = replace(sited, capex=with_connection_cost(sited.capex, share))
    return CepConfig(**values)


def _resolve_in(base: str, value: str) -> Path:
    """``Path(base, value).resolve()`` for an already resolved ``base``: only
    the components of a relative ``value`` can be links, so only they are
    looked up (``Path.resolve`` looks up every component from the root)."""
    parts = value.split(os.sep)
    if os.path.isabs(value) or ".." in parts:
        return Path(base, value).resolve()
    path = base
    for part in parts:
        path = os.path.join(path, part)
        try:
            if stat.S_ISLNK(os.lstat(path).st_mode):
                return Path(base, value).resolve()
        except OSError:   # missing: nothing below it is a link either
            break
    return Path(base, value)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:   # missing, unreadable or not JSON
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    values = typed_fields(raw, _TOP_TYPES, "")
    if "paths" not in values:
        raise ValueError("config must contain a 'paths' section")
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    resolution = values.get("resolution_hours", 1.0)
    factor = values.get("resample_factor", 1)
    base = os.path.realpath(path.parent)
    paths = {key: _resolve_in(base, value)
             for key, value in values["paths"].items() if value is not None}
    return PipelineConfig(
        config_hash=hashlib.sha256(canonical.encode()).hexdigest(),
        output_dir=paths.pop("output_dir", None),   # the rest are inputs
        paths=paths,
        resolution_hours=resolution,
        resample_factor=factor,
        siting=values.get("siting", SitingConfig()),
        cep=_cep_config(values.get("cep", {}), resolution * factor),
    )
