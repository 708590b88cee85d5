"""Capacity expansion planning model.

Builds a joint sizing-and-operation linear program over a bus network:
new capacity at sited renewable locations, bus-level technologies
(dispatchable, non-sited renewable, storage) and transmission corridors is
chosen together with the full dispatch so that demand is met at minimum
annualised cost, subject to a system-wide CO2 budget and a per-bus
planning-reserve adequacy requirement.

The LP holds the capacity columns, then every bus's balance rows, then, in
one pass per component kind, each component's dispatch columns, balance
entries and own rows together; the CO2 and adequacy rows come last.

Conventions
-----------
* Capacity variables are *additions*; operational limits apply to
  ``legacy + addition``.  Technologies without investment cost data are
  frozen at their legacy capacity (the addition is fixed to zero).
* A fixed fleet's limits are bounds: a per-period limit on one dispatch
  variable of such a fleet, or at a zero capacity factor, is not a row.
* Period weights ``weight_hours`` convert power flows into energy for
  operating costs, emissions and the storage recursion alike.
* Line flow is split into two non-negative directed parts; the variable
  O&M applies to their sum, so at any optimum with non-negative O&M one
  side is zero.
* The storage state of charge is cyclic by default (the first period links
  back to the last); ``storage_cyclic=False`` leaves the initial state
  free inside its bounds instead.
* Storage placements may carry an exogenous energy inflow (reservoir
  hydro).  The inflow enters the state recursion directly and a free
  non-negative spill variable keeps the model feasible when inflows exceed
  what the reservoir can absorb.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from windplan.lp import CanonicalLp, LpBuilder, LpSolution, Names
from windplan.timeseries import TimeSeries

RES = "res"
DISPATCHABLE = "dispatchable"
STORAGE = "storage"
_KINDS = (RES, DISPATCHABLE, STORAGE)


class SolverStatusError(RuntimeError):
    """Raised when a non-optimal LP status reaches the decoder."""

    def __init__(self, status: str):
        super().__init__(f"solver returned status {status!r}")
        self.status = status


class CostCheckError(AssertionError):
    """Raised when the decoded system cost disagrees with the solver objective."""


def annualize(overnight_cost: float, lifetime_years: float, discount_rate: float) -> float:
    """Annualised investment cost of one unit of capacity.

    Standard annuity: ``cost * rate / (1 - (1 + rate)**-lifetime)``; a zero
    rate degenerates to straight-line ``cost / lifetime``.
    """
    if lifetime_years <= 0:
        raise ValueError("lifetime must be positive")
    if discount_rate < 0:
        raise ValueError("discount rate must be non-negative")
    if discount_rate == 0:
        return overnight_cost / lifetime_years
    return overnight_cost * discount_rate / (1.0 - (1.0 + discount_rate) ** (-lifetime_years))


def _annuity(annuity: float | None, capex: float | None, lifetime_years: float | None,
             discount_rate: float, what: str) -> float | None:
    """A given annuity wins; else no capex means no investment option
    (``None``); else the capex is annualised over the lifetime, which must
    then be given (``what`` names the capex in the error)."""
    if annuity is not None:
        return annuity
    if capex is None:
        return None
    if lifetime_years is None:
        raise ValueError(f"{what} given without lifetime")
    return annualize(capex, lifetime_years, discount_rate)


DEFAULT_CONNECTION_SHARE = 0.2


def with_connection_cost(capex: float, share: float = DEFAULT_CONNECTION_SHARE) -> float:
    """Offshore grid-connection adder: a fixed share of the capital cost,
    applied before annualisation."""
    return capex * (1.0 + share)


def capacity_credit(cf: TimeSeries, demand: TimeSeries, top_fraction: float = 0.05) -> float:
    """Mean capacity factor over the highest-demand periods.

    The top set holds ``ceil(top_fraction * T)`` periods; demand ties break
    toward the earlier period.
    """
    if len(cf) != len(demand):
        raise ValueError("capacity-factor and demand series lengths differ")
    if not 0 < top_fraction <= 1:
        raise ValueError("top fraction must lie in (0, 1]")
    t = len(demand)
    m = math.ceil(top_fraction * t)
    order = np.lexsort((np.arange(t), -demand.values))
    return float(cf.values[order[:m]].mean())


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Technology:
    """Techno-economic description shared by all placements of one technology.

    ``capex`` of ``None`` marks a technology whose installed capacity stays
    fixed; its capacity addition variable is pinned to zero.  ``annuity``
    may be given directly to bypass :func:`annualize`.  Costs are per MW
    (or per MWh for the storage energy component); ``fuel_cost`` is per
    thermal MWh and is divided by the efficiency inside
    :attr:`marginal_cost`.
    """

    id: str
    kind: str
    capex: float | None = None
    lifetime_years: float | None = None
    annuity: float | None = None
    fixed_om: float = 0.0
    variable_om: float = 0.0
    fuel_cost: float = 0.0
    efficiency: float = 1.0
    co2_per_mwh_th: float = 0.0
    ramp_up: float = 1.0
    ramp_down: float = 1.0
    must_run: float = 0.0
    capacity_credit: float | str = 0.0
    # storage-only parameters
    charge_ratio: float = 1.0
    eta_charge: float = 1.0
    eta_discharge: float = 1.0
    eta_self: float = 1.0
    min_soc: float = 0.0
    energy_capex: float | None = None
    energy_annuity: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"technology {self.id}: unknown kind {self.kind!r}")
        for label, eta in (("efficiency", self.efficiency), ("eta_charge", self.eta_charge),
                           ("eta_discharge", self.eta_discharge), ("eta_self", self.eta_self)):
            if not 0 < eta <= 1:
                raise ValueError(f"technology {self.id}: {label} must lie in (0, 1]")
        for label, frac in (("ramp_up", self.ramp_up), ("ramp_down", self.ramp_down),
                            ("must_run", self.must_run), ("min_soc", self.min_soc)):
            if not 0 <= frac <= 1:
                raise ValueError(f"technology {self.id}: {label} must lie in [0, 1]")
        if self.charge_ratio < 0:
            raise ValueError(f"technology {self.id}: charge ratio must be non-negative")

    @property
    def marginal_cost(self) -> float:
        return self.variable_om + self.fuel_cost / self.efficiency

    @property
    def co2_per_mwh_elec(self) -> float:
        return self.co2_per_mwh_th / self.efficiency

    def power_annuity(self, discount_rate: float) -> float | None:
        return _annuity(self.annuity, self.capex, self.lifetime_years, discount_rate,
                        f"technology {self.id}: capex")

    def storage_energy_annuity(self, discount_rate: float) -> float | None:
        return _annuity(self.energy_annuity, self.energy_capex, self.lifetime_years,
                        discount_rate, f"technology {self.id}: energy capex")


@dataclass(frozen=True)
class Bus:
    """Electrical node.  ``reserve_margin`` of ``None`` disables the
    adequacy requirement at this bus; a number (possibly 0) requires local
    firm capacity above peak demand by that fraction."""

    id: str
    demand: TimeSeries
    reserve_margin: float | None = None

    def __post_init__(self) -> None:
        if self.reserve_margin is not None and self.reserve_margin < 0:
            raise ValueError(f"bus {self.id}: reserve margin must be non-negative")

    @property
    def peak_demand(self) -> float:
        return float(self.demand.values.max())


@dataclass(frozen=True)
class Placement:
    """One technology instance attached to one bus."""

    bus: str
    tech: str
    legacy_MW: float = 0.0
    potential_MW: float | None = None
    availability: TimeSeries | None = None
    inflow: TimeSeries | None = None
    legacy_energy_MWh: float = 0.0
    potential_energy_MWh: float | None = None

    def __post_init__(self) -> None:
        if self.legacy_MW < 0 or self.legacy_energy_MWh < 0:
            raise ValueError(f"{self.bus}/{self.tech}: legacy capacities must be non-negative")
        if self.potential_MW is not None and self.potential_MW < self.legacy_MW:
            raise ValueError(f"{self.bus}/{self.tech}: potential below legacy capacity")
        if self.potential_energy_MWh is not None and self.potential_energy_MWh < self.legacy_energy_MWh:
            raise ValueError(f"{self.bus}/{self.tech}: energy potential below legacy energy")


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    legacy_MW: float = 0.0
    potential_MW: float | None = None
    capex: float | None = None
    lifetime_years: float | None = None
    annuity: float | None = None
    fixed_om: float = 0.0
    variable_om: float = 0.0
    kind: str = "AC"
    length_km: float | None = None
    efficiency_per_1000km: float = 1.0

    def __post_init__(self) -> None:
        if self.from_bus == self.to_bus:
            raise ValueError(f"line {self.id}: endpoints coincide")
        if self.legacy_MW < 0 or (self.length_km or 0.0) < 0:
            raise ValueError(f"line {self.id}: legacy capacity and length must be non-negative")
        if self.potential_MW is not None and self.potential_MW < self.legacy_MW:
            raise ValueError(f"line {self.id}: potential below legacy capacity")
        if not 0 < self.efficiency_per_1000km <= 1:
            raise ValueError(f"line {self.id}: efficiency_per_1000km must lie in (0, 1]")

    def power_annuity(self, discount_rate: float) -> float | None:
        return _annuity(self.annuity, self.capex, self.lifetime_years, discount_rate,
                        f"line {self.id}: capex")

    def delivery_efficiency(self, apply_losses: bool) -> float:
        """Fraction of sent power arriving at the receiving end.

        Losses are linear in length at the per-1000-km rate; the lossless
        transport model is the default.
        """
        if not apply_losses or self.length_km is None:
            return 1.0
        loss = (1.0 - self.efficiency_per_1000km) * self.length_km / 1000.0
        return max(0.0, 1.0 - loss)


@dataclass(frozen=True)
class SitedAsset:
    """Renewable site fixed by the siting stage, to be sized here."""

    id: str
    bus: str
    legacy_MW: float
    potential_MW: float
    cf: TimeSeries

    def __post_init__(self) -> None:
        if not 0 <= self.legacy_MW <= self.potential_MW:
            raise ValueError(f"site {self.id}: need 0 <= legacy <= potential")


@dataclass(frozen=True)
class CepInstance:
    buses: tuple[Bus, ...]
    technologies: tuple[Technology, ...]
    placements: tuple[Placement, ...]
    lines: tuple[Line, ...] = ()
    sited: tuple[SitedAsset, ...] = ()
    sited_technology: str | None = None
    co2_budget: float | None = None
    shed_penalty: float = 1000.0
    weight_hours: float = 1.0
    firm_technologies: frozenset[str] = frozenset()
    discount_rate: float = 0.07
    storage_cyclic: bool = True
    apply_line_losses: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "technologies", tuple(self.technologies))
        object.__setattr__(self, "placements", tuple(self.placements))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "sited", tuple(self.sited))
        object.__setattr__(self, "firm_technologies", frozenset(self.firm_technologies))
        if not self.buses:
            raise ValueError("instance needs at least one bus")
        if self.co2_budget is not None and self.co2_budget < 0:
            raise ValueError("CO2 budget must be non-negative")
        if self.weight_hours <= 0:
            raise ValueError("period weight must be positive")
        for what, ids in (("bus id", [b.id for b in self.buses]),
                          ("technology id", [t.id for t in self.technologies]),
                          ("placement", [(pl.bus, pl.tech) for pl in self.placements]),
                          ("line id", [line.id for line in self.lines]),
                          ("site id", [asset.id for asset in self.sited])):
            repeats = [item for item, count in Counter(ids).items() if count > 1]
            if repeats:
                raise ValueError(f"duplicate {what} {repeats[0]!r}")
        bus_ids = {b.id for b in self.buses}
        tech_ids = {t.id for t in self.technologies}
        t = self.n_periods
        for bus in self.buses:
            if len(bus.demand) != t:
                raise ValueError(f"bus {bus.id}: demand length differs")
        for pl in self.placements:
            if pl.bus not in bus_ids:
                raise ValueError(f"placement references unknown bus {pl.bus!r}")
            if pl.tech not in tech_ids:
                raise ValueError(f"placement references unknown technology {pl.tech!r}")
            for series in (pl.availability, pl.inflow):
                if series is not None and len(series) != t:
                    raise ValueError(f"{pl.bus}/{pl.tech}: series length differs")
        for asset in self.sited:
            if asset.bus not in bus_ids:
                raise ValueError(f"site {asset.id} references unknown bus {asset.bus!r}")
            if len(asset.cf) != t:
                raise ValueError(f"site {asset.id}: series length differs")
        if self.sited and self.sited_technology is None:
            raise ValueError("sited assets present but no sited technology named")
        if self.sited_technology is not None:
            tech = self.technology(self.sited_technology)
            if tech.kind != RES:
                raise ValueError("the sited technology must be of kind 'res'")
        for line in self.lines:
            if line.from_bus not in bus_ids or line.to_bus not in bus_ids:
                raise ValueError(f"line {line.id} references an unknown bus")

    @property
    def n_periods(self) -> int:
        return len(self.buses[0].demand)

    def technology(self, tech_id: str) -> Technology:
        for tech in self.technologies:
            if tech.id == tech_id:
                return tech
        raise KeyError(tech_id)

    def bus(self, bus_id: str) -> Bus:
        for bus in self.buses:
            if bus.id == bus_id:
                return bus
        raise KeyError(bus_id)


@dataclass
class CepIndex:
    """Variable layout of a built instance (indices into the LP columns)."""

    site_K: dict = field(default_factory=dict)
    tech_K: dict = field(default_factory=dict)
    storage_S: dict = field(default_factory=dict)
    line_K: dict = field(default_factory=dict)
    site_p: dict = field(default_factory=dict)
    gen_p: dict = field(default_factory=dict)
    charge: dict = field(default_factory=dict)
    discharge: dict = field(default_factory=dict)
    soc: dict = field(default_factory=dict)
    spill: dict = field(default_factory=dict)
    flow_fw: dict = field(default_factory=dict)
    flow_bw: dict = field(default_factory=dict)
    ens: dict = field(default_factory=dict)
    site_credit: dict = field(default_factory=dict)
    res_credit: dict = field(default_factory=dict)


def _resolve_credit(tech: Technology, series: TimeSeries | None, bus: Bus, t: int) -> float:
    if tech.capacity_credit == "computed":
        cf = series if series is not None else TimeSeries(np.ones(t), bus.demand.resolution_hours)
        return capacity_credit(cf, bus.demand)
    return float(tech.capacity_credit)


def _add_by_period(builder: LpBuilder, t_len: int, sense: str, *families) -> None:
    """Add ``(prefix, rhs, terms)`` row families interleaved period by
    period: the rows of every family for period t, then for t + 1."""
    names = Names([prefix for prefix, _, _ in families], np.tile(np.arange(len(families)), t_len),
                  np.repeat(np.arange(t_len), len(families)))
    rhs = np.column_stack([np.broadcast_to(value, t_len) for _, value, _ in families])
    rows = builder.add_rows(names, sense, rhs.ravel()).reshape(t_len, len(families))
    for family_rows, (_, _, terms) in zip(rows.T, families):
        for cols, vals in terms:
            builder.add_entries(family_rows, cols, vals)


def build_lp(instance: CepInstance) -> tuple[CanonicalLp, CepIndex]:
    """Compile an instance into the canonical LP.

    The capacity columns come first, then every bus's energy-balance rows.
    One pass each over sited assets, placements, lines and buses adds a
    component's dispatch columns, their balance entries and its own rows;
    the CO2 and adequacy rows, whose terms those passes collect, come last.
    Emissions enter the budget row directly, with no accounting variables.
    Rows that are vacuous by construction (unit ramp rates, zero must-run
    levels, zero minimum states of charge, non-positive adequacy
    requirements) are not emitted, nor are a fixed fleet's limits, which
    are bounds computed as the rows' right-hand sides.  Each per-period
    row family is one block.
    """
    t_len = instance.n_periods
    periods = range(t_len)
    omega = instance.weight_hours
    builder = LpBuilder(name="cep")
    ix = CepIndex()

    fixed: set[int] = set()   # capacity columns pinned at [0, 0]

    def capacity_var(name: str, legacy: float, potential: float | None,
                     annuity: float | None, objective: float) -> int:
        """An addition column; without an annuity it is pinned at zero."""
        bound = 0.0 if annuity is None else math.inf if potential is None else potential - legacy
        col = builder.add_var(name, 0.0, bound, objective=objective)
        if bound == 0.0:
            fixed.add(col)
        return col

    def series_vars(prefix: str, objective: float = 0.0, lower=0.0, upper=math.inf) -> np.ndarray:
        return builder.add_vars(Names.family(prefix, periods), lower, upper, objective)

    def output_cap(cf: np.ndarray, legacy: float, k_var: int) -> np.ndarray:
        """Upper bound on p: the fixed fleet's output, and zero where cf is."""
        return np.where((cf == 0.0) | (k_var in fixed), cf * legacy, math.inf)

    def availability_rows(prefix: str, cf: np.ndarray, legacy: float,
                          p_vars: np.ndarray, k_var: int) -> None:
        t = np.flatnonzero(np.isinf(output_cap(cf, legacy, k_var)))   # limits not made bounds
        builder.add_rows(Names.family(prefix, t), "<", cf[t] * legacy,
                         (p_vars[t], 1.0), (k_var, -cf[t]))

    sited_tech = instance.technology(instance.sited_technology) if instance.sited else None

    # -- capacity variables ---------------------------------------------------
    for asset in instance.sited:
        annuity = sited_tech.power_annuity(instance.discount_rate)
        ix.site_K[asset.id] = capacity_var(f"K|site|{asset.id}", asset.legacy_MW,
                                           asset.potential_MW, annuity,
                                           (annuity or 0.0) + sited_tech.fixed_om)
    for pl in instance.placements:
        tech = instance.technology(pl.tech)
        annuity = tech.power_annuity(instance.discount_rate)
        ix.tech_K[(pl.bus, pl.tech)] = capacity_var(
            f"K|{pl.bus}|{pl.tech}", pl.legacy_MW, pl.potential_MW, annuity,
            (annuity or 0.0) + tech.fixed_om)
        if tech.kind == STORAGE:
            energy_annuity = tech.storage_energy_annuity(instance.discount_rate)
            ix.storage_S[(pl.bus, pl.tech)] = capacity_var(
                f"S|{pl.bus}|{pl.tech}", pl.legacy_energy_MWh, pl.potential_energy_MWh,
                energy_annuity, energy_annuity or 0.0)
    for line in instance.lines:
        annuity = line.power_annuity(instance.discount_rate)
        ix.line_K[line.id] = capacity_var(f"K|line|{line.id}", line.legacy_MW,
                                          line.potential_MW, annuity,
                                          (annuity or 0.0) + line.fixed_om)

    # -- energy balance rows, filled by the component passes ------------------
    balance = {bus.id: builder.add_rows(Names.family(f"bal|{bus.id}", periods), "=",
                                        bus.demand.values)
               for bus in instance.buses}

    def to_balance(bus_id: str, *terms) -> None:
        for cols, val in terms:
            builder.add_entries(balance[bus_id], cols, val)

    co2_terms = []
    # (capacity column, credit, firm legacy MW) per bus; the adequacy row sums
    # the placements' legacy before the sited assets', so its value is unchanged
    firm_placed = {bus.id: [] for bus in instance.buses}
    firm_sited = {bus.id: [] for bus in instance.buses}

    # -- sited RES ------------------------------------------------------------
    for asset in instance.sited:
        k_var, cf = ix.site_K[asset.id], asset.cf.values
        p_vars = ix.site_p[asset.id] = series_vars(
            f"p|site|{asset.id}", omega * sited_tech.marginal_cost,
            upper=output_cap(cf, asset.legacy_MW, k_var))
        to_balance(asset.bus, (p_vars, 1.0))
        availability_rows(f"avail|site|{asset.id}", cf, asset.legacy_MW, p_vars, k_var)
        credit = ix.site_credit[asset.id] = _resolve_credit(
            sited_tech, asset.cf, instance.bus(asset.bus), t_len)
        if credit > 0.0:
            firm_sited[asset.bus].append((k_var, credit, credit * asset.legacy_MW))

    # -- bus technologies -----------------------------------------------------
    for pl in instance.placements:
        tech = instance.technology(pl.tech)
        key = (pl.bus, pl.tech)
        tag = f"{pl.bus}|{pl.tech}"
        k_var = ix.tech_K[key]
        cost, fixed_k = omega * tech.marginal_cost, k_var in fixed
        if tech.kind == STORAGE:
            s_var = ix.storage_S[key]
            charge = ix.charge[key] = series_vars(
                f"pc|{tag}", cost, upper=tech.charge_ratio * pl.legacy_MW
                if fixed_k or tech.charge_ratio == 0.0 else math.inf)
            discharge = ix.discharge[key] = series_vars(
                f"pd|{tag}", cost, upper=pl.legacy_MW if fixed_k else math.inf)
            energy = pl.legacy_energy_MWh
            soc = ix.soc[key] = (series_vars(f"e|{tag}", lower=tech.min_soc * energy, upper=energy)
                                 if s_var in fixed else series_vars(f"e|{tag}"))
            if pl.inflow is not None:
                ix.spill[key] = series_vars(f"spill|{tag}")
            to_balance(pl.bus, (discharge, 1.0), (charge, -1.0))
            families = [(f"dis|{tag}", pl.legacy_MW, [(discharge, 1.0), (k_var, -1.0)])]
            if tech.charge_ratio != 0.0:
                families.append((f"chg|{tag}", tech.charge_ratio * pl.legacy_MW,
                                 [(charge, 1.0), (k_var, -tech.charge_ratio)]))
            if not fixed_k:
                _add_by_period(builder, t_len, "<", *families)
            # the cyclic recursion links period 0 to the last period; without
            # it the initial state is free inside its bounds
            first = 0 if instance.storage_cyclic else 1
            now = np.arange(first, t_len)
            terms = [(soc[now], 1.0), (soc[now - 1], -tech.eta_self),
                     (charge[now], -omega * tech.eta_charge),
                     (discharge[now], omega / tech.eta_discharge)]
            if pl.inflow is not None:
                terms.append((ix.spill[key][now], 1.0))
            builder.add_rows(Names.family(f"soc|{tag}", range(first, t_len)), "=",
                             pl.inflow.values[now] if pl.inflow is not None else 0.0, *terms)
            families = [(f"socmax|{tag}", energy, [(soc, 1.0), (s_var, -1.0)])]
            if tech.min_soc > 0.0:
                families.append((f"socmin|{tag}", -tech.min_soc * energy,
                                 [(s_var, tech.min_soc), (soc, -1.0)]))
            if s_var not in fixed:
                _add_by_period(builder, t_len, "<", *families)
        else:
            cf = pl.availability.values if pl.availability is not None else np.ones(t_len)
            upper = output_cap(cf, pl.legacy_MW, k_var)
            floor = tech.must_run * pl.legacy_MW
            # a floor above the cap stays in rows, where the LP reads infeasible
            floored = tech.kind == DISPATCHABLE and fixed_k and np.all(floor <= upper)
            p_vars = ix.gen_p[key] = series_vars(f"p|{tag}", cost, floor if floored else 0.0,
                                                 upper)
            to_balance(pl.bus, (p_vars, 1.0))
            availability_rows(f"avail|{tag}", cf, pl.legacy_MW, p_vars, k_var)
            if tech.co2_per_mwh_elec > 0.0:
                co2_terms.append((p_vars, omega * tech.co2_per_mwh_elec))
            if tech.kind == DISPATCHABLE:
                for prefix, ramp, sign in (("rampu", tech.ramp_up, 1.0),
                                           ("rampd", tech.ramp_down, -1.0)):
                    if ramp < 1.0:
                        builder.add_rows(Names.family(f"{prefix}|{tag}", range(1, t_len)), "<",
                                         ramp * pl.legacy_MW, (p_vars[1:], sign),
                                         (p_vars[:-1], -sign), (k_var, -ramp))
                if tech.must_run > 0.0 and not floored:
                    builder.add_rows(Names.family(f"mustrun|{tag}", periods), "<",
                                     -tech.must_run * pl.legacy_MW,
                                     (k_var, tech.must_run), (p_vars, -1.0))
        if tech.kind == RES:
            credit = ix.res_credit[key] = _resolve_credit(
                tech, pl.availability, instance.bus(pl.bus), t_len)
            if credit > 0.0:
                firm_placed[pl.bus].append((k_var, credit, credit * pl.legacy_MW))
        elif tech.id in instance.firm_technologies:
            firm_placed[pl.bus].append((k_var, 1.0, pl.legacy_MW))

    # -- transmission ---------------------------------------------------------
    for line in instance.lines:
        eff = line.delivery_efficiency(instance.apply_line_losses)
        fw = ix.flow_fw[line.id] = series_vars(f"f+|{line.id}", omega * line.variable_om)
        bw = ix.flow_bw[line.id] = series_vars(f"f-|{line.id}", omega * line.variable_om)
        to_balance(line.from_bus, (fw, -1.0), (bw, eff))
        to_balance(line.to_bus, (fw, eff), (bw, -1.0))
        builder.add_rows(Names.family(f"cap|{line.id}", periods), "<", line.legacy_MW,
                         (fw, 1.0), (bw, 1.0), (ix.line_K[line.id], -1.0))

    # -- load shedding --------------------------------------------------------
    for bus in instance.buses:
        ix.ens[bus.id] = series_vars(f"ens|{bus.id}", omega * instance.shed_penalty)
        to_balance(bus.id, (ix.ens[bus.id], 1.0))

    # -- CO2 budget and adequacy ----------------------------------------------
    if instance.co2_budget is not None:
        builder.add_rows(["co2"], "<", instance.co2_budget, *co2_terms)
    for bus in instance.buses:
        if bus.reserve_margin is None:
            continue
        firm = firm_placed[bus.id] + firm_sited[bus.id]
        required = (1.0 + bus.reserve_margin) * bus.peak_demand - sum(mw for _, _, mw in firm)
        if required > 0.0:   # else legacy firm capacity already meets the requirement
            builder.add_rows([f"adequacy|{bus.id}"], ">", required,
                             *((col, credit) for col, credit, _ in firm))

    return builder.build(), ix


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CepSolution:
    """Decoded system design and operation with its cost breakdown."""

    objective: float
    site_capacity_new: dict
    site_capacity_total: dict
    tech_capacity_new: dict
    tech_capacity_total: dict
    storage_energy_new: dict
    storage_energy_total: dict
    line_capacity_new: dict
    line_capacity_total: dict
    site_generation: dict
    generation: dict
    charge: dict
    discharge: dict
    soc: dict
    spill: dict
    flow_fw: dict
    flow_bw: dict
    ens: dict
    curtailment: dict
    cost_breakdown: dict
    emissions_t: float
    served_MWh: float
    shed_MWh: float


def decode_solution(solution: LpSolution, index: CepIndex, instance: CepInstance) -> CepSolution:
    """Map an optimal LP solution back onto the data model.

    Recomputes the annualised system cost from the decoded quantities and
    checks it against the solver objective (1e-6 relative), raising
    :class:`CostCheckError` on a mismatch; any other status is rejected
    with the solver status preserved.  Each component kind is read in one
    pass that also adds its cost terms.
    """
    if solution.status != "optimal":
        raise SolverStatusError(solution.status)
    x = solution.x
    omega = instance.weight_hours
    rate = instance.discount_rate
    invest = op_generation = emissions = op_storage = op_lines = 0.0

    sited_tech = instance.technology(instance.sited_technology) if instance.sited else None
    site_new, site_total, site_gen, curtailment = {}, {}, {}, {}
    for asset in instance.sited:
        new = site_new[asset.id] = float(x[index.site_K[asset.id]])
        site_total[asset.id] = asset.legacy_MW + new
        series = site_gen[asset.id] = x[index.site_p[asset.id]]
        curtailment[asset.id] = asset.cf.values * site_total[asset.id] - series
        invest += ((sited_tech.power_annuity(rate) or 0.0) + sited_tech.fixed_om) * new
        op_generation += omega * sited_tech.marginal_cost * float(series.sum())

    tech_new, tech_total, storage_new, storage_total = {}, {}, {}, {}
    generation, charge, discharge, soc, spill = {}, {}, {}, {}, {}
    for pl in instance.placements:
        tech = instance.technology(pl.tech)
        key = (pl.bus, pl.tech)
        new = tech_new[key] = float(x[index.tech_K[key]])
        tech_total[key] = pl.legacy_MW + new
        invest += ((tech.power_annuity(rate) or 0.0) + tech.fixed_om) * new
        if tech.kind == STORAGE:
            energy = storage_new[key] = float(x[index.storage_S[key]])
            storage_total[key] = pl.legacy_energy_MWh + energy
            invest += (tech.storage_energy_annuity(rate) or 0.0) * energy
            pc, pd = charge[key], discharge[key] = x[index.charge[key]], x[index.discharge[key]]
            soc[key] = x[index.soc[key]]
            if key in index.spill:
                spill[key] = x[index.spill[key]]
            op_storage += omega * tech.marginal_cost * float(pc.sum() + pd.sum())
        else:
            series = generation[key] = x[index.gen_p[key]]
            op_generation += omega * tech.marginal_cost * float(series.sum())
            emissions += omega * tech.co2_per_mwh_elec * float(series.sum())

    line_new, line_total, flow_fw, flow_bw = {}, {}, {}, {}
    for line in instance.lines:
        new = line_new[line.id] = float(x[index.line_K[line.id]])
        line_total[line.id] = line.legacy_MW + new
        fw = flow_fw[line.id] = x[index.flow_fw[line.id]]
        bw = flow_bw[line.id] = x[index.flow_bw[line.id]]
        invest += ((line.power_annuity(rate) or 0.0) + line.fixed_om) * new
        op_lines += omega * line.variable_om * float(fw.sum() + bw.sum())

    ens = {bus.id: x[index.ens[bus.id]] for bus in instance.buses}
    shed_energy = omega * float(sum(series.sum() for series in ens.values()))
    op_shed = instance.shed_penalty * shed_energy

    recomputed = invest + op_generation + op_storage + op_lines + op_shed
    scale = max(1.0, abs(solution.objective))
    if abs(recomputed - solution.objective) > 1e-6 * scale:
        raise CostCheckError(
            f"decoded cost {recomputed} disagrees with solver objective {solution.objective}"
        )

    total_demand = omega * float(sum(b.demand.values.sum() for b in instance.buses))
    return CepSolution(
        objective=float(solution.objective),
        site_capacity_new=site_new,
        site_capacity_total=site_total,
        tech_capacity_new=tech_new,
        tech_capacity_total=tech_total,
        storage_energy_new=storage_new,
        storage_energy_total=storage_total,
        line_capacity_new=line_new,
        line_capacity_total=line_total,
        site_generation=site_gen,
        generation=generation,
        charge=charge,
        discharge=discharge,
        soc=soc,
        spill=spill,
        flow_fw=flow_fw,
        flow_bw=flow_bw,
        ens=ens,
        curtailment=curtailment,
        cost_breakdown={
            "invest_and_fixed": invest,
            "variable_generation": op_generation,
            "variable_storage": op_storage,
            "variable_transmission": op_lines,
            "shedding": op_shed,
        },
        emissions_t=emissions,
        served_MWh=total_demand - shed_energy,
        shed_MWh=shed_energy,
    )
