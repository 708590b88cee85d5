"""Coefficient-at-a-time reference builders for the LP producers.

``DictLpBuilder`` is a per-coefficient dictionary store (sorted by
(row, col) at build time) whose block methods replay scalar calls, and
``build_lp`` and ``build_comp_mir`` walk every (row, period) and add one
variable or coefficient per call.  The block-assembled library versions
in ``windplan.cep``, ``windplan.siting`` and ``windplan.mps`` must produce
the same ``CanonicalLp`` (every field and dtype) and, for the CEP, the
same ``CepIndex``.  ``build_lp_rows`` is the CEP as first written, with
every limit a row; it is the same model as ``build_lp``.
``decode_solution`` is the decoder as first written, one loop per output
family over the index and the instance; :func:`windplan.cep.decode_solution`
must return a bit-equal ``CepSolution``.
"""

from __future__ import annotations

import math

import numpy as np

from windplan.cep import (
    DISPATCHABLE, RES, STORAGE, CepIndex, CepInstance, CepSolution, CostCheckError,
    SolverStatusError, _resolve_credit,
)
from windplan.lp import CanonicalLp, LpSolution
from windplan.siting import _partition_members


class DictLpBuilder:
    """Per-coefficient builder: one dict entry per (row, col)."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self._obj: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._integer: list[bool] = []
        self._var_names: list[str] = []
        self._senses: list[str] = []
        self._rhs: list[float] = []
        self._row_names: list[str] = []
        self._entries: dict[tuple[int, int], float] = {}

    def add_var(self, name: str, lower: float = 0.0, upper: float = math.inf,
                objective: float = 0.0, integer: bool = False) -> int:
        self._var_names.append(name)
        self._lower.append(lower)
        self._upper.append(upper)
        self._obj.append(objective)
        self._integer.append(integer)
        return len(self._var_names) - 1

    def add_row(self, name: str, sense: str, rhs: float) -> int:
        self._row_names.append(name)
        self._senses.append(sense)
        self._rhs.append(rhs)
        return len(self._row_names) - 1

    def add_entry(self, row: int, col: int, value: float) -> None:
        key = (row, col)
        if key in self._entries:
            raise ValueError(f"duplicate entry for row {row}, col {col}")
        self._entries[key] = float(value)

    # Block calls replayed as scalar calls, so a block-assembling producer can
    # run on this store too.

    def add_vars(self, names, lower=0.0, upper=math.inf, objective=0.0, integer=False):
        n = len(names)
        fields = (np.broadcast_to(v, (n,)).tolist() for v in (lower, upper, objective, integer))
        return np.array([self.add_var(*col) for col in zip(names, *fields)], dtype=np.intp)

    def add_rows(self, names, sense, rhs, *terms):
        n = len(names)
        senses = [sense] * n if isinstance(sense, str) else sense
        rows = np.array([self.add_row(*row) for row in
                         zip(names, senses, np.broadcast_to(rhs, (n,)).tolist())], dtype=np.intp)
        for cols, vals in terms:
            self.add_entries(rows, cols, vals)
        return rows

    def add_entries(self, rows, cols, vals) -> None:
        block = np.broadcast_arrays(rows, cols, vals)
        for row, col, val in zip(*(a.ravel().tolist() for a in block)):
            self.add_entry(row, col, val)

    def build(self) -> CanonicalLp:
        keys = sorted(self._entries)
        return CanonicalLp(
            objective=self._obj,
            entry_rows=[k[0] for k in keys],
            entry_cols=[k[1] for k in keys],
            entry_vals=[self._entries[k] for k in keys],
            senses=tuple(self._senses),
            rhs=self._rhs,
            lower=self._lower,
            upper=self._upper,
            integer=self._integer,
            var_names=tuple(self._var_names),
            row_names=tuple(self._row_names),
            name=self.name,
        )


def build_lp(instance: CepInstance) -> tuple[CanonicalLp, CepIndex]:
    """Row-by-row, coefficient-by-coefficient reference for
    :func:`windplan.cep.build_lp`: a limit on one dispatch variable of a
    fixed fleet, or at a zero capacity factor, is that variable's bound."""
    return _build_lp(instance, bounds=True)


def build_lp_rows(instance: CepInstance) -> tuple[CanonicalLp, CepIndex]:
    """The CEP as first written: every limit is a row, against a capacity
    column pinned at [0, 0] where the fleet is fixed."""
    return _build_lp(instance, bounds=False)


def _build_lp(instance: CepInstance, bounds: bool) -> tuple[CanonicalLp, CepIndex]:
    t_len = instance.n_periods
    omega = instance.weight_hours
    builder = DictLpBuilder(name="cep")
    ix = CepIndex()
    fixed = set()   # capacity columns pinned at [0, 0], when limits become bounds

    def addition_bound(legacy: float, potential: float | None, expandable: bool) -> float:
        if not expandable:
            return 0.0
        if potential is None:
            return math.inf
        return potential - legacy

    def capacity_var(name: str, upper: float, objective: float) -> int:
        col = builder.add_var(name, 0.0, upper, objective=objective)
        if bounds and upper == 0.0:
            fixed.add(col)
        return col

    def fleet_cf(pl) -> np.ndarray:
        return pl.availability.values if pl.availability is not None else np.ones(t_len)

    def cap_is_bound(cf_t: float, k_var: int) -> bool:
        return bounds and (cf_t == 0.0 or k_var in fixed)

    def must_run_is_bound(pl, tech) -> bool:
        """Fixed dispatchable fleet whose floor never exceeds its cap."""
        cf = fleet_cf(pl)
        return (bounds and tech.kind == DISPATCHABLE and ix.tech_K[(pl.bus, pl.tech)] in fixed
                and all(tech.must_run * pl.legacy_MW <= cf[t] * pl.legacy_MW
                        for t in range(t_len)))

    sited_tech = (
        instance.technology(instance.sited_technology) if instance.sited_technology else None
    )

    # -- capacity variables -------------------------------------------------
    for asset in instance.sited:
        annuity = sited_tech.power_annuity(instance.discount_rate)
        cost = (annuity or 0.0) + sited_tech.fixed_om
        ix.site_K[asset.id] = capacity_var(
            f"K|site|{asset.id}",
            addition_bound(asset.legacy_MW, asset.potential_MW, annuity is not None), cost)
        ix.site_credit[asset.id] = _resolve_credit(
            sited_tech, asset.cf, instance.bus(asset.bus), t_len
        )
    for pl in instance.placements:
        tech = instance.technology(pl.tech)
        annuity = tech.power_annuity(instance.discount_rate)
        ix.tech_K[(pl.bus, pl.tech)] = capacity_var(
            f"K|{pl.bus}|{pl.tech}",
            addition_bound(pl.legacy_MW, pl.potential_MW, annuity is not None),
            (annuity or 0.0) + tech.fixed_om)
        if tech.kind == STORAGE:
            energy_annuity = tech.storage_energy_annuity(instance.discount_rate)
            ix.storage_S[(pl.bus, pl.tech)] = capacity_var(
                f"S|{pl.bus}|{pl.tech}",
                addition_bound(pl.legacy_energy_MWh, pl.potential_energy_MWh,
                               energy_annuity is not None),
                energy_annuity or 0.0)
        if tech.kind == RES:
            ix.res_credit[(pl.bus, pl.tech)] = _resolve_credit(
                tech, pl.availability, instance.bus(pl.bus), t_len
            )
    for line in instance.lines:
        annuity = line.power_annuity(instance.discount_rate)
        ix.line_K[line.id] = capacity_var(
            f"K|line|{line.id}",
            addition_bound(line.legacy_MW, line.potential_MW, annuity is not None),
            (annuity or 0.0) + line.fixed_om)

    # -- dispatch variables --------------------------------------------------
    for asset in instance.sited:
        cf, k_var = asset.cf.values, ix.site_K[asset.id]
        ix.site_p[asset.id] = np.array([
            builder.add_var(f"p|site|{asset.id}|{t}", 0.0,
                            cf[t] * asset.legacy_MW if cap_is_bound(cf[t], k_var) else math.inf,
                            objective=omega * sited_tech.marginal_cost)
            for t in range(t_len)
        ])
    for pl in instance.placements:
        tech = instance.technology(pl.tech)
        key = (pl.bus, pl.tech)
        k_fixed = ix.tech_K[key] in fixed
        if tech.kind in (RES, DISPATCHABLE):
            cf, k_var = fleet_cf(pl), ix.tech_K[key]
            floor = tech.must_run * pl.legacy_MW if must_run_is_bound(pl, tech) else 0.0
            ix.gen_p[key] = np.array([
                builder.add_var(f"p|{pl.bus}|{pl.tech}|{t}", floor,
                                cf[t] * pl.legacy_MW if cap_is_bound(cf[t], k_var) else math.inf,
                                objective=omega * tech.marginal_cost)
                for t in range(t_len)
            ])
        else:
            s_fixed = ix.storage_S[key] in fixed
            charge_bound = k_fixed or (bounds and tech.charge_ratio == 0.0)
            ix.charge[key] = np.array([
                builder.add_var(f"pc|{pl.bus}|{pl.tech}|{t}", 0.0,
                                tech.charge_ratio * pl.legacy_MW if charge_bound else math.inf,
                                objective=omega * tech.marginal_cost)
                for t in range(t_len)
            ])
            ix.discharge[key] = np.array([
                builder.add_var(f"pd|{pl.bus}|{pl.tech}|{t}", 0.0,
                                pl.legacy_MW if k_fixed else math.inf,
                                objective=omega * tech.marginal_cost)
                for t in range(t_len)
            ])
            ix.soc[key] = np.array([
                builder.add_var(f"e|{pl.bus}|{pl.tech}|{t}",
                                tech.min_soc * pl.legacy_energy_MWh if s_fixed else 0.0,
                                pl.legacy_energy_MWh if s_fixed else math.inf)
                for t in range(t_len)
            ])
            if pl.inflow is not None:
                ix.spill[key] = np.array([
                    builder.add_var(f"spill|{pl.bus}|{pl.tech}|{t}", 0.0, math.inf)
                    for t in range(t_len)
                ])
    for line in instance.lines:
        ix.flow_fw[line.id] = np.array([
            builder.add_var(f"f+|{line.id}|{t}", 0.0, math.inf,
                            objective=omega * line.variable_om)
            for t in range(t_len)
        ])
        ix.flow_bw[line.id] = np.array([
            builder.add_var(f"f-|{line.id}|{t}", 0.0, math.inf,
                            objective=omega * line.variable_om)
            for t in range(t_len)
        ])
    for bus in instance.buses:
        ix.ens[bus.id] = np.array([
            builder.add_var(f"ens|{bus.id}|{t}", 0.0, math.inf,
                            objective=omega * instance.shed_penalty)
            for t in range(t_len)
        ])

    # -- energy balance -------------------------------------------------------
    for bus in instance.buses:
        for t in range(t_len):
            row = builder.add_row(f"bal|{bus.id}|{t}", "=", float(bus.demand.values[t]))
            for asset in instance.sited:
                if asset.bus == bus.id:
                    builder.add_entry(row, ix.site_p[asset.id][t], 1.0)
            for key, p_vars in ix.gen_p.items():
                if key[0] == bus.id:
                    builder.add_entry(row, p_vars[t], 1.0)
            for key in ix.discharge:
                if key[0] == bus.id:
                    builder.add_entry(row, ix.discharge[key][t], 1.0)
                    builder.add_entry(row, ix.charge[key][t], -1.0)
            for line in instance.lines:
                eff = line.delivery_efficiency(instance.apply_line_losses)
                if line.from_bus == bus.id:
                    builder.add_entry(row, ix.flow_fw[line.id][t], -1.0)
                    builder.add_entry(row, ix.flow_bw[line.id][t], eff)
                elif line.to_bus == bus.id:
                    builder.add_entry(row, ix.flow_fw[line.id][t], eff)
                    builder.add_entry(row, ix.flow_bw[line.id][t], -1.0)
            builder.add_entry(row, ix.ens[bus.id][t], 1.0)

    # -- sited RES operation ---------------------------------------------------
    for asset in instance.sited:
        cf = asset.cf.values
        for t in range(t_len):
            if cap_is_bound(cf[t], ix.site_K[asset.id]):
                continue
            row = builder.add_row(f"avail|site|{asset.id}|{t}", "<", cf[t] * asset.legacy_MW)
            builder.add_entry(row, ix.site_p[asset.id][t], 1.0)
            if cf[t] != 0.0:
                builder.add_entry(row, ix.site_K[asset.id], -cf[t])

    # -- bus technology operation ----------------------------------------------
    for pl in instance.placements:
        tech = instance.technology(pl.tech)
        key = (pl.bus, pl.tech)
        if tech.kind in (RES, DISPATCHABLE):
            pi = fleet_cf(pl)
            k_var = ix.tech_K[key]
            p_vars = ix.gen_p[key]
            for t in range(t_len):
                if cap_is_bound(pi[t], k_var):
                    continue
                row = builder.add_row(f"avail|{pl.bus}|{pl.tech}|{t}", "<", pi[t] * pl.legacy_MW)
                builder.add_entry(row, p_vars[t], 1.0)
                if pi[t] != 0.0:
                    builder.add_entry(row, k_var, -pi[t])
            if tech.kind == DISPATCHABLE:
                if tech.ramp_up < 1.0:
                    for t in range(1, t_len):
                        row = builder.add_row(f"rampu|{pl.bus}|{pl.tech}|{t}", "<",
                                              tech.ramp_up * pl.legacy_MW)
                        builder.add_entry(row, p_vars[t], 1.0)
                        builder.add_entry(row, p_vars[t - 1], -1.0)
                        builder.add_entry(row, k_var, -tech.ramp_up)
                if tech.ramp_down < 1.0:
                    for t in range(1, t_len):
                        row = builder.add_row(f"rampd|{pl.bus}|{pl.tech}|{t}", "<",
                                              tech.ramp_down * pl.legacy_MW)
                        builder.add_entry(row, p_vars[t], -1.0)
                        builder.add_entry(row, p_vars[t - 1], 1.0)
                        builder.add_entry(row, k_var, -tech.ramp_down)
                if tech.must_run > 0.0 and not must_run_is_bound(pl, tech):
                    for t in range(t_len):
                        row = builder.add_row(f"mustrun|{pl.bus}|{pl.tech}|{t}", "<",
                                              -tech.must_run * pl.legacy_MW)
                        builder.add_entry(row, k_var, tech.must_run)
                        builder.add_entry(row, p_vars[t], -1.0)
        else:
            k_var = ix.tech_K[key]
            s_var = ix.storage_S[key]
            for t in range(t_len):
                if k_var in fixed:
                    break
                row = builder.add_row(f"dis|{pl.bus}|{pl.tech}|{t}", "<", pl.legacy_MW)
                builder.add_entry(row, ix.discharge[key][t], 1.0)
                builder.add_entry(row, k_var, -1.0)
                if bounds and tech.charge_ratio == 0.0:
                    continue
                row = builder.add_row(f"chg|{pl.bus}|{pl.tech}|{t}", "<",
                                      tech.charge_ratio * pl.legacy_MW)
                builder.add_entry(row, ix.charge[key][t], 1.0)
                if tech.charge_ratio != 0.0:
                    builder.add_entry(row, k_var, -tech.charge_ratio)
            inflow = pl.inflow.values if pl.inflow is not None else None
            for t in range(t_len):
                prev = (t - 1) % t_len
                if t == 0 and not instance.storage_cyclic:
                    continue  # initial state free inside its bounds
                rhs = float(inflow[t]) if inflow is not None else 0.0
                row = builder.add_row(f"soc|{pl.bus}|{pl.tech}|{t}", "=", rhs)
                builder.add_entry(row, ix.soc[key][t], 1.0)
                builder.add_entry(row, ix.soc[key][prev], -tech.eta_self)
                builder.add_entry(row, ix.charge[key][t], -omega * tech.eta_charge)
                builder.add_entry(row, ix.discharge[key][t], omega / tech.eta_discharge)
                if inflow is not None:
                    builder.add_entry(row, ix.spill[key][t], 1.0)
            for t in range(t_len):
                if s_var in fixed:
                    break
                row = builder.add_row(f"socmax|{pl.bus}|{pl.tech}|{t}", "<", pl.legacy_energy_MWh)
                builder.add_entry(row, ix.soc[key][t], 1.0)
                builder.add_entry(row, s_var, -1.0)
                if tech.min_soc > 0.0:
                    row = builder.add_row(f"socmin|{pl.bus}|{pl.tech}|{t}", "<",
                                          -tech.min_soc * pl.legacy_energy_MWh)
                    builder.add_entry(row, s_var, tech.min_soc)
                    builder.add_entry(row, ix.soc[key][t], -1.0)

    # -- transmission capacity ---------------------------------------------------
    for line in instance.lines:
        for t in range(t_len):
            row = builder.add_row(f"cap|{line.id}|{t}", "<", line.legacy_MW)
            builder.add_entry(row, ix.flow_fw[line.id][t], 1.0)
            builder.add_entry(row, ix.flow_bw[line.id][t], 1.0)
            builder.add_entry(row, ix.line_K[line.id], -1.0)

    # -- CO2 budget ---------------------------------------------------------------
    if instance.co2_budget is not None:
        row = builder.add_row("co2", "<", instance.co2_budget)
        for pl in instance.placements:
            tech = instance.technology(pl.tech)
            if tech.kind in (RES, DISPATCHABLE) and tech.co2_per_mwh_elec > 0.0:
                rate = omega * tech.co2_per_mwh_elec
                for t in range(t_len):
                    builder.add_entry(row, ix.gen_p[(pl.bus, pl.tech)][t], rate)

    # -- adequacy -------------------------------------------------------------------
    for bus in instance.buses:
        if bus.reserve_margin is None:
            continue
        firm_legacy = 0.0
        terms: list[tuple[int, float]] = []
        for pl in instance.placements:
            if pl.bus != bus.id:
                continue
            tech = instance.technology(pl.tech)
            if tech.kind == RES:
                credit = ix.res_credit[(pl.bus, pl.tech)]
                if credit > 0.0:
                    firm_legacy += credit * pl.legacy_MW
                    terms.append((ix.tech_K[(pl.bus, pl.tech)], credit))
            elif tech.id in instance.firm_technologies:
                firm_legacy += pl.legacy_MW
                terms.append((ix.tech_K[(pl.bus, pl.tech)], 1.0))
        for asset in instance.sited:
            if asset.bus != bus.id:
                continue
            credit = ix.site_credit[asset.id]
            if credit > 0.0:
                firm_legacy += credit * asset.legacy_MW
                terms.append((ix.site_K[asset.id], credit))
        required = (1.0 + bus.reserve_margin) * bus.peak_demand - firm_legacy
        if required <= 0.0:
            continue  # legacy firm capacity already meets the requirement
        row = builder.add_row(f"adequacy|{bus.id}", ">", required)
        for var, coeff in terms:
            builder.add_entry(row, var, coeff)

    return builder.build(), ix


def decode_solution(solution: LpSolution, index: CepIndex, instance: CepInstance) -> CepSolution:
    """Map an optimal LP solution back onto the data model.

    Recomputes the annualised system cost from the decoded quantities and
    checks it against the solver objective (1e-6 relative), raising
    :class:`CostCheckError` on a mismatch; any other status is rejected
    with the solver status preserved.
    """
    if solution.status != "optimal":
        raise SolverStatusError(solution.status)
    x = solution.x
    omega = instance.weight_hours
    sited_tech = (
        instance.technology(instance.sited_technology) if instance.sited_technology else None
    )

    site_new = {sid: float(x[var]) for sid, var in index.site_K.items()}
    site_total = {a.id: a.legacy_MW + site_new[a.id] for a in instance.sited}
    tech_new = {key: float(x[var]) for key, var in index.tech_K.items()}
    tech_total = {}
    storage_new = {key: float(x[var]) for key, var in index.storage_S.items()}
    storage_total = {}
    for pl in instance.placements:
        key = (pl.bus, pl.tech)
        tech_total[key] = pl.legacy_MW + tech_new[key]
        if key in storage_new:
            storage_total[key] = pl.legacy_energy_MWh + storage_new[key]
    line_new = {lid: float(x[var]) for lid, var in index.line_K.items()}
    line_total = {ln.id: ln.legacy_MW + line_new[ln.id] for ln in instance.lines}

    site_gen = {sid: x[vars_] for sid, vars_ in index.site_p.items()}
    generation = {key: x[vars_] for key, vars_ in index.gen_p.items()}
    charge = {key: x[vars_] for key, vars_ in index.charge.items()}
    discharge = {key: x[vars_] for key, vars_ in index.discharge.items()}
    soc = {key: x[vars_] for key, vars_ in index.soc.items()}
    spill = {key: x[vars_] for key, vars_ in index.spill.items()}
    flow_fw = {lid: x[vars_] for lid, vars_ in index.flow_fw.items()}
    flow_bw = {lid: x[vars_] for lid, vars_ in index.flow_bw.items()}
    ens = {bid: x[vars_] for bid, vars_ in index.ens.items()}

    curtailment = {}
    for asset in instance.sited:
        ceiling = asset.cf.values * site_total[asset.id]
        curtailment[asset.id] = ceiling - site_gen[asset.id]

    invest = 0.0
    for asset in instance.sited:
        annuity = sited_tech.power_annuity(instance.discount_rate) or 0.0
        invest += (annuity + sited_tech.fixed_om) * site_new[asset.id]
    for pl in instance.placements:
        tech = instance.technology(pl.tech)
        key = (pl.bus, pl.tech)
        annuity = tech.power_annuity(instance.discount_rate) or 0.0
        invest += (annuity + tech.fixed_om) * tech_new[key]
        if tech.kind == STORAGE:
            invest += (tech.storage_energy_annuity(instance.discount_rate) or 0.0) * storage_new[key]
    for line in instance.lines:
        annuity = line.power_annuity(instance.discount_rate) or 0.0
        invest += (annuity + line.fixed_om) * line_new[line.id]

    op_generation = 0.0
    emissions = 0.0
    for asset in instance.sited:
        op_generation += omega * sited_tech.marginal_cost * float(site_gen[asset.id].sum())
    for key, series in generation.items():
        tech = instance.technology(key[1])
        op_generation += omega * tech.marginal_cost * float(series.sum())
        emissions += omega * tech.co2_per_mwh_elec * float(series.sum())
    op_storage = 0.0
    for key in charge:
        tech = instance.technology(key[1])
        op_storage += omega * tech.marginal_cost * float(charge[key].sum() + discharge[key].sum())
    op_lines = 0.0
    for line in instance.lines:
        op_lines += omega * line.variable_om * float(flow_fw[line.id].sum() + flow_bw[line.id].sum())
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


def build_comp_mir(matrix, catalog, plan) -> CanonicalLp:
    """Window-by-window reference for :func:`windplan.siting.build_comp_mir`."""
    members = _partition_members(catalog, plan)
    builder = DictLpBuilder(name="comp_mir")
    x_vars = {}
    for sid in matrix.site_ids:
        legacy = catalog.site(sid).is_legacy
        x_vars[sid] = builder.add_var(
            f"x|{sid}", lower=1.0 if legacy else 0.0, upper=1.0, objective=0.0, integer=True
        )
    y_vars = []
    for w in range(matrix.n_windows):
        y_vars.append(builder.add_var(f"y|{w}", lower=0.0, upper=1.0, objective=-1.0))
    dense = matrix.dense
    for w in range(matrix.n_windows):
        row = builder.add_row(f"cov|{w}", sense=">", rhs=0.0)
        for sid in matrix.site_ids:
            if dense[matrix.index_of[sid], w]:
                builder.add_entry(row, x_vars[sid], 1.0)
        builder.add_entry(row, y_vars[w], -float(matrix.threshold_c))
    for quota in plan.quotas:
        row = builder.add_row(f"card|{quota.partition_id}", sense="=", rhs=float(quota.final_k))
        for sid in members[quota.partition_id]:
            builder.add_entry(row, x_vars[sid], 1.0)
    return builder.build()
