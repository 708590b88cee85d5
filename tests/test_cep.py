import math

import numpy as np
import pytest

from windplan.cep import (
    Bus, CepInstance, Line, Placement, SitedAsset, SolverStatusError, Technology,
    annualize, build_lp, capacity_credit, decode_solution, with_connection_cost,
)
from windplan.lp import LpSolution, solve
from windplan.timeseries import TimeSeries


# ---------------------------------------------------------------------------
# Annuities and capacity credit
# ---------------------------------------------------------------------------

def test_annualize_zero_rate_straight_line():
    assert annualize(1000.0, 25.0, 0.0) == pytest.approx(40.0)


def test_annualize_standard_annuity():
    expected = 1881.08 * 0.07 / (1.0 - 1.07 ** -25)
    got = annualize(1881.08, 25.0, 0.07)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(161.41, rel=5e-3)


def test_annualize_perpetuity_limit():
    assert annualize(500.0, 1e7, 0.07) == pytest.approx(0.07 * 500.0, rel=1e-9)


def test_annualize_validation():
    with pytest.raises(ValueError):
        annualize(100.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        annualize(100.0, 10.0, -0.01)


def test_connection_cost_share():
    assert with_connection_cost(1000.0) == pytest.approx(1200.0)
    assert with_connection_cost(1000.0, 0.5) == pytest.approx(1500.0)


def test_capacity_credit_single_peak():
    demand = TimeSeries(np.arange(1.0, 21.0))
    cf = TimeSeries(np.linspace(0.0, 1.0, 20))
    assert capacity_credit(cf, demand, 0.05) == pytest.approx(cf.values[-1])


def test_capacity_credit_constant_cf():
    rng = np.random.default_rng(0)
    demand = TimeSeries(rng.uniform(10, 100, 40))
    cf = TimeSeries(np.full(40, 0.4))
    assert capacity_credit(cf, demand) == pytest.approx(0.4)


def test_capacity_credit_sorted_average():
    cf = TimeSeries([0.1, 0.9, 0.5, 0.3])
    demand = TimeSeries([1.0, 4.0, 3.0, 2.0])
    assert capacity_credit(cf, demand, 0.5) == pytest.approx(0.7)


def test_capacity_credit_ties_to_earlier_period():
    cf = TimeSeries([0.8, 0.2, 0.0])
    demand = TimeSeries([5.0, 5.0, 1.0])
    assert capacity_credit(cf, demand, 1 / 3) == pytest.approx(0.8)


def test_capacity_credit_validation():
    with pytest.raises(ValueError):
        capacity_credit(TimeSeries([0.5]), TimeSeries([1.0, 2.0]))
    with pytest.raises(ValueError):
        capacity_credit(TimeSeries([0.5]), TimeSeries([1.0]), 0.0)


# ---------------------------------------------------------------------------
# Toy instance fixtures
# ---------------------------------------------------------------------------

GAS = Technology(id="gas", kind="dispatchable", capex=100.0, lifetime_years=25.0,
                 fixed_om=5.0, variable_om=2.0)
ZETA = annualize(100.0, 25.0, 0.0)


def single_bus_instance(**overrides):
    base = dict(
        buses=(Bus(id="b1", demand=TimeSeries([1.0, 1.0]), reserve_margin=0.2),),
        technologies=(GAS,),
        placements=(Placement(bus="b1", tech="gas"),),
        shed_penalty=1000.0,
        weight_hours=1.0,
        firm_technologies=frozenset({"gas"}),
        discount_rate=0.0,
    )
    base.update(overrides)
    return CepInstance(**base)


def solve_instance(instance):
    lp, index = build_lp(instance)
    sol = solve(lp)
    assert sol.status == "optimal"
    return decode_solution(sol, index, instance), lp, sol


def test_single_bus_hand_solution():
    decoded, _, _ = solve_instance(single_bus_instance())
    assert decoded.tech_capacity_total[("b1", "gas")] == pytest.approx(1.2, rel=1e-6)
    assert decoded.objective == pytest.approx((ZETA + 5.0) * 1.2 + 2.0 * 2.0, rel=1e-6)
    assert decoded.served_MWh == pytest.approx(2.0)
    assert decoded.shed_MWh == pytest.approx(0.0)


def test_energy_balance_residuals():
    instance = single_bus_instance()
    decoded, _, _ = solve_instance(instance)
    gen = decoded.generation[("b1", "gas")]
    residual = gen + decoded.ens["b1"] - instance.buses[0].demand.values
    assert np.all(np.abs(residual) <= 1e-6)


def test_doubling_weights_doubles_operating_cost():
    base, _, _ = solve_instance(single_bus_instance())
    doubled, _, _ = solve_instance(single_bus_instance(weight_hours=2.0))
    assert doubled.tech_capacity_total[("b1", "gas")] == pytest.approx(
        base.tech_capacity_total[("b1", "gas")], rel=1e-9
    )
    assert doubled.cost_breakdown["invest_and_fixed"] == pytest.approx(
        base.cost_breakdown["invest_and_fixed"], rel=1e-9
    )
    assert doubled.cost_breakdown["variable_generation"] == pytest.approx(
        2.0 * base.cost_breakdown["variable_generation"], rel=1e-9
    )


def test_relaxing_potential_never_raises_cost():
    tight = single_bus_instance(
        placements=(Placement(bus="b1", tech="gas", potential_MW=1.2),)
    )
    loose = single_bus_instance(
        placements=(Placement(bus="b1", tech="gas", potential_MW=5.0),)
    )
    cost_tight, _, _ = solve_instance(tight)
    cost_loose, _, _ = solve_instance(loose)
    assert cost_loose.objective <= cost_tight.objective + 1e-9


def test_shedding_is_complete_recourse():
    rng = np.random.default_rng(1)
    for _ in range(5):
        demand = TimeSeries(rng.uniform(0.5, 3.0, 6))
        instance = single_bus_instance(
            buses=(Bus(id="b1", demand=demand, reserve_margin=0.3),),
            placements=(Placement(bus="b1", tech="gas"),),
            co2_budget=float(rng.uniform(0.0, 2.0)),
        )
        lp, index = build_lp(instance)
        sol = solve(lp)
        assert sol.status == "optimal"


def test_decode_rejects_non_optimal():
    instance = single_bus_instance()
    lp, index = build_lp(instance)
    fake = LpSolution("iteration_limit", np.zeros(lp.n_vars), np.zeros(lp.n_rows),
                      np.zeros(lp.n_vars), math.nan)
    with pytest.raises(SolverStatusError) as err:
        decode_solution(fake, index, instance)
    assert err.value.status == "iteration_limit"


# ---------------------------------------------------------------------------
# Transport, RES, storage
# ---------------------------------------------------------------------------

def test_two_bus_transport_flows():
    demand_a = TimeSeries([1.0, 2.0, 1.5])
    demand_b = TimeSeries([0.5, 1.0, 0.8])
    inst = CepInstance(
        buses=(Bus(id="A", demand=demand_a), Bus(id="B", demand=demand_b)),
        technologies=(GAS,),
        placements=(Placement(bus="A", tech="gas"),),  # generation only at A
        lines=(Line(id="AB", from_bus="A", to_bus="B", legacy_MW=100.0),),
        shed_penalty=1000.0,
        weight_hours=1.0,
        firm_technologies=frozenset({"gas"}),
        discount_rate=0.0,
    )
    decoded, _, _ = solve_instance(inst)
    flows = decoded.flow_fw["AB"] - decoded.flow_bw["AB"]
    assert np.allclose(flows, demand_b.values, atol=1e-7)
    assert decoded.shed_MWh == pytest.approx(0.0, abs=1e-9)


def test_sited_res_limited_by_availability():
    cf = TimeSeries([0.5, 0.0, 1.0, 0.25])
    wind = Technology(id="wind", kind="res", capex=50.0, lifetime_years=25.0,
                      capacity_credit="computed")
    inst = CepInstance(
        buses=(Bus(id="A", demand=TimeSeries([1.0, 1.0, 1.0, 1.0])),),
        technologies=(wind, GAS),
        placements=(Placement(bus="A", tech="gas"),),
        sited=(SitedAsset(id="site1", bus="A", legacy_MW=0.5, potential_MW=3.0, cf=cf),),
        sited_technology="wind",
        shed_penalty=1000.0,
        weight_hours=1.0,
        firm_technologies=frozenset({"gas"}),
        discount_rate=0.0,
    )
    decoded, _, _ = solve_instance(inst)
    total = decoded.site_capacity_total["site1"]
    assert total <= 3.0 + 1e-9
    gen = decoded.site_generation["site1"]
    assert np.all(gen <= cf.values * total + 1e-9)
    curt = decoded.curtailment["site1"]
    assert np.all(curt >= -1e-9)
    assert np.allclose(curt, cf.values * total - gen, atol=1e-9)


def test_must_run_and_ramps_respected():
    steep = TimeSeries([0.2, 3.0, 0.2, 3.0])
    gas = Technology(id="gas", kind="dispatchable", capex=10.0, lifetime_years=10.0,
                     variable_om=1.0, ramp_up=0.4, ramp_down=0.4, must_run=0.1)
    inst = CepInstance(
        buses=(Bus(id="A", demand=steep),),
        technologies=(gas,),
        placements=(Placement(bus="A", tech="gas"),),
        shed_penalty=50.0,
        weight_hours=1.0,
        firm_technologies=frozenset({"gas"}),
        discount_rate=0.0,
    )
    decoded, _, _ = solve_instance(inst)
    k = decoded.tech_capacity_total[("A", "gas")]
    p = decoded.generation[("A", "gas")]
    assert np.all(p >= 0.1 * k - 1e-9)
    steps = np.diff(p)
    assert np.all(steps <= 0.4 * k + 1e-9)
    assert np.all(steps >= -0.4 * k - 1e-9)


def battery_instance(cyclic=True):
    bat = Technology(id="bat", kind="storage", capex=30.0, energy_capex=10.0,
                     lifetime_years=10.0, variable_om=0.01, eta_charge=0.9,
                     eta_discharge=0.9, eta_self=0.99, min_soc=0.1)
    demand = TimeSeries([1.0, 3.0, 1.0, 2.5, 0.5, 2.0])
    return CepInstance(
        buses=(Bus(id="A", demand=demand),),
        technologies=(GAS, bat),
        placements=(Placement(bus="A", tech="gas"), Placement(bus="A", tech="bat")),
        shed_penalty=1000.0,
        weight_hours=1.0,
        firm_technologies=frozenset({"gas"}),
        discount_rate=0.0,
        storage_cyclic=cyclic,
    )


def test_storage_cyclic_recursion_closes():
    inst = battery_instance()
    decoded, _, _ = solve_instance(inst)
    key = ("A", "bat")
    e, pc, pd = decoded.soc[key], decoded.charge[key], decoded.discharge[key]
    s = decoded.storage_energy_total[key]
    t_len = len(e)
    for t in range(t_len):
        prev = (t - 1) % t_len
        reproduced = 0.99 * e[prev] + 0.9 * pc[t] - pd[t] / 0.9
        assert abs(e[t] - reproduced) <= 1e-6
    assert np.all(e >= 0.1 * s - 1e-7)
    assert np.all(e <= s + 1e-7)
    assert decoded.storage_energy_new[key] > 0  # the battery is actually used


def test_storage_non_cyclic_frees_initial_state():
    decoded, _, _ = solve_instance(battery_instance(cyclic=False))
    key = ("A", "bat")
    e, pc, pd = decoded.soc[key], decoded.charge[key], decoded.discharge[key]
    for t in range(1, len(e)):
        reproduced = 0.99 * e[t - 1] + 0.9 * pc[t] - pd[t] / 0.9
        assert abs(e[t] - reproduced) <= 1e-6


def test_inflow_storage_with_spill():
    # reservoir with big inflows and no pumping: spill keeps it feasible
    reservoir = Technology(id="sto", kind="storage", charge_ratio=0.0,
                           eta_discharge=0.9, variable_om=0.1)
    inflow = TimeSeries([5.0, 5.0, 5.0, 5.0])
    inst = CepInstance(
        buses=(Bus(id="A", demand=TimeSeries([1.0, 1.0, 1.0, 1.0])),),
        technologies=(GAS, reservoir),
        placements=(
            Placement(bus="A", tech="gas"),
            Placement(bus="A", tech="sto", legacy_MW=2.0, potential_MW=2.0,
                      legacy_energy_MWh=4.0, potential_energy_MWh=4.0, inflow=inflow),
        ),
        shed_penalty=1000.0,
        weight_hours=1.0,
        firm_technologies=frozenset({"gas"}),
        discount_rate=0.0,
    )
    decoded, _, _ = solve_instance(inst)
    key = ("A", "sto")
    assert np.all(decoded.charge[key] <= 1e-9)  # no pumping allowed
    assert np.any(decoded.spill[key] > 1.0)  # excess water leaves the reservoir
    assert np.all(decoded.soc[key] <= 4.0 + 1e-7)
    assert decoded.generation == {} or True  # reservoir discharges via storage vars
    assert np.any(decoded.discharge[key] > 0.1)


def test_line_losses_opt_in():
    demand_b = TimeSeries([1.0, 1.0])
    line = Line(id="AB", from_bus="A", to_bus="B", legacy_MW=100.0,
                length_km=1000.0, efficiency_per_1000km=0.9)
    def make(apply_losses):
        return CepInstance(
            buses=(Bus(id="A", demand=TimeSeries([0.0, 0.0])), Bus(id="B", demand=demand_b)),
            technologies=(GAS,),
            placements=(Placement(bus="A", tech="gas"),),
            lines=(line,),
            shed_penalty=1000.0,
            weight_hours=1.0,
            firm_technologies=frozenset({"gas"}),
            discount_rate=0.0,
            apply_line_losses=apply_losses,
        )
    lossless, _, _ = solve_instance(make(False))
    lossy, _, _ = solve_instance(make(True))
    sent_lossless = lossless.flow_fw["AB"].sum()
    sent_lossy = lossy.flow_fw["AB"].sum()
    assert sent_lossless == pytest.approx(2.0, abs=1e-7)
    assert sent_lossy == pytest.approx(2.0 / 0.9, rel=1e-6)


def test_co2_budget_zero_sheds_everything():
    gas = Technology(id="gas", kind="dispatchable", annuity=0.0, variable_om=0.5,
                     efficiency=0.5, co2_per_mwh_th=0.2)
    demand = TimeSeries([2.0, 1.0])
    inst = CepInstance(
        buses=(Bus(id="A", demand=demand, reserve_margin=0.2),),
        technologies=(gas,),
        placements=(Placement(bus="A", tech="gas"),),
        co2_budget=0.0,
        shed_penalty=50.0,
        weight_hours=2.0,
        firm_technologies=frozenset({"gas"}),
    )
    decoded, _, _ = solve_instance(inst)
    assert decoded.shed_MWh == pytest.approx(2.0 * 3.0)
    assert decoded.objective == pytest.approx(50.0 * 2.0 * 3.0, rel=1e-12)
    assert decoded.emissions_t == pytest.approx(0.0, abs=1e-9)


def test_emissions_respect_budget():
    gas = Technology(id="gas", kind="dispatchable", annuity=1.0, variable_om=0.5,
                     efficiency=0.5, co2_per_mwh_th=0.2)
    inst = CepInstance(
        buses=(Bus(id="A", demand=TimeSeries([2.0, 2.0, 2.0])),),
        technologies=(gas,),
        placements=(Placement(bus="A", tech="gas"),),
        co2_budget=1.0,
        shed_penalty=50.0,
        weight_hours=1.0,
        firm_technologies=frozenset({"gas"}),
    )
    decoded, _, _ = solve_instance(inst)
    assert decoded.emissions_t <= 1.0 + 1e-6


def test_instance_validation_messages():
    with pytest.raises(ValueError, match="demand length"):
        CepInstance(
            buses=(Bus(id="A", demand=TimeSeries([1.0])),
                   Bus(id="B", demand=TimeSeries([1.0, 2.0]))),
            technologies=(GAS,),
            placements=(),
        )
    with pytest.raises(ValueError, match="site s"):
        CepInstance(
            buses=(Bus(id="A", demand=TimeSeries([1.0, 1.0])),),
            technologies=(GAS, Technology(id="wind", kind="res")),
            placements=(),
            sited=(SitedAsset(id="s", bus="A", legacy_MW=0.0, potential_MW=1.0,
                              cf=TimeSeries([0.5])),),
            sited_technology="wind",
        )
    with pytest.raises(ValueError, match="CO2 budget"):
        single_bus_instance(co2_budget=-1.0)
    with pytest.raises(ValueError, match="unknown bus"):
        CepInstance(
            buses=(Bus(id="A", demand=TimeSeries([1.0])),),
            technologies=(GAS,),
            placements=(Placement(bus="Z", tech="gas"),),
        )


def test_technology_validation():
    with pytest.raises(ValueError, match="efficiency"):
        Technology(id="x", kind="dispatchable", efficiency=0.0)
    with pytest.raises(ValueError, match="must_run"):
        Technology(id="x", kind="dispatchable", must_run=1.5)
    with pytest.raises(ValueError, match="kind"):
        Technology(id="x", kind="nuclear_fusion")
    tech = Technology(id="x", kind="dispatchable", variable_om=1.0, fuel_cost=2.0,
                      efficiency=0.5)
    assert tech.marginal_cost == pytest.approx(5.0)
    assert Technology(id="y", kind="dispatchable", co2_per_mwh_th=0.3,
                      efficiency=0.6).co2_per_mwh_elec == pytest.approx(0.5)


def test_annuity_precedence_and_missing_lifetime():
    rate = 0.05
    tech = Technology(id="x", kind="storage", capex=100.0, energy_capex=10.0,
                      lifetime_years=20.0, annuity=7.0)
    assert tech.power_annuity(rate) == 7.0  # a given annuity wins over the capex
    assert tech.storage_energy_annuity(rate) == annualize(10.0, 20.0, rate)
    assert Technology(id="x", kind="storage").power_annuity(rate) is None
    assert Line(id="l", from_bus="a", to_bus="b").power_annuity(rate) is None
    for annuity, message in [
        (lambda: Technology(id="x", kind="dispatchable", capex=100.0).power_annuity(rate),
         "technology x: capex given without lifetime"),
        (lambda: Technology(id="x", kind="storage", energy_capex=10.0).storage_energy_annuity(rate),
         "technology x: energy capex given without lifetime"),
        (lambda: Line(id="l", from_bus="a", to_bus="b", capex=100.0).power_annuity(rate),
         "line l: capex given without lifetime"),
    ]:
        with pytest.raises(ValueError) as info:
            annuity()
        assert str(info.value) == message


@pytest.mark.parametrize("extra, message", [
    ({"placements": (Placement(bus="A", tech="gas"), Placement(bus="B", tech="gas"),
                     Placement(bus="A", tech="gas", legacy_MW=5.0))},
     "duplicate placement ('A', 'gas')"),
    ({"lines": (Line(id="L", from_bus="A", to_bus="B"), Line(id="L", from_bus="B", to_bus="A"))},
     "duplicate line id 'L'"),
    ({"sited": tuple(SitedAsset(id="s", bus=bus, legacy_MW=0.0, potential_MW=1.0,
                                cf=TimeSeries([0.5, 0.5])) for bus in "AB"),
      "sited_technology": "wind"},
     "duplicate site id 's'"),
    ({"buses": (Bus(id="A", demand=TimeSeries([1.0, 1.0])),) * 2}, "duplicate bus id 'A'"),
    ({"technologies": (GAS, GAS)}, "duplicate technology id 'gas'"),
], ids=["placement", "line", "site", "bus", "technology"])
def test_instance_names_a_repeated_id(extra, message):
    base = dict(buses=(Bus(id="A", demand=TimeSeries([1.0, 1.0])),
                       Bus(id="B", demand=TimeSeries([1.0, 1.0]))),
                technologies=(GAS, Technology(id="wind", kind="res")), placements=())
    with pytest.raises(ValueError) as info:
        CepInstance(**{**base, **extra})
    assert str(info.value) == message

