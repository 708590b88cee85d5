"""Block assembly in ``LpBuilder`` and the three LP producers built on it,
against the coefficient-at-a-time reference in ``cep_oracle``, and the
CEP's limits as bounds against the same model with every limit a row."""

import dataclasses
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cep_oracle as oracle
import windplan.mps as mps
from windplan import cli
from helpers import build_catalog, limit_rows_with_one_free_entry, plan_for
from lp_oracle import dual_objective
from windplan.cep import (
    Bus, CepIndex, CepInstance, CepSolution, Line, Placement, SitedAsset, Technology, build_lp,
    decode_solution,
)
from windplan.lp import LpBuilder, solve
from windplan.resource import CriticalityMatrix
from windplan.siting import build_comp_mir
from windplan.synth import gen_synthetic
from windplan.timeseries import TimeSeries

LP_ARRAYS = ("objective", "entry_rows", "entry_cols", "entry_vals", "rhs", "lower", "upper",
             "integer")


def assert_identical_lp(got, want):
    for name in LP_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name  # bit for bit, signed zeros included
    for name in ("senses", "var_names", "row_names", "name"):
        assert getattr(got, name) == getattr(want, name), name


def assert_identical_index(got, want):
    for f in dataclasses.fields(CepIndex):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert list(a) == list(b), f.name
        for key in a:
            if isinstance(b[key], np.ndarray):
                assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), f.name
            else:
                assert type(a[key]) is type(b[key]) and a[key] == b[key], f.name


# ---------------------------------------------------------------------------
# The block API
# ---------------------------------------------------------------------------

@st.composite
def block_programs(draw):
    """Variable blocks, then row blocks with broadcast terms, then loose
    entry blocks; (row, col) pairs never repeat."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    var_blocks = []
    for size in draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)):
        scalar = draw(st.booleans())
        lower = float(rng.uniform(-2, 0)) if scalar else rng.uniform(-2, 0, size)
        var_blocks.append((size, lower, float(rng.uniform(0, 3)), rng.normal(size=size),
                           draw(st.booleans())))
    n = sum(block[0] for block in var_blocks)
    row_blocks, used = [], set()
    for size in draw(st.lists(st.integers(0, 4), max_size=4)):
        sense = draw(st.sampled_from(["<", "=", ">", "per-row"]))
        if sense == "per-row":
            sense = [str(s) for s in rng.choice(["<", "=", ">"], size)]
        terms = []
        for col in rng.permutation(n)[:int(rng.integers(0, min(n, 3) + 1))]:
            vals = float(rng.normal()) if rng.random() < 0.5 else rng.normal(size=size)
            terms.append((int(col), vals))
        row_blocks.append((size, sense, rng.normal(size=size), terms))
    m = sum(block[0] for block in row_blocks)
    first = 0
    for size, _, _, terms in row_blocks:
        used.update((first + i, col) for i in range(size) for col, _ in terms)
        first += size
    free = [(i, j) for i in range(m) for j in range(n) if (i, j) not in used]
    picks = rng.permutation(len(free))[:int(rng.integers(0, len(free) + 1))]
    entries = [free[k] for k in picks]
    cuts = sorted(rng.integers(0, len(entries) + 1, 2))
    entry_blocks = [entries[:cuts[0]], entries[cuts[0]:cuts[1]], entries[cuts[1]:]]
    entry_blocks = [(np.array([e[0] for e in blk], dtype=np.intp),
                     np.array([e[1] for e in blk], dtype=np.intp),
                     rng.normal(size=len(blk))) for blk in entry_blocks]
    return var_blocks, row_blocks, entry_blocks


def run_blocks(builder, program):
    var_blocks, row_blocks, entry_blocks = program
    for size, lower, upper, objective, integer in var_blocks:
        builder.add_vars([f"x{k}" for k in range(size)], lower, upper, objective, integer)
    for size, sense, rhs, terms in row_blocks:
        builder.add_rows([f"r{k}" for k in range(size)], sense, rhs, *terms)
    for rows, cols, vals in entry_blocks:
        builder.add_entries(rows, cols, vals)
    return builder.build()


def run_scalars(builder, program):
    var_blocks, row_blocks, entry_blocks = program
    for size, lower, upper, objective, integer in var_blocks:
        lower = np.broadcast_to(lower, (size,))
        for k in range(size):
            builder.add_var(f"x{k}", float(lower[k]), upper, float(objective[k]), integer)
    for size, sense, rhs, terms in row_blocks:
        for k in range(size):
            row = builder.add_row(f"r{k}", sense if isinstance(sense, str) else sense[k],
                                  float(rhs[k]))
            for col, vals in terms:
                builder.add_entry(row, col, float(np.broadcast_to(vals, (size,))[k]))
    for rows, cols, vals in entry_blocks:
        for row, col, val in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            builder.add_entry(row, col, val)
    return builder.build()


@settings(max_examples=150, deadline=None)
@given(block_programs())
def test_blocks_equal_scalar_calls(program):
    blocks = run_blocks(LpBuilder(), program)
    assert_identical_lp(blocks, run_scalars(LpBuilder(), program))
    assert_identical_lp(blocks, run_scalars(oracle.DictLpBuilder(), program))


def test_block_returns_indices_and_broadcasts():
    builder = LpBuilder()
    assert builder.add_var("k", upper=5.0) == 0
    p = builder.add_vars(["p0", "p1", "p2"], objective=[1.0, 2.0, 3.0])
    assert p.dtype == np.intp and p.tolist() == [1, 2, 3]
    rows = builder.add_rows(["a", "b", "c"], "<", 4.0, (p, 1.0), (0, [-1.0, -2.0, -3.0]))
    assert rows.tolist() == [0, 1, 2]
    lp = builder.build()
    assert lp.rhs.tolist() == [4.0] * 3 and lp.senses == ("<",) * 3
    assert lp.upper.tolist() == [5.0] + [math.inf] * 3
    assert lp.dense_matrix().tolist() == [[-1.0, 1.0, 0.0, 0.0], [-2.0, 0.0, 1.0, 0.0],
                                          [-3.0, 0.0, 0.0, 1.0]]


def test_duplicate_across_blocks_fails_at_build():
    builder = LpBuilder()
    x = builder.add_vars(["x0", "x1"])
    rows = builder.add_rows(["r0", "r1"], "<", 1.0, (x, 1.0))
    builder.add_entries(rows[1], x[1], 2.0)  # accepted here ...
    with pytest.raises(ValueError, match="duplicate"):
        builder.build()  # ... and caught by the triplet check


def test_per_row_senses_must_match_the_rows():
    builder = LpBuilder()
    builder.add_rows(["r0", "r1"], ["<"], 0.0)
    with pytest.raises(ValueError, match="row count"):
        builder.build()


def test_empty_builder_builds():
    lp = LpBuilder(name="void").build()
    assert lp.n_vars == 0 and lp.n_rows == 0 and lp.name == "void"
    assert_identical_lp(lp, oracle.DictLpBuilder(name="void").build())
    builder = LpBuilder()
    builder.add_vars([])
    builder.add_rows([], "=", [])
    builder.add_entries([], [], [])
    assert_identical_lp(builder.build(), LpBuilder().build())


# ---------------------------------------------------------------------------
# The CEP model
# ---------------------------------------------------------------------------

@st.composite
def cep_instances(draw):
    """Small instances covering every row family and its special cases:
    storage with and without inflow, zero charge ratio, cyclic or not,
    minimum state of charge, ramps below 1, must-run, zero availability,
    lossy lines in either direction, parallel lines, reserve margins of None
    or 0, and optional CO2 budgets.  Every bus with a reserve margin has an
    expandable firm peaker, so most draws are feasible."""
    t_len = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def series(zeros=False):
        values = rng.uniform(0.0, 1.0, t_len)
        if zeros:
            values[rng.random(t_len) < 0.4] = 0.0
        return TimeSeries(values)

    def money():
        return draw(st.sampled_from([None, float(rng.uniform(10, 200))]))

    n_bus = draw(st.integers(1, 3))
    buses = tuple(Bus(id=f"B{b}", demand=TimeSeries(rng.uniform(5, 50, t_len)),
                      reserve_margin=draw(st.sampled_from([None, 0.0, 0.2])))
                  for b in range(n_bus))
    techs = [
        Technology(id="wind", kind="res", capex=money(), lifetime_years=20.0,
                   capacity_credit=draw(st.sampled_from(["computed", 0.0, 0.3]))),
        Technology(id="gas", kind="dispatchable", capex=money(), lifetime_years=30.0,
                   fuel_cost=0.03, efficiency=0.4, variable_om=0.01,
                   co2_per_mwh_th=draw(st.sampled_from([0.0, 0.2])),
                   ramp_up=draw(st.sampled_from([1.0, 0.5, 0.0])),
                   ramp_down=draw(st.sampled_from([1.0, 0.4])),
                   must_run=draw(st.sampled_from([0.0, 0.1]))),
        Technology(id="sto", kind="storage", capex=money(), energy_capex=money(),
                   lifetime_years=10.0, variable_om=0.002, eta_charge=0.9, eta_self=0.99,
                   eta_discharge=0.95, charge_ratio=draw(st.sampled_from([0.0, 0.5, 1.0])),
                   min_soc=draw(st.sampled_from([0.0, 0.1]))),
        Technology(id="offshore", kind="res", capex=money(), lifetime_years=25.0,
                   fixed_om=40.0, capacity_credit=draw(st.sampled_from(["computed", 0.2]))),
        Technology(id="peaker", kind="dispatchable", capex=60.0, lifetime_years=20.0,
                   fuel_cost=0.05, efficiency=0.35),
    ]
    placements = []
    for bus in buses:
        for tech in ("wind", "gas", "sto"):
            if not draw(st.booleans()):
                continue
            legacy = draw(st.sampled_from([0.0, 20.0]))
            potential = draw(st.sampled_from([None, legacy + 30.0]))
            extra = {}
            if tech == "wind":
                extra["availability"] = draw(st.sampled_from([None, series(zeros=True)]))
            if tech == "sto":
                extra = {"legacy_energy_MWh": 2 * legacy,
                         "inflow": draw(st.sampled_from([None, series()]))}
            placements.append(Placement(bus=bus.id, tech=tech, legacy_MW=legacy,
                                        potential_MW=potential, **extra))
        if bus.reserve_margin is not None:
            placements.append(Placement(bus=bus.id, tech="peaker"))
    sited = tuple(SitedAsset(id=f"s{i}", bus=f"B{int(rng.integers(n_bus))}",
                             legacy_MW=draw(st.sampled_from([0.0, 10.0])), potential_MW=50.0,
                             cf=series(zeros=True))
                  for i in range(draw(st.integers(0, 3))))
    # each corridor runs either way and sometimes carries a second, parallel
    # line, so a bus can take balance entries from lines in both directions
    lines = []
    for b in range(n_bus - 1):
        for suffix in ("", "p")[:draw(st.integers(1, 2))]:
            ends = draw(st.sampled_from([(f"B{b}", f"B{b + 1}"), (f"B{b + 1}", f"B{b}")]))
            lines.append(Line(id=f"L{b}{suffix}", from_bus=ends[0], to_bus=ends[1],
                              legacy_MW=10.0, potential_MW=draw(st.sampled_from([None, 40.0])),
                              annuity=money(), variable_om=0.001,
                              length_km=draw(st.sampled_from([None, 600.0])),
                              efficiency_per_1000km=0.95))
    return CepInstance(
        buses=buses, technologies=tuple(techs), placements=tuple(placements), lines=lines,
        sited=sited, sited_technology="offshore",
        co2_budget=draw(st.sampled_from([None, 0.0, 50.0])),
        weight_hours=draw(st.sampled_from([1.0, 3.0])),
        firm_technologies=frozenset(draw(st.sampled_from([(), ("gas",), ("gas", "sto")]))
                                    + ("peaker",)),
        storage_cyclic=draw(st.booleans()),
        apply_line_losses=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(cep_instances())
def test_build_lp_matches_loop_oracle(instance):
    lp, index = build_lp(instance)
    want_lp, want_index = oracle.build_lp(instance)
    assert_identical_lp(lp, want_lp)
    assert_identical_index(index, want_index)
    with tempfile.TemporaryDirectory() as tmp:
        got = mps.export_mps(lp, Path(tmp) / "got.mps", comments=["c"])
        want = mps.export_mps(want_lp, Path(tmp) / "want.mps", comments=["c"])
        assert got.read_bytes() == want.read_bytes()
        imported = mps.import_mps(got)
        with mock.patch.object(mps, "LpBuilder", oracle.DictLpBuilder):
            assert_identical_lp(imported, mps.import_mps(got))


@settings(max_examples=200, deadline=None)
@given(cep_instances())
def test_decode_matches_loop_oracle(instance):
    lp, index = build_lp(instance)
    out = solve(lp)
    if out.status != "optimal":
        return
    got = decode_solution(out, index, instance)
    want = oracle.decode_solution(out, index, instance)
    for f in dataclasses.fields(CepSolution):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, dict):
            assert list(a) == list(b), f.name
            pairs = [(a[key], b[key]) for key in b]
        else:
            pairs = [(a, b)]
        for x, y in pairs:
            assert type(x) is type(y), f.name
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
            else:
                assert x == y, f.name


@settings(max_examples=200, deadline=None)
@given(cep_instances())
def test_limits_as_bounds_solve_as_the_rows_do(instance):
    results = []
    for build in (build_lp, oracle.build_lp_rows):
        lp, index = build(instance)
        out = solve(lp)
        if out.status == "optimal":
            assert dual_objective(lp, out) == pytest.approx(out.objective, rel=1e-9, abs=1e-9)
            decode_solution(out, index, instance)   # raises on a cost mismatch
        results.append(out)
    got, want = results
    assert got.status == want.status
    if got.status == "optimal":
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(cep_instances())
def test_no_limit_row_has_one_entry_off_the_fixed_columns(instance):
    assert limit_rows_with_one_free_entry(build_lp(instance)[0]) == []


def test_must_run_above_availability_stays_rows_and_reads_infeasible():
    instance = CepInstance(
        buses=(Bus(id="B", demand=TimeSeries(np.full(3, 10.0))),),
        technologies=(Technology(id="gas", kind="dispatchable", must_run=0.5),),
        placements=(Placement(bus="B", tech="gas", legacy_MW=20.0,
                              availability=TimeSeries(np.array([1.0, 0.2, 1.0]))),))
    lp, _ = build_lp(instance)
    assert_identical_lp(lp, oracle.build_lp(instance)[0])
    assert [name for name in lp.row_names if name.startswith("mustrun|")] == \
        [f"mustrun|B|gas|{t}" for t in range(3)]
    assert lp.upper[lp.var_names.index("p|B|gas|1")] == 0.2 * 20.0
    assert solve(lp).status == solve(oracle.build_lp_rows(instance)[0]).status == "infeasible"


def test_build_peaks_within_half_again_the_lp(tmp_path, monkeypatch):
    """``cep.build_lp`` on a fixed 19-bus synth case (38 sites, hydro on,
    T = 160: 51,568 columns, 33,299 rows, 129,695 entries) peaks, traced by
    tracemalloc, at most 1.5 times what it returns: the memory still
    traced when it returns, the LP and its index.  The builder frees its
    blocks as it joins them and the LP sorts the entries once, into the
    column form it keeps; sorting them by row in the builder and again in
    the LP peaked at 20.2 MiB for 6.6 MiB, 3.07 times."""
    gen_synthetic(tmp_path / "data", seed=1, n_sites=38, n_partitions=19, n_periods=480)
    config = {
        "paths": {name: f"data/{name}.csv"
                  for name in ("wind_speeds", "demand", "runoff", "hydro_params")}
        | {"catalog": "data/sites.csv", "output_dir": "out"},
        "resolution_hours": 1.0, "resample_factor": 3,
        "siting": {"scheme": "comp", "partitioned": True, "varsigma": 0.15, "delta": 1,
                   "targets_MW": {f"P{i + 1}": 2000.0 for i in range(19)},
                   "anneal": {"iterations": 10, "neighbors": 10, "radius": 1},
                   "n_runs": 2, "base_seed": 1},
        "cep": {"solver": "mps-export", "reserve_margin": 0.2, "shed_penalty": 500.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    traced = []

    def traced_build(instance):
        tracemalloc.start()
        try:
            built = build_lp(instance)
            traced.append(tracemalloc.get_traced_memory())   # (held, peak)
        finally:
            tracemalloc.stop()
        return built

    monkeypatch.setattr(cli, "build_lp", traced_build)
    assert cli.main(["pipeline", str(path), "--threads", "1"]) == 0
    (held, peak), = traced
    assert peak <= 1.5 * held, f"peak {peak / 2**20:.2f} MiB for {held / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# The comp MIR
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3), st.integers(0, 2**32 - 1),
       st.integers(1, 30), st.floats(0.0, 1.0))
def test_build_comp_mir_matches_loop_oracle(sizes, seed, n_windows, density):
    case = comp_mir_case(sizes, seed, n_windows, density)
    assert_identical_lp(build_comp_mir(*case), oracle.build_comp_mir(*case))


def comp_mir_case(sizes, seed, n_windows, density):
    """``(matrix, catalog, plan)`` of a random comp MIR: partitions of
    ``sizes`` sites, some of them legacy, and a feasible quota in each."""
    rng = np.random.default_rng(seed)
    parts = [f"P{p}" for p, n in enumerate(sizes) for _ in range(n)]
    legacy_MW = [150.0 if rng.random() < 0.3 else 0.0 for _ in parts]
    catalog = build_catalog(np.full((len(parts), 2), 0.5), parts, legacy_MW=legacy_MW)
    bits = rng.random((len(parts), n_windows)) < density
    matrix = CriticalityMatrix.from_bool(bits, int(rng.integers(1, len(parts) + 1)), 1,
                                         tuple(catalog.index_of))
    legacy = {pid: sum(catalog.site(s).is_legacy for s in ids)
              for pid, ids in catalog.partitions.items()}
    plan = plan_for(catalog, {pid: int(rng.integers(max(legacy[pid], 1), len(ids) + 1))
                              for pid, ids in catalog.partitions.items()})
    return matrix, catalog, plan
