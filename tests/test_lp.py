import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lp_oracle import (
    dual_objective, generate_box_lp, reference_dual_bound, reference_solve_unconstrained,
    reference_start_state, vertex_enum_optimum,
)
from windplan.lp import CanonicalLp, LpBuilder, _Simplex, solve


def build_lp(c, rows, senses, b, lower=None, upper=None, integer=None):
    n = len(c)
    builder = LpBuilder()
    lower = [0.0] * n if lower is None else lower
    upper = [math.inf] * n if upper is None else upper
    integer = [False] * n if integer is None else integer
    for j in range(n):
        builder.add_var(f"x{j}", lower[j], upper[j], c[j], integer[j])
    for i, row in enumerate(rows):
        r = builder.add_row(f"r{i}", senses[i], b[i])
        for j, val in enumerate(row):
            if val != 0.0:
                builder.add_entry(r, j, val)
    return builder.build()


def test_textbook_facet():
    lp = build_lp([-1.0, -1.0], [[1.0, 1.0]], ["<"], [1.0])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(-1.0, abs=1e-9)
    assert out.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_nonnegative_costs_zero_optimum():
    lp = build_lp([2.0, 1.0, 0.5], [], [], [])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == 0.0
    assert np.allclose(out.x, 0.0)


def test_infeasible_pair():
    lp = build_lp([1.0], [[1.0]], ["<"], [-1.0])
    assert solve(lp).status == "infeasible"


def test_unbounded_detected():
    lp = build_lp([-1.0], [[-1.0]], ["<"], [0.0])
    assert solve(lp).status == "unbounded"


def test_structurally_empty_lp():
    lp = build_lp([], [], [], [])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == 0.0


def test_iteration_limit_status():
    rng = np.random.default_rng(0)
    lp = generate_box_lp(rng, max_vars=8, max_rows=8)
    out = solve(lp, iteration_limit=1)
    assert out.status == "iteration_limit"
    assert out.x.size == lp.n_vars


def test_integer_flags_rejected():
    lp = build_lp([1.0], [], [], [], integer=[True])
    with pytest.raises(ValueError, match="MPS"):
        solve(lp)


def test_duplicate_triplets_rejected():
    builder = LpBuilder()
    builder.add_var("x", 0.0, 1.0, 1.0)
    r = builder.add_row("r", "<", 1.0)
    builder.add_entry(r, 0, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        builder.add_entry(r, 0, 2.0)
    with pytest.raises(ValueError, match="duplicate"):
        CanonicalLp(
            objective=[1.0], entry_rows=[0, 0], entry_cols=[0, 0], entry_vals=[1.0, 2.0],
            senses=("<",), rhs=[1.0], lower=[0.0], upper=[1.0], integer=[False],
            var_names=("x",), row_names=("r",),
        )


def test_bound_sanity_rejected():
    with pytest.raises(ValueError, match="lower bound"):
        build_lp([1.0], [], [], [], lower=[2.0], upper=[1.0])


def test_matches_vertex_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(12):
        lp = generate_box_lp(rng, max_vars=5, max_rows=5)
        out = solve(lp)
        assert out.status == "optimal"
        oracle = vertex_enum_optimum(lp)
        assert out.objective == pytest.approx(oracle, abs=1e-8)


def test_weak_duality_every_iteration():
    rng = np.random.default_rng(17)
    for _ in range(5):
        lp = generate_box_lp(rng, max_vars=6, max_rows=6)
        records = []
        out = solve(lp, on_iteration=records.append)
        assert out.status == "optimal"
        assert records, "phase-two iterations should be observable"
        for rec in records:
            assert rec["dual_bound"] <= rec["objective"] + 1e-6
        assert dual_objective(lp, out) == pytest.approx(out.objective, abs=1e-6)


def test_complementary_slackness_and_feasibility():
    rng = np.random.default_rng(23)
    for _ in range(10):
        lp = generate_box_lp(rng)
        out = solve(lp)
        assert out.status == "optimal"
        activity = lp.dense_matrix() @ out.x
        for i in range(lp.n_rows):
            slack = lp.rhs[i] - activity[i]
            if lp.senses[i] == "<":
                assert slack >= -1e-7
            elif lp.senses[i] == ">":
                assert slack <= 1e-7
            else:
                assert abs(slack) <= 1e-7
            assert abs(out.duals[i] * slack) <= 1e-6 * (1 + abs(out.duals[i]))
        assert np.all(out.x >= lp.lower - 1e-7)
        assert np.all(out.x <= lp.upper + 1e-7)


def test_row_scaling_leaves_primal_unchanged():
    # unique optimum: strictly convex-ish corner of a simple polytope
    lp = build_lp([-2.0, -1.0], [[1.0, 1.0], [1.0, 0.0]], ["<", "<"], [4.0, 3.0],
                  lower=[0.0, 0.0], upper=[10.0, 10.0])
    base = solve(lp)
    builder = LpBuilder()
    for j in range(2):
        builder.add_var(f"x{j}", 0.0, 10.0, [-2.0, -1.0][j])
    r0 = builder.add_row("r0", "<", 4.0 * 50.0)
    builder.add_entry(r0, 0, 50.0)
    builder.add_entry(r0, 1, 50.0)
    r1 = builder.add_row("r1", "<", 3.0)
    builder.add_entry(r1, 0, 1.0)
    scaled = solve(builder.build())
    assert np.allclose(base.x, scaled.x, atol=1e-8)
    assert base.objective == pytest.approx(scaled.objective, abs=1e-8)


def test_free_variable_handling():
    # min x subject to x >= -5 via a row, variable itself free
    lp = build_lp([1.0], [[1.0]], [">"], [-5.0], lower=[-math.inf], upper=[math.inf])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(-5.0, abs=1e-9)


def test_fixed_variables_respected():
    lp = build_lp([1.0, 1.0], [[1.0, 1.0]], [">"], [3.0],
                  lower=[2.0, 0.0], upper=[2.0, 10.0])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.x[0] == pytest.approx(2.0)
    assert out.x[1] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# The simplex set-up against the per-row reference in lp_oracle
# ---------------------------------------------------------------------------

def assert_same_bytes(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name   # signed zeros included


# 0.25-multiples keep start activities exact, so an offset of feas_tol
# lands the residual exactly on the slack/artificial boundary.
_DYADIC = st.sampled_from([-3.0, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 2.0])
_NUMBER = _DYADIC | st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
_BOUND_KINDS = ("free", "mi", "pl", "fixed", "boxed")


@st.composite
def start_lps(draw):
    """(lp, feas_tol): every sense, every bound kind, rows whose start
    residual sits at 0, +-feas_tol or +-2 feas_tol, zero rows or columns,
    triplets in any order."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    feas_tol = draw(st.sampled_from([1e-7, 2.0 ** -20]))
    lower, upper = [], []
    for kind in draw(st.lists(st.sampled_from(_BOUND_KINDS), min_size=n, max_size=n)):
        a, b = sorted((draw(_NUMBER), draw(_NUMBER)))
        lower.append({"free": -math.inf, "mi": -math.inf, "fixed": a}.get(kind, a))
        upper.append({"free": math.inf, "pl": math.inf, "fixed": a}.get(kind, b))
    cells = [(i, j) for i in range(m) for j in range(n)]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    cells = [cell for cell, k in zip(cells, keep) if k]
    vals = [draw(_DYADIC | _NUMBER.filter(lambda v: v != 0)) for _ in cells]
    dense = np.zeros((m, n))
    for (i, j), v in zip(cells, vals):
        dense[i, j] = v
    lo, up = np.array(lower), np.array(upper)
    start = np.where(np.isfinite(lo), lo, np.where(np.isfinite(up), up, 0.0))
    tol = st.sampled_from([0.0, feas_tol, -feas_tol, 2 * feas_tol, -2 * feas_tol])
    offsets = draw(st.lists(tol | _NUMBER, min_size=m, max_size=m))
    direct = draw(st.lists(st.none() | _NUMBER, min_size=m, max_size=m))   # e.g. rhs -0.0
    order = draw(st.permutations(range(len(cells))))
    return CanonicalLp(
        objective=[draw(_NUMBER) for _ in range(n)],
        entry_rows=[cells[k][0] for k in order], entry_cols=[cells[k][1] for k in order],
        entry_vals=[vals[k] for k in order],
        senses=draw(st.lists(st.sampled_from(["<", "=", ">"]), min_size=m, max_size=m)),
        rhs=[act + off if value is None else value
             for act, off, value in zip(dense @ start, offsets, direct)],
        lower=lower, upper=upper,
        integer=[False] * n, var_names=[f"x{j}" for j in range(n)],
        row_names=[f"r{i}" for i in range(m)],
    ), feas_tol


def _boundary_lp(sense, offset, feas_tol=2.0 ** -20):
    """One row over x in [1, 2] whose start residual is offset * feas_tol."""
    lp = build_lp([1.0], [[1.0]], [sense], [1.0 + offset * feas_tol], lower=[1.0], upper=[2.0])
    return lp, feas_tol


@settings(max_examples=400, deadline=None)
@given(start_lps())
@example(_boundary_lp("<", -1))     # exactly at -feas_tol: the slack absorbs it
@example(_boundary_lp("<", -2))     # beyond it: an artificial
@example(_boundary_lp(">", 1))
@example(_boundary_lp(">", 2))
def test_start_state_matches_reference(case):
    lp, feas_tol = case
    if lp.n_rows == 0:
        got, want = solve(lp), reference_solve_unconstrained(lp)
        assert got.status == want.status
        assert_same_bytes(got.objective, want.objective, "objective")
        assert_same_bytes(got.duals, want.duals, "duals")
        assert_same_bytes(got.reduced_costs, want.reduced_costs, "reduced_costs")
        if got.status == "optimal":   # an unbounded closed form has no iterate to match
            assert_same_bytes(got.x, want.x, "x")
        return
    simplex = _Simplex(lp, feas_tol, 1e-7, 100)
    want = reference_start_state(lp, feas_tol)
    for name in ("b", "lower", "upper", "x", "vstatus", "basis"):
        assert_same_bytes(getattr(simplex, name), want[name], name)
    assert simplex.n_art == want["n_art"] and simplex.n_real == want["n_real"]
    assert simplex.A.shape == want["A"].shape
    for name in ("data", "indices", "indptr"):
        assert_same_bytes(getattr(simplex.A, name), getattr(want["A"], name), f"A.{name}")


_GRID = (-math.inf, -2.0, -0.0, 0.0, 2.0, math.inf)


@pytest.mark.parametrize("cost", [-1.0, -0.0, 0.0, 1.0])
def test_unconstrained_closed_form_matches_reference(cost):
    boxes = [(lo, up) for lo in _GRID for up in _GRID if lo <= up]
    cases = [build_lp([cost], [], [], [], lower=[lo], upper=[up]) for lo, up in boxes]
    cases.append(build_lp([cost] * len(boxes), [], [], [], lower=[lo for lo, _ in boxes],
                          upper=[up for _, up in boxes]))
    for lp in cases:
        got, want = solve(lp), reference_solve_unconstrained(lp)
        assert got.status == want.status
        for name in ("objective", "duals", "reduced_costs") + ("x",) * (got.status == "optimal"):
            assert_same_bytes(getattr(got, name), getattr(want, name), name)


def test_boundary_residuals_pick_slack_or_artificial():
    assert [_Simplex(*_boundary_lp(sense, k), 1e-7, 100).n_art
            for sense, k in (("<", -1), ("<", -2), (">", 1), (">", 2))] == [0, 1, 0, 1]


_SMALL = st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 1e-7, -1e-7])


@settings(max_examples=100, deadline=None)
@given(start_lps().filter(lambda case: case[0].n_rows > 0), st.data())
def test_dual_bound_matches_reference(case, data):
    lp, feas_tol = case
    simplex = _Simplex(lp, feas_tol, 1e-7, 100)
    n_cols = simplex.A.shape[1]
    values = _SMALL | st.floats(-1e3, 1e3, allow_nan=False)
    y = np.array(data.draw(st.lists(values, min_size=lp.n_rows, max_size=lp.n_rows)))
    d = np.array(data.draw(st.lists(values, min_size=n_cols, max_size=n_cols)))
    if data.draw(st.booleans()):   # keep the bound finite: no weight on an infinite side
        d[~np.isfinite(np.where(d > 0, simplex.lower, simplex.upper))] = 0.0
    got = simplex._dual_bound(y, d)
    want = reference_dual_bound(simplex.lower, simplex.upper, simplex.b, 1e-7, y, d)
    if math.isinf(want):
        assert got == want
        return
    active = np.abs(d) > 1e-7
    scale = abs(y) @ abs(simplex.b) + abs(d[active]) @ abs(
        np.where(d[active] > 0, simplex.lower[active], simplex.upper[active]))
    assert abs(got - want) <= 1e-12 * scale


def test_dual_bound_matches_reference_along_solves(monkeypatch):
    pairs = []
    real = _Simplex._dual_bound

    def recording(self, y, d):
        got = real(self, y, d)
        pairs.append((got, reference_dual_bound(self.lower, self.upper, self.b,
                                                self.opt_tol, y, d)))
        return got

    monkeypatch.setattr(_Simplex, "_dual_bound", recording)
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert solve(generate_box_lp(rng), on_iteration=lambda rec: None).status == "optimal"
    assert len(pairs) > 20
    for got, want in pairs:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Rows without columns go through the simplex like any other LP
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sense, rhs, status", [
    (">", 5.0, "infeasible"), ("<", 5.0, "optimal"), ("=", 0.0, "optimal"),
    ("=", 5.0, "infeasible"), ("<", -5.0, "infeasible"), (">", -5.0, "optimal"),
], ids=["0>=5", "0<=5", "0=0", "0=5", "0<=-5", "0>=-5"])
def test_rows_without_columns(sense, rhs, status):
    out = solve(build_lp([], [[]], [sense], [rhs]))
    assert out.status == status
    assert out.x.size == 0 and out.reduced_costs.size == 0 and out.duals.size == 1
    if status == "optimal":
        assert out.objective == 0.0 and out.duals[0] == 0.0
    else:
        assert math.isnan(out.objective)
