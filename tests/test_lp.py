import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import cep_oracle
from helpers import limit_rows_with_one_free_entry
from lp_oracle import (
    dual_objective, generate_box_lp, reference_dual_bound, reference_solve_unconstrained,
    reference_start_state, vertex_enum_optimum,
)
import windplan.cli as cli
from windplan import fileio
from windplan.lp import (
    _BASIC, _REFACTOR_EVERY, CanonicalLp, LpBuilder, _Basis, _Simplex, solve,
)
from windplan.synth import gen_synthetic


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


def lp_of_triplets(m, n, rows, cols, vals):
    return CanonicalLp(objective=np.zeros(n), entry_rows=rows, entry_cols=cols, entry_vals=vals,
                       senses=["<"] * m, rhs=np.zeros(m), lower=np.zeros(n),
                       upper=np.ones(n), integer=np.zeros(n, dtype=bool),
                       var_names=[f"x{j}" for j in range(n)],
                       row_names=[f"r{i}" for i in range(m)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_the_lp_stores_its_triplets_as_sorted_columns(m, n, data):
    cells = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                               unique=True))
    order = data.draw(st.permutations(range(len(cells))))
    vals = data.draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=len(cells),
                              max_size=len(cells)))
    rows, cols = [cells[k][0] for k in order], [cells[k][1] for k in order]
    given_vals = [vals[k] for k in order]
    lp = lp_of_triplets(m, n, rows, cols, given_vals)
    want = sp.csc_matrix((np.array(given_vals, dtype=float),
                          (np.array(rows, dtype=int), np.array(cols, dtype=int))), shape=(m, n))
    want.sort_indices()
    assert lp.indptr.tolist() == want.indptr.tolist()
    assert lp.indices.tolist() == want.indices.tolist()
    assert lp.data.tobytes() == want.data.tobytes()
    by_row = sorted(range(len(cells)), key=lambda k: cells[k])
    assert lp.entry_rows.tolist() == [cells[k][0] for k in by_row]
    assert lp.entry_cols.tolist() == [cells[k][1] for k in by_row]
    assert lp.entry_vals.tolist() == [vals[k] for k in by_row]
    for arr in (lp.indptr, lp.indices, lp.data, lp.entry_rows, lp.entry_cols, lp.entry_vals):
        assert not arr.flags.writeable
    again = dataclasses.replace(lp, rhs=np.ones(m))
    assert again.indices.tobytes() == lp.indices.tobytes()
    assert again.data.tobytes() == lp.data.tobytes() and again.rhs.tolist() == [1.0] * m
    if cells:
        at = data.draw(st.integers(0, len(cells)))
        r, c = cells[data.draw(st.integers(0, len(cells) - 1))]
        with pytest.raises(ValueError, match="duplicate"):
            lp_of_triplets(m, n, rows[:at] + [r] + rows[at:], cols[:at] + [c] + cols[at:],
                           given_vals[:at] + [0.5] + given_vals[at:])


def python_sorted_columns(n, rows, cols, vals):
    """The CSC arrays of unrepeated triplets, by Python's sort of (col, row)."""
    order = sorted(range(len(rows)), key=lambda k: (cols[k], rows[k]))
    indptr = [0] * (n + 1)
    for col in cols:
        indptr[col + 1] += 1
    for j in range(n):
        indptr[j + 1] += indptr[j]
    return indptr, [rows[k] for k in order], [vals[k] for k in order]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.booleans(), st.data())
def test_the_stored_columns_match_a_python_sort(m, n, by_builder, data):
    """Explicit 0.0 and -0.0 coefficients are stored with their sign bits,
    and the stored indices are int32 when the LP fits, whether the triplets
    come as the builder's int32 or as int64."""
    cells = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                               unique=True))
    vals = data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                                        st.floats(-1e3, 1e3, allow_nan=False)),
                              min_size=len(cells), max_size=len(cells)))
    rows, cols = [r for r, _ in cells], [c for _, c in cells]
    if by_builder:
        builder = LpBuilder()
        builder.add_vars([f"x{j}" for j in range(n)])
        builder.add_rows([f"r{i}" for i in range(m)], "<", 0.0)
        builder.add_entries(rows, cols, vals)
        lp = builder.build()
    else:
        lp = lp_of_triplets(m, n, np.array(rows, np.int64), np.array(cols, np.int64), vals)
    indptr, indices, stored = python_sorted_columns(n, rows, cols, vals)
    assert lp.indptr.tolist() == indptr and lp.indices.tolist() == indices
    assert lp.data.tobytes() == np.array(stored, dtype=np.float64).tobytes()
    assert lp.indptr.dtype == lp.indices.dtype == np.int32


@pytest.mark.parametrize("value", [1.0, -2.5, 0.0, -0.0, 1e300])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_a_repeated_pair_whose_values_cancel_still_raises(value, at):
    """x and -x at one (row, col) sum to a stored zero: one entry fewer
    than the triplets, so the conversion refuses them."""
    rows, cols, vals = [0, 1, 1], [0, 0, 1], [3.0, 4.0, 5.0]
    rows[at:at], cols[at:at], vals[at:at] = [0], [1], [value]
    rows, cols, vals = rows + [0], cols + [1], vals + [-value]
    with pytest.raises(ValueError, match="duplicate"):
        lp_of_triplets(2, 2, rows, cols, vals)


def test_the_lp_keeps_no_writeable_array_of_its_caller():
    lower, rows = np.zeros(2), np.array([0, 1])
    lp = CanonicalLp(objective=[1.0, 2.0], entry_rows=rows, entry_cols=[1, 0],
                     entry_vals=[3.0, 4.0], senses=["<", ">"], rhs=[1.0, 2.0], lower=lower,
                     upper=[1.0, 1.0], integer=[False, False], var_names=["a", "b"],
                     row_names=["r", "s"])
    lower[0], rows[0] = -5.0, 1
    assert lp.lower.tolist() == [0.0, 0.0] and lp.entry_rows.tolist() == [0, 1]
    assert lower.flags.writeable and rows.flags.writeable


def test_builder_indices_out_of_range_are_not_wrapped():
    """The builder hands in-range indices over as int32; one beyond int32
    must still fail the range check, not wrap into range."""
    builder = LpBuilder()
    builder.add_vars(["x0", "x1"])
    builder.add_rows(["r0"], "<", 1.0)
    builder.add_entries(0, np.array([2**32 + 1]), 1.0)
    with pytest.raises(ValueError, match="entry column index out of range"):
        builder.build()
    builder.add_vars(["x0"])
    builder.add_rows(["r0"], "<", 1.0)
    builder.add_entries(np.array([2**32]), 0, 1.0)
    with pytest.raises(ValueError, match="entry row index out of range"):
        builder.build()


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


# ---------------------------------------------------------------------------
# The crash basis: zero-valued artificials handed to structural columns
# ---------------------------------------------------------------------------

def _start_activity(lp, start):
    """A x at ``start``, summed in the order the simplex set-up sums it, so a
    right-hand side set to it leaves a residual of exactly zero."""
    return sp.csc_matrix((lp.entry_vals, (lp.entry_rows, lp.entry_cols)),
                         shape=(lp.n_rows, lp.n_vars)) @ start


@st.composite
def crash_lps(draw):
    """A ``start_lps`` case with some rows made equalities through the start
    point, whose artificials therefore start at exactly zero."""
    lp, feas_tol = draw(start_lps().filter(lambda case: case[0].n_rows > 0))
    start = np.where(np.isfinite(lp.lower), lp.lower,
                     np.where(np.isfinite(lp.upper), lp.upper, 0.0))
    zero = np.array(draw(st.lists(st.booleans(), min_size=lp.n_rows, max_size=lp.n_rows)))
    senses = np.where(zero, "=", np.array(lp.senses, dtype="U1"))
    rhs = np.where(zero, _start_activity(lp, start), lp.rhs)
    return dataclasses.replace(lp, senses=tuple(senses.tolist()), rhs=rhs), feas_tol


@settings(max_examples=300, deadline=None)
@given(crash_lps())
def test_crash_moves_no_value_and_keeps_a_factorable_basis(case):
    lp, feas_tol = case
    simplex = _Simplex(lp, feas_tol, 1e-7, 100)
    x, basis, vstatus = simplex.x.copy(), simplex.basis.copy(), simplex.vstatus.copy()
    simplex._crash()
    assert_same_bytes(simplex.x, x, "x")
    changed = np.flatnonzero(simplex.basis != basis)
    arts, cols = basis[changed], simplex.basis[changed]
    assert np.all(arts >= simplex.n_real) and np.all(x[arts] == 0.0)
    assert np.all(simplex.lower[arts] == 0.0) and np.all(simplex.upper[arts] == 0.0)
    assert np.all(simplex.vstatus[arts] != _BASIC)
    assert np.all(cols < simplex.n_struct) and np.all(vstatus[cols] != _BASIC)
    assert np.all(simplex.vstatus[simplex.basis] == _BASIC)
    assert np.count_nonzero(simplex.vstatus == _BASIC) == lp.n_rows
    dense = simplex.A.toarray()
    assert np.linalg.matrix_rank(dense[:, simplex.basis]) == lp.n_rows
    x_nonbasic = simplex.x.copy()
    x_nonbasic[simplex.basis] = 0.0
    rhs = simplex.b - dense @ x_nonbasic
    got = simplex.factor.ftran(rhs)
    scale = 1.0 + np.abs(rhs).max() + np.abs(simplex.x).max()
    assert np.abs(dense[:, simplex.basis] @ simplex.x[simplex.basis] - rhs).max() <= 1e-9 * scale
    assert np.abs(got - simplex.x[simplex.basis]).max() <= 1e-9 * scale


def _zero_residual_box_lp(rng, max_vars=5, max_rows=5):
    """Like ``generate_box_lp``, but its equality rows pass through both the
    start point (the lower bounds) and an interior point, so the LP stays
    feasible and every equality artificial starts at exactly zero.  The
    equality rows are independent, as the vertex enumeration assumes."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    n_eq = int(rng.integers(1, min(m, n - 1) + 1))
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 4.0, n)
    step = rng.uniform(0.2, 0.8, n) * (upper - lower)
    while True:
        A = np.where(rng.random((m, n)) < 0.6, rng.normal(0, 1.5, (m, n)), 0.0)
        for i in range(n_eq):   # a_i . step = 0 through one entry
            k = int(rng.integers(n))
            A[i, k] = 0.0
            A[i, k] = -(A[i] @ step) / step[k]
        if np.linalg.matrix_rank(A[:n_eq]) == n_eq:
            break
    senses = ["="] * n_eq + [str(s) for s in rng.choice(["<", ">"], size=m - n_eq)]
    pad = np.where(np.array(senses) == "<", 1.0, -1.0) * rng.uniform(0.05, 1.0, m)
    b = A @ (lower + step) + np.where(np.array(senses) == "=", 0.0, pad)
    rows, cols = np.nonzero(A)
    lp = CanonicalLp(objective=rng.normal(0, 1, n), entry_rows=rows, entry_cols=cols,
                     entry_vals=A[rows, cols], senses=senses, rhs=b, lower=lower,
                     upper=upper, integer=[False] * n, var_names=[f"x{j}" for j in range(n)],
                     row_names=[f"r{i}" for i in range(m)])
    eq = np.array(senses) == "="
    return dataclasses.replace(lp, rhs=np.where(eq, _start_activity(lp, lower), b))


def test_crashed_lps_match_vertex_enumeration(monkeypatch):
    crashed = []
    real = _Simplex._crash

    def counting(self):
        before = self.basis.copy()
        real(self)
        crashed.append(int(np.count_nonzero(self.basis != before)))

    monkeypatch.setattr(_Simplex, "_crash", counting)
    rng = np.random.default_rng(2024)
    for _ in range(400):
        lp = _zero_residual_box_lp(rng)
        out = solve(lp)
        assert out.status == "optimal"
        oracle = vertex_enum_optimum(lp)
        assert out.objective == pytest.approx(oracle, rel=1e-9, abs=1e-8)
    assert len(crashed) == 400 and sum(c > 0 for c in crashed) >= 300


def test_storage_lp_with_every_soc_row_crashed_skips_phase_one(monkeypatch):
    # Three periods of price arbitrage: charge pc_t, discharge pd_t, state of
    # charge soc_t on a cycle.  Every soc row starts with a zero residual.
    price, eta = [1.0, 5.0, 2.0], 0.9
    builder = LpBuilder()
    pc = builder.add_vars([f"pc{t}" for t in range(3)], 0.0, 4.0, price)
    pd = builder.add_vars([f"pd{t}" for t in range(3)], 0.0, 4.0, [-p for p in price])
    soc = builder.add_vars([f"soc{t}" for t in range(3)], 0.0, 6.0)
    builder.add_rows([f"soc{t}" for t in range(3)], "=", 0.0,
                     (soc, 1.0), (np.roll(soc, 1), -1.0), (pc, -eta), (pd, 1.0 / eta))
    builder.add_rows([f"power{t}" for t in range(3)], "<", 4.0, (pc, 1.0), (pd, 1.0))
    lp = builder.build()
    phases = []
    real = _Simplex.run_phase

    def recording(self, cost, phase):
        phases.append(phase)
        return real(self, cost, phase)

    monkeypatch.setattr(_Simplex, "run_phase", recording)
    simplex = _Simplex(lp, 1e-7, 1e-7, 1000)
    assert simplex.n_art == 3
    out = simplex.solve()
    assert phases == [2]
    assert np.all(simplex.basis < simplex.n_real)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(vertex_enum_optimum(lp), abs=1e-9)
    assert out.objective < 0.0   # the arbitrage pays


def test_vertex_oracle_rejects_dependent_equality_rows():
    # 5 variables and 4 equality rows of rank 3 (row 3 = row 0 + row 1): every
    # active set holding all four rows is singular, so enumeration would skip
    # the true vertices and report a worse optimum
    rng = np.random.default_rng(12)
    a = rng.normal(0.0, 1.0, (3, 5))
    a = np.vstack([a, a[0] + a[1]])
    b = a @ rng.uniform(0.2, 0.8, 5)
    lp = build_lp(list(rng.normal(0.0, 1.0, 5)), a.tolist(), ["="] * 4, list(b),
                  lower=[0.0] * 5, upper=[1.0] * 5)
    assert np.linalg.matrix_rank(lp.dense_matrix()) == 3
    assert solve(lp).status == "optimal"
    with pytest.raises(ValueError, match="^equality rows are linearly dependent$"):
        vertex_enum_optimum(lp)


# ---------------------------------------------------------------------------
# The eta file up to the refactorisation cadence
# ---------------------------------------------------------------------------

def test_eta_file_matches_dense_solves_up_to_the_cadence():
    rng = np.random.default_rng(11)
    m = 12
    dense = np.eye(m) * 4.0 + np.where(rng.random((m, m)) < 0.2, rng.normal(0, 1, (m, m)), 0.0)
    factor = _Basis(sp.csc_matrix(dense), np.arange(m))
    for k in range(_REFACTOR_EVERY):
        assert len(factor.etas) == k
        for _ in range(2):
            rhs = rng.normal(0, 1, m)
            for got, want in ((factor.ftran(rhs), np.linalg.solve(dense, rhs)),
                              (factor.btran(rhs), np.linalg.solve(dense.T, rhs))):
                assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
        column = np.where(rng.random(m) < 0.3, rng.normal(0, 1, m), 0.0)
        row = int(rng.integers(m))
        column[row] = rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 5.0)
        spike = factor.ftran(column)
        row = int(np.argmax(np.abs(spike)))
        assert factor.push_eta(row, spike) == (k + 1 < _REFACTOR_EVERY)
        dense[:, row] = column


# ---------------------------------------------------------------------------
# Row singletons: rows with one entry off the fixed columns stay rows
# ---------------------------------------------------------------------------

def _with_singleton_rows(rng, lp):
    """``lp`` plus up to two fixed columns and one to four rows with one
    entry off them, of every sense and both signs of a; some rows also carry
    entries on the fixed columns, and some bounds are redundant or cross."""
    n_fixed, n_single = int(rng.integers(0, 3)), int(rng.integers(1, 5))
    n, m = lp.n_vars + n_fixed, lp.n_rows + n_single
    fixed_at = rng.uniform(-1.0, 1.0, n_fixed)
    rows, cols, vals, rhs = [lp.entry_rows], [lp.entry_cols], [lp.entry_vals], [lp.rhs]
    for i in range(lp.n_rows, m):
        j = int(rng.integers(lp.n_vars))
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        on = np.flatnonzero(rng.random(n_fixed) < 0.5)
        f = rng.normal(0.0, 1.0, on.size)
        lo, up = lp.lower[j], lp.upper[j]
        v = lo + rng.uniform(-0.3, 1.3) * (up - lo)
        rows.append(np.full(on.size + 1, i))
        cols.append(np.concatenate([[j], lp.n_vars + on]))
        vals.append(np.concatenate([[a], f]))
        rhs.append([a * v + f @ fixed_at[on]])
    cat = np.concatenate
    return CanonicalLp(
        objective=cat([lp.objective, rng.normal(0.0, 1.0, n_fixed)]),
        entry_rows=cat(rows), entry_cols=cat(cols), entry_vals=cat(vals),
        senses=list(lp.senses) + [str(s) for s in rng.choice(["<", "=", ">"], n_single)],
        rhs=cat(rhs), lower=cat([lp.lower, fixed_at]), upper=cat([lp.upper, fixed_at]),
        integer=[False] * n, var_names=[f"x{j}" for j in range(n)],
        row_names=[f"r{i}" for i in range(m)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_singleton_rows_keep_the_optimum_and_its_duals(seed):
    rng = np.random.default_rng(seed)
    lp = _with_singleton_rows(rng, generate_box_lp(rng, max_vars=4, max_rows=3))
    out = solve(lp)
    assert out.duals.size == lp.n_rows and out.reduced_costs.size == lp.n_vars
    try:
        oracle = vertex_enum_optimum(lp)
    except ValueError:   # dependent equality rows: the oracle does not apply
        oracle = None
    if out.status != "optimal":
        assert out.status == "infeasible" and oracle in (None, math.inf)
        return
    if oracle is not None:
        assert out.objective == pytest.approx(oracle, rel=1e-9, abs=1e-8)
    assert dual_objective(lp, out) == pytest.approx(out.objective, abs=1e-6)
    slack = lp.rhs - lp.dense_matrix() @ out.x
    for i in range(lp.n_rows):
        assert abs(out.duals[i] * slack[i]) <= 1e-6 * (1 + abs(out.duals[i]))
        if lp.senses[i] == "<":
            assert out.duals[i] <= 1e-9
        elif lp.senses[i] == ">":
            assert out.duals[i] >= -1e-9


def test_lp_of_singleton_rows_only_gets_every_dual():
    # x0 <= 2, x1 >= 0.5 (as -2 x1 <= -1), 3 x2 + x3 = 2.5 with x3 fixed at 1,
    # and x0 >= -4, which the box [-1, 5] already implies
    lp = build_lp([-1.0, 2.0, 1.0, 1.0, 1.0],
                  [[1, 0, 0, 0, 0], [0, -2, 0, 0, 0], [0, 0, 3, 1, 0], [1, 0, 0, 0, 0]],
                  ["<", "<", "=", ">"], [2.0, -1.0, 2.5, -4.0],
                  lower=[-1.0, 0.0, -5.0, 1.0, 0.0], upper=[5.0, 4.0, 5.0, 1.0, 3.0])
    out = solve(lp)
    assert out.status == "optimal"
    np.testing.assert_allclose(out.x, [2.0, 0.5, 0.5, 1.0, 0.0], atol=1e-12)
    assert out.objective == pytest.approx(-2.0 + 1.0 + 0.5 + 1.0, abs=1e-12)
    np.testing.assert_allclose(out.duals, [-1.0, -1.0, 1.0 / 3.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out.reduced_costs, lp.objective - lp.dense_matrix().T @ out.duals,
                               atol=1e-12)


def test_crossing_singleton_rows_stay_rows():
    # x0 <= 1 and x0 >= 2 cross, so the LP is infeasible
    lp = build_lp([1.0, -1.0], [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ["<", ">", "<"],
                  [1.0, 2.0, 3.0], upper=[5.0, 5.0])
    out = solve(lp)
    assert out.status == "infeasible" and np.all(out.duals == 0.0) and out.duals.size == 3


def test_removed_row_of_a_column_off_its_bound_gets_no_dual():
    # stopped before the first pivot, x0 sits at 0 with d < 0 and x0 <= 2 is slack
    lp = build_lp([-1.0, -1.0], [[1.0, 1.0], [1.0, 0.0]], ["<", "<"], [3.0, 2.0],
                  upper=[5.0, 5.0])
    out = solve(lp, iteration_limit=0)
    assert out.status == "iteration_limit" and out.x[0] == 0.0
    assert out.duals[1] == 0.0
    np.testing.assert_array_equal(out.reduced_costs, lp.objective - lp.dense_matrix().T @ out.duals)


# ---------------------------------------------------------------------------
# Artificials left basic after phase one
# ---------------------------------------------------------------------------

def _lp_of(A, senses, b, c, lower, upper):
    rows, cols = np.nonzero(A)
    return CanonicalLp(objective=c, entry_rows=rows, entry_cols=cols, entry_vals=A[rows, cols],
                       senses=senses, rhs=b, lower=lower, upper=upper,
                       integer=[False] * len(c), var_names=[f"x{j}" for j in range(len(c))],
                       row_names=[f"r{i}" for i in range(len(b))])


def _with_repeated_equalities(rng):
    """A feasible, bounded LP with one to four equality rows, and the same LP
    with each equality row repeated once or twice (some copies scaled by 2)
    and its rows shuffled.  The copies are redundant, so phase one cannot
    drive out every artificial of a repeated row."""
    n = int(rng.integers(2, 6))
    n_eq, n_in = int(rng.integers(1, min(n - 1, 4) + 1)), int(rng.integers(0, 4))
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 4.0, n)
    x0 = lower + rng.uniform(0.2, 0.8, n) * (upper - lower)
    A = np.where(rng.random((n_eq + n_in, n)) < 0.8, rng.normal(0, 1.5, (n_eq + n_in, n)), 0.0)
    senses = ["="] * n_eq + [str(s) for s in rng.choice(["<", ">"], n_in)]
    side = np.array([{"=": 0.0, "<": 1.0, ">": -1.0}[s] for s in senses])
    b = A @ x0 + side * rng.uniform(0.05, 1.0, n_eq + n_in)
    c = rng.normal(0, 1, n)
    copies = [i for i in range(n_eq) for _ in range(int(rng.integers(1, 3)))]
    scale = rng.choice([1.0, 2.0], len(copies))
    order = rng.permutation(n_eq + n_in + len(copies))
    repeated = _lp_of(np.vstack([A, scale[:, None] * A[copies]])[order],
                      [(senses + ["="] * len(copies))[i] for i in order],
                      np.concatenate([b, scale * b[copies]])[order], c, lower, upper)
    return _lp_of(A, senses, b, c, lower, upper), repeated


def test_repeated_equality_rows_keep_the_optimum_and_valid_duals(monkeypatch):
    artificial_basic = []   # per phase two: whether it starts with an artificial basic
    real = _Simplex.run_phase

    def recording(self, cost, phase):
        if phase == 2:
            artificial_basic.append(bool(np.any(self.basis >= self.n_real)))
        return real(self, cost, phase)

    monkeypatch.setattr(_Simplex, "run_phase", recording)
    rng = np.random.default_rng(7)
    started_with_one = 0
    for _ in range(300):
        lp, repeated = _with_repeated_equalities(rng)
        want = solve(lp)
        got = solve(repeated)
        started_with_one += artificial_basic[-1]
        assert want.status == got.status == "optimal"
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(
            got.reduced_costs, repeated.objective - repeated.dense_matrix().T @ got.duals,
            rtol=0.0, atol=1e-9)
        assert dual_objective(repeated, got) == pytest.approx(got.objective, abs=1e-7)
    assert started_with_one >= 100


def _sizing_lp(tmp_path, monkeypatch):
    """The instance and LP of a small ``synth`` pipeline run with hydro on
    and a CO2 budget at 60 % of an all-gas supply."""
    gen_synthetic(tmp_path / "data", 3, n_sites=6, n_partitions=2, n_periods=96)
    demand = fileio.read_series_csv(tmp_path / "data" / "demand.csv", 1.0)
    all_gas = sum(float(s.values.sum()) for s in demand.values()) * 0.225 / 0.41
    config = {
        "paths": {name: f"data/{name}.csv" for name in
                  ("wind_speeds", "demand", "runoff", "hydro_params")}
        | {"catalog": "data/sites.csv", "output_dir": "out"},
        "resample_factor": 3,
        "siting": {"targets_MW": {"P1": 2000.0, "P2": 2000.0},
                   "anneal": {"iterations": 5, "neighbors": 5}, "n_runs": 1},
        "cep": {"reserve_margin": 0.2, "shed_penalty": 500.0, "co2_budget_fraction": 0.6,
                "co2_baseline_emissions": all_gas},
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    built = []
    real = cli.build_lp
    monkeypatch.setattr(cli, "build_lp",
                        lambda instance: built.append((instance, real(instance))) or built[-1][1])
    assert cli.main(["pipeline", str(tmp_path / "config.json")]) == 0
    return built[0][0], built[0][1][0]


def test_pipeline_lp_has_no_limit_row_with_one_free_entry(tmp_path, monkeypatch):
    instance, lp = _sizing_lp(tmp_path, monkeypatch)
    techs = {name.split("|")[2] for name in lp.var_names if name.startswith(("p|", "pd|"))}
    assert {"ror_hydro", "reservoir_hydro", "pumped_hydro"} <= techs   # hydro is on
    assert limit_rows_with_one_free_entry(lp) == []
    # the same model with every limit a row solves to the same optimum and CO2 price
    rows, _ = cep_oracle.build_lp_rows(instance)
    assert rows.n_rows > lp.n_rows
    got, want = solve(lp), solve(rows)
    assert got.status == want.status == "optimal"
    assert got.objective == pytest.approx(want.objective, rel=1e-9)
    co2 = want.duals[rows.row_names.index("co2")]
    assert co2 != 0.0 and got.duals[lp.row_names.index("co2")] == pytest.approx(co2, rel=1e-9)
    assert dual_objective(lp, got) == pytest.approx(got.objective, rel=1e-9)


# ---------------------------------------------------------------------------
# Kernel factorisation: column singletons by substitution, the rest by splu
# ---------------------------------------------------------------------------

def _mixed_columns(rng, m):
    """m slack columns, m one-entry structural columns and m kernel columns."""
    singles = np.zeros((m, m))
    singles[np.arange(m), rng.permutation(m)] = rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 3, m)
    kernel = np.eye(m) * 4.0 + np.where(rng.random((m, m)) < 0.3, rng.normal(0, 1, (m, m)), 0.0)
    return np.hstack([np.eye(m), singles, kernel])


@pytest.mark.parametrize("mix", ["mixed", "all singletons", "no singleton"])
def test_kernel_factorisation_matches_dense_solves_up_to_the_cadence(mix, monkeypatch):
    rng = np.random.default_rng({"mixed": 3, "all singletons": 4, "no singleton": 5}[mix])
    m = 12
    A = _mixed_columns(rng, m)
    covers = np.argmax(A[:, : 2 * m] != 0.0, axis=0)   # the row of each singleton column
    if mix == "no singleton":
        basis = 2 * m + np.arange(m)
    else:
        slacks = rng.permutation(m)[: m // 3]
        structs = [j for j in m + rng.permutation(m) if covers[j] not in slacks][: m // 3]
        singles = np.concatenate([slacks, structs]).astype(np.intp)
        if mix == "all singletons":
            free = np.setdiff1d(np.arange(m), covers[singles])
            singles = np.concatenate([singles, free])   # slacks for the rows left
        kernel = 2 * m + np.setdiff1d(np.arange(m), covers[singles])
        basis = np.concatenate([singles, kernel]).astype(np.intp)
        rng.shuffle(basis)
    calls = []
    real = spla.splu
    monkeypatch.setattr(spla, "splu", lambda mat: calls.append(mat.shape) or real(mat))
    factor = _Basis(sp.csc_matrix(A), basis)
    n_single = int(np.count_nonzero(basis < 2 * m))
    assert calls == ([] if n_single == m else [(m - n_single, m - n_single)])
    dense = A[:, basis]
    for k in range(_REFACTOR_EVERY):
        assert len(factor.etas) == k
        for _ in range(2):
            rhs = rng.normal(0, 1, m)
            for got, want in ((factor.ftran(rhs), np.linalg.solve(dense, rhs)),
                              (factor.btran(rhs), np.linalg.solve(dense.T, rhs))):
                assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
        column = A[:, int(rng.integers(3 * m))]
        spike = factor.ftran(column)
        row = int(np.argmax(np.abs(spike)))
        assert factor.push_eta(row, spike) == (k + 1 < _REFACTOR_EVERY)
        dense[:, row] = column


def test_two_singletons_on_one_row_make_the_basis_singular():
    A = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(RuntimeError, match="singular"):
        _Basis(A, np.array([0, 1, 2]))
