"""Vertex-enumeration oracle, reference simplex set-up and random LP
generator for solver tests.

The oracle enumerates every candidate active set (equality rows always
active, plus a choice of inequality rows and variable bounds totalling the
variable count), solves the square system, keeps feasible points and
returns the best objective.  Interior-point free and independent of the
simplex code path.

:func:`reference_start_state`, :func:`reference_dual_bound` and
:func:`reference_solve_unconstrained` are the simplex's earlier per-row and
per-variable loops, kept verbatim as the reference its array code is
checked against.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np
import scipy.sparse as sp

from windplan.lp import _AT_LOWER, _AT_UPPER, _BASIC, _FREE, LpBuilder, LpSolution


def generate_box_lp(rng, max_vars=8, max_rows=8):
    """Random feasible, bounded LP: finite box plus padded rows."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    A = np.where(rng.random((m, n)) < 0.8, rng.normal(0, 1.5, (m, n)), 0.0)
    senses = [str(s) for s in rng.choice(["<", ">", "=", "<"], size=m)]
    # keep the equality block under-determined so vertices stay enumerable
    eq_budget = n - 1
    for i in range(m):
        if senses[i] == "=":
            if eq_budget == 0:
                senses[i] = "<"
            else:
                eq_budget -= 1
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 4.0, n)
    x0 = lower + rng.uniform(0.2, 0.8, n) * (upper - lower)
    pad = rng.uniform(0.05, 1.0, m)
    b = A @ x0
    b = np.array([
        b[i] + pad[i] if senses[i] == "<" else b[i] - pad[i] if senses[i] == ">" else b[i]
        for i in range(m)
    ])
    c = rng.normal(0, 1, n)
    builder = LpBuilder(name="rand")
    for j in range(n):
        builder.add_var(f"x{j}", float(lower[j]), float(upper[j]), float(c[j]))
    for i in range(m):
        row = builder.add_row(f"r{i}", senses[i], float(b[i]))
        for j in range(n):
            if A[i, j] != 0.0:
                builder.add_entry(row, j, float(A[i, j]))
    return builder.build()


def vertex_enum_optimum(lp, tol=1e-9):
    """Minimum objective over all vertices of the feasible polytope.

    Linearly dependent equality rows make every active set that holds them
    singular, so the true vertices would be skipped: they raise
    ``ValueError`` instead.
    """
    n, m = lp.n_vars, lp.n_rows
    A = lp.dense_matrix()
    eq_rows = [i for i in range(m) if lp.senses[i] == "="]
    if eq_rows and np.linalg.matrix_rank(A[eq_rows]) < len(eq_rows):
        raise ValueError("equality rows are linearly dependent")
    ineq_rows = [i for i in range(m) if lp.senses[i] != "="]
    best = np.inf
    free_after_eq = n - len(eq_rows)
    if free_after_eq < 0:
        free_after_eq = 0
    for k in range(0, min(len(ineq_rows), free_after_eq) + 1):
        n_bound = free_after_eq - k
        for rows in combinations(ineq_rows, k):
            active_rows = list(eq_rows) + list(rows)
            for bound_vars in combinations(range(n), n_bound):
                for signs in product((0, 1), repeat=n_bound):
                    mat = np.zeros((n, n))
                    rhs = np.zeros(n)
                    for r, i in enumerate(active_rows):
                        mat[r] = A[i]
                        rhs[r] = lp.rhs[i]
                    for p, (j, s) in enumerate(zip(bound_vars, signs)):
                        r = len(active_rows) + p
                        mat[r, j] = 1.0
                        rhs[r] = lp.upper[j] if s else lp.lower[j]
                    try:
                        x = np.linalg.solve(mat, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
                        continue
                    act = A @ x
                    feasible = True
                    for i in range(m):
                        if lp.senses[i] == "<" and act[i] > lp.rhs[i] + tol:
                            feasible = False
                        elif lp.senses[i] == ">" and act[i] < lp.rhs[i] - tol:
                            feasible = False
                        elif lp.senses[i] == "=" and abs(act[i] - lp.rhs[i]) > tol:
                            feasible = False
                        if not feasible:
                            break
                    if feasible:
                        best = min(best, float(lp.objective @ x))
    return best


def dual_objective(lp, solution, opt_tol=1e-7):
    """Lagrangian dual value from row duals plus reduced-cost bound terms."""
    total = float(solution.duals @ lp.rhs)
    for j in range(lp.n_vars):
        dj = solution.reduced_costs[j]
        if abs(dj) <= opt_tol:
            continue
        bound = lp.lower[j] if dj > 0 else lp.upper[j]
        if not np.isfinite(bound):
            return -np.inf
        total += dj * bound
    return total


def reference_start_state(lp, feas_tol=1e-7) -> dict:
    """The simplex's phase-one start: working matrix ``A`` (structural
    columns, one slack per inequality row, then one artificial per row its
    slack cannot absorb), ``b``, bounds, point, statuses, basis, ``n_art``."""
    m, n = lp.n_rows, lp.n_vars
    slack_rows = [i for i, s in enumerate(lp.senses) if s != "="]
    rows = list(lp.entry_rows)
    cols = list(lp.entry_cols)
    vals = list(lp.entry_vals)
    lower = [np.array(lp.lower)]
    upper = [np.array(lp.upper)]
    for k, i in enumerate(slack_rows):
        rows.append(i)
        cols.append(n + k)
        vals.append(1.0)
        if lp.senses[i] == "<":
            lower.append([0.0]); upper.append([math.inf])
        else:
            lower.append([-math.inf]); upper.append([0.0])
    n_real = n + len(slack_rows)
    slack_of_row = {row: n + k for k, row in enumerate(slack_rows)}
    b = np.array(lp.rhs)

    lower = np.concatenate(lower)
    upper = np.concatenate(upper)
    x = np.where(np.isfinite(lower), lower,
                 np.where(np.isfinite(upper), upper, 0.0))
    status = np.where(np.isfinite(lower), _AT_LOWER,
                      np.where(np.isfinite(upper), _AT_UPPER, _FREE))
    partial = sp.csc_matrix(
        (vals, (rows, cols)), shape=(m, n_real), dtype=np.float64
    )
    residual = b - partial @ x

    basis = np.empty(m, dtype=np.intp)
    art_signs: list[float] = []
    art_rows: list[int] = []
    for i in range(m):
        slack = slack_of_row.get(i)
        if slack is not None and (
            (lp.senses[i] == "<" and residual[i] >= -feas_tol)
            or (lp.senses[i] == ">" and residual[i] <= feas_tol)
        ):
            x[slack] = residual[i]
            basis[i] = slack
        else:
            art_rows.append(i)
            art_signs.append(1.0 if residual[i] >= 0 else -1.0)
            basis[i] = n_real + len(art_rows) - 1
    n_art = len(art_rows)
    if n_art:
        rows.extend(art_rows)
        cols.extend(n_real + np.arange(n_art))
        vals.extend(art_signs)
        lower = np.concatenate([lower, np.zeros(n_art)])
        upper = np.concatenate([upper, np.full(n_art, math.inf)])
        x = np.concatenate([x, np.abs(residual[art_rows])])
        status = np.concatenate([status, np.full(n_art, _AT_LOWER, dtype=status.dtype)])
        for i, row in enumerate(art_rows):
            status[n_real + i] = _BASIC
    for i in range(m):
        if basis[i] < n_real:
            status[basis[i]] = _BASIC
    A = sp.csc_matrix(
        (vals, (rows, cols)), shape=(m, n_real + n_art), dtype=np.float64
    )
    return {"A": A, "b": b, "lower": lower, "upper": upper, "x": x, "vstatus": status,
            "basis": basis, "n_art": n_art, "n_real": n_real}


def reference_dual_bound(lower, upper, b, opt_tol, y, d) -> float:
    """Lagrangian bound y'b + sum_j min over [l_j, u_j] of d_j x_j, summed
    one variable at a time."""
    total = float(y @ b) if y.size else 0.0
    active = np.flatnonzero(np.abs(d) > opt_tol)
    for j in active:
        bound = lower[j] if d[j] > 0 else upper[j]
        if math.isinf(bound):
            return -math.inf
        total += d[j] * bound
    return total


def reference_solve_unconstrained(lp) -> LpSolution:
    """An LP without rows, solved one variable at a time."""
    x = np.zeros(lp.n_vars)
    for j in range(lp.n_vars):
        c = lp.objective[j]
        if c > 0:
            if not math.isfinite(lp.lower[j]):
                return LpSolution("unbounded", x, np.zeros(0), np.array(lp.objective), math.nan)
            x[j] = lp.lower[j]
        elif c < 0:
            if not math.isfinite(lp.upper[j]):
                return LpSolution("unbounded", x, np.zeros(0), np.array(lp.objective), math.nan)
            x[j] = lp.upper[j]
        else:
            if math.isfinite(lp.lower[j]) and lp.lower[j] > 0:
                x[j] = lp.lower[j]
            elif math.isfinite(lp.upper[j]) and lp.upper[j] < 0:
                x[j] = lp.upper[j]
    objective = float(lp.objective @ x) if x.size else 0.0
    return LpSolution("optimal", x, np.zeros(0), np.array(lp.objective), objective)
