"""The MPS writer against an independent reader: HiGHS as bundled with scipy
(``scipy.optimize._highspy._core``, scipy 1.15 and later).  Every file
written must read with the LP's column and row counts and solve to the
optimum of :func:`windplan.lp.solve` within 1e-9 relative, and HiGHS's
solution, written under the column names it read, must import against the
LP's own names."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings, strategies as st

from test_assembly import cep_instances, comp_mir_case
from windplan.cep import build_lp
from windplan.lp import solve
from windplan.mps import export_mps, import_solution, write_solution
from windplan.siting import build_comp_mir

try:
    from scipy.optimize._highspy import _core
except ImportError:
    _core = None

pytestmark = pytest.mark.skipif(
    _core is None, reason=f"scipy {scipy.__version__} has no scipy.optimize._highspy._core "
                          "(it came with scipy 1.15)")


def highs_solved(lp, relax: bool = False):
    """HiGHS after it read the LP written by ``export_mps`` and solved it
    (to optimality, checked), with the counts and integer columns it read
    checked."""
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    with tempfile.TemporaryDirectory() as tmp:
        status = highs.readModel(str(export_mps(lp, Path(tmp) / f"{lp.name}.mps")))
    assert status != _core.HighsStatus.kError
    assert (highs.getNumCol(), highs.getNumRow()) == (lp.n_vars, lp.n_rows)
    integer = [kind == _core.HighsVarType.kInteger for kind in highs.getLp().integrality_]
    assert (integer or [False] * lp.n_vars) == lp.integer.tolist()   # none read: all continuous
    highs.setOptionValue("solve_relaxation", relax)
    highs.run()
    assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal
    return highs


def highs_optimum(lp, relax: bool = False):
    return highs_solved(lp, relax).getInfo().objective_function_value


def assert_same_optimum(got: float, want: float) -> None:
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (got, want)


@settings(max_examples=60, deadline=None)
@given(cep_instances())
def test_highs_reads_cep_exports(instance):
    lp, _ = build_lp(instance)
    ours = solve(lp)
    assume(ours.status == "optimal")
    assert_same_optimum(highs_optimum(lp), ours.objective)


@settings(max_examples=30, deadline=None)
@given(cep_instances())
def test_highs_solution_imports_under_the_lp_names(tmp_path_factory, instance):
    """The external-solver loop closes with no names table: HiGHS's primal
    values, written under the column names it read, import against
    ``lp.var_names`` with none missing or unknown, at our optimum."""
    lp, _ = build_lp(instance)
    ours = solve(lp)
    assume(ours.status == "optimal")
    highs = highs_solved(lp)
    path = write_solution(tmp_path_factory.mktemp("sol") / "cep.sol", highs.getLp().col_names_,
                          highs.getSolution().col_value)
    solution, report = import_solution(path, lp.var_names, lp)
    assert report.missing == [] and report.unknown == []
    assert_same_optimum(solution.objective, ours.objective)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3), st.integers(0, 2**32 - 1),
       st.integers(1, 30), st.floats(0.0, 1.0))
def test_highs_reads_the_comp_mir_and_solves_its_relaxation(sizes, seed, n_windows, density):
    mir = build_comp_mir(*comp_mir_case(sizes, seed, n_windows, density))
    assert mir.integer.any()
    ours = solve(dataclasses.replace(mir, integer=np.zeros(mir.n_vars, dtype=bool)))
    assert ours.status == "optimal"
    assert_same_optimum(highs_optimum(mir, relax=True), ours.objective)
