import hashlib
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mps_oracle
from helpers import build_catalog, plan_for, random_matrix
from windplan import cli, mps
from windplan.cli import main as cli_main
from windplan.lp import SENSES, CanonicalLp, LpBuilder, Names, solve
from windplan.mps import export_mps, import_mps, import_solution, mangle_names, write_solution
from windplan.resource import CriticalityMatrix
from windplan.siting import build_comp_mir, coverage_count, mir_solution_to_init
from windplan.synth import gen_synthetic


def random_lp(rng, short_names=True):
    n = int(rng.integers(1, 10))
    m = int(rng.integers(0, 10))
    builder = LpBuilder(name=f"rand{int(rng.integers(0, 999))}")
    for j in range(n):
        lo = float(round(rng.uniform(-3, 0), 6)) if rng.random() < 0.7 else -math.inf
        up = float(round(rng.uniform(0.5, 4), 6)) if rng.random() < 0.7 else math.inf
        if rng.random() < 0.1 and math.isfinite(up):
            lo = up
        if lo > up:
            lo, up = up, lo
        name = f"x{j}" if short_names else f"very_long_variable_name_{j}_padding"
        builder.add_var(name, lo, up, float(round(rng.normal(), 6)),
                        integer=bool(rng.random() < 0.3))
    for i in range(m):
        name = f"r{i}" if short_names else f"extremely_long_row_name_{i}_padding"
        r = builder.add_row(name, str(rng.choice(["<", "=", ">"])),
                            float(round(rng.normal(0, 3), 6)))
        for j in range(n):
            if rng.random() < 0.6:
                builder.add_entry(r, j, float(round(rng.normal(0, 2), 6)))
    return builder.build()


def assert_same_lp(a, b):
    """The same LP, each value to the 12 significant digits a file holds."""
    assert a.var_names == b.var_names
    assert a.row_names == b.row_names
    assert a.senses == b.senses
    assert np.array_equal(a.integer, b.integer)
    assert np.array_equal(a.entry_rows, b.entry_rows)
    assert np.array_equal(a.entry_cols, b.entry_cols)
    for attr in ("objective", "rhs", "lower", "upper", "entry_vals"):
        assert getattr(b, attr).tolist() == [float(f"{value:.12g}")
                                             for value in getattr(a, attr).tolist()]


def test_round_trip_identity(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(15):
        lp = random_lp(rng)
        path = tmp_path / f"t{trial}.mps"
        export_mps(lp, path)
        assert_same_lp(lp, import_mps(path))


def test_empty_lp_round_trip(tmp_path):
    lp = LpBuilder(name="empty").build()
    path = export_mps(lp, tmp_path / "empty.mps")
    text = path.read_text()
    assert "COLUMNS" in text and "ENDATA" in text
    back = import_mps(path)
    assert back.n_vars == 0 and back.n_rows == 0


def test_long_names_round_trip_as_written(tmp_path):
    lp = random_lp(np.random.default_rng(2), short_names=False)
    path = export_mps(lp, tmp_path / "long.mps")
    assert_same_lp(lp, import_mps(path))
    assert not (tmp_path / "long.mps.names.json").exists()
    assert f" {lp.var_names[0]} COST " in path.read_text(encoding="utf-8")


@pytest.mark.parametrize("columns, rows, refused", [
    (["x"], ["COST"], "row name 'COST' to MPS: it names the objective row"),
    ([""], ["r"], "column name '' to MPS: it is empty"),
    (["x"], [""], "row name '' to MPS: it is empty"),
    (["a b"], ["r"], "column name 'a b' to MPS: it holds whitespace"),
    (["x"], ["r 1"], "row name 'r 1' to MPS: it holds whitespace"),
    (["x\u3000y"], ["r"], r"column name 'x\u3000y' to MPS: it holds whitespace"),
    (["x\x1c"], ["r"], r"column name 'x\x1c' to MPS: it holds whitespace"),
    (["x", "x"], ["r"], "column name 'x' to MPS: it repeats"),
    (["x"], ["r", "q", "r"], "row name 'r' to MPS: it repeats"),
    (Names.concat([Names.family("a", [1]), Names.of(["a|1"])]), ["r"],
     "column name 'a|1' to MPS: it repeats"),
    (["x"], Names.concat([Names.of(["b|7|2"]), Names.family("b|7", [2])]),
     "row name 'b|7|2' to MPS: it repeats"),
], ids=["row-named-like-the-objective", "empty-column", "empty-row", "spaced-column",
        "spaced-row", "ideographic-space", "separator-control", "repeated-column",
        "repeated-row", "family-and-bare-column", "bare-and-family-row"])
def test_names_the_file_cannot_hold_are_refused(tmp_path, columns, rows, refused):
    """An empty name, one holding whitespace, a row named like the
    objective row and a name repeated within its kind would each misread;
    the export refuses them before it opens the file."""
    n, m = len(columns), len(rows)
    lp = CanonicalLp(objective=np.ones(n), entry_rows=[0], entry_cols=[0], entry_vals=[2.0],
                     senses=["<"] * m, rhs=np.full(m, 3.0), lower=np.zeros(n),
                     upper=np.full(n, 4.0), integer=np.zeros(n, dtype=bool), var_names=columns,
                     row_names=rows)
    path = tmp_path / "one.mps"
    with pytest.raises(ValueError) as info:
        export_mps(lp, path)
    assert str(info.value) == f"cannot write the {refused}"
    assert not path.exists()


@pytest.mark.parametrize("columns, rows", [
    (["COST", "x"], ["x", "COST|0"]),
    (Names.concat([Names.family("a", [1]), Names.of(["a|01", "a|1|1", "|1"])]),
     Names.family("a", [1, 2])),
], ids=["cost-column-and-shared-names", "near-families"])
def test_names_the_file_can_hold_round_trip(tmp_path, columns, rows):
    """A column named like the objective row, a column and a row sharing a
    name, and names that only look like another family's item."""
    n, m = len(columns), len(rows)
    lp = CanonicalLp(objective=np.arange(n) + 1.0, entry_rows=range(m), entry_cols=[0] * m,
                     entry_vals=np.ones(m), senses=["<"] * m, rhs=np.full(m, 3.0),
                     lower=np.zeros(n), upper=np.full(n, 4.0), integer=np.zeros(n, dtype=bool),
                     var_names=columns, row_names=rows)
    assert_same_lp(lp, import_mps(export_mps(lp, tmp_path / "held.mps")))
    assert mangle_names(columns) == (list(lp.var_names), {})
    assert_same_files(lp, tmp_path)


def test_comp_mir_export_structure(tmp_path):
    catalog = build_catalog(np.full((4, 6), 0.5), "P")
    m = random_matrix(np.random.default_rng(5), 4, 5, c=2)
    m = CriticalityMatrix(m.n_windows, m.n_sites, m.packed_rows, 2, 1,
                          tuple(catalog.index_of))
    lp = build_comp_mir(m, catalog, plan_for(catalog, {"P": 2}))
    path = export_mps(lp, tmp_path / "mir.mps")
    back = import_mps(path)
    x_cols = [j for j, n in enumerate(back.var_names) if n.startswith("x|")]
    y_cols = [j for j, n in enumerate(back.var_names) if n.startswith("y|")]
    assert len(x_cols) == 4
    assert all(back.integer[j] for j in x_cols)
    assert len(y_cols) == 5
    assert all(not back.integer[j] for j in y_cols)
    assert all(back.lower[j] == 0.0 and back.upper[j] == 1.0 for j in y_cols)
    text = path.read_text()
    assert "'INTORG'" in text and "'INTEND'" in text


def test_solution_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    lp = random_lp(rng)
    x = rng.normal(size=lp.n_vars)
    path = write_solution(tmp_path / "sol.txt", lp.var_names, x)
    sol, report = import_solution(path, lp.var_names, lp)
    assert np.array_equal(sol.x, x)
    assert report.missing == [] and report.unknown == []
    assert sol.objective == pytest.approx(float(lp.objective @ x))


@pytest.mark.parametrize("names, values, refused", [
    (["a", "a b"], [1.0, 2.0], "'a b'"),
    (["a", "#c"], [1.0, 2.0], "'#c'"),
    (["", "b"], [1.0, 2.0], "''"),
    (["a", "b\u2028"], [1.0, 2.0], repr("b\u2028")),
    (["a", "b"], [1.0, math.nan], "nan"),
    (["a", "b"], [-math.inf, 1.0], "-inf"),
], ids=["space", "hash", "empty", "line-separator", "nan", "minus-inf"])
def test_write_solution_refuses_what_import_cannot_read_back(tmp_path, names, values, refused):
    with pytest.raises(ValueError, match=f"cannot write .*{re.escape(refused)}"):
        write_solution(tmp_path / "sol.txt", names, values)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("values", [[1.0], [1.0, 2.0, 3.0]], ids=["short", "long"])
def test_write_solution_refuses_a_value_count_other_than_the_name_count(tmp_path, values):
    with pytest.raises(ValueError):
        write_solution(tmp_path / "sol.txt", ["a", "b"], values)
    assert not list(tmp_path.iterdir())


def test_solution_missing_and_unknown(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text("a 1.5\nzz 9.0\n# comment\n\n", encoding="utf-8")
    sol, report = import_solution(path, ["a", "b"])
    assert sol.x.tolist() == [1.5, 0.0]
    assert report.missing == ["b"]
    assert report.unknown == ["zz"]


def test_solution_malformed_line_number(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text("a 1.5\nbroken line here\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        import_solution(path, ["a"])
    path.write_text("a notanumber\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1:"):
        import_solution(path, ["a"])


def test_external_milp_to_siting_init(tmp_path):
    # 4-site toy: export the MIR, fake an external solver's incumbent,
    # read it back as a search initialisation
    catalog = build_catalog(np.full((4, 6), 0.5), "P")
    bits = np.array([
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 1, 1, 1, 1],
    ], dtype=bool)
    m = CriticalityMatrix.from_bool(bits, 1, 1, tuple(catalog.index_of))
    plan = plan_for(catalog, {"P": 2})
    lp = build_comp_mir(m, catalog, plan)
    export_mps(lp, tmp_path / "mir.mps")
    lines = ["x|s00 0", "x|s01 0", "x|s02 1", "x|s03 1"]
    lines += [f"y|{w} 1" for w in range(5)]
    (tmp_path / "mir.sol").write_text("\n".join(lines) + "\n", encoding="utf-8")
    sol, report = import_solution(tmp_path / "mir.sol", lp.var_names, lp)
    values = dict(zip(lp.var_names, sol.x))
    init = mir_solution_to_init(values, m, catalog, plan)
    assert init.selected == {"s02", "s03"}
    assert init.objective == coverage_count(m, {"s02", "s03"}) == 5


def test_ranges_rejected(tmp_path):
    path = tmp_path / "r.mps"
    path.write_text(
        "NAME          t\nROWS\n N  COST\n L  r0\nCOLUMNS\n    x0  COST  1.0  r0  1.0\n"
        "RHS\n    RHS  r0  1.0\nRANGES\n    RNG  r0  0.5\nBOUNDS\nENDATA\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="RANGES"):
        import_mps(path)


def test_solve_after_round_trip_agrees(tmp_path):
    rng = np.random.default_rng(9)
    from lp_oracle import generate_box_lp

    lp = generate_box_lp(rng)
    path = export_mps(lp, tmp_path / "solveme.mps")
    back = import_mps(path)
    a, b = solve(lp), solve(back)
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, abs=1e-9)


# ---------------------------------------------------------------------------
# The array-based writer against the line-at-a-time oracle
# ---------------------------------------------------------------------------

# Names a free MPS file holds: no whitespace, not empty; "|", digits and
# text outside ASCII, short and long
NAME_CHARS = st.sampled_from(list("ab_|Z09~'") + ["é", "Ω", "中", "😀"])
NAMES = st.one_of(st.text(NAME_CHARS, min_size=1, max_size=8),
                  st.text(NAME_CHARS, min_size=9, max_size=30), st.sampled_from(["COST", "x|1"]),
                  st.text(min_size=1, max_size=12).filter(lambda text: text.split() == [text]))
# signed zeros, and values whose .12g text runs long
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, -1.23456789012e-05,
                                    123456789012345.0, 1e300, -5e-324]),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def bounds(draw):
    low, high = sorted([draw(VALUES), draw(VALUES)])
    return draw(st.sampled_from([
        (-math.inf, math.inf), (-math.inf, high), (low, math.inf), (low, low), (low, high),
        (-0.0, 0.0), (0.0, -0.0), (-math.inf, -math.inf), (math.inf, math.inf)]))


@st.composite
def canonical_lps(draw):
    n, m = draw(st.integers(0, 10)), draw(st.integers(0, 8))
    columns = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    # unique among the rows, some shared with the columns, none named "COST"
    rows = draw(st.lists(st.one_of(NAMES, st.sampled_from(columns or ["c"])).filter(
        lambda name: name != "COST"), min_size=m, max_size=m, unique=True))
    cells = draw(st.lists(st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, max(n - 1, 0))),
                          unique=True, max_size=m * n))
    box = draw(st.lists(bounds(), min_size=n, max_size=n))
    rhs = st.just(0.0) if draw(st.booleans()) else VALUES

    def sized(strategy, size):
        return draw(st.lists(strategy, min_size=size, max_size=size))

    return CanonicalLp(
        objective=sized(VALUES, n), entry_rows=[r for r, _ in cells],
        entry_cols=[c for _, c in cells], entry_vals=sized(VALUES, len(cells)),
        senses=sized(st.sampled_from(SENSES), m), rhs=sized(rhs, m),
        lower=[low for low, _ in box], upper=[high for _, high in box],
        integer=sized(st.booleans(), n), var_names=columns, row_names=rows,
        # a name that would not read back as written is refused
        name=draw(st.text(min_size=1, max_size=60).filter(
            lambda text: "".join(text.splitlines()) == text == text.strip())))


def assert_same_files(lp, tmp):
    got = export_mps(lp, Path(tmp) / "got.mps", comments=["c", "ç"])
    want = mps_oracle.export_mps(lp, Path(tmp) / "want.mps", comments=["c", "ç"])
    assert got.read_bytes() == want.read_bytes()
    assert_same_lp(lp, import_mps(got))


@settings(max_examples=200, deadline=None)
@given(canonical_lps())
# the longest .12g text, under a column named like the objective row
@example(CanonicalLp(objective=[-5e-324], entry_rows=[0], entry_cols=[0], entry_vals=[1.0],
                     senses=["<"], rhs=[0.0], lower=[0.0], upper=[1.0], integer=[False],
                     var_names=["COST"], row_names=["x|1"]))
def test_export_matches_oracle_bytes(lp):
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_files(lp, tmp)


@pytest.mark.parametrize("integer", [
    [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 1, 0, 1], [1, 1, 1], [0, 0, 0],
], ids=["start", "middle", "end", "back-to-back", "all", "none"])
def test_integer_runs_match_oracle(tmp_path, integer):
    n = len(integer)
    lp = CanonicalLp(objective=np.arange(n) - 1.0, entry_rows=[0] * n, entry_cols=range(n),
                     entry_vals=np.ones(n), senses=["<"], rhs=[4.0], lower=np.zeros(n),
                     upper=np.full(n, 3.0), integer=integer, var_names=[f"x{j}" for j in range(n)],
                     row_names=["r"])
    assert_same_files(lp, tmp_path)


def _one_entry_columns(integer):
    n = len(integer)
    return CanonicalLp(objective=np.arange(n) - 1.5, entry_rows=[0] * n, entry_cols=range(n),
                       entry_vals=np.arange(n) + 0.25, senses=["<"], rhs=[4.0],
                       lower=np.zeros(n), upper=np.full(n, 3.0), integer=integer,
                       var_names=[f"x{j}" for j in range(n)], row_names=["r"])


# Blocks of 2, 3 and 7 items hold 1, 1 and 3 lines of COLUMNS or RHS.
BLOCK_LPS = {
    # runs of 3, 1, 4 and 3 items: an odd run's lone item ends a block
    "odd-runs": CanonicalLp(
        objective=[1.0, -2.0, 0.0, 3.5], entry_rows=[0, 2, 0, 1, 2, 0, 1],
        entry_cols=[0, 0, 2, 2, 2, 3, 3], entry_vals=[1.0, -1e-5, 2.0, 123456789012345.0, -0.0,
                                                      0.1, 7.0],
        senses=["<", ">", "="], rhs=[1.0, 0.0, -2.0], lower=[0.0, -math.inf, 1.0, -math.inf],
        upper=[1.0, math.inf, 1.0, 5.0], integer=[False] * 4,
        var_names=["a", "b", "c", "d"], row_names=["r0", "r1", "r2"]),
    # integer runs over columns 1-4, across an edge, and 6-7, ending the section
    "integer-across": _one_entry_columns([0, 1, 1, 1, 1, 0, 1, 1]),
    # nine right-hand sides: five lines
    "long-rhs": CanonicalLp(
        objective=[1.0], entry_rows=range(9), entry_cols=[0] * 9, entry_vals=np.arange(9) + 1.0,
        senses=["<"] * 9, rhs=np.arange(9) - 4.5, lower=[0.0], upper=[1.0], integer=[True],
        var_names=["x"], row_names=[f"r{i}" for i in range(9)]),
    "empty": LpBuilder(name="empty").build(),
}


@pytest.mark.parametrize("block", [2, 3, 7])
@pytest.mark.parametrize("name", list(BLOCK_LPS))
def test_blocks_match_oracle_bytes(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(mps, "_BLOCK", block)
    assert_same_files(BLOCK_LPS[name], tmp_path)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 7]), canonical_lps())
def test_blocks_match_oracle_bytes_on_random_lps(block, lp):
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(mps, "_BLOCK", block)
        assert_same_files(lp, tmp)


# sha256 of the files of the 3-bus pipeline below, written by the
# line-at-a-time writer (the CEP with its fixed hydro limits as bounds)
PINNED_SHA256 = {
    "out/cep.mps": "b1ee49e0c4798d9fe554681ef9e29071ab9e20bda90d8ede7e93202326853d8f",
    "mir/comp_mir.mps": "c3ff0079df6d82403f388d525a61296c43f62c6f6429b3ed6d9e06402d16e8b9",
}


def test_pipeline_export_bytes_pinned(tmp_path):
    """An ``export-19bus``-shaped run at 3 buses, hydro on."""
    gen_synthetic(tmp_path / "data", seed=11, n_sites=6, n_partitions=3, n_periods=48)
    config = {
        "paths": {name: f"data/{name}.csv"
                  for name in ("wind_speeds", "demand", "runoff", "hydro_params")}
        | {"catalog": "data/sites.csv", "output_dir": "out"},
        "resolution_hours": 1.0, "resample_factor": 3,
        "siting": {"scheme": "comp", "partitioned": True, "varsigma": 0.15, "delta": 1,
                   "targets_MW": {f"P{i}": 2000.0 for i in (1, 2, 3)},
                   "anneal": {"iterations": 10, "neighbors": 10, "radius": 1},
                   "n_runs": 2, "base_seed": 11},
        "cep": {"solver": "mps-export", "reserve_margin": 0.2, "shed_penalty": 500.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["pipeline", str(path), "--threads", "1"]) == 0
    assert cli_main(["export-mps", str(path), "--target", "comp-mir",
                     "--out", str(tmp_path / "mir")]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED_SHA256} == PINNED_SHA256
    assert not list(tmp_path.glob("*/*.names.json"))


_SMALL_MPS = [
    "NAME          t", "ROWS", " N  COST", " L  r0", "COLUMNS", "    x0  COST  1.0  r0  1.0",
    "RHS", "    RHS  r0  1.0", "BOUNDS", " UP BND  x0  4.0", "ENDATA",
]


@pytest.mark.parametrize("line, new, message", [
    (3, [" N"], "expected a row sense and name, got 'N'"),
    (10, [" UP BND  x0"], "UP bound needs 4 fields, got 3"),
    (6, ["    x0  COST  abc  r0  1.0"], "bad value 'abc'"),
    (8, ["    RHS  r9  1.0"], "unknown row 'r9'"),
    (8, ["    RHS  r0  1.0  r0"], "odd number of row/value tokens"),
    (4, [" L  r0", " L  r0"], "duplicate row 'r0'"),
], ids=["row-without-name", "bound-without-value", "bad-number", "rhs-unknown-row",
        "rhs-odd-tokens", "duplicate-row"])
def test_import_rejects_malformed_line(tmp_path, line, new, message):
    """Line ``line`` of the small model is replaced by ``new``, whose last
    line is the faulty one."""
    lines = list(_SMALL_MPS)
    lines[line - 1:line] = new
    path = tmp_path / "bad.mps"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        import_mps(path)
    assert str(info.value) == f"{path}:{line + len(new) - 1}: {message}"


@pytest.mark.parametrize("line, new, message", [
    (8, ["    RHS  r0  1.0  r0  7.0"], "duplicate RHS entry for row 'r0'"),
    (8, ["    RHS  r0  1.0", "    RHS  r0  7.0"], "duplicate RHS entry for row 'r0'"),
    (10, [" UP BND  x0  4.0  9.0"], "UP bound needs 4 fields, got 5"),
    (10, [" UP BND  x0  4.0", " MI BND  x0  0.0"], "MI bound needs 3 fields, got 4"),
    (6, ["    x0  COST  1.0  COST  5.0"], "duplicate objective entry for column 'x0'"),
    (6, ["    x0  COST  1.0  r0  1.0", "    x0  COST  5.0"],
     "duplicate objective entry for column 'x0'"),
    (10, [" UP BND  x0  4.0", " UP BND  x0  9.0"], "duplicate UP bound for column 'x0'"),
    (10, [" LO BND  x0  1.0", " UP BND  x0  4.0", " LO BND  x0  2.0"],
     "duplicate LO bound for column 'x0'"),
    (10, [" UP BND  x0  4.0", " MI BND  x0", " MI BND  x0"], "duplicate MI bound for column 'x0'"),
], ids=["rhs-repeated-on-line", "rhs-repeated-on-next-line", "bound-extra-field",
        "valueless-bound-with-value", "objective-repeated-on-line",
        "objective-repeated-on-next-line", "up-bound-repeated", "lo-bound-repeated",
        "mi-bound-repeated"])
def test_import_rejects_data_it_would_drop(tmp_path, line, new, message):
    """Like ``test_import_rejects_malformed_line``: line ``line`` of the
    small model is replaced by ``new``, whose last line is the faulty one."""
    lines = list(_SMALL_MPS)
    lines[line - 1:line] = new
    path = tmp_path / "bad.mps"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        import_mps(path)
    assert str(info.value) == f"{path}:{line + len(new) - 1}: {message}"


def test_import_rejects_directory(tmp_path):
    for read in (import_mps, lambda path: import_solution(path, ["x0"])):
        with pytest.raises(ValueError) as info:
            read(tmp_path)
        assert str(info.value).startswith(f"cannot read {tmp_path}: ")


# ---------------------------------------------------------------------------
# The writer's memory, odd names and solution imports
# ---------------------------------------------------------------------------

def test_pipeline_lp_matches_oracle_bytes(tmp_path, monkeypatch):
    """A 3-bus pipeline LP (T=160, hydro on), its names families."""
    gen_synthetic(tmp_path / "data", seed=11, n_sites=6, n_partitions=3, n_periods=480)
    config = {
        "paths": {name: f"data/{name}.csv"
                  for name in ("wind_speeds", "demand", "runoff", "hydro_params")}
        | {"catalog": "data/sites.csv", "output_dir": "out"},
        "resolution_hours": 1.0, "resample_factor": 3,
        "siting": {"scheme": "comp", "partitioned": True, "varsigma": 0.15, "delta": 1,
                   "targets_MW": {f"P{i}": 2000.0 for i in (1, 2, 3)},
                   "anneal": {"iterations": 10, "neighbors": 10, "radius": 1},
                   "n_runs": 2, "base_seed": 11},
        "cep": {"solver": "mps-export", "reserve_margin": 0.2, "shed_penalty": 500.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    built, build_lp = [], cli.build_lp

    def keep_lp(instance):
        built.append(build_lp(instance))
        return built[-1]

    monkeypatch.setattr(cli, "build_lp", keep_lp)
    assert cli_main(["pipeline", str(path), "--threads", "1"]) == 0
    lp = built[0][0]
    assert lp.row_names.prefixes.size < lp.n_rows / 10
    assert_same_files(lp, tmp_path)


def test_export_memory_is_bounded(tmp_path):
    """The traced peak of an export stays within 4.9 times the file written:
    the line-at-a-time writer of the parent commit peaked at 4.87 times on
    this LP (5.52 MiB for a 1.13 MiB file, CPython 3.11, numpy 2.4), as it
    holds one section's lines and their text at once."""
    rng = np.random.default_rng(3)
    n = 5000
    cols = np.repeat(np.arange(n), 3)
    rows = rng.integers(0, n, cols.size)
    keep = np.unique(rows * n + cols, return_index=True)[1]
    pool = rng.normal(size=2000)  # repeated values, as a model's coefficients are
    lp = CanonicalLp(
        objective=rng.choice(pool, n), entry_rows=rows[keep], entry_cols=cols[keep],
        entry_vals=rng.choice(pool, keep.size), senses=["<"] * n, rhs=rng.choice(pool, n),
        lower=np.zeros(n), upper=np.where(rng.random(n) < 0.5, np.inf, 1.0),
        integer=np.arange(n) % 7 == 0, var_names=[f"flow|line{j}|t{j % 160}" for j in range(n)],
        row_names=[f"balance|bus{i}|t{i % 160}" for i in range(n)])
    tracemalloc.start()
    try:
        export_mps(lp, tmp_path / "mid.mps")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.9 * (tmp_path / "mid.mps").stat().st_size


def _traced_export_peak(lp, path):
    tracemalloc.start()
    try:
        export_mps(lp, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_memory_per_nonzero_is_bounded(tmp_path):
    """An export holds one block of lines and reads the entries as the LP
    stores them, so on a comp-MIR-shaped LP (600 columns, 3,000 rows) going
    from 50 to 400 entries a column adds at most 24 bytes a nonzero, where
    a writer holding whole sections added 136."""

    def lp_of(per_column):
        n, m = 600, 3000
        cols = np.repeat(np.arange(n), per_column)
        rows = (np.arange(per_column) * 7 + np.arange(n)[:, None] * 13).ravel() % m
        return CanonicalLp(
            objective=np.where(np.arange(n) % 2 == 0, 0.0, -1.0), entry_rows=rows,
            entry_cols=cols, entry_vals=np.resize([1.0, -1.0, 0.5, -2.0], cols.size),
            senses=[">"] * m, rhs=np.where(np.arange(m) % 3 == 0, 1.0, 0.0), lower=np.zeros(n),
            upper=np.ones(n), integer=np.arange(n) < n // 2,
            var_names=[f"x|site{j:04d}" for j in range(n)],
            row_names=[f"cover|w{i:05d}" for i in range(m)])

    small, large = lp_of(50), lp_of(400)
    added = _traced_export_peak(large, tmp_path / "large.mps") \
        - _traced_export_peak(small, tmp_path / "small.mps")
    assert added <= 24 * (large.entry_vals.size - small.entry_vals.size)


def test_a_row_named_marker_keeps_its_entries(tmp_path):
    builder = LpBuilder(name="marker")
    x = builder.add_var("x", 0.0, 1.0, 1.0, integer=True)
    builder.add_entry(builder.add_row("r0", "<", 1.0), x, 2.0)
    builder.add_entry(builder.add_row("'MARKER'", "<", 1.0), x, 5.0)
    lp = builder.build()
    path = export_mps(lp, tmp_path / "marker.mps")
    assert " x 'MARKER' 5\n" in path.read_text(encoding="utf-8")
    assert_same_lp(lp, import_mps(path))


def test_name_with_spaces_round_trips(tmp_path):
    path = export_mps(LpBuilder(name="a b  c").build(), tmp_path / "spaces.mps")
    assert import_mps(path).name == "a b  c"


@pytest.mark.parametrize("name, comments, bad", [
    ("a\nb", (), "a\nb"), ("a\rb", (), "a\rb"), ("a\u2028b", (), "a\u2028b"),
    ("lp", ("fine", "a\nb"), "a\nb"), ("lp", ("a\x0bb",), "a\x0bb"),
    ("lp", ("a\r\n",), "a\r\n"),
], ids=["name-newline", "name-return", "name-line-separator", "comment-newline",
        "comment-vertical-tab", "comment-trailing-crlf"])
def test_line_breaks_in_name_or_comments_are_rejected(tmp_path, name, comments, bad):
    path = tmp_path / "broken.mps"
    with pytest.raises(ValueError, match="line break") as info:
        export_mps(LpBuilder(name=name).build(), path, comments=comments)
    assert repr(bad) in str(info.value)
    assert not path.exists()


@pytest.mark.parametrize("name", ["n" * 70, "n" * 61, " lead", "trail ", "\tboth\u3000", "", "   "],
                         ids=["70-chars", "61-chars", "leading-space", "trailing-space",
                              "unicode-spaces", "empty", "blank"])
def test_names_that_would_read_back_changed_are_rejected(tmp_path, name):
    path = tmp_path / "name.mps"
    with pytest.raises(ValueError, match="MPS NAME must be 1 to 60 characters") as info:
        export_mps(LpBuilder(name=name).build(), path)
    assert repr(name) in str(info.value)
    assert not path.exists()


@pytest.mark.parametrize("name", ["n" * 60, "x", "ünïcödé"])
def test_names_up_to_60_characters_round_trip(tmp_path, name):
    path = export_mps(LpBuilder(name=name).build(), tmp_path / "name.mps")
    assert import_mps(path).name == name


@pytest.mark.parametrize("text, line, message", [
    ("x0 1.0\nx0 7.0\n", 2, "second value for 'x0'"),
    ("x1 2\n# note\n\n  x1   2\n", 4, "second value for 'x1'"),
    ("x0 nan\n", 1, "value 'nan' is not finite"),
    ("x0 1.0\nx1 inf\n", 2, "value 'inf' is not finite"),
    ("x0 -Infinity\n", 1, "value '-Infinity' is not finite"),
    ("zz nan\n", 1, "value 'nan' is not finite"),
], ids=["repeat", "repeat-after-comment", "nan", "inf", "minus-infinity", "unknown-nan"])
def test_solution_import_rejects_repeats_and_non_finite_values(tmp_path, text, line, message):
    path = tmp_path / "sol.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        import_solution(path, ["x0", "x1"])
    assert str(info.value) == f"{path}:{line}: {message}"


def test_solution_import_reports_repeated_unknown_names(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text("zz 1\nx0 2\nzz 3\n", encoding="utf-8")
    sol, report = import_solution(path, ["x0", "x1"])
    assert sol.x.tolist() == [2.0, 0.0]
    assert report.unknown == ["zz", "zz"] and report.missing == ["x1"]


def test_mps_and_solution_files_saved_with_a_byte_order_mark_read_back(tmp_path):
    lp = random_lp(np.random.default_rng(4))
    path = export_mps(lp, tmp_path / "bom.mps", comments=["saved by a spreadsheet tool"])
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert_same_lp(lp, import_mps(path))
    solution = tmp_path / "bom.sol"
    solution.write_bytes(b"\xef\xbb\xbf" + f"{lp.var_names[0]} 1.5\n".encode())
    sol, report = import_solution(solution, lp.var_names, lp)
    assert sol.x[0] == 1.5 and report.unknown == []
