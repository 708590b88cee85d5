"""LP names stored as families (``windplan.lp.Names``) and written as MPS.

The family path spells a name as a prefix piece and an index piece, and
checks the names a free MPS file cannot hold on the prefix table and the
index arrays; it must write the bytes the line-at-a-time oracle writes on
the spelled-out strings, and refuse exactly the names that the file cannot
hold.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mps_oracle
from windplan.lp import CanonicalLp, LpBuilder, Names
from windplan.mps import export_mps

# prefixes with whitespace, "|", "~", non-ASCII text and fewer than three
# non-space characters
PREFIX_CHARS = st.sampled_from(list("ab|~Z9") + [" ", "\t", "　", "é", "中", "😀"])
PREFIXES = st.one_of(st.text(PREFIX_CHARS, max_size=3), st.text(PREFIX_CHARS, max_size=12),
                     st.sampled_from(["bal|P1", "avail|site|s01", "y", "cov", "", " ", "a b",
                                      "COST", "x~0"]))
# indices crossing 9 -> 10, 99 -> 100 and 999 -> 1000
INDICES = st.lists(st.one_of(st.integers(0, 12), st.integers(95, 105), st.integers(995, 1005),
                             st.integers(0, 10 ** 7)), max_size=25)
SINGLES = st.lists(st.one_of(st.text(PREFIX_CHARS, max_size=8), st.text(max_size=14),
                             st.sampled_from(["COST", "y|5", "cov|12", "bal~RZCJ"])),
                   max_size=6)


@st.composite
def families(draw):
    """Names of families and single names, one block after another, at
    times with a family repeated."""
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            parts.append(Names.family(draw(PREFIXES), draw(INDICES)))
        else:
            parts.append(Names.of(draw(SINGLES)))
    if parts and draw(st.booleans()):
        parts.append(parts[draw(st.integers(0, len(parts) - 1))])
    if draw(st.booleans()):   # interleaved families, as a model's per-period rows are
        count, periods = draw(st.integers(1, 3)), draw(st.integers(0, 12))
        parts.append(Names([draw(PREFIXES) for _ in range(count)],
                           np.tile(np.arange(count), periods),
                           np.repeat(np.arange(periods), count)))
    return Names.concat(parts)


def spelled(names):
    return [f"{prefix}|{i}" if i >= 0 else prefix
            for prefix, i in zip(names.prefixes[names.ids].tolist(), names.indices.tolist())]


def refused(names, reserved=()):
    """The positions of the names a free MPS file cannot hold: an empty
    name, one holding whitespace, one of ``reserved`` and every copy of a
    repeated name after the first."""
    seen = set()
    out = []
    for at, name in enumerate(spelled(names)):
        if name.split() != [name] or name in reserved or name in seen:
            out.append(at)
        seen.add(name)
    return out


def held(names, reserved=()):
    """``names`` without the ones :func:`refused` finds, as families."""
    keep = np.setdiff1d(np.arange(len(names)), refused(names, reserved))
    return Names(names.prefixes, names.ids[keep], names.indices[keep])


# ---------------------------------------------------------------------------
# The sequence contract
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(families(), st.data())
def test_names_read_as_the_tuple_of_their_strings(names, data):
    want = tuple(spelled(names))
    assert len(names) == len(want)
    assert list(names) == list(want) and tuple(names) == want
    assert names == want and names == list(want) and want == names
    assert hash(names) == hash(want)
    assert [names[i] for i in range(-len(want), len(want))] == [want[i] for i in
                                                                 range(-len(want), len(want))]
    cut = slice(data.draw(st.integers(-30, 30)), data.draw(st.integers(-30, 30)),
                data.draw(st.sampled_from([None, 1, 2, -1, -3])))
    assert isinstance(names[cut], Names) and names[cut] == want[cut]
    probes = list(want[:3]) + [text + "0" for text in want[:2]] + ["bal|P1|01", "bal|P1|-1",
                                                                    "bal|P1|", "y|5", "COST"]
    start, stop = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 30))
    for probe in probes:
        assert (probe in names) == (probe in want)
        for bounds in ((), (start,), (start, stop)):
            try:
                expected = want.index(probe, *bounds)
            except ValueError:
                with pytest.raises(ValueError):
                    names.index(probe, *bounds)
            else:
                assert names.index(probe, *bounds) == expected
    assert names + ("z",) == want + ("z",) and names + names == want + want
    if want:
        assert names != want[:-1] and names != want[:-1] + ("other",)


def test_names_compare_with_any_sequence_of_str():
    names = Names.concat([Names.family("p|B|gas", range(3)), Names.of(["co2"])])
    assert names == ("p|B|gas|0", "p|B|gas|1", "p|B|gas|2", "co2")
    assert names == ["p|B|gas|0", "p|B|gas|1", "p|B|gas|2", "co2"]
    assert names != ("p|B|gas|0", "p|B|gas|1", "p|B|gas|2")
    assert names != "p|B|gas|0" and names != 4
    assert names.index("co2") == 3 and names.index("p|B|gas|1") == 1
    assert "p|B|gas|01" not in names and "p|B|gas" not in names and 7 not in names
    with pytest.raises(ValueError):
        names.index("p|B|gas|3")
    widest = Names.family("p", [10 ** 18, 2 ** 63 - 1])   # 19-digit indices
    assert widest.index(f"p|{2 ** 63 - 1}") == 1 and f"p|{10 ** 18}" in widest


@pytest.mark.parametrize("args, error", [
    ((["a"], [1], [0]), ValueError), ((["a"], [0], [-2]), ValueError),
    ((["a"], [0, 0], [1]), ValueError), (([3], [0], [0]), TypeError),
], ids=["prefix-id-out-of-range", "index-below-minus-one", "lengths-differ", "non-str-prefix"])
def test_names_refuse_malformed_arrays(args, error):
    with pytest.raises(error):
        Names(*args)


def test_the_builder_keeps_families_and_canonical_lp_holds_names():
    builder = LpBuilder()
    builder.add_vars(Names.family("p", range(4)))
    builder.add_var("K")
    builder.add_rows(["co2"], "<", 1.0)
    builder.add_rows(Names.family("bal", range(2)), "=", 0.0)
    lp = builder.build()
    assert isinstance(lp.var_names, Names) and isinstance(lp.row_names, Names)
    assert lp.var_names.prefixes.tolist() == ["p", "K"]  # no per-period string
    assert lp.var_names == ("p|0", "p|1", "p|2", "p|3", "K")
    assert lp.row_names == ["co2", "bal|0", "bal|1"]
    plain = CanonicalLp(objective=[0.0], entry_rows=[], entry_cols=[], entry_vals=[],
                        senses=[], rhs=[], lower=[0.0], upper=[1.0], integer=[False],
                        var_names=("x",), row_names=())
    assert isinstance(plain.var_names, Names) and plain.var_names == ("x",)


# ---------------------------------------------------------------------------
# The family path against the oracle
# ---------------------------------------------------------------------------

def _lp(columns, rows, seed):
    rng = np.random.default_rng(seed)
    n, m = len(columns), len(rows)
    cells = np.unique(rng.integers(0, max(n * m, 1), min(2 * max(n, m), n * m)))
    return dict(objective=rng.choice([0.0, 1.5, -2.0], n), entry_rows=cells // max(n, 1),
                entry_cols=cells % max(n, 1), entry_vals=rng.choice([1.0, -0.5, 3e5], cells.size),
                senses=rng.choice(["<", "=", ">"], m).tolist(), rhs=rng.choice([0.0, 4.0], m),
                lower=np.zeros(n), upper=rng.choice([1.0, np.inf], n),
                integer=rng.random(n) < 0.2, name="fam")


def _assert_export_matches_oracle(columns, rows, seed):
    arrays = _lp(columns, rows, seed)
    lp = CanonicalLp(var_names=columns, row_names=rows, **arrays)
    strings = CanonicalLp(var_names=spelled(columns), row_names=spelled(rows), **arrays)
    with tempfile.TemporaryDirectory() as tmp:
        got = export_mps(lp, Path(tmp) / "got.mps", comments=["families"])
        want = mps_oracle.export_mps(strings, Path(tmp) / "want.mps", comments=["families"])
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=200, deadline=None)
@given(families(), families(), st.integers(0, 2 ** 16))
def test_family_export_matches_oracle_bytes(columns, rows, seed):
    _assert_export_matches_oracle(held(columns), held(rows, {"COST"}), seed)


@settings(max_examples=200, deadline=None)
@given(families(), families())
def test_family_export_refuses_exactly_the_names_a_free_file_cannot_hold(columns, rows):
    bad = {"column": [columns[at] for at in refused(columns)],
           "row": [rows[at] for at in refused(rows, {"COST"})]}
    lp = CanonicalLp(var_names=columns, row_names=rows, **_lp(columns, rows, 0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fam.mps"
        if not bad["column"] + bad["row"]:
            export_mps(lp, path)
            return
        with pytest.raises(ValueError) as info:
            export_mps(lp, path)
        assert not path.exists()
    kind = "column" if bad["column"] else "row"
    assert any(str(info.value).startswith(f"cannot write the {kind} name {name!r} to MPS: ")
               for name in bad[kind])


@pytest.mark.parametrize("columns, rows", [
    # a row family spelling the column family's names
    (Names.family("balance_row", range(60)), Names.family("balance_row", range(60))),
    # row names equal to column names, and a column named like the objective row
    (Names.concat([Names.family("y", range(12)), Names.of(["COST"])]),
     Names.family("y", range(12))),
    # indices across digit counts, an empty prefix ("|0"), a prefix holding "~"
    (Names.concat([Names.family("a", [9, 10, 99, 100, 10 ** 6]), Names.family("", range(15))]),
     Names.concat([Names.family("x~0", range(40)), Names.family("a", range(30))])),
    # single names beside a family whose prefix ends in "~"
    (Names.of(["a", "b", "a~0_long_name", "a~Z_long_name", "b~5_long_name"]),
     Names.family("a~~", range(3))),
], ids=["shared-forms", "kept-columns-and-cost", "short-and-tilde-prefixes",
        "tilde-prefixes-interleave"])
def test_family_export_collisions_match_oracle_bytes(columns, rows):
    _assert_export_matches_oracle(columns, rows, 0)
