"""MPS interchange for canonical LPs plus a plain-text solution format.

The writer emits free-format MPS under the LP's own names
(:func:`export_mps` lists the names it refuses): a data line is one
leading space and its fields joined by single spaces, values are printed
to 12 significant digits, COLUMNS and RHS hold two (row, value) pairs a
line and integer columns are wrapped in INTORG/INTEND markers.  Solution
files are one ``name value`` pair per line.

The writer runs no Python code per line or per field.  Every section goes
out through one block writer, which joins a block of lines from columns of
pieces taken from tables: the block's column names and distinct values,
and the row names, which stay families (:class:`~windplan.lp.Names`) up to
the file, a prefix piece and an ``|<index>`` piece each.  COLUMNS and RHS
are runs of (row, value) pairs, COLUMNS read as the LP stores its entries
(by column), and an integer marker leads the first line of the column it
precedes; beyond the LP an export holds O(n + m) integers and one block.
The reader maps each bound type through one table.

On one 2-core x86-64 host shared with other tenants, the ``export-19bus``
LP (51,568 columns, a 9.5 MB file) exports in 0.10-0.11 s (traced peak
2.6 MiB), and ``demos/06`` (T = 2,920, a 182 MB file) in 2.0-2.2 s at a
peak RSS of 273 MB.  HiGHS's own reader takes the files
(``tests/test_mps_highs.py``), and ``tests/mps_oracle.py``'s
line-at-a-time writer pins their bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from windplan.fileio import _read
from windplan.lp import SENSES, CanonicalLp, LpBuilder, LpSolution, Names, family_of

_OBJECTIVE_ROW = "COST"


def _check_names(names: Names, kind: str, reserved: str | None = None) -> None:
    """Raise ValueError naming one of ``names`` (the LP's ``kind`` names)
    that a free MPS file cannot hold: an empty name, one holding
    whitespace, ``reserved``, or a repeat.  A name is keyed by the (prefix,
    index) it spells, so ``a|1`` alone repeats item 1 of family ``a``, and
    one sort of the keys finds repeats; only a refused name is spelled out."""
    prefixes, bare = names.prefixes.tolist(), names.indices < 0
    spaced = np.array(["".join(prefix.split()) != prefix for prefix in prefixes], dtype=bool)
    alone = np.array([prefix in ("", reserved) for prefix in prefixes], dtype=bool)
    bad = spaced[names.ids] | (alone[names.ids] & bare)
    if bad.any():
        name = names[int(np.argmax(bad))]
        reason = "it is empty" if not name else "it holds whitespace" \
            if name.split() != [name] else "it names the objective row"
        raise ValueError(f"cannot write the {kind} name {name!r} to MPS: {reason}")
    heads: dict[str, int] = {}
    own = np.array([heads.setdefault(prefix, len(heads)) for prefix in prefixes], dtype=np.int64)
    parts = [family_of(prefix) for prefix in prefixes]
    spelled = np.array([heads.setdefault(head, len(heads)) for head, _ in parts], dtype=np.int64)
    key = np.where(bare, spelled[names.ids], own[names.ids])
    index = np.where(bare, np.array([i for _, i in parts], dtype=np.int64)[names.ids],
                     names.indices)
    order = np.lexsort((index, key))
    same = np.flatnonzero((np.diff(key[order]) == 0) & (np.diff(index[order]) == 0))
    if same.size:
        raise ValueError(f"cannot write the {kind} name {names[int(order[same[0]])]!r} to MPS: "
                         "it repeats")


def mangle_names(names: Sequence[str]) -> tuple[list[str], dict[str, str]]:
    """The names as :func:`export_mps` writes them (as they are) and an empty
    renaming table; a name the file cannot hold raises ValueError.  Kept for
    callers that compare the names an imported file holds with these."""
    names = Names.of(names)
    _check_names(names, "LP")
    return list(names), {}


def _table(texts: Iterable[str]) -> np.ndarray:
    """The texts as an object array whose entry -1, an absent field, is empty."""
    return np.fromiter(chain(texts, ("",)), dtype=object)


def _value_pieces(values: np.ndarray, present: np.ndarray) -> np.ndarray:
    """A space and the .12g text of each value, empty where not ``present``:
    each distinct bit pattern (which keeps -0.0, "-0", apart) is formatted
    once."""
    bits, inverse = np.unique(values[present].view(np.int64), return_inverse=True)
    texts = _table(map(" {:.12g}".format, bits.view(np.float64).tolist()))
    value = np.full(values.shape, -1, dtype=np.int64)
    value[present] = inverse.ravel()
    return texts[value]


def _row_pieces(names: Names) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The two pieces of the field of each of an array of rows, a space and
    the prefix, then ``|<index>``, from tables per prefix and per distinct
    index: row 0 is the objective row, i + 1 is row i of ``names`` and -1
    an absent field, whose pieces are empty."""
    heads = _table(chain([" " + _OBJECTIVE_ROW], (" " + prefix for prefix in names.prefixes)))
    head_of = np.concatenate([[0], names.ids + 1, [-1]])
    tail_texts, where = names.index_texts()
    tails = _table(tail_texts)
    tail_of = np.concatenate([[-1], where, [-1]])
    return lambda rows: (heads[head_of[rows]], tails[tail_of[rows]])


# ROWS heads by sense (the senses in byte order); BOUNDS heads by kind
_SENSE_BYTES = np.frombuffer(b"<=>N", dtype=np.uint8)
_SENSES = np.array([" L", " E", " G", " N"], dtype=object)
_BOUNDS = np.array([" FX BND", " FR BND", " MI BND", " LO BND", " PL BND", " UP BND"],
                   dtype=object)
# (row, value) items of COLUMNS and RHS a block holds, two a line; a block
# of ROWS or of BOUNDS holds half as many rows or columns.
_BLOCK = 1 << 13


def _write_blocks(out: TextIO, count: int,
                  pieces: Callable[[slice], Sequence[np.ndarray]]) -> None:
    """Write the lines of ``count`` items, ``_BLOCK // 2`` items and one
    join a block, for every section: ``pieces(block)`` gives the columns of
    the pieces of the lines of a slice of items, each line ended here."""
    step = max(_BLOCK // 2, 1)
    for start in range(0, count, step):
        columns = pieces(slice(start, min(start + step, count)))
        ends = np.full(len(columns[0]), "\n", dtype=object)
        out.write("".join(np.column_stack((*columns, ends)).ravel().tolist()))


def _write_pairs(out: TextIO, runs: np.ndarray,
                 heads: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 items: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
                 row_pieces: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> None:
    """Write runs of (row, value) items, two a line ``head row value [row
    value]``: run j holds the items ``items(j, k)`` for k < ``runs[j]``,
    and ``heads(run, k)`` gives the heads of lines that start with item
    ``k[i]`` of run ``run[i]``.  A run splits between blocks only at an
    even item, so the bytes do not depend on the block."""
    per_run = (runs + 1) // 2
    first = np.cumsum(per_run) - per_run

    def lines(block: slice) -> tuple[np.ndarray, ...]:
        line = np.arange(block.start, block.stop)
        run = np.searchsorted(first, line, "right") - 1
        k = 2 * (line - first[run])
        second = k + 1 < runs[run]
        rows = np.full((2, line.size), -1, dtype=np.int64)
        values = np.zeros((2, line.size))
        rows[0], values[0] = items(run, k)
        rows[1, second], values[1, second] = items(run[second], k[second] + 1)
        value1, value2 = _value_pieces(values, rows >= 0)
        (prefix1, prefix2), (tail1, tail2) = row_pieces(rows)
        return heads(run, k), prefix1, tail1, value1, prefix2, tail2, value2

    _write_blocks(out, int(per_run.sum()), lines)


def _write_mps(out: TextIO, lp: CanonicalLp, comments: Sequence[str]) -> None:
    """Write the MPS text of ``lp``, as the module docstring describes."""
    row_pieces = _row_pieces(lp.row_names)
    out.write("".join(f"* {comment}\n" for comment in comments))
    out.write(f"NAME          {lp.name}\nROWS\n")
    senses = "N" + "".join(lp.senses)
    _write_blocks(out, lp.n_rows + 1, lambda rows: (
        _SENSES[np.searchsorted(_SENSE_BYTES, np.frombuffer(senses[rows].encode(), np.uint8))],
        *row_pieces(rows)))

    # COLUMNS: a run per column, its objective entry (row 0) first, then its stored entries
    def column_items(col: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        entry = k > 0
        e = (lp.indptr[col] + k - 1)[entry]
        rows, values = np.zeros(k.size, dtype=np.int64), lp.objective[col]
        rows[entry], values[entry] = lp.indices[e] + 1, lp.data[e]
        return rows, values

    # Marker k (from 1) goes before column flips[k - 1], where an integer
    # run opens (k odd) or closes (k even): it leads that column's first line.
    flips = np.flatnonzero(np.diff(lp.integer, prepend=False, append=False))
    marks = np.array([f" MK{k:06d} 'MARKER' '{('INTEND', 'INTORG')[k % 2]}'\n"
                      for k in range(1, flips.size + 1)], dtype=object)

    def column_heads(run: np.ndarray, k: np.ndarray) -> np.ndarray:
        heads = (" " + lp.var_names[run[0]:run[-1] + 1].texts())[run - run[0]]
        lo, hi = np.searchsorted(flips, (run[0] + (k[0] > 0), run[-1] + 1))
        at = np.searchsorted(run, flips[lo:hi])
        heads[at] = marks[lo:hi] + heads[at]
        return heads

    out.write("COLUMNS\n")
    _write_pairs(out, np.diff(lp.indptr) + 1, column_heads, column_items, row_pieces)
    out.write("".join(marks[flips == lp.n_vars]))  # the INTEND after an integer last column

    # RHS: one run of the nonzero right-hand sides by row
    nonzero = np.flatnonzero(lp.rhs != 0.0)
    out.write("RHS\n")
    _write_pairs(out, np.array([nonzero.size]),
                 lambda run, _: np.full(run.size, " RHS", dtype=object),
                 lambda _, k: (nonzero[k] + 1, lp.rhs[nonzero[k]]), row_pieces)
    out.write("RANGES\n")  # for completeness; this writer produces none

    # BOUNDS: FX or FR alone, else MI or LO followed by PL or UP
    def bound_lines(block: slice) -> tuple[np.ndarray, ...]:
        lower, upper = lp.lower[block], lp.upper[block]
        fixed, inf_lo, inf_up = lower == upper, np.isinf(lower), np.isinf(upper)
        free = ~fixed & inf_lo & inf_up
        kinds = np.column_stack((np.select([fixed, free, inf_lo], [0, 1, 2], 3),
                                 np.where(inf_up, 4, 5)))
        keep = np.column_stack((np.ones_like(fixed), ~(fixed | free)))
        kind, var = kinds[keep], np.repeat(np.arange(fixed.size), 2)[keep.ravel()]
        values = _value_pieces(np.column_stack((lower, upper))[keep],
                               np.isin(kind, (0, 3, 5)))   # FX, LO and UP have one
        return _BOUNDS[kind], (" " + lp.var_names[block].texts())[var], values

    out.write("BOUNDS\n")
    _write_blocks(out, lp.n_vars, bound_lines)
    out.write("ENDATA\n")


def export_mps(lp: CanonicalLp, path: str | Path, comments: Sequence[str] = ()) -> Path:
    """Write the LP to ``path`` in free-format MPS (minimisation), under
    its own names.

    Every variable appears in COLUMNS with an explicit objective entry (a
    zero keeps empty columns alive through a round trip) and every bound is
    written explicitly, so importing the file reproduces the LP exactly up
    to the 12-significant-digit decimal representation of values.  Before
    the file is opened, each of these raises ``ValueError``: a line break
    in ``lp.name`` or a comment; an ``lp.name`` that would read back
    changed (empty, longer than 60 characters, or with whitespace at either
    end); and a column or row name that the file cannot hold: an empty
    name, one holding whitespace, a row named like the objective row
    ``COST``, and a name that repeats among the columns or among the rows.
    """
    for text in (lp.name, *comments):
        if "".join(text.splitlines()) != text:
            raise ValueError(f"MPS NAME and comment lines cannot hold a line break: {text!r}")
    if not 0 < len(lp.name) <= 60 or lp.name.strip() != lp.name:
        raise ValueError("MPS NAME must be 1 to 60 characters with no whitespace at either "
                         f"end: {lp.name!r}")
    _check_names(lp.var_names, "column")
    _check_names(lp.row_names, "row", _OBJECTIVE_ROW)
    path = Path(path)
    with path.open("w", encoding="utf-8") as out:
        _write_mps(out, lp, comments)
    return path


#: Bound type: (field count, lower, upper it sets); "value" is the 4th field, None keeps a bound.
_BOUND_TYPES = {"UP": (4, None, "value"), "LO": (4, "value", None), "FX": (4, "value", "value"),
                "FR": (3, -math.inf, math.inf), "MI": (3, -math.inf, None),
                "PL": (3, None, math.inf), "BV": (3, 0.0, 1.0)}
_ROW_SENSES = {"N": "N", "L": "<", "E": "=", "G": ">"}


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad value {token!r}") from None


def _value(token: str) -> float:
    """The number of an MPS value field, which may be infinite but not NaN."""
    if math.isnan(value := _number(token)):
        raise ValueError(f"bad value {token!r}")
    return value


def _pairs(tokens: list[str]) -> Iterator[tuple[str, float]]:
    """``(row, value)`` pairs of the name/value fields of a data line."""
    if len(tokens) % 2:
        raise ValueError("odd number of row/value tokens")
    return zip(tokens[::2], map(_value, tokens[1::2]))


def import_mps(path: str | Path) -> CanonicalLp:
    """Read an MPS file written by :func:`export_mps` (or any file using
    the same section vocabulary).  RANGES entries are rejected; split the
    ranged row into two rows instead.  The name is the whole rest of the
    NAME line, and a COLUMNS line is an integer marker only when it reads
    ``<id> 'MARKER' 'INTORG'`` or ``<id> 'MARKER' 'INTEND'``.  Every
    ValueError names the path, and the line number when one line is at fault."""
    path = Path(path)
    name = "lp"
    section = None
    senses: dict[str, str] = {}  # every row in file order, "N" for a free row
    objective_row: str | None = None
    var_integer: dict[str, bool] = {}  # every column in file order
    entries: dict[tuple[str, str], float] = {}  # the objective row's entries too
    rhs: dict[str, float] = {}
    bounds: dict[tuple[int, str], float] = {}  # (0 lower or 1 upper, column): the bound
    bound_kinds: set[tuple[str, str]] = set()
    in_integer = False

    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        if not raw.strip() or raw.startswith("*"):
            continue
        tokens = raw.split()
        try:
            if not raw[0].isspace():
                keyword = tokens[0].upper()
                if keyword == "NAME":
                    name = raw.split(None, 1)[1].strip() if len(tokens) > 1 else "lp"
                elif keyword in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                    section = keyword
                elif keyword == "ENDATA":
                    break
                else:
                    raise ValueError(f"unknown section {keyword!r}")
            elif section == "ROWS":
                if len(tokens) != 2:
                    raise ValueError(f"expected a row sense and name, got {raw.strip()!r}")
                sense, row = tokens[0].upper(), tokens[1]
                if row in senses:
                    raise ValueError(f"duplicate row {row!r}")
                if sense not in _ROW_SENSES:
                    raise ValueError(f"unknown row sense {sense!r}")
                senses[row] = _ROW_SENSES[sense]
                if sense == "N" and objective_row is None:
                    objective_row = row
            elif section == "COLUMNS":
                if tokens[1:] in (["'MARKER'", "'INTORG'"], ["'MARKER'", "'INTEND'"]):
                    in_integer = tokens[2] == "'INTORG'"
                    continue
                var = tokens[0]
                var_integer.setdefault(var, in_integer)
                for row, val in _pairs(tokens[1:]):
                    if row != objective_row and senses.get(row) not in SENSES:
                        raise ValueError(f"unknown row {row!r}")
                    if (row, var) in entries:
                        raise ValueError(f"duplicate entry {(row, var)}" if row != objective_row
                                         else f"duplicate objective entry for column {var!r}")
                    entries[row, var] = val
            elif section == "RHS":
                for row, val in _pairs(tokens[1:]):
                    if row in rhs:
                        raise ValueError(f"duplicate RHS entry for row {row!r}")
                    if senses.get(row) in SENSES:
                        rhs[row] = val
                    elif row != objective_row:  # objective offsets are not represented
                        raise ValueError(f"unknown row {row!r}")
            elif section == "RANGES":
                raise ValueError("RANGES entries are not supported")
            elif section == "BOUNDS":
                kind = tokens[0].upper()
                if kind not in _BOUND_TYPES:
                    raise ValueError(f"unknown bound type {kind!r}")
                fields, *sets = _BOUND_TYPES[kind]
                if len(tokens) != fields:
                    raise ValueError(f"{kind} bound needs {fields} fields, got {len(tokens)}")
                var = tokens[2]
                if (kind, var) in bound_kinds:
                    raise ValueError(f"duplicate {kind} bound for column {var!r}")
                bound_kinds.add((kind, var))
                var_integer[var] = var_integer.get(var, in_integer) or kind == "BV"
                given = _value(tokens[3]) if fields == 4 else None
                for side, to in enumerate(sets):
                    if to is not None:
                        bounds[side, var] = given if to == "value" else to
            else:
                raise ValueError("data outside any section")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc

    rows = [row for row, sense in senses.items() if sense != "N"]
    row_index = {row: i for i, row in enumerate(rows)}
    column = {var: j for j, var in enumerate(var_integer)}
    builder = LpBuilder(name=name)
    builder.add_vars(list(var_integer), lower=[bounds.get((0, var), 0.0) for var in var_integer],
                     upper=[bounds.get((1, var), math.inf) for var in var_integer],
                     objective=[entries.pop((objective_row, var), 0.0) for var in var_integer],
                     integer=list(var_integer.values()))
    builder.add_rows(rows, [senses[row] for row in rows], [rhs.get(row, 0.0) for row in rows])
    builder.add_entries([row_index[row] for row, _ in entries],
                        [column[var] for _, var in entries], list(entries.values()))
    try:
        return builder.build()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Solution files
# ---------------------------------------------------------------------------

@dataclass
class SolutionImportReport:
    """Names the importer had to guess about."""

    missing: list[str] = field(default_factory=list)
    unknown: list[str] = field(default_factory=list)


def write_solution(path: str | Path, var_names: Sequence[str], values) -> Path:
    """Write primal values as UTF-8 ``name value`` lines (full precision).
    A name :func:`import_solution` would not read back (empty, holding
    whitespace or starting with ``#``), a value that is not finite and a
    count of values that differs from the count of names raise ValueError."""
    path = Path(path)
    lines = []
    for name, value in zip(var_names, np.asarray(values, dtype=float).tolist(), strict=True):
        if name.split() != [name] or name.startswith("#"):
            raise ValueError(f"cannot write the name {name!r}: it is empty, holds whitespace "
                             "or starts with '#'")
        if not math.isfinite(value):
            raise ValueError(f"cannot write {value!r} for {name!r}: it is not finite")
        lines.append(f"{name} {value:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def import_solution(
    path: str | Path,
    var_names: Sequence[str],
    lp: CanonicalLp | None = None,
) -> tuple[LpSolution, SolutionImportReport]:
    """Read a ``name value`` solution file against a variable naming map.

    Values for unknown names are ignored but reported; names absent from
    the file default to zero and are reported as missing.  A malformed
    line, a value that is not finite and a second value for a name fail
    with the line number.
    """
    path = Path(path)
    index = {name: i for i, name in enumerate(var_names)}
    x = np.zeros(len(index))
    seen: set[str] = set()
    report = SolutionImportReport()
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            if len(tokens) != 2:
                raise ValueError(f"expected 'name value', got {raw!r}")
            name, value = tokens[0], _number(tokens[1])
            if not math.isfinite(value):
                raise ValueError(f"value {tokens[1]!r} is not finite")
            if name in seen:
                raise ValueError(f"second value for {name!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if name not in index:
            report.unknown.append(name)
            continue
        x[index[name]] = value
        seen.add(name)
    report.missing = [name for name in var_names if name not in seen]
    objective = float(lp.objective @ x) if lp is not None else math.nan
    solution = LpSolution(
        status="optimal",
        x=x,
        duals=np.zeros(lp.n_rows if lp is not None else 0),
        reduced_costs=np.zeros(len(index)),
        objective=objective,
    )
    return solution, report
