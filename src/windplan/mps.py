"""MPS interchange for canonical LPs plus a plain-text solution format.

The writer emits free-format MPS under the LP's own names: a data line is
one leading space and its fields joined by single spaces, values are
printed to 12 significant digits, COLUMNS and RHS hold two (row, value)
pairs a line and integer columns are wrapped in INTORG/INTEND markers.  A
name such a file cannot hold raises ValueError before the file is opened:
an empty name, one holding anything ``str.split`` splits on, a row named
like the objective row ``COST``, and a name that repeats among the columns
or among the rows.  Solution files are one ``name value`` pair per line.

The writer runs no Python code per line or per field.  It writes each
section in blocks of ``_BLOCK`` items, a line a row of pieces taken from
tables: each block's column names and distinct values, spelled out with
the block, and the row names, which stay families
(:class:`~windplan.lp.Names`) up to the file: a row name is a prefix piece
and an ``|<index>`` piece, taken through integer arrays.  COLUMNS reads
the entries as the LP stores them (by column), so beyond the LP an export
holds O(n + m) integers and one block.

The ``export-19bus`` LP (51,568 columns, 33,299 rows, a 9.5 MB file)
exports in 0.08-0.09 s with a traced peak of 3.5 MiB; at the paper's
horizon (T = 2,920, 1.54 M names, a 182 MB file, ``demos/06``) in 1.9-2.3
s, at a process peak RSS of 292 MB; both on one 2-core x86-64 host shared
with other tenants.  HiGHS's own reader takes the files
(``tests/test_mps_highs.py``), and their bytes are pinned to the
line-at-a-time reference writer in ``tests/mps_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from windplan.fileio import _read
from windplan.lp import CanonicalLp, LpBuilder, LpSolution, Names, family_of

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
    """The names as :func:`export_mps` writes them, which is as they are,
    and an empty renaming table; a name the file cannot hold raises
    ValueError.  Kept for callers that compare the names an imported file
    holds with these."""
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
# Items a section lays out at once: (row, value) pairs of COLUMNS and RHS,
# two a line; lines of ROWS and BOUNDS (a column has at most two bounds).
_BLOCK = 1 << 13


def _ends(count: int) -> np.ndarray:
    return np.full(count, "\n", dtype=object)


def _pair_pieces(heads: np.ndarray, rows: np.ndarray, values: np.ndarray,
                 row_pieces: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Pieces of the lines ``head row value [row value]``, eight a line:
    line k pairs the items ``(rows[0, k], values[0, k])`` and ``(rows[1,
    k], values[1, k])``, the second absent where its row is -1."""
    value1, value2 = _value_pieces(values, rows >= 0)
    (prefix1, prefix2), (tail1, tail2) = row_pieces(rows)
    return np.column_stack((heads, prefix1, tail1, value1, prefix2, tail2, value2,
                            _ends(rows.shape[1])))


def _write_runs(out: TextIO, run_heads: Callable[[slice], np.ndarray], runs: np.ndarray,
                items: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
                row_pieces: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                markers: tuple[np.ndarray, np.ndarray]) -> None:
    """Write runs of (row, value) items, two a line: run j, under the line
    start ``run_heads(slice(j, j + 1))`` (a row of pieces), holds the items
    ``items(j, k)`` for k < ``runs[j]``.  Each marker line goes before the
    run it names (``len(runs)``: after the last).

    The lines go out ``_BLOCK`` items at a time.  A run splits only at an
    even item, so each line keeps its pair and the bytes do not depend on
    the block.
    """
    per_run = (runs + 1) // 2
    first = np.cumsum(per_run) - per_run
    total = int(per_run.sum())
    before, texts = markers
    at = np.append(first, total)[before]  # the line each marker precedes
    step = max(_BLOCK // 2, 1)
    for start in range(0, total, step):
        line = np.arange(start, min(start + step, total))
        run = np.searchsorted(first, line, "right") - 1
        k = 2 * (line - first[run])
        second = k + 1 < runs[run]
        rows = np.full((2, line.size), -1, dtype=np.int64)
        values = np.zeros((2, line.size))
        rows[0], values[0] = items(run, k)
        rows[1, second], values[1, second] = items(run[second], k[second] + 1)
        heads = run_heads(slice(run[0], run[-1] + 1))[run - run[0]]
        lines = _pair_pieces(heads, rows, values, row_pieces)
        pieces = lines.ravel().tolist()
        lo, hi = np.searchsorted(at, (start, start + line.size))
        for line_at, mark in reversed([*zip((at[lo:hi] - start).tolist(), texts[lo:hi])]):
            pieces.insert(line_at * lines.shape[1], mark)  # the last first
        out.write("".join(pieces))
    out.write("".join(texts[np.searchsorted(at, total):]))


def _write_mps(out: TextIO, lp: CanonicalLp, comments: Sequence[str]) -> None:
    """Write the MPS text of ``lp``, each section a block of items at a
    time, as the module docstring describes."""
    n, m = lp.n_vars, lp.n_rows
    row_pieces = _row_pieces(lp.row_names)
    out.write("".join(f"* {comment}\n" for comment in comments))
    out.write(f"NAME          {lp.name}\nROWS\n")
    senses = "N" + "".join(lp.senses)
    for start in range(0, m + 1, _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, m + 1))
        sense = np.searchsorted(_SENSE_BYTES,
                                np.frombuffer(senses[start:start + _BLOCK].encode(), np.uint8))
        out.write("".join(np.column_stack((_SENSES[sense], *row_pieces(rows),
                                           _ends(rows.size))).ravel().tolist()))

    # COLUMNS: a run per column, its objective entry (row 0) first, then its
    # entries as stored, by row; INTORG before each integer run, INTEND after it
    def column_items(col: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        entry = k > 0
        e = (lp.indptr[col] + k - 1)[entry]
        rows, values = np.zeros(k.size, dtype=np.int64), lp.objective[col]
        rows[entry], values[entry] = lp.indices[e] + 1, lp.data[e]
        return rows, values

    flips = np.flatnonzero(np.diff(lp.integer, prepend=False, append=False))
    marks = np.fromiter((f" MK{k:06d} 'MARKER' '{('INTEND', 'INTORG')[k % 2]}'\n"
                         for k in range(1, flips.size + 1)), dtype=object, count=flips.size)
    out.write("COLUMNS\n")
    _write_runs(out, lambda part: " " + lp.var_names[part].texts(), np.diff(lp.indptr) + 1,
                column_items, row_pieces, (flips, marks))

    # RHS: its header, then one run of the nonzero right-hand sides by row
    nonzero = np.flatnonzero(lp.rhs != 0.0)
    _write_runs(out, lambda _: np.array([" RHS"], dtype=object), np.array([nonzero.size]),
                lambda _, k: (nonzero[k] + 1, lp.rhs[nonzero[k]]), row_pieces,
                (np.zeros(1, dtype=np.int64), np.array(["RHS\n"], dtype=object)))
    out.write("RANGES\n")  # for completeness; this writer produces none

    # BOUNDS: FX or FR alone, else MI or LO followed by PL or UP
    out.write("BOUNDS\n")
    step = max(_BLOCK // 2, 1)
    for start in range(0, n, step):
        block = slice(start, start + step)
        lower, upper = lp.lower[block], lp.upper[block]
        fixed, inf_lo, inf_up = lower == upper, np.isinf(lower), np.isinf(upper)
        free = ~fixed & inf_lo & inf_up
        kinds = np.column_stack((np.select([fixed, free, inf_lo], [0, 1, 2], 3),
                                 np.where(inf_up, 4, 5)))
        keep = np.column_stack((np.ones_like(fixed), ~(fixed | free)))
        kind, var = kinds[keep], np.repeat(np.arange(fixed.size), 2)[keep.ravel()]
        values = _value_pieces(np.column_stack((lower, upper))[keep],
                               np.isin(kind, (0, 3, 5)))   # FX, LO and UP have one
        names = " " + lp.var_names[block].texts()
        out.write("".join(np.column_stack((_BOUNDS[kind], names[var], values,
                                           _ends(kind.size))).ravel().tolist()))
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


#: Fields of a BOUNDS line per bound type: type, set name, column, value.
_BOUND_FIELDS = {"UP": 4, "LO": 4, "FX": 4, "FR": 3, "MI": 3, "PL": 3, "BV": 3}


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad value {token!r}") from None


def _pairs(tokens: list[str]) -> Iterator[tuple[str, float]]:
    """``(row, value)`` pairs of the name/value fields of a data line."""
    if len(tokens) % 2:
        raise ValueError("odd number of row/value tokens")
    return zip(tokens[::2], map(_number, tokens[1::2]))


def import_mps(path: str | Path) -> CanonicalLp:
    """Read an MPS file written by :func:`export_mps` (or any file using
    the same section vocabulary).  RANGES entries are rejected; split the
    ranged row into two rows instead.  The name is the whole rest of the
    NAME line, and a COLUMNS line is an integer marker only when it reads
    ``<id> 'MARKER' 'INTORG'`` or ``<id> 'MARKER' 'INTEND'``."""
    path = Path(path)
    name = "lp"
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    declared_rows: set[str] = set()
    objective_row: str | None = None
    var_order: list[str] = []
    var_set: dict[str, int] = {}
    var_integer: dict[str, bool] = {}
    obj_coeff: dict[str, float] = {}
    entries: dict[tuple[str, str], float] = {}
    rhs: dict[str, float] = {}
    bounds_lo: dict[str, float] = {}
    bounds_up: dict[str, float] = {}
    bound_kinds: set[tuple[str, str]] = set()
    in_integer = False

    def ensure_var(token: str) -> None:
        if token not in var_set:
            var_set[token] = len(var_order)
            var_order.append(token)
            var_integer[token] = in_integer

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
                if row in declared_rows:
                    raise ValueError(f"duplicate row {row!r}")
                declared_rows.add(row)
                if sense == "N":
                    if objective_row is None:
                        objective_row = row
                    continue
                letter = {"L": "<", "E": "=", "G": ">"}.get(sense)
                if letter is None:
                    raise ValueError(f"unknown row sense {sense!r}")
                row_sense[row] = letter
                row_order.append(row)
            elif section == "COLUMNS":
                if (len(tokens) == 3 and tokens[1] == "'MARKER'"
                        and tokens[2] in ("'INTORG'", "'INTEND'")):
                    in_integer = tokens[2] == "'INTORG'"
                    continue
                var = tokens[0]
                ensure_var(var)
                for row, val in _pairs(tokens[1:]):
                    if row == objective_row:
                        if var in obj_coeff:
                            raise ValueError(f"duplicate objective entry for column {var!r}")
                        obj_coeff[var] = val
                    elif row in row_sense:
                        key = (row, var)
                        if key in entries:
                            raise ValueError(f"duplicate entry {key}")
                        entries[key] = val
                    else:
                        raise ValueError(f"unknown row {row!r}")
            elif section == "RHS":
                for row, val in _pairs(tokens[1:]):
                    if row in rhs:
                        raise ValueError(f"duplicate RHS entry for row {row!r}")
                    if row in row_sense:
                        rhs[row] = val
                    elif row != objective_row:  # objective offsets are not represented
                        raise ValueError(f"unknown row {row!r}")
            elif section == "RANGES":
                raise ValueError("RANGES entries are not supported")
            elif section == "BOUNDS":
                kind = tokens[0].upper()
                if kind not in _BOUND_FIELDS:
                    raise ValueError(f"unknown bound type {kind!r}")
                if len(tokens) != _BOUND_FIELDS[kind]:
                    raise ValueError(f"{kind} bound needs {_BOUND_FIELDS[kind]} fields, "
                                     f"got {len(tokens)}")
                var = tokens[2]
                if (kind, var) in bound_kinds:
                    raise ValueError(f"duplicate {kind} bound for column {var!r}")
                bound_kinds.add((kind, var))
                ensure_var(var)
                if kind == "UP":
                    bounds_up[var] = _number(tokens[3])
                elif kind == "LO":
                    bounds_lo[var] = _number(tokens[3])
                elif kind == "FX":
                    bounds_lo[var] = bounds_up[var] = _number(tokens[3])
                elif kind == "FR":
                    bounds_lo[var] = -math.inf
                    bounds_up[var] = math.inf
                elif kind == "MI":
                    bounds_lo[var] = -math.inf
                elif kind == "PL":
                    bounds_up[var] = math.inf
                else:  # BV
                    bounds_lo[var] = 0.0
                    bounds_up[var] = 1.0
                    var_integer[var] = True
            else:
                raise ValueError("data outside any section")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc

    builder = LpBuilder(name=name)
    builder.add_vars(
        var_order,
        lower=[bounds_lo.get(var, 0.0) for var in var_order],
        upper=[bounds_up.get(var, math.inf) for var in var_order],
        objective=[obj_coeff.get(var, 0.0) for var in var_order],
        integer=[var_integer[var] for var in var_order],
    )
    rows = builder.add_rows(row_order, [row_sense[row] for row in row_order],
                            [rhs.get(row, 0.0) for row in row_order])
    row_index = dict(zip(row_order, rows.tolist()))
    builder.add_entries([row_index[row] for row, _ in entries],
                        [var_set[var] for _, var in entries], list(entries.values()))
    return builder.build()


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
