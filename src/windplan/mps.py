"""MPS interchange for canonical LPs plus a plain-text solution format.

The writer emits fixed-format MPS (fields anchored at columns 2-3, 5-12,
15-22, 25-36, 40-47 and 50-61) with values printed to 12 significant
digits; a field longer than its slot simply runs on, which every
whitespace-tolerant reader (including ours) accepts.  Names longer than
eight characters are mangled deterministically and the mangling table is
written next to the file.  Integer columns are wrapped in INTORG/INTEND
markers.  Solution files are one ``name value`` pair per line.

The writer runs no Python code per line or per field: each distinct name
and value is laid out once, and a line is a row of pieces taken from those
tables.  A 10 MB LP takes 0.26 s (~38 MB/s), against 0.40 s for the writer
that padded each field of each line in Python (one quiet 2-core x86-64
host).  Its bytes are pinned to the line-at-a-time reference writer in
``tests/mps_oracle.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from windplan.fileio import _read
from windplan.lp import CanonicalLp, LpBuilder, LpSolution

_OBJECTIVE_ROW = "COST"
_B36 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Two base-36 digits, low digit first: _B36_PAIRS[x] spells x < 36 ** 2.
_B36_PAIRS = np.array([low + high for high in _B36 for low in _B36], dtype=object)


def _short_forms(names: np.ndarray, salt: int | np.ndarray) -> np.ndarray:
    """``<first 3 non-space chars>~<4 base-36 digits>`` of every name, the
    digits (low first) from the 32-bit FNV-1a hash of its UTF-8 bytes; one
    salt for all names or one per name."""
    data = list(map(str.encode, names))
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    padded = np.zeros((lengths.max(initial=0), len(data)), dtype=np.uint8)  # row k: byte k
    padded.T[lengths[:, None] > np.arange(len(padded))] = np.frombuffer(b"".join(data), np.uint8)
    h = np.full(len(data), 2166136261, dtype=np.uint64) ^ np.asarray(salt, dtype=np.uint64)
    for k, byte in enumerate(padded):
        h = np.where(lengths > k, (h ^ byte) * np.uint64(16777619) & np.uint64(0xFFFFFFFF), h)
    prefixes = map(itemgetter(slice(3)), map("".join, map(str.split, names)))
    return np.fromiter(prefixes, dtype=object, count=len(data)) + "~" + \
        _B36_PAIRS[h % 1296] + _B36_PAIRS[h // 1296 % 1296]


def mangle_names(names: Sequence[str],
                 reserved: Iterable[str] = ()) -> tuple[list[str], dict[str, str]]:
    """Shorten names to at most eight characters, deterministically.

    Short unique names pass through; long or colliding names become
    ``<first 3 chars>~<4-char hash>``, probing the hash salt until unique.
    Returns the final names and a map from mangled name to original for
    every name that changed.

    No name keeps or takes one of ``reserved``: the rows are mangled around
    the final column names, so that each key of the joint table names one
    column or row of the file.

    First come, first served: each name gets the first of its candidates
    (the name itself or its salt-0 form, then its forms at the next salts)
    that no earlier name got.  The names still probing are hashed together,
    one salt round at a time; a name whose form a later name holds takes it
    and sends the later name on to its next salt, which ends in the same
    assignment as placing the names one by one.
    """
    n = len(names)
    given = np.fromiter(names, dtype=object, count=n)
    long = np.fromiter(map(len, names), dtype=np.int64, count=n) > 8
    out = given.copy()
    out[long] = _short_forms(given[long], 0)
    salt = long - 1  # of out[i]; -1: the name itself
    reserved, candidates = set(reserved), out.tolist()
    holder = dict.fromkeys(reserved.intersection(candidates), -1)  # who holds each; -1: reserved
    probing = np.array([i for i, candidate in enumerate(candidates)  # repeats, collisions
                        if holder.setdefault(candidate, i) != i], dtype=np.int64)
    while probing.size:
        salt[probing] += 1
        turned_away = []
        for i, form in zip(probing.tolist(), _short_forms(given[probing], salt[probing])):
            j = -1 if form in reserved else holder.setdefault(form, i)
            if j < i:
                turned_away.append(i)
                continue
            out[i], holder[form] = form, i
            if j > i:  # a later name held the form
                turned_away.append(j)
        probing = np.array(turned_away, dtype=np.int64)
    changed = out != given
    return out.tolist(), dict(zip(out[changed].tolist(), given[changed].tolist()))


def _table(texts: Iterable[str], suffix: str = "") -> np.ndarray:
    """The texts, each followed by ``suffix``, as an object array whose
    entry -1, an absent field, is empty."""
    out = np.fromiter(chain(texts, ("",)), dtype=object)
    out[:-1] += suffix
    return out


def _line_ends(lead: np.ndarray | str, table: np.ndarray) -> np.ndarray:
    """``lead`` and each text of a table ending a line, trailing whitespace cut."""
    return _table(map(str.rstrip, lead + table[:-1]), "\n")


_FILLS = np.array([*(" " * k for k in range(16)), "\n"], dtype=object)  # [-1] ends a line
# ROWS heads by sense; BOUNDS heads by kind, those with a value before a padded name
_SENSES = np.array([" N  ", " L  ", " E  ", " G  "], dtype=object)
_BOUNDS = np.array([" FX BND   ", " FR BND", " MI BND", " LO BND   ", " PL BND", " UP BND   "],
                   dtype=object)


def _pair_pieces(heads: np.ndarray, runs: np.ndarray, rows: np.ndarray, values: np.ndarray,
                names: np.ndarray, texts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pieces of the lines ``head row value [row value]``, eight a line,
    pairing up the items ``(names[rows[k]], texts[values[k]])`` in runs of
    ``runs[j]`` under ``heads[j]``; and each run's first line.

    Names (at most eight characters) fit their slots.  A value running past
    its slot shifts the second name right; a name then reaching the last
    value's column is followed by a space unless it ends in whitespace.
    """
    # an odd run ends in an absent item (-1), so a line is a pair of items
    items = np.insert(np.stack((rows, values)), np.cumsum(runs)[runs % 2 == 1], -1, axis=1)
    (row1, row2), (value1, value2) = items.reshape(2, -1, 2).transpose(0, 2, 1)
    per_run = (runs + 1) // 2
    pair, length = value2 >= 0, np.fromiter(map(len, texts), dtype=np.int64)[value1]
    gap = np.minimum(24 - length, 10) - np.fromiter(map(len, names), dtype=np.int64)[row2]
    space_end = np.fromiter(map(str.isspace, map(itemgetter(slice(-1, None)), names)), bool)
    lines = np.column_stack((
        np.repeat(heads, per_run), _table(map(str.ljust, names[:-1], repeat(10)))[row1],
        texts[value1], _FILLS[np.where(pair, np.maximum(15 - length, 1), -1)],
        names[row2], _FILLS[np.where(gap > 0, gap, ~space_end[row2]) * pair],
        texts[value2], _FILLS[np.where(pair, -1, 0)]))
    return lines, np.cumsum(per_run) - per_run


def _write_mps(out: TextIO, lp: CanonicalLp, var_names: list[str], row_names: list[str],
               comments: Sequence[str]) -> None:
    """Write the MPS text of ``lp`` under its short names, a section at a
    time.  Each distinct name and value is laid out once, in a table; a line
    is a row of pieces taken from the tables, and a section is joined from a
    list of its pieces once the array that gathered them is dropped."""
    n, m = lp.n_vars, lp.n_rows
    names = _table([_OBJECTIVE_ROW, *row_names])  # row i is names[i + 1]
    # .12g text once per distinct bit pattern, which keeps -0.0 ("-0") apart
    bits, inverse = np.unique(np.concatenate((lp.objective, lp.entry_vals, lp.rhs, lp.lower,
                                              lp.upper)).view(np.int64), return_inverse=True)
    texts = _table(map(format, bits.view(np.float64).tolist(), repeat(".12g")))
    out.write("".join(f"* {comment}\n" for comment in comments))
    out.write(f"NAME          {lp.name[:60]}\nROWS\n")
    senses = np.fromiter(map("N<=>".index, ["N", *lp.senses]), dtype=np.int64, count=m + 1)
    out.write("".join(_line_ends(_SENSES[senses], names).tolist()))

    # COLUMNS, and RHS as a last column: a run per column, by row, its
    # objective entry (row 0) first
    nonzero, end = np.flatnonzero(lp.rhs != 0.0), n + lp.entry_vals.size
    rows = np.concatenate((np.zeros(n, dtype=np.int64), lp.entry_rows + 1, nonzero + 1))
    cols = np.concatenate((np.arange(n), lp.entry_cols, np.full(nonzero.size, n)))
    order = np.lexsort((rows, cols))
    heads = "    " + _table(map(str.ljust, [*var_names, "RHS"], repeat(10)))[:-1]
    lines, first_line = _pair_pieces(
        heads, np.bincount(cols, minlength=n + 1), rows[order],
        np.append(inverse[:end], inverse[end:end + m][nonzero])[order], names, texts)
    del rows, cols, order
    # INTORG before each integer run, INTEND after it, then the RHS header
    flips = first_line[np.diff(lp.integer, prepend=False, append=False)]
    markers = np.full((flips.size + 1, lines.shape[1]), "", dtype=object)
    markers[:, 0] = [*(f"    MK{k:06d}  'MARKER'{' ' * 17}'{('INTEND', 'INTORG')[k % 2]}'\n"
                       for k in range(1, flips.size + 1)), "RHS\n"]
    lines = np.insert(lines, np.append(flips, first_line[n]), markers, axis=0)
    lines = lines.ravel().tolist()
    out.write("COLUMNS\n")
    out.write("".join(lines))
    del lines
    out.write("RANGES\n")  # for completeness; this writer produces none

    # BOUNDS: FX or FR alone, else MI or LO followed by PL or UP
    fixed, inf_lo, inf_up = lp.lower == lp.upper, np.isinf(lp.lower), np.isinf(lp.upper)
    free = ~fixed & inf_lo & inf_up
    kinds = np.column_stack((np.select([fixed, free, inf_lo], [0, 1, 2], 3),
                             np.where(inf_up, 4, 5)))
    keep = np.column_stack((np.ones_like(fixed), ~(fixed | free)))
    kind, var = kinds[keep], np.repeat(np.arange(n), 2)[keep.ravel()]
    valued = np.isin(kind, (0, 3, 5))  # FX, LO and UP
    value = np.where(valued, inverse[end + m:].reshape(2, n).T[keep], -1)
    tails = np.where(valued, heads[var], _line_ends("       ", _table(var_names))[var])
    lines = np.column_stack((_BOUNDS[kind], tails, texts[value],
                             _FILLS[np.where(valued, -1, 0)])).ravel().tolist()
    out.write("".join(["BOUNDS\n", *lines, "ENDATA\n"]))


def export_mps(lp: CanonicalLp, path: str | Path, comments: Sequence[str] = ()) -> Path:
    """Write the LP to ``path`` in fixed-format MPS (minimisation).

    Every variable appears in COLUMNS with an explicit objective entry (a
    zero keeps empty columns alive through a round trip) and every bound is
    written explicitly, so importing the file reproduces the LP exactly up
    to the 12-significant-digit decimal representation of values.  A
    mangling table is emitted as ``<path>.names.json`` when any name had to
    be shortened, and one left by an earlier export is removed otherwise.
    """
    path = Path(path)
    var_names, var_table = mangle_names(lp.var_names)
    row_names, row_table = mangle_names(lp.row_names, reserved=var_names)
    with path.open("w", encoding="utf-8") as out:
        _write_mps(out, lp, var_names, row_names, comments)

    table = {**var_table, **row_table}
    side = path.with_name(path.name + ".names.json")
    if table:  # the bytes of json.dumps(table, indent=2, sort_keys=True)
        quote = json.encoder.encode_basestring_ascii
        items = ",\n".join(f"  {quote(key)}: {quote(table[key])}" for key in sorted(table))
        side.write_text("{\n" + items + "\n}", encoding="utf-8")
    else:
        side.unlink(missing_ok=True)
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
    ranged row into two rows instead."""
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
                    name = tokens[1] if len(tokens) > 1 else "lp"
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
                if len(tokens) >= 3 and tokens[1] == "'MARKER'":
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
    """Write primal values as UTF-8 ``name value`` lines (full precision)."""
    path = Path(path)
    lines = [f"{name} {value:.17g}" for name, value in zip(var_names, np.asarray(values))]
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
