"""MPS interchange for canonical LPs plus a plain-text solution format.

The writer emits fixed-format MPS (fields anchored at columns 2-3, 5-12,
15-22, 25-36, 40-47 and 50-61) with values printed to 12 significant
digits; a field longer than its slot simply runs on, which every
whitespace-tolerant reader (including ours) accepts.  Names the file cannot
hold (longer than eight characters, empty or holding whitespace, and a row
named like the objective row) are mangled deterministically and the
mangling table is written next to the file.  Integer columns are wrapped in
INTORG/INTEND markers.  Solution files are one ``name value`` pair per line.

The writer runs no Python code per line or per field, and it writes each
section in blocks of ``_BLOCK`` items: the row-name tables are laid out
once, each block's column heads and distinct values with the block, and a
line is a row of pieces taken from those tables.  Beyond the LP an export
holds the name tables, the order of the entries by column (8 bytes a
nonzero) and one block, so its memory is O(n + m + block).  The
``export-19bus`` LP (an 8.2 MB file) exports in about 0.36 s, as it did
when whole sections were built, with a traced peak of 15.6 MB against
44.5 MB.  The paper-scale comp MIR (4.44 M nonzeros, a 108 MB file) raises
the process's RSS from 243 to 313 MB, against 829 MB, in 1.3-1.6 s against
2.4-2.6 s (one 2-core x86-64 host shared with other tenants).  The bytes
are pinned to the line-at-a-time reference writer in
``tests/mps_oracle.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

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

    Short unique names pass through.  Long, empty or colliding names, and
    names holding whitespace (which would split their field), become
    ``<first 3 non-space chars>~<4-char hash>``, probing the hash salt
    until unique.  Returns the final names and a map from mangled name to
    original for every name that changed.

    No name keeps or takes one of ``reserved``: the rows are mangled around
    the final column names and the objective row, so that each key of the
    joint table names one column or row of the file.

    First come, first served: each name gets the first of its candidates
    (the name itself or its salt-0 form, then its forms at the next salts)
    that no earlier name got.  The names still probing are hashed together,
    one salt round at a time; a name whose form a later name holds takes it
    and sends the later name on to its next salt, which ends in the same
    assignment as placing the names one by one.
    """
    n = len(names)
    given = np.fromiter(names, dtype=object, count=n)
    lengths = np.fromiter(map(len, names), dtype=np.int64, count=n)
    unfit = (lengths > 8) | (lengths == 0)
    fits = given[~unfit]  # kept unless one holds whitespace, which would split its field
    unfit[~unfit] = np.fromiter(map(str.__ne__, map("".join, map(str.split, fits)), fits), bool,
                                fits.size)
    out = given.copy()
    out[unfit] = _short_forms(given[unfit], 0)
    salt = unfit - 1  # of out[i]; -1: the name itself
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


def _table(texts: Iterable[str]) -> np.ndarray:
    """The texts as an object array whose entry -1, an absent field, is empty."""
    return np.fromiter(chain(texts, ("",)), dtype=object)


def _heads(names: np.ndarray) -> np.ndarray:
    """The start of a data line under each name: the name in its slot."""
    return "    " + np.fromiter(map(str.ljust, names, repeat(10)), dtype=object, count=len(names))


def _texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The .12g text of each distinct bit pattern of ``values`` (which keeps
    -0.0, "-0", apart) as a table, and each value's index into it."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return _table(map(format, bits.view(np.float64).tolist(), repeat(".12g"))), inverse.ravel()


_FILLS = np.array([*(" " * k for k in range(16)), "\n"], dtype=object)  # [-1] ends a line
# ROWS heads by sense; BOUNDS heads by kind, those with a value before a padded name
_SENSES = np.array([" N  ", " L  ", " E  ", " G  "], dtype=object)
_BOUNDS = np.array([" FX BND   ", " FR BND", " MI BND", " LO BND   ", " PL BND", " UP BND   "],
                   dtype=object)
# Items a section lays out at once: (row, value) pairs of COLUMNS and RHS,
# two a line; lines of ROWS and BOUNDS (a column has at most two bounds);
# keys of the names table.
_BLOCK = 1 << 13


def _pair_pieces(heads: np.ndarray, rows: np.ndarray, values: np.ndarray,
                 names: tuple[np.ndarray, ...]) -> np.ndarray:
    """Pieces of the lines ``head row value [row value]``, eight a line: line
    k pairs the items ``(rows[0, k], values[0, k])`` and ``(rows[1, k],
    values[1, k])``, the second absent where its row is -1.  ``names`` holds
    the tables of the rows (the objective row first): the names, the names
    padded to their slot and their lengths.

    Names (at most eight characters, none holding whitespace) fit their
    slots.  A value running past its slot shifts the second name right; a
    name then reaching the last value's column is followed by a space.
    """
    table, padded, name_lengths = names
    present = rows >= 0
    texts, index = _texts(values[present])
    value = np.full(rows.shape, -1, dtype=np.int64)
    value[present] = index
    (row1, row2), (value1, value2), pair = rows, value, present[1]
    length = np.fromiter(map(len, texts), dtype=np.int64)[value1]
    gap = np.minimum(24 - length, 10) - name_lengths[row2]
    return np.column_stack((
        heads, padded[row1], texts[value1], _FILLS[np.where(pair, np.maximum(15 - length, 1), -1)],
        table[row2], _FILLS[np.maximum(gap, 1) * pair],
        texts[value2], _FILLS[np.where(pair, -1, 0)]))


def _write_runs(out: TextIO, run_names: np.ndarray, runs: np.ndarray,
                items: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
                names: tuple[np.ndarray, ...], markers: tuple[np.ndarray, np.ndarray]) -> None:
    """Write runs of (row, value) items, two a line: run j, under
    ``run_names[j]``, holds the items ``items(j, k)`` for k < ``runs[j]``.
    Each marker line goes before the run it names (``len(runs)``: after the
    last).

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
        heads = _heads(run_names[run[0]:run[-1] + 1])[run - run[0]]
        lines = _pair_pieces(heads, rows, values, names)
        lo, hi = np.searchsorted(at, (start, start + line.size))
        marks = np.full((hi - lo, lines.shape[1]), "", dtype=object)
        marks[:, 0] = texts[lo:hi]
        out.write("".join(np.insert(lines, at[lo:hi] - start, marks, axis=0).ravel().tolist()))
    out.write("".join(texts[np.searchsorted(at, total):]))


def _write_mps(out: TextIO, lp: CanonicalLp, var_names: list[str], row_names: list[str],
               comments: Sequence[str]) -> None:
    """Write the MPS text of ``lp`` under its short names, each section a
    block of items at a time.  The row-name tables are laid out once, each
    block's column heads and distinct values with the block, and a line is
    a row of pieces taken from those tables.  Beyond the LP this holds
    O(n + m) name tables, the order of the entries by column and one
    block."""
    n, m = lp.n_vars, lp.n_rows
    table = _table([_OBJECTIVE_ROW, *row_names])  # row i is table[i + 1]
    names = (table, _table(map(str.ljust, table[:-1], repeat(10))),
             np.fromiter(map(len, table), dtype=np.int64, count=m + 2))
    out.write("".join(f"* {comment}\n" for comment in comments))
    out.write(f"NAME          {lp.name}\nROWS\n")
    senses = "N" + "".join(lp.senses)
    for start in range(0, m + 1, _BLOCK):
        block = slice(start, start + _BLOCK)
        sense = np.fromiter(map("N<=>".index, senses[block]), dtype=np.int64)
        out.write("".join((_SENSES[sense] + table[:-1][block] + "\n").tolist()))

    # COLUMNS: a run per column, its objective entry (row 0) first, then its
    # entries by row; INTORG before each integer run, INTEND after it
    order = np.lexsort((lp.entry_rows, lp.entry_cols))
    counts = np.bincount(lp.entry_cols, minlength=n)
    entry_start = np.cumsum(counts) - counts

    def column_items(col: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        entry = k > 0
        e = order[(entry_start[col] + k - 1)[entry]]
        rows, values = np.zeros(k.size, dtype=np.int64), lp.objective[col]
        rows[entry], values[entry] = lp.entry_rows[e] + 1, lp.entry_vals[e]
        return rows, values

    columns = np.fromiter(var_names, dtype=object, count=n)
    flips = np.flatnonzero(np.diff(lp.integer, prepend=False, append=False))
    marks = np.fromiter((f"    MK{k:06d}  'MARKER'{' ' * 17}'{('INTEND', 'INTORG')[k % 2]}'\n"
                         for k in range(1, flips.size + 1)), dtype=object, count=flips.size)
    out.write("COLUMNS\n")
    _write_runs(out, columns, counts + 1, column_items, names, (flips, marks))

    # RHS: its header, then one run of the nonzero right-hand sides by row
    nonzero = np.flatnonzero(lp.rhs != 0.0)
    _write_runs(out, np.array(["RHS"], dtype=object), np.array([nonzero.size]),
                lambda _, k: (nonzero[k] + 1, lp.rhs[nonzero[k]]), names,
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
        kind, var = kinds[keep], np.repeat(np.arange(start, start + fixed.size), 2)[keep.ravel()]
        valued = np.isin(kind, (0, 3, 5))  # FX, LO and UP
        texts, index = _texts(np.column_stack((lower, upper))[keep][valued])
        value = np.full(kind.size, -1, dtype=np.int64)
        value[valued] = index
        tails = np.where(valued, _heads(columns[block])[var - start],
                         "       " + columns[var] + "\n")
        out.write("".join(np.column_stack((_BOUNDS[kind], tails, texts[value],
                                           _FILLS[np.where(valued, -1, 0)])).ravel().tolist()))
    out.write("ENDATA\n")


def export_mps(lp: CanonicalLp, path: str | Path, comments: Sequence[str] = ()) -> Path:
    """Write the LP to ``path`` in fixed-format MPS (minimisation).

    Every variable appears in COLUMNS with an explicit objective entry (a
    zero keeps empty columns alive through a round trip) and every bound is
    written explicitly, so importing the file reproduces the LP exactly up
    to the 12-significant-digit decimal representation of values.  A
    mangling table is emitted as ``<path>.names.json`` when any name had to
    be changed, and one left by an earlier export is removed otherwise.
    ``lp.name`` and each comment must fit on one line: a line break in
    either raises ``ValueError``.  So does a name that would read back
    changed: an empty one, one longer than 60 characters, or one with
    whitespace at either end.
    """
    for text in (lp.name, *comments):
        if "".join(text.splitlines()) != text:
            raise ValueError(f"MPS NAME and comment lines cannot hold a line break: {text!r}")
    if not 0 < len(lp.name) <= 60 or lp.name.strip() != lp.name:
        raise ValueError("MPS NAME must be 1 to 60 characters with no whitespace at either "
                         f"end: {lp.name!r}")
    path = Path(path)
    var_names, var_table = mangle_names(lp.var_names)
    row_names, row_table = mangle_names(lp.row_names, reserved=[*var_names, _OBJECTIVE_ROW])
    with path.open("w", encoding="utf-8") as out:
        _write_mps(out, lp, var_names, row_names, comments)

    table = {**var_table, **row_table}
    side = path.with_name(path.name + ".names.json")
    if not table:
        side.unlink(missing_ok=True)
        return path
    # the bytes of json.dumps(table, indent=2, sort_keys=True), _BLOCK keys at a time
    quote, keys = json.encoder.encode_basestring_ascii, sorted(table)
    with side.open("w", encoding="utf-8") as out:
        for start in range(0, len(keys), _BLOCK):
            block = keys[start:start + _BLOCK]
            out.write(("{\n" if start == 0 else ",\n") + ",\n".join(map(
                "  {}: {}".format, map(quote, block), map(quote, map(table.__getitem__, block)))))
        out.write("\n}")
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
