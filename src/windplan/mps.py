"""MPS interchange for canonical LPs plus a plain-text solution format.

The writer emits fixed-format MPS (fields anchored at columns 2-3, 5-12,
15-22, 25-36, 40-47 and 50-61) with values printed to 12 significant
digits; a field longer than its slot simply runs on, which every
whitespace-tolerant reader (including ours) accepts.  Names longer than
eight characters are mangled deterministically and the mangling table is
written next to the file.  Integer columns are wrapped in INTORG/INTEND
markers.  Solution files are one ``name value`` pair per line.

The writer is array-based (one sort lays out COLUMNS; values are formatted
and long names hashed in bulk), ~28 MB/s on 2 cores; its bytes are pinned
to the line-at-a-time reference writer in ``tests/mps_oracle.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from windplan.fileio import _read
from windplan.lp import CanonicalLp, LpBuilder, LpSolution

_FIELD_COLUMNS = (1, 4, 14, 24, 39, 49)  # 0-based starts of the six fields
_OBJECTIVE_ROW = "COST"
_B36 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Two base-36 digits, low digit first: _B36_PAIRS[x] spells x < 36 ** 2.
_B36_PAIRS = np.array([low + high for high in _B36 for low in _B36], dtype=object)


def _short_forms(names: Sequence[str], salt: int | np.ndarray) -> list[str]:
    """``<first 3 non-space chars>~<4 base-36 digits>`` of every name, the
    digits (low first) from the 32-bit FNV-1a hash of its UTF-8 bytes; one
    salt for all names or one per name."""
    data = [name.encode() for name in names]
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    padded = np.zeros((lengths.max(initial=0), len(data)), dtype=np.uint8)  # row k: byte k
    padded.T[lengths[:, None] > np.arange(len(padded))] = np.frombuffer(b"".join(data), np.uint8)
    h = np.full(len(data), 2166136261, dtype=np.uint64) ^ np.asarray(salt, dtype=np.uint64)
    for k, byte in enumerate(padded):
        h = np.where(lengths > k, (h ^ byte) * np.uint64(16777619) & np.uint64(0xFFFFFFFF), h)
    digits = _B36_PAIRS[h % 1296] + _B36_PAIRS[h // 1296 % 1296]
    return [f"{''.join(name.split())[:3]}~{code}" for name, code in zip(names, digits)]


def mangle_names(names: Sequence[str]) -> tuple[list[str], dict[str, str]]:
    """Shorten names to at most eight characters, deterministically.

    Short unique names pass through; long or colliding names become
    ``<first 3 chars>~<4-char hash>``, probing the hash salt until unique.
    Returns the final names and a map from mangled name to original for
    every name that changed.

    First come, first served: each name gets the first of its candidates
    (the name itself or its salt-0 form, then its forms at the next salts)
    that no earlier name got.  The names still probing are hashed together,
    one salt round at a time; a name whose form a later name holds takes it
    and sends the later name on to its next salt, which ends in the same
    assignment as placing the names one by one.
    """
    shorts = iter(_short_forms([name for name in names if len(name) > 8], 0))
    out = [next(shorts) if len(name) > 8 else name for name in names]
    salt = [0 if len(name) > 8 else -1 for name in names]  # of out[i]; -1: the name itself
    holder: dict[str, int] = {}
    probing = []
    for i, candidate in enumerate(out):
        if holder.setdefault(candidate, i) != i:  # a repeated name or a hash collision
            probing.append(i)
    while probing:
        for i in probing:
            salt[i] += 1
        forms = _short_forms([names[i] for i in probing], np.array([salt[i] for i in probing]))
        turned_away = []
        for i, form in zip(probing, forms):
            j = holder.setdefault(form, i)
            if j < i:
                turned_away.append(i)
                continue
            out[i], holder[form] = form, i
            if j > i:  # a later name held the form
                turned_away.append(j)
        probing = turned_away
    return out, {short: name for short, name in zip(out, names) if short != name}


def _lines(*fields: Sequence[str] | str) -> list[str]:
    """Fixed-format lines, one per position of the fields (a str repeats): a
    field is padded out to its column or, on a line past it, follows a space
    unless the line ends in whitespace; lines lose trailing whitespace."""
    out = [""] * max([len(f) for f in fields if not isinstance(f, str)], default=1)
    for column, texts in zip(_FIELD_COLUMNS, fields):
        texts = repeat(texts) if isinstance(texts, str) else texts
        out = [(line + " " if len(line) >= column and not line[-1].isspace()
                else line.ljust(column)) + text for line, text in zip(out, texts)]
    return [line.rstrip() + "\n" for line in out]


def _pair_lines(heads: np.ndarray, runs: np.ndarray, rows: np.ndarray,
                texts: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Lines ``head row value [row value]`` pairing up the (row, value) items
    in runs of ``runs[j]`` under ``heads[j]``, and each run's first line."""
    per_run = (runs + 1) // 2
    first_line = np.cumsum(per_run) - per_run
    run_of = np.repeat(np.arange(runs.size), runs)
    at = 2 * first_line[run_of] + np.arange(run_of.size) - (np.cumsum(runs) - runs)[run_of]
    items = np.full((2 * int(per_run.sum()), 2), "", dtype=object)
    items[at, 0], items[at, 1] = rows, texts
    fields = items.reshape(-1, 4).T.tolist()
    return _lines("", np.repeat(heads, per_run).tolist(), *fields), first_line


def _sections(lp: CanonicalLp, var_names: list[str], row_names: list[str],
              comments: Sequence[str]) -> Iterator[str]:
    """The MPS text of ``lp`` under its short names, a section at a time, so
    that at most one section's lines are held at once."""
    n = lp.n_vars
    variables, rows = np.array(var_names, dtype=object), np.array(row_names, dtype=object)
    # .12g text once per distinct bit pattern, which keeps -0.0 ("-0") apart
    bits, inverse = np.unique(np.concatenate((lp.objective, lp.entry_vals, lp.rhs, lp.lower,
                                              lp.upper)).view(np.int64), return_inverse=True)
    text = np.array([f"{v:.12g}" for v in bits.view(np.float64).tolist()], dtype=object)[inverse]
    del bits, inverse
    item_text, rhs_text, lower_text, upper_text = np.split(
        text, np.cumsum((n + lp.entry_vals.size, lp.n_rows, n)))
    yield "".join(f"* {comment}\n" for comment in comments) + f"NAME          {lp.name[:60]}\n"
    senses = [{"<": "L", "=": "E", ">": "G"}[sense] for sense in lp.senses]
    yield "".join(["ROWS\n", *_lines(["N", *senses], [_OBJECTIVE_ROW, *row_names])])

    # COLUMNS: a run per column, by row, its objective entry (row -1) first
    item_rows = np.concatenate((np.full(n, -1), lp.entry_rows))
    item_cols = np.concatenate((np.arange(n), lp.entry_cols))
    order = np.lexsort((item_rows, item_cols))
    columns, first_line = _pair_lines(
        variables, np.bincount(item_cols, minlength=n),
        np.append(_OBJECTIVE_ROW, rows)[item_rows[order] + 1], item_text[order])
    # INTORG before each integer run, INTEND after it
    flips = np.append(first_line, len(columns))[np.diff(lp.integer, prepend=False, append=False)]
    markers = _lines("", [f"MK{k:06d}" for k in range(1, len(flips) + 1)], "'MARKER'", "",
                     ["'INTORG'", "'INTEND'"] * (len(flips) // 2))
    yield "".join(["COLUMNS\n", *np.insert(np.array(columns, dtype=object), flips, markers)])
    del columns

    nonzero = np.flatnonzero(lp.rhs != 0.0)
    yield "".join(["RHS\n", *_pair_lines(np.array(["RHS"]), np.array([nonzero.size]),
                                          rows[nonzero], rhs_text[nonzero])[0]])
    yield "RANGES\n"  # for completeness; this writer produces none

    # BOUNDS: FX or FR alone, else MI or LO followed by PL or UP
    fixed, inf_lo, inf_up = lp.lower == lp.upper, np.isinf(lp.lower), np.isinf(lp.upper)
    free = ~fixed & inf_lo & inf_up
    kinds = np.column_stack((np.select([fixed, free, inf_lo], ["FX", "FR", "MI"], "LO"),
                             np.where(inf_up, "PL", "UP")))
    texts = np.column_stack((np.where(inf_lo & ~fixed, "", lower_text),
                             np.where(inf_up, "", upper_text)))
    keep = np.column_stack((np.ones_like(fixed), ~(fixed | free)))
    yield "".join(["BOUNDS\n", *_lines(kinds[keep].tolist(), "BND",
                                        np.repeat(variables, 2)[keep.ravel()].tolist(),
                                        texts[keep].tolist()), "ENDATA\n"])


def export_mps(lp: CanonicalLp, path: str | Path, comments: Sequence[str] = ()) -> Path:
    """Write the LP to ``path`` in fixed-format MPS (minimisation).

    Every variable appears in COLUMNS with an explicit objective entry (a
    zero keeps empty columns alive through a round trip) and every bound is
    written explicitly, so importing the file reproduces the LP exactly up
    to the 12-significant-digit decimal representation of values.  A
    mangling table is emitted as ``<path>.names.json`` when any name had to
    be shortened.
    """
    path = Path(path)
    var_names, var_table = mangle_names(lp.var_names)
    row_names, row_table = mangle_names(lp.row_names)
    with path.open("w", encoding="utf-8") as out:
        out.writelines(_sections(lp, var_names, row_names, comments))

    table = {**var_table, **row_table}
    if table:  # the bytes of json.dumps(table, indent=2, sort_keys=True)
        quote = json.encoder.encode_basestring_ascii
        items = ",\n".join(f"  {quote(key)}: {quote(table[key])}" for key in sorted(table))
        path.with_name(path.name + ".names.json").write_text("{\n" + items + "\n}",
                                                              encoding="utf-8")
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
    line fails with its line number.
    """
    path = Path(path)
    index = {name: i for i, name in enumerate(var_names)}
    x = np.zeros(len(index))
    seen: set[str] = set()
    report = SolutionImportReport()
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'name value', got {raw!r}")
        name, value = tokens
        try:
            parsed = float(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value {value!r}") from exc
        if name not in index:
            report.unknown.append(name)
            continue
        x[index[name]] = parsed
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
