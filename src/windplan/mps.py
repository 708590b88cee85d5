"""MPS interchange for canonical LPs plus a plain-text solution format.

The writer emits fixed-format MPS (fields anchored at columns 2-3, 5-12,
15-22, 25-36, 40-47 and 50-61) with values printed to 12 significant
digits; a field longer than its slot simply runs on, which every
whitespace-tolerant reader (including ours) accepts.  Names longer than
eight characters are mangled deterministically and the mangling table is
written next to the file.  Integer columns are wrapped in INTORG/INTEND
markers.  Solution files are one ``name value`` pair per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from windplan.lp import CanonicalLp, LpBuilder, LpSolution

_FIELD_STARTS = (2, 5, 15, 25, 40, 50)
_FIELD_WIDTHS = (2, 8, 8, 12, 8, 12)
_OBJECTIVE_ROW = "COST"
_B36 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _format_value(value: float) -> str:
    return f"{value:.12g}"


def _line(*fields: str) -> str:
    buf: list[str] = []
    for text, start in zip(fields, _FIELD_STARTS):
        if not text:
            continue
        pad = start - 1 - len(buf)
        if pad > 0:
            buf.extend(" " * pad)
        elif buf and not buf[-1].isspace():
            buf.append(" ")
        buf.extend(text)
    return "".join(buf).rstrip()


def _hash36(text: str, salt: int = 0) -> str:
    h = 2166136261 ^ salt
    for ch in text.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    out = []
    for _ in range(4):
        out.append(_B36[h % 36])
        h //= 36
    return "".join(out)


def mangle_names(names: Sequence[str]) -> tuple[list[str], dict[str, str]]:
    """Shorten names to at most eight characters, deterministically.

    Short unique names pass through; long or colliding names become
    ``<first 3 chars>~<4-char hash>``, probing the hash salt until unique.
    Returns the final names and a map from mangled name to original for
    every name that changed.
    """
    used: set[str] = set()
    out: list[str] = []
    table: dict[str, str] = {}
    for name in names:
        candidate = name
        if len(candidate) > 8 or candidate in used:
            prefix = "".join(ch for ch in name if not ch.isspace())[:3]
            salt = 0
            candidate = f"{prefix}~{_hash36(name, salt)}"
            while candidate in used:
                salt += 1
                candidate = f"{prefix}~{_hash36(name, salt)}"
            table[candidate] = name
        used.add(candidate)
        out.append(candidate)
    return out, table


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
    lines = [f"* {comment}" for comment in comments]
    lines.append(f"NAME          {lp.name[:60]}")
    lines.append("ROWS")
    lines.append(_line("N", _OBJECTIVE_ROW))
    sense_letter = {"<": "L", "=": "E", ">": "G"}
    for name, sense in zip(row_names, lp.senses):
        lines.append(_line(sense_letter[sense], name))

    entries_by_col: dict[int, list[tuple[str, float]]] = {j: [] for j in range(lp.n_vars)}
    order = np.lexsort((lp.entry_rows, lp.entry_cols))
    for pos in order:
        j = int(lp.entry_cols[pos])
        entries_by_col[j].append((row_names[int(lp.entry_rows[pos])], float(lp.entry_vals[pos])))

    lines.append("COLUMNS")
    marker = 0
    in_integer = False
    for j in range(lp.n_vars):
        if bool(lp.integer[j]) != in_integer:
            marker += 1
            kind = "'INTORG'" if lp.integer[j] else "'INTEND'"
            lines.append(_line("", f"MK{marker:06d}", "'MARKER'", "", kind))
            in_integer = bool(lp.integer[j])
        pairs = [(_OBJECTIVE_ROW, float(lp.objective[j]))] + entries_by_col[j]
        for start in range(0, len(pairs), 2):
            chunk = pairs[start : start + 2]
            fields = ["", var_names[j]]
            for row, value in chunk:
                fields.extend([row, _format_value(value)])
            lines.append(_line(*fields))
    if in_integer:
        marker += 1
        lines.append(_line("", f"MK{marker:06d}", "'MARKER'", "", "'INTEND'"))

    lines.append("RHS")
    rhs_pairs = [
        (row_names[i], float(lp.rhs[i])) for i in range(lp.n_rows) if lp.rhs[i] != 0.0
    ]
    for start in range(0, len(rhs_pairs), 2):
        chunk = rhs_pairs[start : start + 2]
        fields = ["", "RHS"]
        for row, value in chunk:
            fields.extend([row, _format_value(value)])
        lines.append(_line(*fields))

    lines.append("RANGES")  # emitted for completeness; this writer produces none

    lines.append("BOUNDS")
    for j in range(lp.n_vars):
        lo, up = float(lp.lower[j]), float(lp.upper[j])
        if lo == up:
            lines.append(_line("FX", "BND", var_names[j], _format_value(lo)))
            continue
        if math.isinf(lo) and math.isinf(up):
            lines.append(_line("FR", "BND", var_names[j]))
            continue
        if math.isinf(lo):
            lines.append(_line("MI", "BND", var_names[j]))
        else:
            lines.append(_line("LO", "BND", var_names[j], _format_value(lo)))
        if math.isinf(up):
            lines.append(_line("PL", "BND", var_names[j]))
        else:
            lines.append(_line("UP", "BND", var_names[j], _format_value(up)))
    lines.append("ENDATA")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    table = {**var_table, **row_table}
    if table:
        side = path.with_name(path.name + ".names.json")
        side.write_text(json.dumps(table, indent=2, sort_keys=True), encoding="utf-8")
    return path


def import_mps(path: str | Path) -> CanonicalLp:
    """Read an MPS file written by :func:`export_mps` (or any file using
    the same section vocabulary).  RANGES entries are rejected; split the
    ranged row into two rows instead."""
    path = Path(path)
    name = "lp"
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    objective_row: str | None = None
    var_order: list[str] = []
    var_set: dict[str, int] = {}
    var_integer: dict[str, bool] = {}
    obj_coeff: dict[str, float] = {}
    entries: dict[tuple[str, str], float] = {}
    rhs: dict[str, float] = {}
    bounds_lo: dict[str, float] = {}
    bounds_up: dict[str, float] = {}
    in_integer = False

    def ensure_var(token: str) -> None:
        if token not in var_set:
            var_set[token] = len(var_order)
            var_order.append(token)
            var_integer[token] = in_integer

    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw[0].isspace():
            tokens = raw.split()
            keyword = tokens[0].upper()
            if keyword == "NAME":
                name = tokens[1] if len(tokens) > 1 else "lp"
            elif keyword in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                section = keyword
            elif keyword == "ENDATA":
                section = None
                break
            else:
                raise ValueError(f"{path}:{lineno}: unknown section {keyword!r}")
            continue
        tokens = raw.split()
        if section == "ROWS":
            sense, row = tokens[0].upper(), tokens[1]
            if sense == "N":
                if objective_row is None:
                    objective_row = row
                continue
            letter = {"L": "<", "E": "=", "G": ">"}.get(sense)
            if letter is None:
                raise ValueError(f"{path}:{lineno}: unknown row sense {sense!r}")
            row_sense[row] = letter
            row_order.append(row)
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                in_integer = tokens[2] == "'INTORG'"
                continue
            var = tokens[0]
            ensure_var(var)
            pairs = tokens[1:]
            if len(pairs) % 2:
                raise ValueError(f"{path}:{lineno}: odd number of row/value tokens")
            for row, value in zip(pairs[::2], pairs[1::2]):
                val = float(value)
                if row == objective_row:
                    obj_coeff[var] = val
                elif row in row_sense:
                    key = (row, var)
                    if key in entries:
                        raise ValueError(f"{path}:{lineno}: duplicate entry {key}")
                    entries[key] = val
                else:
                    raise ValueError(f"{path}:{lineno}: unknown row {row!r}")
        elif section == "RHS":
            pairs = tokens[1:]
            for row, value in zip(pairs[::2], pairs[1::2]):
                if row == objective_row:
                    continue  # objective offsets are not represented
                rhs[row] = float(value)
        elif section == "RANGES":
            raise ValueError(f"{path}:{lineno}: RANGES entries are not supported")
        elif section == "BOUNDS":
            kind = tokens[0].upper()
            var = tokens[2]
            ensure_var(var)
            if kind == "UP":
                bounds_up[var] = float(tokens[3])
            elif kind == "LO":
                bounds_lo[var] = float(tokens[3])
            elif kind == "FX":
                bounds_lo[var] = bounds_up[var] = float(tokens[3])
            elif kind == "FR":
                bounds_lo[var] = -math.inf
                bounds_up[var] = math.inf
            elif kind == "MI":
                bounds_lo[var] = -math.inf
            elif kind == "PL":
                bounds_up[var] = math.inf
            elif kind == "BV":
                bounds_lo[var] = 0.0
                bounds_up[var] = 1.0
                var_integer[var] = True
            else:
                raise ValueError(f"{path}:{lineno}: unknown bound type {kind!r}")
        else:
            raise ValueError(f"{path}:{lineno}: data outside any section")

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
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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
