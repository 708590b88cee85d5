"""Line-at-a-time reference MPS writer.

``export_mps`` groups entries into a dict of per-column lists and builds
every line with ``_line``, one field at a time; ``mangle_names`` hashes
each long name character by character.  The array-based writer in
``windplan.mps`` must write the same bytes, to the ``.mps`` file and to
its ``.names.json`` mangling table.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from windplan.lp import CanonicalLp

_FIELD_STARTS = (2, 5, 15, 25, 40, 50)
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


def mangle_names(names: Sequence[str],
                 reserved: Sequence[str] = ()) -> tuple[list[str], dict[str, str]]:
    """Shorten names to at most eight characters, deterministically.

    Short unique names pass through; long, empty or colliding names, and
    names holding whitespace, become ``<first 3 non-space chars>~<4-char
    hash>``, probing the hash salt until unique.  Returns the final names
    and a map from mangled name to original for every name that changed.
    No name keeps or takes one of ``reserved``.
    """
    used: set[str] = set(reserved)
    out: list[str] = []
    table: dict[str, str] = {}
    for name in names:
        candidate = name
        if len(candidate) > 8 or candidate.split() != [candidate] or candidate in used:
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
    row_names, row_table = mangle_names(lp.row_names, reserved=[*var_names, _OBJECTIVE_ROW])
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
