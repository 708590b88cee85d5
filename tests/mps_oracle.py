"""Line-at-a-time reference MPS writer.

``export_mps`` groups entries into a dict of per-column lists and builds
every line with ``_line``, one field at a time.  The array-based writer in
``windplan.mps`` must write the same bytes.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from windplan.lp import CanonicalLp

_OBJECTIVE_ROW = "COST"


def _format_value(value: float) -> str:
    return f"{value:.12g}"


def _line(*fields: str) -> str:
    return " " + " ".join(fields)


def export_mps(lp: CanonicalLp, path: str | Path, comments: Sequence[str] = ()) -> Path:
    """Write the LP to ``path`` in free-format MPS (minimisation), under
    its own names.

    Every variable appears in COLUMNS with an explicit objective entry (a
    zero keeps empty columns alive through a round trip) and every bound is
    written explicitly, so importing the file reproduces the LP exactly up
    to the 12-significant-digit decimal representation of values.
    """
    path = Path(path)
    var_names, row_names = list(lp.var_names), list(lp.row_names)
    lines = [f"* {comment}" for comment in comments]
    lines.append(f"NAME          {lp.name[:60]}")
    lines.append("ROWS")
    lines.append(_line("N", _OBJECTIVE_ROW))
    sense_letter = {"<": "L", "=": "E", ">": "G"}
    for name, sense in zip(row_names, lp.senses):
        lines.append(_line(sense_letter[sense], name))

    entries_by_col: dict[int, list[tuple[str, float]]] = {j: [] for j in range(lp.n_vars)}
    # the entry properties are computed on each access: read them once
    rows, cols, vals = lp.entry_rows, lp.entry_cols, lp.entry_vals
    for pos in np.lexsort((rows, cols)):
        entries_by_col[int(cols[pos])].append((row_names[int(rows[pos])], float(vals[pos])))

    lines.append("COLUMNS")
    marker = 0
    in_integer = False
    for j in range(lp.n_vars):
        if bool(lp.integer[j]) != in_integer:
            marker += 1
            kind = "'INTORG'" if lp.integer[j] else "'INTEND'"
            lines.append(_line(f"MK{marker:06d}", "'MARKER'", kind))
            in_integer = bool(lp.integer[j])
        pairs = [(_OBJECTIVE_ROW, float(lp.objective[j]))] + entries_by_col[j]
        for start in range(0, len(pairs), 2):
            chunk = pairs[start : start + 2]
            fields = [var_names[j]]
            for row, value in chunk:
                fields.extend([row, _format_value(value)])
            lines.append(_line(*fields))
    if in_integer:
        marker += 1
        lines.append(_line(f"MK{marker:06d}", "'MARKER'", "'INTEND'"))

    lines.append("RHS")
    rhs_pairs = [
        (row_names[i], float(lp.rhs[i])) for i in range(lp.n_rows) if lp.rhs[i] != 0.0
    ]
    for start in range(0, len(rhs_pairs), 2):
        chunk = rhs_pairs[start : start + 2]
        fields = ["RHS"]
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
    return path
