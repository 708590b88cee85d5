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
line is a row of pieces taken from those tables.  COLUMNS reads the
entries in the order the LP stores them (by column, rows ascending), so
beyond the LP an export holds the row-name tables and one block, and its
memory is O(n + m + block).

Names stay families (:class:`~windplan.lp.Names`: a prefix table and
index arrays) up to the file.  Mangling hashes each prefix once and the
``|`` and digits of every index at once, keeps or shortens a name by its
length, finds first-come collisions with one sort of integer keys (short
prefix id, hash) and probes salts only for the names that collide; a
short name is an integer key until a block spells it out.  The
``.names.json`` table is sorted on those keys and quoted per prefix.  The
``export-19bus`` LP (51,568 columns, 33,299 rows, an 8.2 MB file) exports
in about 0.15 s, against 0.43 s when every name was a string, with a
traced peak of 8.7 MiB against 15.6 MiB.  At the paper's horizon (that
shape at T = 2,920: 1.54 M names, a 150 MB file, ``demos/06``) an export
takes 2.3-3.4 s against 8.7-11.2 s, and the process's peak RSS is 413-420
MB against 659 MB.  The paper-scale comp MIR (4.44 M nonzeros, a 114 MB file)
exports in 1.1 s.  All on one 2-core x86-64 host shared with other tenants.
The bytes are pinned to the line-at-a-time reference writer in
``tests/mps_oracle.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from windplan.fileio import _read
from windplan.lp import CanonicalLp, LpBuilder, LpSolution, Names

_OBJECTIVE_ROW = "COST"
_B36 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_B36_VALUE = {digit: value for value, digit in enumerate(_B36)}
# Two base-36 digits, low digit first: _B36_PAIRS[x] spells x < 36 ** 2.
_B36_PAIRS = np.array([low + high for high in _B36 for low in _B36], dtype=object)
# A short form is "<short prefix>~" and four base-36 digits of the name's
# hash, low digit first; as an integer key it is short-prefix id * _SPAN + hash % _SPAN.
_SPAN = 36 ** 4
_OFFSET, _PRIME = 2166136261, np.uint32(16777619)   # 32-bit FNV-1a
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _fnv(data: list[bytes], state) -> np.ndarray:
    """32-bit FNV-1a of each byte string, continued from ``state`` (one
    uint32 for all strings or one per string)."""
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    padded = np.zeros((lengths.max(initial=0), len(data)), dtype=np.uint8)  # row k: byte k
    padded.T[lengths[:, None] > np.arange(len(padded))] = np.frombuffer(b"".join(data), np.uint8)
    h = np.array(np.broadcast_to(np.asarray(state, dtype=np.uint32), len(data)))
    for k, byte in enumerate(padded):
        h = np.where(lengths > k, (h ^ byte) * _PRIME, h)
    return h


def _digit_counts(indices: np.ndarray) -> np.ndarray:
    """Decimal digits of each index, 0 for -1 (no index)."""
    return np.where(indices >= 0, np.searchsorted(_POW10[1:], indices, "right") + 1, 0)


def _hash(names: Names) -> np.ndarray:
    """The salt-0 FNV-1a hash of every name: each prefix's state once, then
    ``|`` and the digits of all indices at once, a digit count at a time."""
    h = _fnv([prefix.encode() for prefix in names.prefixes.tolist()],
             np.uint32(_OFFSET))[names.ids]
    digits = _digit_counts(names.indices)
    for count in range(1, int(digits.max(initial=0)) + 1):
        at = np.flatnonzero(digits == count)
        state, index = (h[at] ^ np.uint32(ord("|"))) * _PRIME, names.indices[at]
        for power in _POW10[count - 1::-1]:
            state = (state ^ (index // power % 10 + ord("0")).astype(np.uint32)) * _PRIME
        h[at] = state
    return h


def _short_prefixes(names: Names, stripped: list[str], shorts: dict[str, int]) -> np.ndarray:
    """Each name's short prefix, its first three non-space characters, as
    an id into ``shorts`` (which gains the new ones), given each prefix
    without its whitespace.  A prefix with fewer takes the rest from ``|``
    and the index's leading digits."""
    sid = np.array([shorts.setdefault(text[:3], len(shorts)) for text in stripped],
                   dtype=np.int64)[names.ids]
    need = np.array([3 - len(text) for text in stripped], dtype=np.int64)[names.ids]
    at = np.flatnonzero((need > 0) & (names.indices >= 0))
    if at.size:
        digits = _digit_counts(names.indices[at])
        lead = np.minimum(need[at] - 1, digits)   # digits after the '|'
        first = np.where(lead > 0, names.indices[at] // _POW10[np.minimum(digits - lead, 18)], 0)
        combos, where = np.unique((names.ids[at] * 3 + lead) * 100 + first, return_inverse=True)
        sid[at] = np.array([shorts.setdefault(
            stripped[combo // 300] + "|" + (str(combo % 100) if combo // 100 % 3 else ""),
            len(shorts)) for combo in combos.tolist()], dtype=np.int64)[where.ravel()]
    return sid


def _form_key(text: str, shorts: dict[str, int]) -> int | None:
    """The key of ``text`` if it reads as a short form of a known short prefix."""
    sid = shorts.get(text[:-5])
    if sid is None or text[-5:-4] != "~" or not all(c in _B36_VALUE for c in text[-4:]):
        return None
    return sid * _SPAN + sum(_B36_VALUE[c] * 36 ** k for k, c in enumerate(text[-4:]))


def _in_sorted(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which ``keys`` the sorted ``table`` holds."""
    if not table.size:
        return np.zeros(keys.shape, dtype=bool)
    return table[np.minimum(np.searchsorted(table, keys), table.size - 1)] == keys


def _mangle(names: Names, shorts: dict[str, int], reserved: Iterable[str] = (),
            reserved_keys: np.ndarray = np.zeros(0, dtype=np.int64)) -> np.ndarray:
    """The short name of every name as a key: -1 where the name is kept,
    else short-prefix id * ``_SPAN`` + the hash of its form (the ids index
    ``shorts``, which gains this space's short prefixes).  No name keeps or
    takes one of ``reserved`` or of the forms ``reserved_keys``.

    A candidate is a key: a form is one by construction, a kept name that
    reads as a form (``_form_key``) takes that form's key and any other
    kept name a negative key of its own.  One sort of the candidates finds,
    for each, the first name to hold it; only the names turned away probe
    salts, one round at a time, as :func:`mangle_names` describes.  In a
    round each form goes to the first of its holder and the names probing
    it, which is where placing the names one by one leaves it.
    """
    n, prefixes = len(names), names.prefixes.tolist()
    stripped = ["".join(prefix.split()) for prefix in prefixes]
    sid = _short_prefixes(names, stripped, shorts)
    code = (_hash(names) % _SPAN).astype(np.int64)
    lengths = np.array(list(map(len, prefixes)), dtype=np.int64)[names.ids] \
        + np.where(names.indices >= 0, _digit_counts(names.indices) + 1, 0)
    spaced = np.array(list(map(str.__ne__, stripped, prefixes)), dtype=bool)[names.ids]
    fits = (lengths <= 8) & (lengths > 0) & ~spaced
    final = np.where(fits, -1, sid * _SPAN + code)
    candidate = final.copy()
    kept = np.flatnonzero(fits)
    plain: dict[str, int] = {}   # kept names that read as no form -> their negative keys

    def key_of(text: str, known_only: bool = False) -> int | None:
        key = _form_key(text, shorts)
        if key is None:
            key = plain.get(text) if known_only else plain.setdefault(text, -1 - len(plain))
        return key

    # a name with an index ends in '|digits', so it never reads as a form
    for at, text, alone in zip(kept.tolist(), names.take(kept).texts().tolist(),
                               (names.indices[kept] < 0).tolist()):
        candidate[at] = key_of(text) if alone else plain.setdefault(text, -1 - len(plain))
    barred = [key for key in map(lambda text: key_of(text, True), reserved) if key is not None]
    barred = np.sort(np.concatenate([np.array(barred, dtype=np.int64), reserved_keys]))

    # each candidate's holder: the first name holding it, -1 if reserved
    order = np.argsort(candidate)
    ranked = candidate[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=ranked[:1] - 1))
    held = ranked[starts]
    holder = np.minimum.reduceat(order, starts) if n else np.zeros(0, dtype=np.intp)
    holder[_in_sorted(barred, held)] = -1
    turned = np.ones(n, dtype=bool)
    turned[holder[holder >= 0]] = False
    probing = np.flatnonzero(turned)
    salt = np.where(fits, -1, 0).astype(np.int32)   # of each name's current candidate
    extra: dict[int, int] = {}   # holders of forms that no first candidate is
    while probing.size:
        salt[probing] += 1
        codes, later = code[probing], np.flatnonzero(salt[probing] > 0)
        codes[later] = _fnv(list(map(str.encode, names.take(probing[later]).texts())),
                            np.uint32(_OFFSET) ^ salt[probing[later]].astype(np.uint32)) % _SPAN
        forms = sid[probing] * _SPAN + codes
        spot = np.minimum(np.searchsorted(held, forms), held.size - 1)
        found = held[spot] == forms
        # each form's holder (-1: reserved, n: none) and the first name probing it
        now = np.where(found, holder[spot], np.where(_in_sorted(barred, forms), -1, n))
        free = np.flatnonzero(now == n)
        now[free] = [extra.get(form, n) for form in forms[free].tolist()]
        order = np.lexsort((probing, forms))
        firsts = order[np.flatnonzero(np.diff(forms[order], prepend=-1 - forms[order[:1]]))]
        wins = firsts[now[firsts] > probing[firsts]]
        final[probing[wins]] = forms[wins]
        held_wins = wins[found[wins]]
        holder[spot[held_wins]] = probing[held_wins]
        other_wins = wins[~found[wins]]
        extra.update(zip(forms[other_wins].tolist(), probing[other_wins].tolist()))
        losers = np.ones(probing.size, dtype=bool)
        losers[wins] = False
        sent_on = now[wins]   # later names that held a form a probing name took
        probing = np.concatenate([probing[losers], sent_on[sent_on < n]])
    return final


class _ShortNames:
    """A name space under its short names, as arrays: item i is
    ``names[i]`` where ``keys[i]`` is -1, else the form ``keys[i]``, whose
    short prefix with its ``~`` is ``tildes[keys[i] // _SPAN]``."""

    def __init__(self, names: Names, keys: np.ndarray, tildes: np.ndarray):
        self.names, self.keys, self.tildes = names, keys, tildes
        self.tilde_lengths = np.fromiter(map(len, tildes), dtype=np.int64, count=tildes.size)
        self._led = {"": tildes}   # the tildes after each lead

    def texts(self, part: slice = slice(None), lead: str = "") -> tuple[np.ndarray, np.ndarray]:
        """``lead`` and the short name of each item in ``part``, spelled
        out, and the short names' lengths."""
        keys = self.keys[part]
        texts, lengths = np.empty(keys.size, dtype=object), np.empty(keys.size, dtype=np.int64)
        kept, formed = np.flatnonzero(keys < 0), np.flatnonzero(keys >= 0)
        names = self.names[part].take(kept).texts()
        texts[kept] = lead + names
        lengths[kept] = np.fromiter(map(len, names), dtype=np.int64, count=kept.size)
        keys = keys[formed]
        if lead not in self._led:
            self._led[lead] = lead + self.tildes
        texts[formed] = self._led[lead][keys // _SPAN] + _B36_PAIRS[keys % 1296] \
            + _B36_PAIRS[keys % _SPAN // 1296]
        lengths[formed] = self.tilde_lengths[keys // _SPAN] + 4
        return texts, lengths


def _tildes(shorts: dict[str, int]) -> np.ndarray:
    return np.array([short + "~" for short in shorts], dtype=object)


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

    ``names`` may be :class:`~windplan.lp.Names`; the work is then done on
    its prefix table and index arrays, and only the kept names, the names
    that collide and the result are spelled out.
    """
    names, shorts = Names.of(names), {}
    keys = _mangle(names, shorts, reserved)
    out, _ = _ShortNames(names, keys, _tildes(shorts)).texts()
    changed = np.flatnonzero(keys >= 0)
    return out.tolist(), dict(zip(out[changed].tolist(), names.take(changed).texts().tolist()))


def _table(texts: Iterable[str]) -> np.ndarray:
    """The texts as an object array whose entry -1, an absent field, is empty."""
    return np.fromiter(chain(texts, ("",)), dtype=object)


def _heads(names: _ShortNames, part: slice) -> np.ndarray:
    """The start of a data line under each name of ``part``: the name in its slot."""
    texts, lengths = names.texts(part, "    ")
    return texts + _FILLS[10 - lengths]


def _texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The .12g text of each distinct bit pattern of ``values`` (which keeps
    -0.0, "-0", apart) as a table, and each value's index into it."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return _table(map(format, bits.view(np.float64).tolist(), repeat(".12g"))), inverse.ravel()


_FILLS = np.array([*(" " * k for k in range(16)), "\n"], dtype=object)  # [-1] ends a line
# ROWS heads by sense (the senses in byte order); BOUNDS heads by kind
_SENSE_BYTES = np.frombuffer(b"<=>N", dtype=np.uint8)
_SENSES = np.array([" L  ", " E  ", " G  ", " N  "], dtype=object)
_BOUNDS = np.array([" FX BND   ", " FR BND   ", " MI BND   ", " LO BND   ", " PL BND   ",
                    " UP BND   "], dtype=object)
# Items a section lays out at once: (row, value) pairs of COLUMNS and RHS,
# two a line; lines of ROWS and BOUNDS (a column has at most two bounds);
# keys of the names table.
_BLOCK = 1 << 13


def _pair_pieces(heads: np.ndarray, rows: np.ndarray, values: np.ndarray,
                 names: tuple[np.ndarray, ...]) -> np.ndarray:
    """Pieces of the lines ``head row value [row value]``, seven a line:
    line k pairs the items ``(rows[0, k], values[0, k])`` and ``(rows[1,
    k], values[1, k])``, the second absent where its row is -1.  ``names``
    holds the tables of the rows (the objective row first): the names and
    their lengths.

    Names (at most eight characters, none holding whitespace) fit their
    slots.  A value running past its slot shifts the second name right; a
    name then reaching the last value's column is followed by a space.
    Each distinct value's text is laid out twice, padded to the second
    name's column and ending the line, so a value and what follows it are
    one piece.
    """
    table, name_lengths = names
    present = rows >= 0
    texts, index = _texts(values[present])
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=texts.size)
    padded, ended = texts + _FILLS[np.maximum(15 - lengths, 1)], texts + "\n"
    ended[-1] = ""   # no second item
    value = np.full(rows.shape, -1, dtype=np.int64)
    value[present] = index
    (row1, row2), (value1, value2), pair = rows, value, present[1]
    gap = np.minimum(24 - lengths[value1], 10) - name_lengths[row2]
    return np.column_stack((
        heads, table[row1], _FILLS[10 - name_lengths[row1]],
        np.where(pair, padded[value1], ended[value1]), table[row2],
        _FILLS[np.maximum(gap, 1) * pair], ended[value2]))


def _write_runs(out: TextIO, run_heads: Callable[[slice], np.ndarray], runs: np.ndarray,
                items: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
                names: tuple[np.ndarray, ...], markers: tuple[np.ndarray, np.ndarray]) -> None:
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
        lines = _pair_pieces(heads, rows, values, names)
        pieces = lines.ravel().tolist()
        lo, hi = np.searchsorted(at, (start, start + line.size))
        for line_at, mark in reversed([*zip((at[lo:hi] - start).tolist(), texts[lo:hi])]):
            pieces.insert(line_at * lines.shape[1], mark)  # the last first
        out.write("".join(pieces))
    out.write("".join(texts[np.searchsorted(at, total):]))


def _write_mps(out: TextIO, lp: CanonicalLp, columns: _ShortNames, rows: _ShortNames,
               comments: Sequence[str]) -> None:
    """Write the MPS text of ``lp`` under its short names, each section a
    block of items at a time.  The row-name tables are laid out once, each
    block's column names, column heads and distinct values with the block,
    and a line is a row of pieces taken from those tables.  Beyond the LP
    this holds O(m) row-name tables and one block: COLUMNS reads the
    entries as the LP stores them, by column."""
    n, m = lp.n_vars, lp.n_rows
    texts, lengths = rows.texts()
    # row i is table[i + 1]; table[-1], an absent field, is empty
    table = np.concatenate([np.array([_OBJECTIVE_ROW], dtype=object), texts,
                            np.array([""], dtype=object)])
    names = (table, np.concatenate([[len(_OBJECTIVE_ROW)], lengths, [0]]))
    out.write("".join(f"* {comment}\n" for comment in comments))
    out.write(f"NAME          {lp.name}\nROWS\n")
    senses = "N" + "".join(lp.senses)
    for start in range(0, m + 1, _BLOCK):
        block = slice(start, start + _BLOCK)
        sense = np.searchsorted(_SENSE_BYTES, np.frombuffer(senses[block].encode(), np.uint8))
        out.write("".join(np.column_stack((_SENSES[sense], table[:-1][block],
                                           _FILLS[np.full(sense.size, -1)])).ravel().tolist()))

    # COLUMNS: a run per column, its objective entry (row 0) first, then its
    # entries as stored, by row; INTORG before each integer run, INTEND after it
    def column_items(col: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        entry = k > 0
        e = (lp.indptr[col] + k - 1)[entry]
        rows, values = np.zeros(k.size, dtype=np.int64), lp.objective[col]
        rows[entry], values[entry] = lp.indices[e] + 1, lp.data[e]
        return rows, values

    flips = np.flatnonzero(np.diff(lp.integer, prepend=False, append=False))
    marks = np.fromiter((f"    MK{k:06d}  'MARKER'{' ' * 17}'{('INTEND', 'INTORG')[k % 2]}'\n"
                         for k in range(1, flips.size + 1)), dtype=object, count=flips.size)
    out.write("COLUMNS\n")
    _write_runs(out, lambda part: _heads(columns, part), np.diff(lp.indptr) + 1, column_items,
                names, (flips, marks))

    # RHS: its header, then one run of the nonzero right-hand sides by row
    nonzero = np.flatnonzero(lp.rhs != 0.0)
    _write_runs(out, lambda _: np.array(["    RHS       "], dtype=object),
                np.array([nonzero.size]),
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
        kind, var = kinds[keep], np.repeat(np.arange(fixed.size), 2)[keep.ravel()]
        valued = np.isin(kind, (0, 3, 5))  # FX, LO and UP
        texts, index = _texts(np.column_stack((lower, upper))[keep][valued])
        value = np.full(kind.size, -1, dtype=np.int64)
        value[valued] = index
        indented, lengths = columns.texts(block, "    ")
        out.write("".join(np.column_stack((
            _BOUNDS[kind], indented[var], _FILLS[np.where(valued, 10 - lengths[var], 0)],
            (texts + "\n")[value])).ravel().tolist()))
    out.write("ENDATA\n")


def _write_names_table(path: Path, spaces: Sequence[_ShortNames]) -> None:
    """Write the bytes of ``json.dumps(table, indent=2, sort_keys=True)``
    for the table from each mangled name to its original, ``_BLOCK`` keys
    at a time, without building the table; remove the file when no name
    was mangled.

    A key is ``<short prefix>~<4 base-36 digits>`` and the digits sort as
    their characters do, low digit first; so the keys sort by the rank of
    ``<short prefix>~`` and then by the digits read backwards, unless a
    short prefix holds ``~`` (then ``a~`` may begin ``a~b~``): those keys
    are spelled out and sorted.  Quoting works per prefix: ``|``, ``~``,
    digits and base-36 letters need no escaping.
    """
    quote = json.encoder.encode_basestring_ascii
    keys = np.concatenate([space.keys[space.keys >= 0] for space in spaces])
    if not keys.size:
        path.unlink(missing_ok=True)
        return
    originals = Names.concat([space.names.take(np.flatnonzero(space.keys >= 0))
                              for space in spaces])
    tildes = spaces[0].tildes   # one short-prefix table serves every space
    sid, code = keys // _SPAN, keys % _SPAN
    if any("~" in tilde[:-1] for tilde in tildes.tolist()):
        order = np.argsort(tildes[sid] + _B36_PAIRS[code % 1296] + _B36_PAIRS[code // 1296])
    else:
        rank = np.empty(tildes.size, dtype=np.int64)
        rank[np.argsort(tildes)] = np.arange(tildes.size)
        backwards = code % 36 * 46656 + code // 36 % 36 * 1296 + code // 1296 % 36 * 36 \
            + code // 46656
        order = np.argsort(rank[sid] * _SPAN + backwards)
    # a line: ',\n  "<short prefix>~', two digit pairs, '": "<prefix>' and '|<index>"'
    key_heads = np.array([",\n  " + quote(tilde)[:-1] for tilde in tildes.tolist()], dtype=object)
    value_heads = np.array(['": ' + quote(prefix)[:-1] for prefix in originals.prefixes.tolist()],
                           dtype=object)
    tails, where = originals.index_texts('"')
    with path.open("w", encoding="utf-8") as out:
        out.write("{\n")
        for start in range(0, keys.size, _BLOCK):
            at = order[start:start + _BLOCK]
            text = "".join(np.column_stack((
                key_heads[sid[at]], _B36_PAIRS[code[at] % 1296], _B36_PAIRS[code[at] // 1296],
                value_heads[originals.ids[at]], tails[where[at]])).ravel().tolist())
            out.write(text[2:] if start == 0 else text)   # the first line follows "{\n"
        out.write("\n}")


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
    shorts: dict[str, int] = {}
    var_keys = _mangle(lp.var_names, shorts)
    kept = lp.var_names.take(np.flatnonzero(var_keys < 0)).texts().tolist()
    row_keys = _mangle(lp.row_names, shorts, [*kept, _OBJECTIVE_ROW], var_keys[var_keys >= 0])
    tildes = _tildes(shorts)
    columns = _ShortNames(lp.var_names, var_keys, tildes)
    rows = _ShortNames(lp.row_names, row_keys, tildes)
    with path.open("w", encoding="utf-8") as out:
        _write_mps(out, lp, columns, rows, comments)
    _write_names_table(path.with_name(path.name + ".names.json"), (columns, rows))
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
