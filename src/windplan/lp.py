"""Solver-independent linear programming layer.

:class:`CanonicalLp` is a minimisation with row senses, variable bounds
and optional integrality flags (the flags exist only so mixed-integer
relaxations can be exported; the bundled solver rejects them).  Its
matrix is stored once, in compressed sparse column form with the rows
sorted within each column: the constructor takes (row, col, value)
triplets in any order and converts them with scipy.sparse's COO-to-CSC
conversion, and every reader (the simplex set-up, the MPS writer) reads
the columns as stored.  :class:`LpBuilder` assembles one from single
variables, rows and coefficients or from whole families of them given as
index arrays; a family's names are one :class:`Names` prefix and an index
array, spelled out only when read or written to a file.  :func:`solve` is a
bounded-variable revised simplex over a sparse working matrix, intended
for desk-scale instances; anything larger should go through the MPS
exporter in :mod:`windplan.mps` and an external solver.
It solves the LP as built (a model sets its bounds as column bounds, not
rows), sets up its working matrix, bounds and starting basis with array
expressions, and LU-factorises only the kernel of each basis.  Every LP
with rows, including one whose rows have no columns, goes through the
same path: a crash, phase one unless no artificial is left basic, then
phase two with every artificial pinned at zero; only an LP without rows
takes a closed form.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Row senses as stored in :class:`CanonicalLp`.
SENSES = ("<", "=", ">")

_REFACTOR_EVERY = 40   # eta vectors kept before the basis is refactorised
_BLAND_AFTER = 1000    # non-improving pivots before switching to Bland's rule

# Vector fields of a CanonicalLp and its entry triplets, with their dtypes;
# LpBuilder collects both in blocks.
_ARRAY_FIELDS = {
    "objective": np.float64, "rhs": np.float64, "lower": np.float64, "upper": np.float64,
    "integer": bool,
}
_ENTRY_FIELDS = {"entry_rows": np.intp, "entry_cols": np.intp, "entry_vals": np.float64}

_SPELL_CHUNK = 1 << 13   # names spelled out at a time while iterating


def family_of(name: str) -> tuple[str, int]:
    """The prefix and index under which a family item spells ``name``
    (``prefix|index``), or ``(name, -1)`` when none does."""
    head, bar, tail = name.rpartition("|")
    if bar and tail.isascii() and tail.isdigit() and len(tail) <= 19 \
            and str(int(tail)) == tail and int(tail) < 2 ** 63:
        return head, int(tail)
    return name, -1


class Names(Sequence):
    """An immutable sequence of LP names stored as families.

    Item i is ``f"{prefixes[ids[i]]}|{indices[i]}"``, or the prefix alone when
    ``indices[i]`` is -1: a family of T period rows is one prefix and T
    integers, not T strings.  Names are spelled out only when read (by
    ``[i]``, iteration and ``==``, which compares with any sequence of str
    item by item) or written to a file (:meth:`texts`); ``in``, ``index``
    and ``count`` are the :class:`~collections.abc.Sequence` mixins', which
    search the spelled names.  Slices are Names sharing the prefix table.
    """

    __slots__ = ("prefixes", "ids", "indices")

    def __init__(self, prefixes=(), ids=(), indices=()):
        prefixes = list(prefixes)
        if not all(isinstance(prefix, str) for prefix in prefixes):
            raise TypeError("LP name prefixes must be str")
        ids, indices = np.array(ids, dtype=np.intp), np.array(indices, dtype=np.int64)
        if ids.shape != indices.shape or ids.ndim != 1:
            raise ValueError("name ids and indices must be 1-D and of one length")
        if ids.size and (ids.min() < 0 or ids.max() >= len(prefixes)):
            raise ValueError("name prefix id out of range")
        if indices.size and indices.min() < -1:
            raise ValueError("name indices must be -1 (no index) or non-negative")
        self._set(np.array(prefixes, dtype=object), ids, indices)

    def _set(self, prefixes: np.ndarray, ids: np.ndarray, indices: np.ndarray) -> Names:
        for arr in (prefixes, ids, indices):
            arr.setflags(write=False)
        self.prefixes, self.ids, self.indices = prefixes, ids, indices
        return self

    @classmethod
    def _view(cls, prefixes: np.ndarray, ids: np.ndarray, indices: np.ndarray) -> Names:
        """Names over arrays already checked, such as another Names' parts."""
        return object.__new__(cls)._set(prefixes, ids, indices)

    @classmethod
    def family(cls, prefix: str, indices) -> Names:
        """``prefix|i`` for each i of ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return cls([prefix], np.zeros(indices.size, dtype=np.intp), indices)

    @classmethod
    def of(cls, names) -> Names:
        """``names`` itself when it is Names, else one prefix per str."""
        if isinstance(names, Names):
            return names
        names = list(names)
        return cls(names, np.arange(len(names)), np.full(len(names), -1))

    @classmethod
    def concat(cls, parts) -> Names:
        """The names of ``parts`` one after another."""
        parts = [cls.of(part) for part in parts]
        offsets = np.cumsum([0] + [part.prefixes.size for part in parts])
        return cls._view(
            np.concatenate([part.prefixes for part in parts] + [np.zeros(0, object)]),
            np.concatenate([part.ids + at for part, at in zip(parts, offsets)]
                           + [np.zeros(0, np.intp)]),
            np.concatenate([part.indices for part in parts] + [np.zeros(0, np.int64)]))

    def index_texts(self) -> tuple[np.ndarray, np.ndarray]:
        """What follows the prefix in each name: a table with ``|<i>`` for
        each distinct index i (nothing for -1), and each item's position in
        it."""
        values, where = np.unique(self.indices, return_inverse=True)
        return np.array([f"|{i}" if i >= 0 else "" for i in values.tolist()],
                        dtype=object), where.ravel()

    def texts(self) -> np.ndarray:
        """Every name spelled out, as an object array."""
        tails, where = self.index_texts()
        return self.prefixes[self.ids] + tails[where]

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Names._view(self.prefixes, self.ids[item], self.indices[item])
        item = operator.index(item)
        prefix, i = self.prefixes[self.ids[item]], int(self.indices[item])
        return prefix if i < 0 else f"{prefix}|{i}"

    def __iter__(self):
        for start in range(0, len(self), _SPELL_CHUNK):
            yield from self[start:start + _SPELL_CHUNK].texts().tolist()

    def __eq__(self, other) -> bool:
        if isinstance(other, Names) and other.prefixes is self.prefixes:
            return (np.array_equal(self.ids, other.ids)
                    and np.array_equal(self.indices, other.indices))
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))   # a tuple with the same names compares equal

    def __add__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return Names.concat([self, other])

    def __repr__(self) -> str:
        shown = list(self[:4])
        return f"Names({shown}{' ...' if len(self) > 4 else ''}, n={len(self)})"


def _frozen(value, dtype) -> np.ndarray:
    """``value`` as a read-only array of ``dtype``.  A read-only array of
    that dtype, such as :class:`LpBuilder` hands over or another LP holds,
    is taken as it is; a writeable one is copied, so that its owner cannot
    change the LP."""
    arr = np.asarray(value, dtype=dtype)
    if arr.flags.writeable and (arr is value or not arr.flags.owndata):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _index_array(value) -> np.ndarray:
    """``value`` as an array of a signed integer type no wider than intp,
    taken as it is when it already is one (LpBuilder hands over int32)."""
    arr = np.asarray(value)
    if arr.dtype.kind != "i" or arr.dtype.itemsize > np.dtype(np.intp).itemsize:
        arr = arr.astype(np.intp)
    return arr


@dataclass(frozen=True, init=False)
class CanonicalLp:
    """min c'x  s.t.  A x {<=,=,>=} b,  lower <= x <= upper.

    A is stored once, in compressed sparse column form: column j's entries
    are ``indices[indptr[j]:indptr[j + 1]]`` (their rows, ascending) and
    the same slice of ``data``.  The constructor takes A as
    ``entry_rows``/``entry_cols``/``entry_vals`` triplets in any order and
    converts them with ``scipy.sparse.coo_matrix(...).tocsc()``, which
    sorts by column, then by row; ``indptr`` and ``indices`` are int32 when
    the LP fits, and a (row, col) pair given twice raises ValueError, even
    when its values cancel.  The properties of the triplet names give them
    back in (row, col) order, computed on each access.

    ``var_names`` and ``row_names`` are :class:`Names`: a sequence of str
    given to the constructor is held as one prefix per name, and a model's
    period families stay a prefix and an index array each.
    """

    objective: np.ndarray
    # Constructor arguments only; the properties below read them back, which
    # is also how dataclasses.replace passes them on.
    entry_rows: InitVar[np.ndarray]
    entry_cols: InitVar[np.ndarray]
    entry_vals: InitVar[np.ndarray]
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray
    var_names: Names
    row_names: Names
    name: str = "lp"
    indptr: np.ndarray = field(init=False)
    indices: np.ndarray = field(init=False)
    data: np.ndarray = field(init=False)

    def __init__(self, objective, entry_rows, entry_cols, entry_vals, senses, rhs, lower,
                 upper, integer, var_names, row_names, name: str = "lp"):
        def put(attr, value):
            object.__setattr__(self, attr, value)

        for attr, value in zip(_ARRAY_FIELDS, (objective, rhs, lower, upper, integer)):
            put(attr, _frozen(value, _ARRAY_FIELDS[attr]))
        put("senses", tuple(senses))
        put("var_names", Names.of(var_names))
        put("row_names", Names.of(row_names))
        put("name", name)
        n, m = self.n_vars, self.n_rows
        if len(self.var_names) != n or self.lower.size != n or self.upper.size != n \
                or self.integer.size != n:
            raise ValueError("variable-sized fields disagree on the variable count")
        if len(self.row_names) != m or len(self.senses) != m or self.rhs.size != m:
            raise ValueError("row-sized fields disagree on the row count")
        if not set(self.senses) <= set(SENSES):
            raise ValueError("row senses must be one of <, =, >")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        rows, cols = _index_array(entry_rows), _index_array(entry_cols)
        vals = np.asarray(entry_vals, dtype=np.float64)
        if not rows.ndim == cols.ndim == vals.ndim == 1 or not rows.size == cols.size == vals.size:
            raise ValueError("entry rows, columns and values must be 1-D and of one length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("constraint coefficients must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("every lower bound must not exceed its upper bound")
        if rows.size:
            if rows.min() < 0 or rows.max() >= m:
                raise ValueError("entry row index out of range")
            if cols.min() < 0 or cols.max() >= n:
                raise ValueError("entry column index out of range")
        # a counting sort by column, then each column's rows sorted and
        # repeated (row, col) pairs summed into one entry
        a = sp.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsc()
        if a.nnz != vals.size:
            raise ValueError("duplicate (row, col) triplets")
        for attr in ("indptr", "indices", "data"):
            arr = getattr(a, attr)
            arr.setflags(write=False)
            put(attr, arr)

    @property
    def n_vars(self) -> int:
        return int(self.objective.size)

    @property
    def n_rows(self) -> int:
        return int(self.rhs.size)

    def column_of_entries(self) -> np.ndarray:
        """The column of each stored entry."""
        return np.repeat(np.arange(self.n_vars, dtype=np.intp), np.diff(self.indptr))

    def _by_row(self, stored: np.ndarray) -> np.ndarray:
        """``stored``, one item per stored entry, in (row, col) order and read-only."""
        out = stored[np.argsort(self.indices, kind="stable")]
        out.setflags(write=False)
        return out

    @property
    def entry_rows(self) -> np.ndarray:
        return self._by_row(self.indices)

    @property
    def entry_cols(self) -> np.ndarray:
        return self._by_row(self.column_of_entries())

    @property
    def entry_vals(self) -> np.ndarray:
        return self._by_row(self.data)

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_vars))
        a[self.indices, self.column_of_entries()] = self.data
        return a


def _narrowed(indices: np.ndarray, count: int) -> np.ndarray:
    """``indices`` as int32 when every one lies in [0, count) and count
    fits, which spares the LP's conversion 8 bytes an entry; else as they
    are, for its range check."""
    if count <= np.iinfo(np.int32).max and (not indices.size or (indices.min() >= 0
                                                                 and indices.max() < count)):
        return indices.astype(np.int32)
    return indices


class LpBuilder:
    """Incremental construction of a :class:`CanonicalLp`, by the item or by the block.

    :meth:`add_vars`, :meth:`add_rows` and :meth:`add_entries` add whole
    families as index arrays and broadcast scalar arguments along them;
    :meth:`add_var`, :meth:`add_row` and :meth:`add_entry` are their
    one-item forms.  A block keeps a broadcast scalar as one value until
    :meth:`build`.  The names of a block are a list of str or a
    :class:`Names` family, which is kept as it is: :meth:`build` joins the
    blocks' names without spelling them out.  A repeated scalar entry is
    rejected at once, a (row, col) pair repeated across blocks by the
    :class:`CanonicalLp` conversion.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._var_names: list[Names] = []
        self._row_names: list[Names] = []
        self._n_vars = self._n_rows = 0
        self._senses: list[str] = []
        self._blocks = {key: [np.zeros(0, dtype)]
                        for key, dtype in (_ARRAY_FIELDS | _ENTRY_FIELDS).items()}
        self._scalar_keys: set[tuple[int, int]] = set()

    def _append(self, key: str, values, n: int) -> None:
        self._blocks[key].append(np.broadcast_to(np.array(values, _ARRAY_FIELDS[key]), (n,)))

    def add_vars(self, names, lower=0.0, upper=math.inf, objective=0.0,
                 integer=False) -> np.ndarray:
        """Append one column per name; returns their indices."""
        names = Names.of(names)
        start, n = self._n_vars, len(names)
        self._var_names.append(names)
        self._n_vars += n
        for key, values in (("lower", lower), ("upper", upper), ("objective", objective),
                            ("integer", integer)):
            self._append(key, values, n)
        return np.arange(start, start + n, dtype=np.intp)

    def add_rows(self, names, sense, rhs, *terms) -> np.ndarray:
        """Append one row per name and return their indices.  ``sense`` is
        one sense or one per row; each ``(cols, vals)`` term is broadcast
        along the rows and puts one entry in every row."""
        names = Names.of(names)
        start, n = self._n_rows, len(names)
        self._row_names.append(names)
        self._n_rows += n
        self._senses.extend([sense] * n if isinstance(sense, str) else sense)
        self._append("rhs", rhs, n)
        rows = np.arange(start, start + n, dtype=np.intp)
        for cols, vals in terms:
            self.add_entries(rows, cols, vals)
        return rows

    def add_entries(self, rows, cols, vals) -> None:
        """Add a block of coefficients, broadcasting the three arguments."""
        arrays = (np.array(v, dtype) for v, dtype in zip((rows, cols, vals),
                                                          _ENTRY_FIELDS.values()))
        for key, values in zip(_ENTRY_FIELDS, np.broadcast_arrays(*arrays)):
            self._blocks[key].append(values.reshape(-1))

    def add_var(self, name: str, lower: float = 0.0, upper: float = math.inf,
                objective: float = 0.0, integer: bool = False) -> int:
        return int(self.add_vars([name], lower, upper, objective, integer)[0])

    def add_row(self, name: str, sense: str, rhs: float) -> int:
        return int(self.add_rows([name], sense, rhs)[0])

    def add_entry(self, row: int, col: int, value: float) -> None:
        if (row, col) in self._scalar_keys:
            raise ValueError(f"duplicate entry for row {row}, col {col}")
        self._scalar_keys.add((row, col))
        self.add_entries(row, col, value)

    def build(self) -> CanonicalLp:
        """The LP of everything added so far; the builder starts over empty.
        Each field's blocks are joined and freed in turn, and the entries go
        to :class:`CanonicalLp` as they were added, for its one conversion."""
        blocks, senses, name = self._blocks, tuple(self._senses), self.name
        counts = {"entry_rows": self._n_rows, "entry_cols": self._n_vars}
        var_names, row_names = Names.concat(self._var_names), Names.concat(self._row_names)
        self.__init__(name)
        arrays = {}
        for key in list(blocks):
            joined = np.concatenate(blocks.pop(key))   # the blocks go once joined
            if key in counts:
                joined = _narrowed(joined, counts[key])
            joined.setflags(write=False)
            arrays[key] = joined
        return CanonicalLp(senses=senses, var_names=var_names, row_names=row_names, name=name,
                           **arrays)


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual result of a solve.

    ``duals`` holds one multiplier per row and ``reduced_costs``
    one entry per structural variable.  For non-optimal statuses the primal
    values are the final iterate and the objective may be NaN.
    """

    status: str
    x: np.ndarray
    duals: np.ndarray
    reduced_costs: np.ndarray
    objective: float
    iterations: int = 0


# ---------------------------------------------------------------------------
# Revised simplex with bounds
# ---------------------------------------------------------------------------

_BASIC, _AT_LOWER, _AT_UPPER, _FREE = 0, 1, 2, 3


class _Basis:
    """Basis with an LU-factorised kernel and product-form eta updates.

    The basis columns with one entry (slacks, artificials, one-entry
    structurals) are solved by substitution on the rows they cover; only
    the kernel, the other columns on the rows left, goes to ``splu``.  Two
    such columns on one row make the basis singular.  FTRAN/BTRAN go
    through that factorisation plus the eta sequence; the factorisation is
    rebuilt once the sequence reaches ``_REFACTOR_EVERY`` entries (or on a
    degenerate pivot element).  Every eta adds a Python step to each FTRAN
    and BTRAN, so the cadence trades that against one kernel factorisation;
    20 to 50 ran equally fast on the ``sizing`` benchmark LPs,
    60 a tenth slower and 100 a third slower.
    """

    def __init__(self, A: sp.csc_matrix, basis: np.ndarray):
        self.A = A
        self.refactor(basis)

    def refactor(self, basis: np.ndarray) -> None:
        matrix = self.A[:, basis].tocsc()
        single = np.diff(matrix.indptr) == 1
        first = matrix.indptr[:-1][single]
        self.s_cols = np.flatnonzero(single)
        self.s_rows, self.s_vals = matrix.indices[first], matrix.data[first]
        covered = np.bincount(self.s_rows, minlength=matrix.shape[0])
        if np.any(covered > 1) or np.any(self.s_vals == 0.0):
            raise RuntimeError("Factor is exactly singular")
        self.k_cols, self.k_rows = np.flatnonzero(~single), np.flatnonzero(covered == 0)
        self.kernel = matrix[:, self.k_cols]
        self.kernel_t = self.kernel.T.tocsr()
        self.lu = spla.splu(self.kernel[self.k_rows].tocsc()) if self.k_cols.size else None
        self.etas: list[tuple[int, np.ndarray]] = []

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        x = np.empty(rhs.size)
        if self.lu is not None:
            x[self.k_cols] = xk = self.lu.solve(rhs[self.k_rows])
            rhs = rhs - self.kernel @ xk
        x[self.s_cols] = rhs[self.s_rows] / self.s_vals
        for r, w in self.etas:
            xr = x[r] / w[r]
            if xr != 0.0:
                x -= w * xr
            x[r] = xr
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        c = np.array(rhs, dtype=np.float64)
        for r, w in reversed(self.etas):
            c[r] = (c[r] - float(w @ c) + w[r] * c[r]) / w[r]
        y = np.zeros(c.size)
        y[self.s_rows] = c[self.s_cols] / self.s_vals
        if self.lu is not None:
            y[self.k_rows] = self.lu.solve(c[self.k_cols] - self.kernel_t @ y, trans="T")
        return y

    def push_eta(self, row: int, spike: np.ndarray) -> bool:
        """Record a pivot; returns False when a refactorisation is due."""
        self.etas.append((row, spike.copy()))
        return len(self.etas) < _REFACTOR_EVERY


def _append_unit_columns(a, rows: np.ndarray, vals: np.ndarray, m: int) -> sp.csc_matrix:
    """The m-row matrix of the columns of ``a`` (CSC arrays: a
    :class:`CanonicalLp` or a ``csc_matrix``), then one column per item of
    ``rows`` holding the matching ``vals`` item in that row."""
    return sp.csc_matrix((np.concatenate([a.data, vals]), np.concatenate([a.indices, rows]),
                          np.concatenate([a.indptr, a.indptr[-1] + np.arange(1, rows.size + 1)])),
                         shape=(m, a.indptr.size - 1 + rows.size))


class _Simplex:
    """Bounded-variable two-phase revised simplex.

    Columns beyond the structural block are row slacks (one per inequality)
    and artificials, pinned at zero after phase one: a row starts with its
    slack basic when the slack can absorb the residual at the starting
    point, otherwise with a fresh artificial.  The set-up is whole-array
    work; rows without columns need no special case.  Dantzig pricing with a permanent switch
    to Bland's rule after a stall.
    """

    def __init__(self, lp: CanonicalLp, feas_tol: float, opt_tol: float,
                 iteration_limit: int, on_iteration=None):
        self.lp = lp
        self.feas_tol = feas_tol
        self.opt_tol = opt_tol
        self.iteration_limit = iteration_limit
        self.on_iteration = on_iteration
        self.iterations = 0
        self.bland = False

        m, n = lp.n_rows, lp.n_vars
        senses = np.array(lp.senses, dtype="U1")
        slack_rows = np.flatnonzero(senses != "=")   # slack n + k belongs to slack_rows[k]
        leq = senses[slack_rows] == "<"
        self.n_struct = n
        self.n_real = n + slack_rows.size
        self.b = np.array(lp.rhs)
        lower = np.concatenate([lp.lower, np.where(leq, 0.0, -math.inf)])
        upper = np.concatenate([lp.upper, np.where(leq, math.inf, 0.0)])
        x = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))
        status = np.where(np.isfinite(lower), _AT_LOWER,
                          np.where(np.isfinite(upper), _AT_UPPER, _FREE))
        partial = _append_unit_columns(lp, slack_rows, np.ones(slack_rows.size), m)
        residual = self.b - partial @ x

        # Basis: the row's own slack when it can absorb the residual,
        # otherwise a fresh artificial column.
        r = residual[slack_rows]
        absorbs = np.where(leq, r >= -feas_tol, r <= feas_tol)
        basic_slacks = n + np.flatnonzero(absorbs)
        x[basic_slacks] = r[absorbs]
        status[basic_slacks] = _BASIC
        art_rows = np.setdiff1d(np.arange(m), slack_rows[absorbs])
        self.n_art = art_rows.size
        arts = np.arange(self.n_real, self.n_real + self.n_art)
        basis = np.empty(m, dtype=np.intp)
        basis[slack_rows[absorbs]] = basic_slacks
        basis[art_rows] = arts
        self.lower = np.concatenate([lower, np.zeros(self.n_art)])
        self.upper = np.concatenate([upper, np.full(self.n_art, math.inf)])
        self.x = np.concatenate([x, np.abs(residual[art_rows])])
        self.vstatus = np.concatenate([status, np.full(self.n_art, _BASIC, dtype=status.dtype)])
        self.basis = basis
        self.A = _append_unit_columns(partial, art_rows,
                                      np.where(residual[art_rows] >= 0, 1.0, -1.0), m)
        self.AT = self.A.T.tocsr()
        self.cost = np.zeros(self.A.shape[1])   # phase two
        self.cost[:n] = lp.objective
        self.factor = _Basis(self.A, self.basis)

    # -- linear algebra helpers -------------------------------------------

    def _recompute_basics(self) -> None:
        x_masked = np.array(self.x)
        x_masked[self.basis] = 0.0
        rhs = self.b - self.A @ x_masked
        self.x[self.basis] = self.factor.ftran(rhs)

    def _column(self, j: int) -> np.ndarray:
        col = np.zeros(self.lp.n_rows)
        start, end = self.A.indptr[j], self.A.indptr[j + 1]
        col[self.A.indices[start:end]] = self.A.data[start:end]
        return col

    # -- core loop ---------------------------------------------------------

    def run_phase(self, cost: np.ndarray, phase: int) -> str:
        best_obj = math.inf
        stall = 0
        while True:
            if self.iterations >= self.iteration_limit:
                return "iteration_limit"
            self.iterations += 1
            y, d = self._prices(cost)
            if self.on_iteration is not None and phase == 2:
                self.on_iteration({
                    "phase": phase,
                    "iteration": self.iterations,
                    "objective": float(cost @ self.x),
                    "dual_bound": self._dual_bound(y, d),
                })
            eligible = self._eligible(d)
            if not np.any(eligible):
                return "optimal"
            j = self._entering(d, eligible)
            direction = 1.0 if d[j] < 0 else -1.0
            w = self.factor.ftran(self._column(j))
            delta = -direction * w
            t_star, leave_row = self._ratio_test(j, delta)
            if t_star is None:
                return "unbounded"
            self._pivot(j, direction, delta, t_star, leave_row, w)
            obj_new = float(cost @ self.x)
            if obj_new < best_obj - 1e-10 * (1.0 + abs(best_obj)):
                best_obj = obj_new
                stall = 0
            else:
                stall += 1
                if stall >= _BLAND_AFTER:
                    self.bland = True

    def _eligible(self, d: np.ndarray) -> np.ndarray:
        movable = (self.vstatus != _BASIC) & (self.lower < self.upper)
        down = (self.vstatus == _AT_LOWER) & (d < -self.opt_tol)
        up = (self.vstatus == _AT_UPPER) & (d > self.opt_tol)
        free = (self.vstatus == _FREE) & (np.abs(d) > self.opt_tol)
        return movable & (down | up | free)

    def _entering(self, d: np.ndarray, eligible: np.ndarray) -> int:
        idx = np.flatnonzero(eligible)
        if self.bland:
            return int(idx[0])
        return int(idx[np.argmax(np.abs(d[idx]))])

    def _ratio_test(self, j: int, delta: np.ndarray):
        xb = self.x[self.basis]
        lb = self.lower[self.basis]
        ub = self.upper[self.basis]
        room = np.full(delta.shape, math.inf)
        pos = delta > self.feas_tol
        neg = delta < -self.feas_tol
        with np.errstate(invalid="ignore"):
            room[pos] = (ub[pos] - xb[pos]) / delta[pos]
            room[neg] = (xb[neg] - lb[neg]) / (-delta[neg])
        room = np.maximum(room, 0.0)
        t_bound = self.upper[j] - self.lower[j]
        row_min = room.min() if room.size else math.inf
        t_star = min(row_min, t_bound)
        if math.isinf(t_star):
            return None, None
        if t_bound <= row_min:
            return t_star, -1  # bound flip, no basis change
        ties = np.flatnonzero(room <= t_star + 1e-12)
        order = np.lexsort((self.basis[ties], -np.abs(delta[ties])))
        return t_star, int(ties[order[0]])

    def _prices(self, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The basis's duals under ``cost`` and every column's reduced cost."""
        y = self.factor.btran(cost[self.basis])
        return y, cost - self.AT @ y

    def _to_bound(self, j: int, upper: bool) -> None:
        """Make column ``j`` nonbasic at its upper or its lower bound."""
        self.x[j] = self.upper[j] if upper else self.lower[j]
        self.vstatus[j] = _AT_UPPER if upper else _AT_LOWER

    def _pivot(self, j: int, direction: float, delta: np.ndarray,
               t: float, leave_row: int, w: np.ndarray) -> None:
        self.x[self.basis] += t * delta
        if leave_row < 0:  # bound flip
            self._to_bound(j, direction > 0)
            return
        entering_value = self.x[j] + direction * t
        # the leaving variable snaps onto the bound it reached
        self._to_bound(self.basis[leave_row], delta[leave_row] > 0)
        self.basis[leave_row] = j
        self.vstatus[j] = _BASIC
        self.x[j] = entering_value
        if abs(w[leave_row]) < 1e-11 or not self.factor.push_eta(leave_row, w):
            self.factor.refactor(self.basis)
            self._recompute_basics()

    def _dual_bound(self, y: np.ndarray, d: np.ndarray) -> float:
        """Lagrangian bound y'b + sum_j min over [l_j, u_j] of d_j x_j.

        Valid for any multipliers, hence a true lower bound on the optimum
        at every iteration; equals the primal objective at optimality.
        """
        active = np.abs(d) > self.opt_tol
        bound = np.where(d[active] > 0, self.lower[active], self.upper[active])
        if np.isinf(bound).any():
            return -math.inf
        return float(y @ self.b) + float(d[active] @ bound)

    # -- phase driver ------------------------------------------------------

    def _crash(self) -> None:
        """Hand the rows of zero-valued basic artificials to structural columns.

        Round by round, a nonbasic structural column with exactly one entry
        (|a| > 1e-7) among the rows still holding such an artificial becomes
        basic in that row, the lowest column index per row.  A column has no
        entry in the rows picked after it, so the crashed block is triangular.
        No value moves; each replaced artificial is pinned to [0, 0].
        """
        active = (self.basis >= self.n_real) & (self.x[self.basis] == 0.0)
        n_active = np.count_nonzero(active)
        big = np.abs(self.lp.data) > 1e-7
        entry_rows = self.lp.indices[big]
        entry_cols = self.lp.column_of_entries()[big]
        while True:
            hit = active[entry_rows] & (self.vstatus[entry_cols] != _BASIC)
            single = hit & (np.bincount(entry_cols[hit], minlength=self.n_struct)[entry_cols] == 1)
            # Entries run in column order, so a row's first one has its lowest column.
            picked, first = np.unique(entry_rows[single], return_index=True)
            if not picked.size:
                break
            arts = self.basis[picked]
            self.basis[picked] = entry_cols[single][first]
            self.vstatus[self.basis[picked]] = _BASIC
            self.vstatus[arts] = _AT_LOWER
            self.lower[arts] = self.upper[arts] = 0.0
            active[picked] = False
        if np.count_nonzero(active) < n_active:
            self.factor.refactor(self.basis)

    def solve(self) -> LpSolution:
        self._crash()
        if np.any(self.basis >= self.n_real):
            cost1 = np.zeros(self.A.shape[1])
            cost1[self.n_real:] = 1.0
            status = self.run_phase(cost1, phase=1)
            if status == "iteration_limit":
                return self._finish("iteration_limit")
            infeasibility = float(self.x[self.n_real:].sum())
            if infeasibility > self.feas_tol * (1.0 + float(np.abs(self.b).sum())):
                return self._finish("infeasible")
            # Every artificial is pinned at zero for phase two; one still
            # basic leaves by a degenerate pivot once a column needs its row.
            self.lower[self.n_real:] = self.upper[self.n_real:] = self.x[self.n_real:] = 0.0
        return self._finish(self.run_phase(self.cost, phase=2))

    def _finish(self, status: str) -> LpSolution:
        x = np.array(self.x[: self.n_struct])
        if status in ("optimal", "iteration_limit"):
            objective = float(self.lp.objective @ x)
            y, d = self._prices(self.cost)
        else:
            objective = math.nan
            y = np.zeros(self.lp.n_rows)
            d = self.cost
        return LpSolution(
            status=status,
            x=x,
            duals=y,
            reduced_costs=np.array(d[: self.n_struct]),
            objective=objective,
            iterations=self.iterations,
        )


def _solve_unconstrained(lp: CanonicalLp) -> LpSolution:
    """Closed form without rows: each variable at the bound its cost points to,
    a zero-cost one at the finite bound nearest zero."""
    c, lower, upper = lp.objective, lp.lower, lp.upper
    if np.any((c > 0) & ~np.isfinite(lower) | (c < 0) & ~np.isfinite(upper)):
        return LpSolution("unbounded", np.zeros(lp.n_vars), np.zeros(0), np.array(c), math.nan)
    at_lower = (c > 0) | (c == 0) & np.isfinite(lower) & (lower > 0)
    at_upper = (c < 0) | (c == 0) & np.isfinite(upper) & (upper < 0)
    x = np.where(at_lower, lower, np.where(at_upper, upper, 0.0))
    return LpSolution("optimal", x, np.zeros(0), np.array(c), float(c @ x))


def solve(
    lp: CanonicalLp,
    feas_tol: float = 1e-7,
    opt_tol: float = 1e-7,
    iteration_limit: int = 100000,
    on_iteration=None,
) -> LpSolution:
    """Solve a continuous canonical LP with the reference simplex.

    An LP without rows takes a closed form.  Any other goes, as built, to
    a two-phase bounded-variable revised simplex: a triangular crash hands
    the rows whose artificials start at zero to structural columns, phase
    one (skipped when no artificial is left basic) drives the rest to zero,
    and phase two, with every artificial pinned there, optimises with
    Dantzig pricing and a permanent fallback to Bland's rule after 1000
    non-improving pivots.  Optimal solutions satisfy primal feasibility and
    strong duality within the given tolerances.  Exceeding the iteration
    limit returns the best iterate with status ``iteration_limit``.
    """
    if np.any(lp.integer):
        raise ValueError("the reference solver handles continuous LPs only; "
                         "export integer models via MPS instead")
    if lp.n_rows == 0:
        return _solve_unconstrained(lp)
    return _Simplex(lp, feas_tol, opt_tol, iteration_limit, on_iteration).solve()
