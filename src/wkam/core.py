"""Min-plus kernels, the Lax-Oleinik operators and the integer grid.

A cost instance is an ``n x n`` matrix ``c`` over the extended reals, read as
the one-step transition price ``c(x, y)`` from row point ``x`` to column
point ``y``.  The two value-update operators are

    ``T-(u)(x) = min_y  u(y) + c(y, x)``   (backward / min-plus)
    ``T+(u)(x) = max_y  u(y) - c(x, y)``   (forward  / max-plus)

Every min-plus loop of the solver is a kernel here: ``minplus_row`` (a row
times a matrix given by its columns; ``minplus_product`` is one per row,
or folds the rows of a thin right factor), ``kleene_plus`` (the closure,
whose diagonal holds the jumps) and ``MinPlusRows`` (rows and products
against one right factor, the barrier's transient), but
``critical._relax``, one Bellman-Ford round that relaxes in
place, whose predecessors the search for the critical constant reads: a
Jacobi round of ``minplus_row`` would set others.  That round serves
``critical._bellman_ford`` and the search.  ``backward`` is ``T-`` by ``minplus_row``, and ``forward`` is
``T+`` as its max-plus dual ``-min_y (c(x, y) - u(y))``; the reversal
identity ``T+(u) = -T-_(c transposed)(-u)`` is checked by the oracle, not
used to compute ``T+``.  All operations are pure functions of immutable
inputs and deterministic (ties in argmins break to the lowest point index).

``kleene_plus`` of nonnegative ints and ``MinPlusRows`` share one packed
row kernel (``_fields``): each row is one int of fixed-width fields, and
one ``lower`` step, ``c * ones + row`` and a guarded min, updates a whole
row with a few int operations.  Where the fields would need 64 bits or
more, or an entry is negative, both run their entry loops, with the same
ints.

Both modes compute on an integer grid: with ``D`` a common denominator of
the values involved (``grid_scale``), ``to_grid`` maps ``v`` to the integer
``v * D`` and ``from_grid`` maps back to ``Fraction(k, D)``.  Scaling by a
positive constant preserves sums and order, so min-plus results on the grid
are bit-identical to the ``Fraction`` ones, and ``Fraction`` appears only at
the public API.  Every matrix the solver makes is a ``PotentialTable`` and
every vector a ``ValueFunction``: held on its own grid ``scale``, turned
into values only when its ``entries`` or ``values`` are read.  Each
instance holds its costs (``CostInstance.cost_grid``) and its metric that
way, on their least grids, which the generators compute in integers.  An
input that needs a finer grid ``D`` reads ``at(D)``, the grid times
``D // scale``.  Output is printed off the grid too: ``format_grid`` gives
the JSON form of each ``from_grid`` value without making it.

Float mode is the same code on the inputs' doubles: every double is a
dyadic rational, so an instance of doubles sits on the grid of the largest
denominator of its entries, a power of two, and the solver computes on it
exactly (``gen_random``'s doubles are put on it when the instance is first
solved, ``PotentialTable.of_doubles``).  Only ``from_grid`` differs: it returns ``k / D``, which Python
rounds correctly, so each value is rounded to a double once, when it is
read.  Exact arithmetic has no -0.0, so 0 is read as 0.0.  A double's
denominator is at most 2^1074, so D has at most 1075 bits on the inputs'
grid (a double as small as 1e-300 next to 1 gives 2^1049), and the
solver's ints stay that long: no input is refused for its grid.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import add, itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .numbers import EXACT, INF, InputError, Mode, Value, format_value, is_inf

Matrix = tuple[tuple[Value, ...], ...]


def _freeze(rows: Sequence[Sequence[Value]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class CostInstance:
    """Finite point set with a total (or sparse) cost matrix.

    The costs, and the metric when there is one, are held as tables on
    their own grids: ``cost_grid`` is the cost matrix times D0, the least
    common denominator of the costs (in float mode, of their doubles).
    ``cost`` and ``metric`` are the matrices, read off the grids on each
    read: an instance holds its grids only.

    ``total`` is true iff every cost entry is finite; the structural theorems
    of this package (critical constants, potentials, barriers) require total
    instances.  ``+inf`` entries are a sparse-graph convenience only.
    """

    n: int
    labels: tuple[str, ...]
    cost_grid: PotentialTable
    mode: Mode = EXACT
    metric_grid: Optional[PotentialTable] = None
    total: bool = field(default=True)

    _value_scale: Optional[Value] = field(default=None, init=False, repr=False, compare=False)

    @property
    def cost(self) -> Matrix:
        return _read(self.cost_grid)

    @property
    def metric(self) -> Optional[Matrix]:
        return None if self.metric_grid is None else _read(self.metric_grid)

    def value_scale(self) -> Value:
        """n * max|c| over finite entries: the scale of the band of the
        Lipschitz-in-the-large check in float mode.

        Read off the held grid on the first call and kept on the instance."""
        if self._value_scale is None:
            t = self.cost_grid
            top = max((abs(v) for row in t.grid for v in row if v != INF), default=0)
            (top,) = from_grid(self.mode, (top,), t.scale)
            object.__setattr__(self, "_value_scale", self.n * max(top, 1))
        return self._value_scale

    def require_total(self, op: str) -> None:
        if not self.total:
            raise InputError(f"{op} requires a total instance (no +inf costs)")


class ValueFunction:
    """One value per point, with a free-form provenance tag.

    Held the way ``PotentialTable`` holds a matrix: ``grid`` is the vector
    times ``scale``, and ``values`` is read off it in ``mode`` on its first
    read and kept.
    ``on_grid`` builds from a grid.  ``ValueFunction(values, tag=...)``
    holds the values; ``grid_in`` puts them on their least grid on its first
    call, which sets ``grid``, ``scale`` and ``mode``.  Equality and hashing
    go by values and tag.
    """

    __slots__ = ("tag", "grid", "scale", "mode", "_values")

    def __init__(self, values: Iterable[Value], tag: str = "") -> None:
        self._values, self.tag = tuple(values), tag
        self.grid = self.scale = self.mode = None

    @classmethod
    def on_grid(cls, grid: Sequence, scale: int, mode: Mode, tag: str = "") -> ValueFunction:
        """The vector grid / scale, held on its least grid."""
        u = cls.__new__(cls)
        u.tag, u.mode, u._values = tag, mode, None
        if scale > 1 and INF not in grid and (g := math.gcd(scale, *grid)) > 1:
            scale, grid = scale // g, tuple(k // g for k in grid)
        u.grid, u.scale = tuple(grid), scale
        return u

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = from_grid(self.mode, self.grid, self.scale)
        return self._values

    def grid_in(self, mode: Mode) -> tuple[tuple, int]:
        """The grid and its scale; values given without one are coerced in
        ``mode`` and put on their least grid on the first call."""
        if self.grid is None:
            vals = [mode.coerce(v) for v in self.values]
            self.scale = D = grid_scale(vals)
            self.grid, self.mode = to_grid(vals, D), mode
        return self.grid, self.scale

    def at(self, mode: Mode, D: int) -> tuple:
        """The vector times D, a multiple of its scale."""
        grid, scale = self.grid_in(mode)
        m = D // scale
        return grid if m == 1 else tuple(v * m for v in grid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueFunction):
            return NotImplemented
        return self.values == other.values and self.tag == other.tag

    def __hash__(self) -> int:
        return hash((self.values, self.tag))

    def __repr__(self) -> str:
        return f"ValueFunction(values={self.values!r}, tag={self.tag!r})"

    def __len__(self) -> int:
        return len(self.grid if self._values is None else self._values)

    def __getitem__(self, i: int) -> Value:
        return self.values[i]

    def is_finite(self) -> bool:
        return not any(is_inf(v) for v in (self.grid if self._values is None else self._values))


@dataclass(frozen=True)
class PotentialTable:
    """An n x n matrix held on the integer grid: ``grid`` is the matrix
    times ``scale``.

    ``entries`` is the matrix, read off the grid in ``mode`` on its first
    read and kept; the solver computes with ``grid`` and ``at(D)`` only.
    """

    grid: Matrix
    scale: int
    mode: Mode

    @classmethod
    def of_doubles(cls, rows: list[list[float]], mode: Mode) -> PotentialTable:
        """A table of finite doubles, put on their grid (``grid_table``) on
        the first read of its ``grid`` or ``scale``: a generated instance
        pays for the ints when it is first solved.  The doubles are dropped
        then, so the table never holds both."""
        t = object.__new__(cls)
        object.__setattr__(t, "mode", mode)
        object.__setattr__(t, "_doubles", rows)
        return t

    def __getattr__(self, name: str):
        # only a table made by of_doubles lacks its grid and scale
        if name not in ("grid", "scale") or "_doubles" not in self.__dict__:
            raise AttributeError(name)
        t = grid_table(self.mode, self.__dict__.pop("_doubles"))
        object.__setattr__(self, "grid", t.grid)
        object.__setattr__(self, "scale", t.scale)
        return getattr(t, name)

    @cached_property
    def entries(self) -> Matrix:
        return _read(self)

    def at(self, D: int) -> Matrix:
        """The matrix times D, a multiple of ``scale``."""
        m = D // self.scale
        return self.grid if m == 1 else tuple(tuple(v * m for v in row) for row in self.grid)

    def row(self, x: int, tag: str = "") -> ValueFunction:
        return ValueFunction.on_grid(self.grid[x], self.scale, self.mode, tag)


def _read(t: PotentialTable) -> Matrix:
    """The matrix a table holds, read off its grid in its mode."""
    return tuple(from_grid(t.mode, row, t.scale) for row in t.grid)


def make_instance(
    cost: Sequence[Sequence[Value]],
    labels: Optional[Sequence[str]] = None,
    mode: Mode = EXACT,
    metric: Optional[Sequence[Sequence[Value]]] = None,
) -> CostInstance:
    """Validate and freeze a cost instance.

    Checks squareness, n >= 1, label uniqueness, and (when a metric is
    given) symmetry, zero diagonal, nonnegativity and the triangle
    inequality over all triples.
    """
    return _instance(
        _table(mode, cost), labels, None if metric is None else _table(mode, metric)
    )


def _table(mode: Mode, rows: Sequence[Sequence[Value]]) -> PotentialTable:
    """The coerced matrix on its own grid, the least common denominator."""
    return grid_table(mode, [[mode.coerce(v) for v in row] for row in rows])


def grid_table(mode: Mode, rows: Sequence[Sequence[Value]]) -> PotentialTable:
    """A matrix of Fractions, ints or doubles (and +inf) as a table on its
    least grid.  Finite doubles take a shortcut with no Python loop: their
    grid D is their largest denominator, a power of two, by which each of
    them scales exactly in float arithmetic."""
    try:
        D = max(map(itemgetter(1), map(float.as_integer_ratio, chain.from_iterable(rows))))
        f = float(D)
        grid = tuple(tuple(map(int, map(mul, row, repeat(f)))) for row in rows)
    except (TypeError, ValueError, OverflowError):  # not all finite doubles
        D = grid_scale(chain.from_iterable(rows))
        grid = tuple(to_grid(row, D) for row in rows)
    return PotentialTable(grid, D, mode)


def _instance(
    cost: PotentialTable,
    labels: Optional[Sequence[str]] = None,
    metric: Optional[PotentialTable] = None,
) -> CostInstance:
    """Check and freeze an instance whose tables are on their least grids;
    ``make_instance``'s checks."""
    n = len(cost.grid)
    if n < 1:
        raise InputError("instance needs at least one point")
    for row in cost.grid:
        if len(row) != n:
            raise InputError(f"cost matrix is not square ({len(row)} != {n})")
    if labels is None:
        labels = _default_labels(n)
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise InputError("label count does not match point count")
        if len(set(labels)) != n:
            raise InputError("labels must be unique")
    if metric is not None:
        if len(metric.grid) != n or any(len(r) != n for r in metric.grid):
            raise InputError("metric matrix is not n x n")
        check_metric(metric.grid, metric.mode, metric.scale)
    total = not any(INF in row for row in cost.grid)
    return CostInstance(
        n=n, labels=labels, cost_grid=cost, mode=cost.mode, metric_grid=metric, total=total
    )


def check_metric(g: Matrix, mode: Mode = EXACT, scale: int = 1) -> None:
    """InputError unless the square matrix ``g`` (a metric times ``scale``)
    has a zero diagonal, finite nonnegative symmetric entries and the
    triangle inequality over all triples, in float mode within ``Mode.le``'s
    band, whose floor of 1 is ``scale`` on the grid."""
    for i, row in enumerate(g):
        if row[i] != 0:
            raise InputError(f"metric diagonal must be zero at {i}")
        for j, dij in enumerate(row):
            if is_inf(dij) or dij < 0:
                raise InputError(f"metric entry ({i},{j}) must be finite >= 0")
            if dij != g[j][i]:
                raise InputError(f"metric not symmetric at ({i},{j})")
    # Symmetry makes column j equal to row j, so each (i, j) is one
    # C-level scan over k, and a violation at (i, j) is one at (j, i):
    # pairs j > i suffice, and the first violation in row-major order
    # has i < j.  The loop below names the first violating k; in float
    # mode only a violation beyond Mode.le's band counts, so the scan's
    # may all fall inside it.
    for i, row in enumerate(g):
        for j in range(i + 1, len(g)):
            dij = row[j]
            if dij > min(map(add, row, g[j])):
                gj = g[j]
                k = next(
                    (k for k in range(len(g)) if not mode.le(dij, row[k] + gj[k], scale)), None
                )
                if k is not None:
                    raise InputError(f"metric violates triangle inequality at ({i},{k},{j})")


def check_circulant(row: Sequence[int]) -> None:
    """``check_metric``, in exact mode and with its messages, of the
    circulant matrix d(i, j) = row[(j - i) mod m], in O(m^2).

    Each value of d is in row 0, so the entry and symmetry checks scan it
    alone; d(i, k) + d(k, j) is row[a] + row[b] with a = k - i and
    b = j - k, so the triangle inequality over all triples is row[a + b]
    <= row[a] + row[b], mod m: d(0, j) <= d(0, k) + d(k, j) for all j and
    k, and a violation at (i, j) is one at (0, j - i)."""
    row = list(row)
    if row[0] != 0:
        raise InputError("metric diagonal must be zero at 0")
    for j, v in enumerate(row):
        if is_inf(v) or v < 0:
            raise InputError(f"metric entry (0,{j}) must be finite >= 0")
        if v != row[-j]:
            raise InputError(f"metric not symmetric at (0,{j})")
    for j in range(1, len(row)):
        via = list(map(add, row, row[j::-1] + row[:j:-1]))  # d(0, k) + d(k, j)
        if row[j] > min(via):
            k = next(k for k, v in enumerate(via) if row[j] > v)
            raise InputError(f"metric violates triangle inequality at (0,{k},{j})")


@lru_cache(maxsize=None)
def _default_labels(n: int) -> tuple[str, ...]:
    """Labels p0 .. p(n-1), one tuple per n shared by every unlabelled
    instance (a benchmark batch holds thousands of small instances)."""
    return tuple(f"p{i}" for i in range(n))


def as_value_function(inst: CostInstance, values: Sequence[Value], tag: str = "") -> ValueFunction:
    if len(values) != inst.n:
        raise InputError(f"function length {len(values)} != {inst.n} points")
    return ValueFunction(tuple(inst.mode.coerce(v) for v in values), tag=tag)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def minplus_row(vals: Sequence[Value], cols: Iterable[Sequence[Value]]) -> list:
    """The row ``vals`` times the matrix with columns ``cols``: entry y is
    min_z vals(z) + cols[y][z]; a walker takes its columns once."""
    return [min(map(add, vals, col)) for col in cols]


def minplus_product(a: Matrix, b: Matrix) -> Matrix:
    """Min-plus matrix product: entry (x,y) = min_z a(x,z) + b(z,y).

    A thin product, whose inner dimension k is at most a quarter of b's
    width, folds the rows of b into each row, as ``kleene_plus`` does, in
    place of one ``min`` per entry; a later z replaces the running entry
    only when strictly less, as in ``min``, so both forms give the same
    entries."""
    if b and 4 * len(b) <= len(b[0]):
        return tuple(_folded_row(arow, b) for arow in a)
    cols = tuple(zip(*b))
    return tuple(tuple(minplus_row(arow, cols)) for arow in a)


def _folded_row(arow: Sequence[Value], b: Matrix) -> tuple:
    """min_z arow(z) + b(z, y) for each y, folding the rows of b in order."""
    a0, *rest = arow
    out = [a0 + w for w in b[0]]
    for az, bz in zip(rest, b[1:]):
        out = [s if (s := az + w) < v else v for v, w in zip(out, bz)]
    return tuple(out)


def kleene_plus(a: Matrix) -> Matrix:
    """Least weight over walks of at least one edge: a + a^2 + a^3 + ...

    Floyd-Warshall started from ``a`` itself, so the diagonal holds the least
    closed walk through each point.  Exact only when ``a`` has no negative
    cycle, which the reduced matrix guarantees.  A matrix of nonnegative
    ints, such as the condensed kernel of ``critical``, takes the same
    loop on packed rows (``_packed_plus``) and gives the same ints.
    """
    flat = list(chain.from_iterable(a))
    if flat and set(map(type, flat)) == {int} and min(flat) >= 0:
        f = _fields(len(a), 2 * max(flat))
        if f is not None:
            return _packed_plus(a, f)
    d = [list(row) for row in a]
    for k in range(len(d)):
        dk = d[k]
        for i, row in enumerate(d):
            rk = row[k]
            d[i] = [v if v <= (s := rk + w) else s for v, w in zip(row, dk)]
    return _freeze(d)


def _packed_plus(a: Matrix, f: _Fields) -> Matrix:
    """``kleene_plus`` of a matrix of nonnegative ints on packed rows, in
    fields ``f`` that hold twice its largest entry: entries only decrease,
    so every sum d(i, k) + d(k, y) fits, and a pivot lowers a whole row with
    one ``f.lower`` in place of a loop over its entries."""
    rows = list(map(f.pack, a))
    lower, w, mask = f.lower, f.width, (1 << f.width) - 1
    for k in range(len(rows)):
        dk, at = rows[k], w * k
        for i, row in enumerate(rows):
            rows[i] = lower(row, (row >> at) & mask, dk)  # d(i, k) + d(k, y)
    return tuple(map(f.unpack, rows))


class MinPlusRows:
    """The rows of a matrix ``b`` of ints, held for min-plus rows against
    it: ``row(coeffs, zs)`` is min_i coeffs[i] + b(zs[i], y) for each y,
    and ``product(a)`` is ``minplus_product(a, b)``.

    The caller promises coefficients in [0, ``lead``].  When b's entries
    are nonnegative and every sum, up to ``lead`` plus b's largest entry,
    fits a field of ``_fields``, b's rows are packed once, and a row costs
    one ``lower`` per coefficient in place of one ``min`` per entry; else
    ``row`` and ``product`` are the entry loops ``minplus_row`` and
    ``minplus_product``.  Both give the same ints."""

    __slots__ = ("rows", "_fields", "_packed")

    def __init__(self, b: Matrix, lead: int) -> None:
        self.rows = b
        f = _fields(len(b[0]), lead + max(map(max, b))) if min(map(min, b)) >= 0 else None
        self._fields, self._packed = f, None if f is None else list(map(f.pack, b))

    def row(self, coeffs: Sequence[int], zs: Optional[Sequence[int]] = None) -> tuple:
        """min_i coeffs[i] + b(zs[i], y) for each y; zs defaults to every
        row of b in order.  coeffs is not empty."""
        f = self._fields
        if f is None:
            rows = self.rows if zs is None else map(self.rows.__getitem__, zs)
            return tuple(minplus_row(coeffs, zip(*rows)))
        packed = self._packed if zs is None else map(self._packed.__getitem__, zs)
        lower, out = f.lower, f.inf
        for c, b in zip(coeffs, packed):
            out = lower(out, c, b)
        return f.unpack(out)

    def product(self, a: Matrix) -> Matrix:
        """min_z a(x, z) + b(z, y): one ``row`` per row of a."""
        if self._fields is None:
            return minplus_product(a, self.rows)
        return tuple(map(self.row, a))


# array typecodes by item size in bytes
_FIELD_CODES = {array(t).itemsize: t for t in "QLIHB"}


class _Fields(NamedTuple):
    """Rows of n ints packed each into one int of ``width``-bit fields,
    whole bytes, so that ``array`` packs and unpacks them.

    ``lower(row, c, b)`` lowers each field y of ``row`` to c + b(y) where
    that is less, with a few int operations on the whole row.  Every value
    and sum it meets lies below 2^(width - 1), so a field's top bit is
    clear and guards it: ``(row | guard) - s`` keeps the guard set exactly
    where row(y) >= s(y), without borrowing from the next field.  ``inf``
    is the row of the largest such values, which any sum lowers."""

    width: int
    pack: Callable[[Sequence[int]], int]
    unpack: Callable[[int], tuple]
    lower: Callable[[int, int, int], int]
    inf: int


def _fields(n: int, top: int) -> Optional[_Fields]:
    """The narrowest fields for rows of n ints whose values and sums are at
    most ``top``; None when ``top`` needs 64 bits or more."""
    size = next((s for s in (1, 2, 4, 8) if top.bit_length() < 8 * s), None)
    if size is None:
        return None
    code, w, order = _FIELD_CODES[size], 8 * size, sys.byteorder
    ones = int.from_bytes(array(code, [1] * n).tobytes(), order)
    guard = ones << (w - 1)

    def pack(row: Sequence[int]) -> int:
        return int.from_bytes(array(code, row).tobytes(), order)

    def unpack(row: int) -> tuple:
        return tuple(memoryview(row.to_bytes(size * n, order)).cast(code))

    def lower(row: int, c: int, b: int) -> int:
        s = c * ones + b
        t = ((row | guard) - s) & guard  # guard bits where row(y) >= s(y)
        return row ^ ((row ^ s) & (t - (t >> (w - 1))))  # s there

    return _Fields(w, pack, unpack, lower, guard - ones)


# ---------------------------------------------------------------------------
# the integer grid
# ---------------------------------------------------------------------------

def grid_scale(values: Iterable[Value], base: int = 1) -> int:
    """Least multiple D of ``base`` with v * D an integer for every finite
    value (Fractions, ints or doubles)."""
    return math.lcm(base, *{v.as_integer_ratio()[1] for v in values if v != INF})


def to_grid(values: Iterable[Value], D: int) -> tuple:
    """v * D for each value, as integers; +inf stays +inf.

    D must be a multiple of every denominator, as ``grid_scale`` gives."""
    out = []
    for v in values:
        if v == INF:
            out.append(v)
        else:
            p, q = v.as_integer_ratio()
            out.append(p * (D // q))
    return tuple(out)


def from_grid(mode: Mode, values: Iterable[Value], D: int) -> tuple:
    """k / D for each grid value, read in ``mode``: a Fraction in exact
    mode, the nearest double in float mode; +inf stays +inf."""
    if mode.exact:
        return tuple(k if isinstance(k, float) else Fraction(k, D) for k in values)
    try:
        return tuple(k / D for k in values)
    except OverflowError as exc:
        raise InputError("value beyond float range") from exc


def format_grid(mode: Mode, values: Iterable[Value], D: int) -> list:
    """``format_value`` of each value ``from_grid`` gives, made with no
    Fraction: in exact mode +inf is "inf", and k / D reduced by gcd(k, D)
    is an int or "p/q"."""
    if not mode.exact:
        return [format_value(v) for v in from_grid(mode, values, D)]
    if D == 1:
        return ["inf" if isinstance(k, float) else k for k in values]
    out = []
    for k in values:
        if isinstance(k, float):
            out.append("inf")
        else:
            g = math.gcd(k, D)
            out.append(k // g if g == D else f"{k // g}/{D // g}")
    return out


def ratio(v: Value) -> tuple[Value, Value]:
    """(p, q) with v = p / q in integers, so that v meets a grid in
    integers; (v, 1) for +inf, which computes as v."""
    return (v, 1) if is_inf(v) else v.as_integer_ratio()


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def lax_oleinik_neg(inst: CostInstance, u: ValueFunction) -> ValueFunction:
    """Backward operator: result(x) = min_y u(y) + c(y, x)."""
    D, vals, cost = grid_operands(inst, u)
    tag = f"T-[{u.tag}]" if u.tag else "T-"
    return ValueFunction.on_grid(backward(vals, cost), D, inst.mode, tag)


def backward(vals: Sequence[Value], cost: Matrix) -> list:
    """min_y vals(y) + cost(y, x) for each x, vals and cost on one grid."""
    out = minplus_row(vals, zip(*cost))
    if INF in out:
        raise InputError("backward update produced +inf (a point has no incoming edge)")
    return out


def reverse_cost(inst: CostInstance) -> CostInstance:
    """Transpose the cost matrix; everything else is preserved."""
    t = inst.cost_grid
    return replace(inst, cost_grid=PotentialTable(tuple(zip(*t.grid)), t.scale, t.mode))


def lax_oleinik_pos(inst: CostInstance, u: ValueFunction) -> ValueFunction:
    """Forward operator: result(x) = max_y u(y) - c(x, y)."""
    D, vals, cost = grid_operands(inst, u)
    tag = f"T+[{u.tag}]" if u.tag else "T+"
    return ValueFunction.on_grid(forward(vals, cost), D, inst.mode, tag)


def forward(vals: Sequence[Value], cost: Matrix) -> list:
    """max_y vals(y) - cost(x, y) for each x, on one grid, computed as
    -min_y (cost(x, y) + (-vals(y))), the row -vals times cost transposed,
    where a +inf cost never wins."""
    low = minplus_row([-v for v in vals], cost)
    if INF in low:
        raise InputError("forward update produced -inf (a point has no outgoing edge)")
    return [-v for v in low]


def check_function(inst: CostInstance, u: ValueFunction) -> None:
    """``InputError`` unless u holds one finite value per point of inst; the
    public functions that take a u check it here before putting it on a
    grid."""
    if len(u) != inst.n:
        raise InputError(f"function length {len(u)} != {inst.n} points")
    if not u.is_finite():
        raise InputError("value function must be finite everywhere")


def grid_operands(
    inst: CostInstance, u: ValueFunction, base: int = 1
) -> tuple[int, tuple, Matrix]:
    """Check u, then put u and the costs on one grid D, the least multiple
    of ``base``, of the costs' D0 and of u's scale: (D, u * D, c * D)."""
    check_function(inst, u)
    t = inst.cost_grid
    D = math.lcm(base, t.scale, u.grid_in(inst.mode)[1])
    return D, u.at(inst.mode, D), t.at(D)
