"""Min-plus kernels, the Lax-Oleinik operators and the integer grid.

A cost instance is an ``n x n`` matrix ``c`` over the extended reals, read as
the one-step transition price ``c(x, y)`` from row point ``x`` to column
point ``y``.  The two value-update operators are

    ``T-(u)(x) = min_y  u(y) + c(y, x)``   (backward / min-plus)
    ``T+(u)(x) = max_y  u(y) - c(x, y)``   (forward  / max-plus)

Both public operators evaluate their formula directly on the integer grid
below, and so do the solver's orbits and jumps; the reversal identity
``T+(u) = -T-_(c transposed)(-u)`` is checked by the oracle, not used to
compute ``T+``.  N-step chain costs are min-plus matrix powers.  All
operations are pure functions of immutable inputs and deterministic (ties
in argmins break to the lowest point index).

Exact mode computes on an integer grid: with ``D`` a common denominator of
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
``D // scale``.  Float mode has no grid: ``D = 1``, ``to_grid`` is the
identity, ``from_grid`` divides by ``D``, and a table or vector holds its
float values as its grid, so both modes run the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import add, eq, le, sub
from typing import Iterable, Optional, Sequence

from .numbers import EXACT, INF, InputError, Mode, Value, is_inf

Matrix = tuple[tuple[Value, ...], ...]


def _freeze(rows: Sequence[Sequence[Value]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class CostInstance:
    """Finite point set with a total (or sparse) cost matrix.

    The costs, and the metric when there is one, are held as tables on
    their own grids: ``cost_grid`` is the cost matrix times D0, the least
    common denominator of the costs (float mode: 1, and the grid is the
    cost matrix itself).  ``cost`` and ``metric`` are the matrices, converted
    on their first read.

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
        return self.cost_grid.entries

    @property
    def metric(self) -> Optional[Matrix]:
        return None if self.metric_grid is None else self.metric_grid.entries

    def value_scale(self) -> Value:
        """n * max|c| over finite entries; tolerance scale for walk sums.

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
    times ``scale`` in ``mode`` (float mode: scale 1 and the values
    themselves), and ``values`` is converted on its first read and kept.
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
        """The vector grid / scale, held on its least grid; float mode
        divides at once and holds the quotients at scale 1."""
        u = cls.__new__(cls)
        u.tag, u.mode, u._values = tag, mode, None
        if not mode.exact:
            scale, grid = 1, tuple(k / scale for k in grid)
            u._values = grid
        elif scale > 1 and INF not in grid and (g := math.gcd(scale, *grid)) > 1:
            scale, grid = scale // g, tuple(k // g for k in grid)
        u.grid, u.scale = tuple(grid), scale
        return u

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = from_grid(self.mode, self.grid, self.scale)
        return self._values

    def grid_in(self, mode: Mode) -> tuple[tuple, int]:
        """The grid and its scale in ``mode`` (exact or float)."""
        if self.mode is not None and self.mode.exact == mode.exact:
            return self.grid, self.scale
        vals = [mode.coerce(v) for v in self.values]
        D = grid_scale(mode, vals)
        grid = to_grid(mode, vals, D)
        if self.mode is None:
            self.grid, self.scale, self.mode = grid, D, mode
        return grid, D

    def at(self, mode: Mode, D: int) -> tuple:
        """The vector times D, a multiple of its scale in ``mode``."""
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
    times ``scale`` (float mode: scale 1 and the matrix itself).

    ``entries`` is the matrix, converted on its first read and kept; the
    solver computes with ``grid`` and ``at(D)`` only.
    """

    grid: Matrix
    scale: int
    mode: Mode

    @cached_property
    def entries(self) -> Matrix:
        if not self.mode.exact:
            return self.grid  # a float grid holds the values themselves
        return tuple(from_grid(self.mode, row, self.scale) for row in self.grid)

    def at(self, D: int) -> Matrix:
        """The matrix times D, a multiple of ``scale``."""
        m = D // self.scale
        return self.grid if m == 1 else tuple(tuple(v * m for v in row) for row in self.grid)

    def row(self, x: int, tag: str = "") -> ValueFunction:
        return ValueFunction.on_grid(self.grid[x], self.scale, self.mode, tag)


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
    vals = [[mode.coerce(v) for v in row] for row in rows]
    D = grid_scale(mode, chain.from_iterable(vals))
    return PotentialTable(tuple(to_grid(mode, row, D) for row in vals), D, mode)


def _instance(
    cost: PotentialTable,
    labels: Optional[Sequence[str]] = None,
    metric: Optional[PotentialTable] = None,
) -> CostInstance:
    """Check and freeze an instance whose tables are on their least grids
    (float mode: hold floats at scale 1); ``make_instance``'s checks."""
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
        g = metric.grid
        if len(g) != n or any(len(r) != n for r in g):
            raise InputError("metric matrix is not n x n")
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
        # has i < j.  The loop below names the first violating k.
        for i, row in enumerate(g):
            for j in range(i + 1, n):
                dij = row[j]
                if dij > min(map(add, row, g[j])):
                    k = next(k for k in range(n) if dij > row[k] + g[j][k])
                    raise InputError(
                        f"metric violates triangle inequality at ({i},{k},{j})"
                    )
    total = not any(is_inf(v) for row in cost.grid for v in row)
    return CostInstance(
        n=n, labels=labels, cost_grid=cost, mode=cost.mode, metric_grid=metric, total=total
    )


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

def minplus_product(a: Matrix, b: Matrix) -> Matrix:
    """Min-plus matrix product: entry (x,y) = min_z a(x,z) + b(z,y)."""
    cols = tuple(zip(*b))
    return tuple(tuple(min(map(add, arow, col)) for col in cols) for arow in a)


def kleene_plus(a: Matrix) -> Matrix:
    """Least weight over walks of at least one edge: a + a^2 + a^3 + ...

    Floyd-Warshall started from ``a`` itself, so the diagonal holds the least
    closed walk through each point.  Exact only when ``a`` has no negative
    cycle, which the reduced matrix guarantees.
    """
    d = [list(row) for row in a]
    for k in range(len(d)):
        dk = d[k]
        for i, row in enumerate(d):
            rk = row[k]
            d[i] = [v if v <= (s := rk + w) else s for v, w in zip(row, dk)]
    return _freeze(d)


# ---------------------------------------------------------------------------
# the integer grid
# ---------------------------------------------------------------------------

def grid_scale(mode: Mode, values: Iterable[Value], base: int = 1) -> int:
    """Least multiple D of ``base`` with v * D an integer for every finite
    value; 1 in float mode."""
    if not mode.exact:
        return 1
    return math.lcm(base, *{v.denominator for v in values if not isinstance(v, float)})


def to_grid(mode: Mode, values: Iterable[Value], D: int) -> tuple:
    """v * D for each value (integers in exact mode); +inf stays +inf.

    D must be a multiple of every denominator, as ``grid_scale`` gives."""
    if not mode.exact:
        return tuple(values)
    return tuple(
        v if isinstance(v, float) else v.numerator * (D // v.denominator) for v in values
    )


def from_grid(mode: Mode, values: Iterable[Value], D: int) -> tuple:
    """k / D for each grid value: a Fraction in exact mode; +inf stays +inf."""
    if not mode.exact:
        return tuple(k / D for k in values)
    return tuple(k if isinstance(k, float) else Fraction(k, D) for k in values)


def ratio(mode: Mode, v: Value) -> tuple[Value, Value]:
    """(p, q) with v = p / q: integers in exact mode, so that v meets a grid
    in integers; (v, 1) in float mode and for +inf, which computes as v."""
    return (v.numerator, v.denominator) if mode.exact and not is_inf(v) else (v, 1)


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
    out = [min(map(add, vals, col)) for col in zip(*cost)]
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
    -min_y (cost(x, y) - vals(y)): a +inf cost never wins and float
    results, signed zeros included, equal those of the reversal identity."""
    low = [min(map(sub, row, vals)) for row in cost]
    if INF in low:
        raise InputError("forward update produced -inf (a point has no outgoing edge)")
    return [-v for v in low]


def cost_power(inst: CostInstance, n: int) -> PotentialTable:
    """n-step chain cost: entry (x,y) = min over length-n chains x -> y.

    Computed as the n-fold min-plus power of the cost matrix; n = 0 is
    rejected (chain costs start at one step).
    """
    if n < 1:
        raise InputError("chain cost is defined for step count >= 1")
    t = inst.cost_grid
    acc = t.grid
    for _ in range(n - 1):
        acc = minplus_product(acc, t.grid)
    return PotentialTable(acc, t.scale, inst.mode)


def grid_operands(
    inst: CostInstance, u: ValueFunction, base: int = 1
) -> tuple[int, tuple, Matrix]:
    """Check u, then put u and the costs on one grid D, the least multiple
    of ``base``, of the costs' D0 and of u's scale: (D, u * D, c * D)."""
    if len(u) != inst.n:
        raise InputError(f"function length {len(u)} != {inst.n} points")
    if not u.is_finite():
        raise InputError("value function must be finite everywhere")
    t = inst.cost_grid
    D = math.lcm(base, t.scale, u.grid_in(inst.mode)[1])
    return D, u.at(inst.mode, D), t.at(D)


# ---------------------------------------------------------------------------
# small vector helpers shared by the solver modules
# ---------------------------------------------------------------------------

def vf_le(mode: Mode, u: Sequence[Value], v: Sequence[Value], scale: Value = 1) -> bool:
    if mode.exact:  # Mode.le without a call per entry
        return all(map(le, u, v))
    return all(mode.le(a, b, scale=scale) for a, b in zip(u, v))


def vf_eq(mode: Mode, u: Sequence[Value], v: Sequence[Value], scale: Value = 1) -> bool:
    if mode.exact:
        return all(map(eq, u, v))
    return all(mode.eq(a, b, scale=scale) for a, b in zip(u, v))
