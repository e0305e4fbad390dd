"""Peierls barrier, weak KAM solutions, Aubry sets, and sub-solution limits.

This module holds only what the solver computes.  The paper's barrier
identities (the rows and columns of h as solutions, the orbit bound with its
attainment on the rows of phi_1, the idempotent alternation of the limits)
are checks, and ``oracle.verify_all`` decides them on the tables of its own
integer grid.

The Peierls barrier ``h(x, y)`` is the limiting reduced cost of long chains
from x to y.  With ``phi_1`` the Kleene plus of the reduced matrix
``r = c + alpha0`` and ``A = {a : phi_1(a, a) = 0}`` the Aubry vertices,

    ``h(x, y) = min_{a in A} phi_1(x, a) + phi_1(a, y)``,

one min-plus product of the columns and the rows of ``phi_1`` at A.  For a
and b in one Aubry class, ``phi_1(a, b) + phi_1(b, a) = 0``, and the
triangle inequality of ``phi_1`` then gives
``phi_1(x, a) + phi_1(a, y) = phi_1(x, b) + phi_1(b, y)``: the minimum is
taken over the least vertex of each class, the classes being the
components of the tight graph that hold Aubry vertices (see ``critical``).
A walk
through A costs at least h and, padded with zero cycles at A, reaches h at
every length.  So with ``S`` the reduced matrix on the points ``B`` off A,
the tail potential ``phi_j`` is h except where a walk of at least j edges
inside B weighs less, and the transient ``iterations_to_fix``, the least k
with ``phi_{1+k} = h``, is the least k past which no walk inside B weighs
less than h (0 when B is empty).  Such walks end: as
``h(x, y) <= phi_1(x, w) + h(w, y)``, a walk x -> w inside B of weight v
extends to one below h iff ``v + m(x, w) < 0``, with
``m(x, w) = min_y phi_1(w, y) - h(x, y)`` on B, one min-plus product.
The front of x at length j holds those
w, each with the least weight of a j-edge walk to it, which is exact, as
the least walk to a front entry has its prefixes on fronts.  k is the least
j whose fronts are all empty.  The search advances every front by a step
``S^L`` (one ``minplus_row`` per row, over the front's rows of ``S^L``); it
squares the step once the walk has made ``|B|^3`` entry updates since the
last squaring, the price of one product, and after the first advance that
empties every front it lifts j back with the smaller powers.  So a long
transient takes at most ``2 + ceil(log2 k)`` products, a short one about
one, and none is a Kleene plus.  h costs O(n^2 * classes) on top of
``phi_1``, and ``CriticalData`` holds ``phi_1`` once; the transient is
computed on
the first read of ``BarrierData.iterations_to_fix`` and kept, so callers
that never read it never pay for it.  The closed form, the transient and
the orbit walk run on the integer kernel of ``CriticalData`` (see
``core``); ``h`` is a table on the kernel's grid, read as values only
through its ``entries``.  Rows of ``h`` are fixed points of ``T- + alpha0``
(negative weak KAM solutions); negated columns are fixed points of
``T+ - alpha0`` (positive solutions).

The projected Aubry set A is the zero diagonal of ``phi_1`` (so of the
barrier too), decided once per ``CriticalData`` and kept on it, next to
the P it is read from: the closed form, the transient, the Aubry sets, the
limits, the orbit walk and the strict sub-solution all read
``crit.aubry_vertices()``.  The edge Aubry set collects the ordered
pairs closing a zero-reduced-weight circuit, ``c(x,y) + alpha0 + h(y,x) = 0``.
Every one of these tests is exact, in float mode too: it runs on the dyadic
values of the doubles (see ``core``).

For a dominated u, the normalized orbits ``T-^k u + k alpha0`` (nondecreasing)
and ``T+^k u - k alpha0`` (nonincreasing) stabilize to the enveloping
solutions ``u_minus >= u`` and ``u_plus <= u``.  As ``h(a, .) = phi_1(a, .)``
and ``h(., a) = phi_1(., a)`` for a in A, both are closed forms, O(n |A|):

    ``u_minus(y) = min_{a in A} u(a) + phi_1(a, y)``,
    ``u_plus(x) = max_{a in A} u(a) - phi_1(x, a)``,

``core.minplus_row`` of u on A with the rows of phi_1 at A, and
``core.forward`` with its columns at A.  Only averaging needs the iterates
(see ``subsolution``): ``orbit_walk`` steps to the known limit with the
same kernels.  The orbits are monotone and the limit is their bound, so
a point that has reached its limit keeps it: a step computes only
the points not at their limit yet, n entries each.  With ``m = |B|``,
``delta' = min_{x in B} phi_1(x, x) > 0``
(at most the weight of any cycle inside B) and ``S`` the largest gap
between u and the limit, it takes at most
``m * ceil(S / delta')`` steps, none when ``S = 0``, and an overrun raises
``ConstructionError``.  As one step moves ``v(x)`` by at most ``r(x, x)``,
it also takes at least ``max_x ceil(|limit(x) - u(x)| / r(x, x))`` steps.
A walk may make ``_WALK_WORK_LIMIT`` entry updates (n^2 a step): one that
provably needs more raises ``SizeGuardError`` before any step, and one
that has not settled when it has made them raises it then.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from operator import add, sub
from typing import Iterator, Optional

from .core import (
    CostInstance,
    Matrix,
    PotentialTable,
    ValueFunction,
    backward,
    forward,
    grid_operands,
    minplus_product,
    minplus_row,
)
from .critical import CriticalData, _dominated_grid
from .numbers import ConstructionError, InputError, SizeGuardError
from .potential import jump_F

# Most entry updates an orbit walk may make (n^2 a step): 10^8 steps at
# n = 2, 6103 at n = 256.  Measured with CPython 3.11 on one core of a
# 2-vCPU VM, that is at most about 190 s at n = 2 and 40 s at n = 256.
_WALK_WORK_LIMIT = 4 * 10**8


@dataclass(frozen=True)
class BarrierData:
    """Peierls barrier of an instance, with its transient.

    ``iterations_to_fix``, the least k with ``phi_{1+k} = h``, is computed
    from the instance and its critical data on its first read and kept.
    """

    h: PotentialTable
    _inst: CostInstance = field(repr=False)
    _crit: CriticalData = field(repr=False)

    @cached_property
    def iterations_to_fix(self) -> int:
        return _transient(self._inst, self._crit, self.h)


@dataclass(frozen=True)
class AubryData:
    """Projected Aubry vertices, Aubry edges, and the jump values F."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    jumps: ValueFunction


def peierls_barrier(inst: CostInstance, crit: CriticalData) -> BarrierData:
    """Barrier by the Aubry closed form; its transient is computed on first
    read."""
    inst.require_total("Peierls barrier")
    return BarrierData(barrier_closed_form(inst, crit), inst, crit)


def barrier_closed_form(inst: CostInstance, crit: CriticalData) -> PotentialTable:
    """h(x,y) = min over Aubry vertices a of phi_1(x,a) + phi_1(a,y), the
    Aubry vertices being the zero set of the phi_1 diagonal; phi_1 is the
    Kleene plus held on ``crit``.  It takes one vertex per Aubry class
    (``crit.class_leaders``), as every vertex of a class gives the same
    sum."""
    inst.require_total("tail potential")
    p = crit.kernel_plus()
    e = p.grid
    verts = crit.class_leaders()
    to_a = [[row[a] for a in verts] for row in e]  # phi_1(x, a)
    return PotentialTable(minplus_product(to_a, [e[a] for a in verts]), p.scale, p.mode)


def _transient(inst: CostInstance, crit: CriticalData, h: PotentialTable) -> int:
    """Least j whose fronts are all empty (see the module docstring)."""
    r, p, hg = crit.kernel.grid, crit.kernel_plus().grid, h.grid
    verts = set(crit.aubry_vertices())
    off = [x for x in range(inst.n) if x not in verts]
    b = len(off)
    if not b:
        return 0
    s = tuple(tuple(r[x][y] for y in off) for x in off)
    pb = [[p[x][y] for y in off] for x in off]
    hb = [[hg[x][y] for y in off] for x in off]
    # m(x, w) = min_y P(w, y) - h(x, y), the product of -h_B and P_B transposed
    m = minplus_product(tuple(tuple(-v for v in row) for row in hb), tuple(zip(*pb)))

    def front(x: int, row: list) -> tuple[list, list]:
        """The entries w of row x with v = row[w] + m(x, w) < 0."""
        ws = [w for w, t in enumerate(map(add, row, m[x])) if t < 0]
        return ws, [row[w] for w in ws]

    def advance(fronts: list, q: Matrix) -> Optional[list]:
        """The fronts a walk of q's length further on, or None if all are empty."""
        out = [
            front(x, minplus_row(vs, zip(*(q[w] for w in ws)))) if ws else ([], [])
            for x, (ws, vs) in enumerate(fronts)
        ]
        return out if any(ws for ws, _ in out) else None

    # j = 0: the empty walk at x, kept as ``front`` keeps an entry
    fronts = [([x], [0]) if m[x][x] < 0 else ([], []) for x in range(b)]
    if not any(ws for ws, _ in fronts):
        return 0
    # Invariant: the fronts at length j are not all empty and powers[t] = S^(2^t);
    # the step is squared once the walk has made |B|^3 entry updates, the
    # price of the squaring, since the last one.
    j, powers, work = 0, [s], 0
    while (nxt := advance(fronts, powers[-1])) is not None:
        work += b * sum(len(ws) for ws, _ in fronts)
        fronts, j = nxt, j + (1 << (len(powers) - 1))
        if work >= b**3:
            powers.append(minplus_product(powers[-1], powers[-1]))
            work = 0
    # the fronts empty within the last step; lift j to the longest length
    # whose fronts are not all empty
    for i in range(len(powers) - 2, -1, -1):
        if (nxt := advance(fronts, powers[i])) is not None:
            fronts, j = nxt, j + (1 << i)
    return j + 1


def aubry(
    inst: CostInstance,
    crit: CriticalData,
    bar: BarrierData,
    phi: Optional[PotentialTable] = None,
) -> AubryData:
    """Aubry sets read off the Kleene plus P and the barrier.

    The Aubry vertices are ``crit.aubry_vertices``, the zero set of P's
    diagonal; the ordered pair (x, y) is an Aubry edge iff the step
    x -> y closes a zero-reduced circuit: c(x, y) + alpha0 + h(y, x) = 0.
    The jumps are F = diag(P).  ``phi`` is not read.
    """
    # row x of r plus column x of h, which is on the kernel's grid
    edges = tuple(
        (x, y)
        for x, (row, hcol) in enumerate(zip(crit.kernel.grid, zip(*bar.h.grid)))
        for y, v in enumerate(map(add, row, hcol))
        if v == 0
    )
    return AubryData(vertices=crit.aubry_vertices(), edges=edges, jumps=jump_F(inst, crit))


def weak_kam_neg(bar: BarrierData, x: int) -> ValueFunction:
    """Row x of the barrier: a negative weak KAM solution."""
    return bar.h.row(x, tag=f"h_row[{x}]")


def weak_kam_pos(bar: BarrierData, x: int) -> ValueFunction:
    """Negated column x of the barrier: a positive weak KAM solution."""
    h = bar.h
    return ValueFunction.on_grid([-row[x] for row in h.grid], h.scale, h.mode, f"h_col[{x}]")


def is_weak_kam(
    inst: CostInstance, crit: CriticalData, u: ValueFunction, sign: str
) -> bool:
    """Fixed-point test: u = T-(u) + alpha0 (negative) or T+(u) - alpha0,
    on the kernel's grid refined to u's scale."""
    if sign not in ("negative", "positive"):
        raise InputError(f"sign must be 'negative' or 'positive', got {sign!r}")
    D, vals, cost = grid_operands(inst, u, crit.kernel.scale)
    a = crit.alpha_at(D)
    neg = sign == "negative"
    img = [v + a for v in backward(vals, cost)] if neg else [v - a for v in forward(vals, cost)]
    return img == list(vals)


# ---------------------------------------------------------------------------
# normalized orbits and limits
# ---------------------------------------------------------------------------

def limits_grid(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> tuple:
    """Check that u is dominated; then D, u, u_minus and u_plus on the
    kernel's grid refined to u's denominators, by the closed forms."""
    inst.require_total("orbit limits")
    D, start = _dominated_grid(inst, crit, u)
    return (D, start, *_limits(inst, crit, D, start))


def _limits(inst: CostInstance, crit: CriticalData, D: int, start: list) -> tuple[list, list]:
    """u_minus and u_plus of a dominated u, given as ``start`` = u * D on a
    multiple D of the kernel's grid, by the closed forms."""
    P = crit.kernel_plus()
    verts, m, p = crit.aubry_vertices(), D // P.scale, P.grid
    ua = [start[a] for a in verts]
    lo = minplus_row(ua, zip(*([v * m for v in p[a]] for a in verts)))
    hi = forward(ua, [[row[a] * m for a in verts] for row in p])
    return lo, hi


def orbit_walk(
    inst: CostInstance, crit: CriticalData, D: int, start: list, limit: list, positive: bool
) -> Iterator[list]:
    """Iterates of the normalized orbit of ``start`` on the grid D, by
    ``T+ - alpha0`` if ``positive`` else ``T- + alpha0``, up to the first
    that reaches ``limit``.  The step bounds and the work limit of the
    module docstring are checked before any step."""
    P = crit.kernel_plus()
    m, p, r = D // P.scale, P.grid, crit.kernel_at(D)
    verts = set(crit.aubry_vertices())
    loops = [p[x][x] * m for x in range(inst.n) if x not in verts]
    gap = max(map(abs, map(sub, limit, start)))
    budget = len(loops) * -(-gap // min(loops)) if gap > 0 and loops else 0
    rest = [abs(w - v) for v, w in zip(start, limit)]
    # one step moves v(x) by at most r(x, x), so the walk takes at least need steps
    need = max((-(-d // r[x][x]) for x, d in enumerate(rest) if d > 0 < r[x][x]), default=0)
    allowed = _WALK_WORK_LIMIT // (inst.n * inst.n)
    if need > allowed:
        raise SizeGuardError(f"orbit needs at least {need} steps, over {allowed} at n = {inst.n}")
    stop = min(budget, allowed)
    # T+ v - alpha0 = -((-v) (x) r^T): a positive walk holds the negated
    # iterate and steps on the rows of r, a negative one on its columns
    cols = r if positive else tuple(zip(*r))

    def walk():
        cur, low = start, [-v for v in start] if positive else start
        # the points not yet at their limit, the only entries a step changes
        todo = [x for x, (v, w) in enumerate(zip(start, limit)) if v != w]
        for k in count():
            yield cur
            if not todo:
                return
            if k == budget:
                raise ConstructionError(f"orbit overran its budget of {budget} steps")
            if k == stop:
                raise SizeGuardError(f"orbit did not settle in {stop} steps at n = {inst.n}")
            step, low = minplus_row(low, map(cols.__getitem__, todo)), list(low)
            for y, v in zip(todo, step):
                low[y] = v
            cur = [-v for v in low] if positive else low
            todo = [y for y in todo if cur[y] != limit[y]]

    return walk()


def u_minus(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> ValueFunction:
    """The least negative weak KAM solution above u, by the closed form."""
    D, _, lo, _ = limits_grid(inst, crit, u)
    return ValueFunction.on_grid(lo, D, inst.mode, f"u_minus[{u.tag}]" if u.tag else "u_minus")


def u_plus(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> ValueFunction:
    """The greatest positive weak KAM solution below u, by the closed form."""
    D, _, _, hi = limits_grid(inst, crit, u)
    return ValueFunction.on_grid(hi, D, inst.mode, f"u_plus[{u.tag}]" if u.tag else "u_plus")
