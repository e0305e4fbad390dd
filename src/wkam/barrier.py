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
``m(x, w) = min_y phi_1(w, y) - h(x, y)`` on B.

With one Aubry class, led by a, h separates:
``h(x, y) = phi_1(x, a) + phi_1(a, y)``, so ``m(x, w) = g(w) - phi_1(x, a)``
with ``g(w) = min_{y in B} phi_1(w, y) - phi_1(a, y)``, and some j-edge walk
from x extends below h iff ``e_j(x) < phi_1(x, a)``, where ``e_j = S^j g``
is one column vector and ``e_{j+1} = S e_j``.  k is 1 plus the last j at
which some ``e_j(x)`` is below its bound, and the search walks e_j: no m,
and O(|B|^2) a step.  With two or more classes h does not separate; m is
one min-plus product, and the search walks fronts.  The front of x at
length j holds the w reached by a j-edge walk that still extends below h,
each with the least weight of such a walk, which is exact, as the least
walk to a front entry has its prefixes on fronts; k is the least j whose
fronts are all empty, and a step costs up to O(|B|^3).  Either walk
advances by a step ``S^L``; one loop squares the step once the walk has
made ``|B|^3`` entry updates since the last squaring, the price of one
product, and after the first step that ends the walk it lifts j back with
the smaller powers.  Each squaring follows a step at every smaller power,
so a transient k takes at most ``floor(log2 k)`` squarings, and m one
product more; none is a Kleene plus.

All of it runs on ``core.MinPlusRows``, packed rows of nonnegative ints.
The Bellman-Ford potentials of ``CriticalData`` make every operand so:
``t'(x, y) = t(x, y) + pot(x) - pot(y) >= 0`` for t = S, P and h, and for
every power of S, and a walk's weight shifts the same way.  The vector walk
holds ``e'_j = e_j + pot`` against the bounds ``phi_1(x, a) + pot(x)``,
both less ``min g'`` (``g' = g + pot``; as S' >= 0, no e'_j falls below
it).  A step is one packed row of S' transposed, a ``c * ones + row`` and a
guarded min per entry kept, and it keeps only the entries below the largest
bound: as S' >= 0, an entry at or above it never brings a later one below a
bound.  The fronts hold m as ``top + m'``, one product of ``top - h'``
(``top`` the largest h') with P' transposed; a front keeps w iff its
shifted weight is below ``-m'(x, w)``, one integer comparison, and a step
lowers a packed row of S' once per front entry.  The packed powers are kept
for the lift.  A power whose sums would pass 63 bits (float grids near
2^1049) runs on the entry loop, with the same ints.

h costs O(n^2 * classes) on top of ``phi_1``, and ``CriticalData`` holds
``phi_1`` once; the transient is computed on the first read of
``BarrierData.iterations_to_fix`` and kept, so callers that never read it
never pay for it.  The closed form, the transient and
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
``core.forward`` with its columns at A.  Only averaging needs the iterates,
and only their sum (see ``subsolution``): ``orbit_sum`` walks to the known
limit L with the same kernels.  The orbits are monotone and L is their
bound, so a point that has reached its limit keeps it: a step computes
only the points T not at their limit yet, n entries each.  While T does
not change, the step is min-plus linear on T: a point outside T sits at
L, its term in the step of y is at least L(y), as L is a fixed point, and
so never wins while y stays below L(y).  A linear orbit that repeats up to
a shift stays periodic (Cohen, Dubois, Quadrat and Viot, 1985), so
Brent's cycle detection (1980) on the iterate's differences over T,
restarted whenever T shrinks, finds the iterate at k equal to the one at
k - sigma plus s on T, with s > 0.  The walk then jumps the most whole
periods that keep every point of T below its limit, adding their sum in
closed form, and steps on.  All of it is integer arithmetic on the grid,
so the sum is the stepped one.  With ``m = |B|``,
``delta' = min_{x in B} phi_1(x, x) > 0``
(at most the weight of any cycle inside B) and ``S`` the largest gap
between u and the limit, the orbit reaches L within
``m * ceil(S / delta')`` iterates, none when ``S = 0``; an overrun raises
``ConstructionError``, and so does a period with ``s <= 0``, which only a
fault makes.  A walk may step ``_WALK_WORK_LIMIT`` entry updates (n^2 a
stepped step, none for a jump); one that has not settled when it has
stepped them raises ``SizeGuardError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import add, lt, sub
from typing import Optional, Sequence

from .core import (
    CostInstance,
    Matrix,
    MinPlusRows,
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

# Most entry updates an orbit walk may step (n^2 a step, a jump counted as
# none): 10^8 steps at n = 2, 6103 at n = 256.  Measured with CPython 3.11
# on one core of a 2-vCPU VM, that is at most about 190 s at n = 2 and
# 40 s at n = 256.
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
    """Least j past which no walk inside B weighs less than h (see the
    module docstring): the vector walk for one Aubry class, the fronts for
    several, on one loop of steps, squarings and the lift."""
    verts = set(crit.aubry_vertices())
    off = [x for x in range(inst.n) if x not in verts]
    b = len(off)
    if not b:
        return 0
    if len(crit.class_leaders()) == 1:
        start, step, base, top = _vector_walk(crit, off)
    else:
        start, step, base, top = _fronts(crit, h, off)
    if start is None:
        return 0

    def power(t: Matrix) -> MinPlusRows:
        """A power of the step matrix, held for steps (coefficients below
        top) and its square."""
        return MinPlusRows(t, max(top, max(map(max, t))))

    # Invariant: the state at length j is not None and powers[t] holds the
    # step matrix to the 2^t; the step is squared once the walk has made
    # |B|^3 entry updates (|B| per point it holds), the price of the
    # squaring, since the last one.
    state, j, powers, spent = start, 0, [power(base)], 0
    while (nxt := step(state, powers[-1])) is not None:
        spent += b * sum(len(ws) for ws, _ in state)
        state, j = nxt, j + (1 << (len(powers) - 1))
        if spent >= b**3:
            q = powers[-1]
            powers.append(power(q.product(q.rows)))
            spent = 0
    # the walk ends within the last step; lift j to the longest length
    # whose state is not None
    for i in range(len(powers) - 2, -1, -1):
        if (nxt := step(state, powers[i])) is not None:
            state, j = nxt, j + (1 << i)
    return j + 1


def _on_b(t: Matrix, pot: list, off: list) -> Matrix:
    """t(x, y) + pot(x) - pot(y) on B x B, nonnegative for r, P and h."""
    return tuple(tuple(t[x][y] + pot[x] - pot[y] for y in off) for x in off)


def _vector_walk(crit: CriticalData, off: list) -> tuple:
    """(start, step, S' transposed, cap) of the walk of e_j for one Aubry
    class led by a.  A state is e'_j less min g', as one (points, values)
    of its entries below ``cap``, the largest bound; a step is one packed
    row; None ends the walk."""
    pot, p = crit._pot, crit.kernel_plus().grid
    (a,) = crit.class_leaders()
    pa = [p[a][y] for y in off]
    # g'(w) = min_y P(w, y) - P(a, y) + pot(w), against P(x, a) + pot(x)
    g = [min(map(sub, map(p[w].__getitem__, off), pa)) + pot[w] for w in off]
    low = min(g)
    bound = [p[x][a] + pot[x] - low for x in off]
    cap = max(bound)

    def keep(e: Sequence[int]) -> Optional[list]:
        """e's entries below cap, or None if none is below its bound."""
        if not any(map(lt, e, bound)):
            return None
        ws = [w for w, v in enumerate(e) if v < cap]
        return [(ws, [e[w] for w in ws])]

    def step(state: list, q: MinPlusRows) -> Optional[list]:
        ((ws, vs),) = state
        return keep(q.row(vs, ws))

    base = tuple(zip(*_on_b(crit.kernel.grid, pot, off)))
    return keep([v - low for v in g]), step, base, cap


def _fronts(crit: CriticalData, h: PotentialTable, off: list) -> tuple:
    """(start, step, S', top) of the walk of the fronts for two or more
    Aubry classes.  A state is the fronts, each as (points, weights);
    a step is one packed row per front entry; None ends the walk."""
    pot, b = crit._pot, len(off)
    hb = _on_b(h.grid, pot, off)
    top = max(map(max, hb))
    # m(x, w) = min_y P'(w, y) - h'(x, y), as top + m, the product of
    # top - h' and P' transposed; a walk x -> w of shifted weight v extends
    # below h iff v + m(x, w) < 0, that is v < lim(x, w) = -m(x, w)
    pt = MinPlusRows(tuple(zip(*_on_b(crit.kernel_plus().grid, pot, off))), top)
    lim = [[top - v for v in row] for row in pt.product([[top - v for v in row] for row in hb])]

    def front(x: int, row: tuple) -> tuple[list, list]:
        """The entries w of row x with row[w] < lim(x, w)."""
        ws = list(compress(range(b), map(lt, row, lim[x])))
        return ws, list(map(row.__getitem__, ws))

    def step(fronts: list, q: MinPlusRows) -> Optional[list]:
        out = [front(x, q.row(vs, ws)) if ws else ([], []) for x, (ws, vs) in enumerate(fronts)]
        return out if any(ws for ws, _ in out) else None

    # j = 0: the empty walk at x, kept as ``front`` keeps an entry
    start = [([x], [0]) if lim[x][x] > 0 else ([], []) for x in range(b)]
    if not any(ws for ws, _ in start):
        start = None
    return start, step, _on_b(crit.kernel.grid, pot, off), top


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


def orbit_sum(
    inst: CostInstance, crit: CriticalData, D: int, start: list, limit: list, positive: bool
) -> tuple[list, int]:
    """(sum of iterates 1..K, K) of the normalized orbit of ``start`` on the
    grid D, by ``T+ - alpha0`` if ``positive`` else ``T- + alpha0``, K the
    first iterate at ``limit``: stepped, and jumped a whole number of
    periods where the orbit repeats up to a shift (see the module
    docstring)."""
    P = crit.kernel_plus()
    m, p, r = D // P.scale, P.grid, crit.kernel_at(D)
    verts = set(crit.aubry_vertices())
    loops = [p[x][x] * m for x in range(inst.n) if x not in verts]
    gap = max(map(abs, map(sub, limit, start)))
    budget = len(loops) * -(-gap // min(loops)) if gap > 0 and loops else 0
    allowed = _WALK_WORK_LIMIT // (inst.n * inst.n)
    # T+ v - alpha0 = -((-v) (x) r^T): a positive walk holds the negated
    # iterate and steps on the rows of r, a negative one on its columns;
    # either way ``low`` rises to ``top``
    cols = r if positive else tuple(zip(*r))
    low, top = ([-v for v in start], [-v for v in limit]) if positive else (start, limit)
    total, k, stepped = [0] * inst.n, 0, 0
    # the points not yet at their limit, the only entries a step changes
    todo = [x for x, (v, w) in enumerate(zip(low, top)) if v != w]
    while todo:
        # Brent's detection on low - low(t0) over todo, restarted as todo shrinks
        size, t0, t1 = len(todo), todo[0], todo[-1]
        tort, tsum, tk, power = low, total, k, 1
        while len(todo) == size:
            if k >= budget:
                raise ConstructionError(f"orbit overran its budget of {budget} steps")
            if stepped == allowed:
                raise SizeGuardError(f"orbit did not settle in {allowed} steps at n = {inst.n}")
            step, low = minplus_row(low, map(cols.__getitem__, todo)), list(low)
            for y, v in zip(todo, step):
                low[y] = v
            total, k, stepped = list(map(add, total, low)), k + 1, stepped + 1
            todo = [y for y in todo if low[y] != top[y]]
            # t1 first, a cheap reject: a full pass over todo on every step
            # made a 10^5-step walk without a period at n = 3 about 20 %
            # slower (CPython 3.11)
            s = low[t0] - tort[t0]
            shifted = len(todo) == size and low[t1] - tort[t1] == s
            if not (shifted and all(low[y] - tort[y] == s for y in todo)):
                if k - tk == power:
                    tort, tsum, tk, power = low, total, k, 2 * power
                continue
            # low = tort + s on todo: jump q periods, the most that keep
            # every point of todo below its limit
            period = k - tk
            if s <= 0:
                raise ConstructionError(f"orbit repeats with shift {s} after {period} steps")
            q = min((top[y] - 1 - low[y]) // s for y in todo)
            rise = period * s * q * (q + 1) // 2
            total = [t + q * (t - w) for t, w in zip(total, tsum)]
            for y in todo:
                total[y] += rise
                low[y] += q * s
            k += q * period
            tort, tsum, tk, power = low, total, k, 1
    return ([-v for v in total] if positive else total), k


def u_minus(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> ValueFunction:
    """The least negative weak KAM solution above u, by the closed form."""
    D, _, lo, _ = limits_grid(inst, crit, u)
    return ValueFunction.on_grid(lo, D, inst.mode, f"u_minus[{u.tag}]" if u.tag else "u_minus")


def u_plus(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> ValueFunction:
    """The greatest positive weak KAM solution below u, by the closed form."""
    D, _, _, hi = limits_grid(inst, crit, u)
    return ValueFunction.on_grid(hi, D, inst.mode, f"u_plus[{u.tag}]" if u.tag else "u_plus")
