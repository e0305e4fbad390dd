"""Peierls barrier, weak KAM solutions, Aubry sets, and sub-solution limits.

This module holds only what the solver computes.  The paper's barrier
identities (the n-step min formulas, the orbit bound with its attainment on
the rows of phi_1, the idempotent alternation of the limits) are checks, and
``oracle.verify_all`` decides them on the tables of its own integer grid.

The Peierls barrier ``h(x, y)`` is the limiting reduced cost of long chains
from x to y.  With ``phi_1`` the Kleene plus of the reduced matrix
``r = c + alpha0`` and ``A = {a : phi_1(a, a) = 0}`` the Aubry vertices,

    ``h(x, y) = min_{a in A} phi_1(x, a) + phi_1(a, y)``,

one min-plus product of the columns and the rows of ``phi_1`` at A.  A walk
through A costs at least h and, padded with zero cycles at A, reaches h at
every length.  So with ``S`` the reduced matrix on the points ``B`` off A
and ``G_j = S^(j-1) S^+`` the least weight of a walk of at least j edges
inside B, the tail potentials are ``phi_j = min(h, G_j)`` on B x B and h
elsewhere.  The transient ``iterations_to_fix``, the least k with
``phi_{1+k} = h``, is the least k with ``G_{k+1} >= h`` on B x B (0 when B
is empty); ``G_j`` is nondecreasing in j, so doubling and binary lifting
find it with O(log k) min-plus products.  h costs O(n^2 |A|) on top of
``phi_1``, which ``CriticalData`` holds once; the transient is computed on
the first read of ``BarrierData.iterations_to_fix`` and kept, so callers
that never read it never pay for it.  The closed form, the transient and
the orbit walk run on the integer kernel of ``CriticalData`` (see
``core``); ``h`` is a table on the kernel's grid, read as values only
through its ``entries``.  Rows of ``h`` are fixed points of ``T- + alpha0``
(negative weak KAM solutions); negated columns are fixed points of
``T+ - alpha0`` (positive solutions).

The projected Aubry set is the zero diagonal of the barrier; the edge Aubry
set collects the ordered pairs closing a zero-reduced-weight circuit,
``c(x,y) + alpha0 + h(y,x) = 0``.

For a dominated u, the normalized orbits ``T-^k u + k alpha0`` (nondecreasing)
and ``T+^k u - k alpha0`` (nonincreasing) stabilize to the enveloping
solutions ``u_minus >= u`` and ``u_plus <= u``.  As ``h(a, .) = phi_1(a, .)``
and ``h(., a) = phi_1(., a)`` for a in A, both are closed forms, O(n |A|):

    ``u_minus(y) = min_{a in A} u(a) + phi_1(a, y)``,
    ``u_plus(x) = max_{a in A} u(a) - phi_1(x, a)``.

Only averaging needs the iterates (see ``subsolution``): ``orbit_walk``
steps to the known limit.  With ``m = |B|``, ``delta' = min_{x in B}
phi_1(x, x) > 0`` (at most the weight of any cycle inside B) and ``S`` the
largest gap between u and the limit, it takes at most
``m * ceil(S / delta')`` steps, none when ``S = 0``, and an overrun raises
``ConstructionError``.  As one step moves ``v(x)`` by at most ``r(x, x)``,
it also takes at least ``max_x ceil(|limit(x) - u(x)| / r(x, x))`` steps.
A walk may make ``_WALK_WORK_LIMIT`` entry updates (n^2 a step): one that
provably needs more raises ``SizeGuardError`` before any step, and one
that has not settled when it has made them raises it then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from operator import add, le, sub
from typing import Iterator, Optional

from .core import (
    CostInstance,
    Matrix,
    PotentialTable,
    ValueFunction,
    backward,
    forward,
    grid_operands,
    kleene_plus,
    minplus_product,
    to_grid,
    vf_eq,
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
    Kleene plus held on ``crit``."""
    inst.require_total("tail potential")
    p = crit.kernel_plus()
    e = p.grid
    verts = aubry_vertices(inst, p)
    to_a = [[row[a] for a in verts] for row in e]  # phi_1(x, a)
    return PotentialTable(minplus_product(to_a, [e[a] for a in verts]), p.scale, p.mode)


def aubry_vertices(inst: CostInstance, p: PotentialTable) -> list[int]:
    """The Aubry vertices: the zero set of the diagonal of
    P = ``crit.kernel_plus()``."""
    scale = inst.value_scale()
    g = p.grid
    verts = [x for x in range(inst.n) if inst.mode.is_zero(g[x][x], scale=scale)]
    if not verts:
        raise ConstructionError("no Aubry vertex found for the closed form")
    return verts


def _transient(inst: CostInstance, crit: CriticalData, h: PotentialTable) -> int:
    """Least k >= 0 with G_{k+1} >= h on B x B (see the module docstring)."""
    mode = inst.mode
    scale = inst.value_scale()
    r, hg = crit.kernel.grid, h.at(crit.kernel.scale)
    off = [x for x in range(inst.n) if not mode.is_zero(hg[x][x], scale=scale)]
    s = tuple(tuple(r[x][y] for y in off) for x in off)
    hb = [[hg[x][y] for y in off] for x in off]

    def reached(g: Matrix) -> bool:
        return all(
            mode.le(hv, gv, scale=scale) for hrow, grow in zip(hb, g) for hv, gv in zip(hrow, grow)
        )

    g = kleene_plus(s)  # G_1
    if reached(g):
        return 0
    # Invariant: g = G_j falls short of h, j = 2^i and powers[t] = S^(2^t).
    j, powers = 1, [s]
    while not reached(nxt := minplus_product(powers[-1], g)):
        g, j = nxt, 2 * j
        powers.append(minplus_product(powers[-1], powers[-1]))
    # G_(2j) reaches h; lift j to the longest length that still falls short.
    for i in range(len(powers) - 2, -1, -1):
        cand = minplus_product(powers[i], g)
        if not reached(cand):
            g, j = cand, j + (1 << i)
    return j


def aubry(
    inst: CostInstance,
    crit: CriticalData,
    bar: BarrierData,
    phi: Optional[PotentialTable] = None,
) -> AubryData:
    """Aubry sets read off the barrier.

    x is an Aubry vertex iff h(x, x) = 0; the ordered pair (x, y) is an
    Aubry edge iff the step x -> y closes a zero-reduced circuit:
    c(x, y) + alpha0 + h(y, x) = 0.
    """
    mode = inst.mode
    scale = inst.value_scale()
    D = math.lcm(bar.h.scale, crit.kernel.scale)
    h, r = bar.h.at(D), crit.kernel.at(D)
    vertices = tuple(x for x in range(inst.n) if mode.is_zero(h[x][x], scale=scale))
    edges = tuple(
        (x, y)
        for x in range(inst.n)
        for y in range(inst.n)
        if mode.is_zero(r[x][y] + h[y][x], scale=scale)
    )
    jumps = jump_F(inst, crit, phi=phi)
    return AubryData(vertices=vertices, edges=edges, jumps=jumps)


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
    mode = inst.mode
    D, vals, cost = grid_operands(inst, u, crit.kernel.scale)
    (a,) = to_grid(mode, (crit.alpha0,), D)
    neg = sign == "negative"
    img = [v + a for v in backward(vals, cost)] if neg else [v - a for v in forward(vals, cost)]
    return vf_eq(mode, img, vals, scale=inst.value_scale())


# ---------------------------------------------------------------------------
# normalized orbits and limits
# ---------------------------------------------------------------------------

def limits_grid(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> tuple:
    """Check that u is dominated; then D, u, u_minus and u_plus on the
    kernel's grid refined to u's denominators, by the closed forms."""
    inst.require_total("orbit limits")
    D, start = _dominated_grid(inst, crit, u)
    P = crit.kernel_plus()
    m, p = D // P.scale, P.grid
    ua = [(start[a], a) for a in aubry_vertices(inst, P)]
    lo = [min(v + p[a][y] * m for v, a in ua) for y in range(inst.n)]
    hi = [max(v - row[a] * m for v, a in ua) for row in p]
    return D, start, lo, hi


def orbit_walk(
    inst: CostInstance, crit: CriticalData, D: int, start: list, limit: list, forward: bool
) -> Iterator[list]:
    """Iterates of the normalized orbit of ``start`` on the grid D, up to the
    first that reaches ``limit`` (float mode: its band).  The step bounds and
    the work limit of the module docstring are checked on the call, before
    any step."""
    mode, scale, exact = inst.mode, inst.value_scale(), inst.mode.exact
    P = crit.kernel_plus()
    m, p, r = D // P.scale, P.grid, crit.kernel.at(D)
    loops = [p[x][x] * m for x in range(inst.n) if not mode.is_zero(p[x][x], scale=scale)]
    gap = max(map(abs, map(sub, limit, start)))
    budget = len(loops) * int(-(-gap // min(loops))) if gap > 0 and loops else 0
    band = [0] * inst.n if exact else [mode.tolerance * max(1.0, abs(v), abs(scale)) for v in limit]
    rest = [abs(w - v) - t for v, w, t in zip(start, limit, band)]
    # one step moves v(x) by at most r(x, x), so the walk takes at least need steps
    need = max((int(-(-d // r[x][x])) for x, d in enumerate(rest) if d > 0 < r[x][x]), default=0)
    allowed = _WALK_WORK_LIMIT // (inst.n * inst.n)
    if need > allowed:
        raise SizeGuardError(f"orbit needs at least {need} steps, over {allowed} at n = {inst.n}")
    stop = min(budget, allowed)
    cols = tuple(zip(*r))

    def walk():
        cur = start
        for k in count():
            yield cur
            if cur == limit if exact else all(map(le, map(abs, map(sub, cur, limit)), band)):
                return
            if k == budget:
                raise ConstructionError(f"orbit overran its budget of {budget} steps")
            if k == stop:
                raise SizeGuardError(f"orbit did not settle in {stop} steps at n = {inst.n}")
            if forward:
                cur = [max(map(sub, cur, row)) for row in r]
            else:
                cur = [min(map(add, cur, col)) for col in cols]

    return walk()


def u_minus(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> ValueFunction:
    """The least negative weak KAM solution above u, by the closed form."""
    D, _, lo, _ = limits_grid(inst, crit, u)
    return ValueFunction.on_grid(lo, D, inst.mode, f"u_minus[{u.tag}]" if u.tag else "u_minus")


def u_plus(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> ValueFunction:
    """The greatest positive weak KAM solution below u, by the closed form."""
    D, _, _, hi = limits_grid(inst, crit, u)
    return ValueFunction.on_grid(hi, D, inst.mode, f"u_plus[{u.tag}]" if u.tag else "u_plus")
