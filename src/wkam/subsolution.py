"""Calibrated chains, per-function Aubry sets, and strict sub-solutions.

A chain is calibrated by a dominated u when the domination inequality is
tight along every step, i.e. the total identity

    ``u(x_k) = u(x_0) + c(x_0,x_1) + ... + c(x_{k-1},x_k) + k alpha0``

holds.  The Aubry set of u collects the points whose normalized orbits never
move: ``u_minus(x) = u(x) = u_plus(x)``.

A strict sub-solution at a pair (x, y) satisfies
``u(y) - u(x) < c(x, y) + alpha0`` strictly.  Averaging the normalized
backward and forward iterates of u with uniform positive weights yields a
dominated function that is strict at exactly the pairs admitting no
bi-infinite calibrated chain through them, and agrees with u on the Aubry
set of u.  Applying the same construction to a mix of all normalized
potential rows gives a sub-solution strict off the global Aubry edges.
Both averages are sums on the integer grid of ``core``, divided once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .barrier import orbit_neg, orbit_pos
from .core import (
    CostInstance,
    PotentialTable,
    ValueFunction,
    as_value_function,
    from_grid,
    grid_scale,
    to_grid,
)
from .critical import CriticalData, is_dominated
from .numbers import ConstructionError, InputError, Value
from .potential import jump_F, mane_potential, potential_grid


@dataclass(frozen=True)
class Chain:
    """A finite sequence of point indices (at least two)."""

    points: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise InputError("a chain needs at least two points")

    def __len__(self) -> int:
        return len(self.points)


def _as_chain(inst: CostInstance, chain: object) -> Chain:
    if not isinstance(chain, Chain):
        chain = Chain(tuple(chain))  # type: ignore[arg-type]
    for p in chain.points:
        if not 0 <= p < inst.n:
            raise InputError(f"chain point {p} out of range")
    return chain


def is_calibrated(
    inst: CostInstance, crit: CriticalData, u: ValueFunction, chain: object
) -> bool:
    """Exact test of the calibration identity along the chain."""
    ch = _as_chain(inst, chain)
    if not is_dominated(inst, u, crit.alpha0).ok:
        raise InputError("function is not dominated at the critical constant")
    pts = ch.points
    steps = len(pts) - 1
    total = u.values[pts[0]] + steps * crit.alpha0
    for a, b in zip(pts, pts[1:]):
        total = total + inst.cost[a][b]
    return inst.mode.eq(u.values[pts[-1]], total, scale=inst.value_scale())


def aubry_of(
    inst: CostInstance, crit: CriticalData, u: ValueFunction
) -> tuple[int, ...]:
    """Points whose normalized orbits fix u: u_minus(x) = u(x) = u_plus(x)."""
    return _fixed_points(inst, u, orbit_neg(inst, crit, u), orbit_pos(inst, crit, u))


def _fixed_points(
    inst: CostInstance, u: ValueFunction, neg_hist: list, pos_hist: list
) -> tuple[int, ...]:
    mode = inst.mode
    scale = inst.value_scale()
    lo, hi = neg_hist[-1], pos_hist[-1]
    return tuple(
        x
        for x in range(inst.n)
        if mode.eq(lo[x], u.values[x], scale=scale)
        and mode.eq(hi[x], u.values[x], scale=scale)
    )


def strict_subsolution(
    inst: CostInstance, crit: CriticalData, u: ValueFunction
) -> ValueFunction:
    """Uniform average of the normalized iterates of u.

    Components are v_k = T-^k u + k alpha0 (k = 0..N) and
    w_k = T+^k u - k alpha0 (k = 1..N), N covering both stabilization
    indices.  Positivity of the weights makes the average tight at a pair
    only when every component is, which happens exactly on the Aubry edges
    of u; elsewhere the result is strict.  On the Aubry set of u all
    components equal u, so the average does too.
    """
    return _strictify(inst, u, orbit_neg(inst, crit, u), orbit_pos(inst, crit, u))


def _strictify(
    inst: CostInstance, u: ValueFunction, neg_hist: list, pos_hist: list
) -> ValueFunction:
    N = max(1, len(neg_hist) - 1, len(pos_hist) - 1)
    comps = [neg_hist[min(k, len(neg_hist) - 1)] for k in range(N + 1)]
    comps += [pos_hist[min(k, len(pos_hist) - 1)] for k in range(1, N + 1)]
    mode = inst.mode
    D = grid_scale(mode, chain.from_iterable(comps))
    vals = _average(inst, [to_grid(mode, c, D) for c in comps], D)
    return as_value_function(inst, vals, tag=f"strict[{u.tag}]" if u.tag else "strict")


def _average(inst: CostInstance, rows: Sequence[Sequence[Value]], D: int) -> tuple:
    """Uniform average of grid vectors on the grid D: one sum, one division."""
    return from_grid(inst.mode, [sum(col) for col in zip(*rows)], D * len(rows))


def strict_pairs(
    inst: CostInstance, crit: CriticalData, u: ValueFunction
) -> tuple[tuple[int, int], ...]:
    """Ordered pairs where the domination inequality is strict for u."""
    mode = inst.mode
    scale = inst.value_scale()
    out = []
    for x in range(inst.n):
        for y in range(inst.n):
            bound = inst.cost[x][y] + crit.alpha0
            if mode.lt(u.values[y] - u.values[x], bound, scale=scale):
                out.append((x, y))
    return tuple(out)


def uniform_subsolution_mix(
    inst: CostInstance,
    crit: CriticalData,
    phi: Optional[PotentialTable] = None,
) -> ValueFunction:
    """Average of all potential rows, each normalized to vanish at point 0."""
    if phi is None:
        phi = mane_potential(inst, crit)
    D, p, _ = potential_grid(inst, crit, phi)
    rows = [[v - row[0] for v in row] for row in p]
    return as_value_function(inst, _average(inst, rows, D), tag="potential_mix")


def max_strict_subsolution(inst: CostInstance, crit: CriticalData) -> ValueFunction:
    """Sub-solution strict at every pair off the global Aubry edges.

    Built by strictifying the uniform potential-row mix.  The mix must have
    the global Aubry set as its own Aubry set; this is verified rather than
    assumed, and a mismatch raises with both vertex sets.  The mix and the
    jumps share one Mane potential, read off the Kleene plus that ``crit``
    holds, and one pair of orbits of the mix serves the check and the
    strictification.
    """
    phi = mane_potential(inst, crit)
    mix = uniform_subsolution_mix(inst, crit, phi=phi)
    scale = inst.value_scale()
    jumps = jump_F(inst, crit, phi=phi).values
    global_vertices = tuple(
        x for x in range(inst.n) if inst.mode.is_zero(jumps[x], scale=scale)
    )
    neg_hist, pos_hist = orbit_neg(inst, crit, mix), orbit_pos(inst, crit, mix)
    mix_vertices = _fixed_points(inst, mix, neg_hist, pos_hist)
    if mix_vertices != global_vertices:
        raise ConstructionError(
            "potential-row mix does not pin the Aubry set: "
            f"mix {mix_vertices} vs global {global_vertices}"
        )
    return _strictify(inst, mix, neg_hist, pos_hist)
