"""Calibrated chains, per-function Aubry sets, and strict sub-solutions.

A chain is calibrated by a dominated u when the domination inequality is
tight along every step, i.e. the total identity

    ``u(x_k) = u(x_0) + c(x_0,x_1) + ... + c(x_{k-1},x_k) + k alpha0``

holds.  The Aubry set of u collects the points whose normalized orbits never
move: ``u_minus(x) = u(x) = u_plus(x)``; both limits are closed forms
(see ``barrier``), so no orbit is iterated to find it.

A strict sub-solution at a pair (x, y) satisfies
``u(y) - u(x) < c(x, y) + alpha0`` strictly.  Averaging the normalized
backward and forward iterates of u with uniform positive weights yields a
dominated function that is strict at exactly the pairs admitting no
bi-infinite calibrated chain through them, and agrees with u on the Aubry
set of u.  Applying the same construction to a mix of all normalized
potential rows gives a sub-solution strict off the global Aubry edges.
Both averages are sums on the integer grid of ``core``, divided once; the
strictification keeps one running sum per orbit, walked once to its known
limit, and never the iterates.
"""

from __future__ import annotations

import math
from operator import add
from typing import Sequence

from .barrier import _limits, limits_grid, orbit_walk
from .core import CostInstance, ValueFunction, check_function
from .critical import CriticalData, _dominated_grid
from .numbers import ConstructionError, InputError
from .potential import mane_potential


def is_calibrated(
    inst: CostInstance, crit: CriticalData, u: ValueFunction, chain: Sequence[int]
) -> bool:
    """Exact test of the calibration identity along the chain, a sequence
    of at least two point indices."""
    pts = tuple(chain)
    if len(pts) < 2:
        raise InputError("a chain needs at least two points")
    for p in pts:
        if not 0 <= p < inst.n:
            raise InputError(f"chain point {p} out of range")
    D, vals = _dominated_grid(inst, crit, u)
    t = inst.cost_grid
    m = D // t.scale
    total = vals[pts[0]] + (len(pts) - 1) * crit.alpha_at(D)
    for x, y in zip(pts, pts[1:]):
        total = total + t.grid[x][y] * m
    return vals[pts[-1]] == total


def aubry_of(
    inst: CostInstance, crit: CriticalData, u: ValueFunction
) -> tuple[int, ...]:
    """Points whose normalized orbits fix u: u_minus(x) = u(x) = u_plus(x)."""
    _, start, lo, hi = limits_grid(inst, crit, u)
    return _fixed_points(start, lo, hi)


def _fixed_points(start: list, lo: list, hi: list) -> tuple[int, ...]:
    return tuple(x for x, v in enumerate(start) if lo[x] == v == hi[x])


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
    return _strictify(inst, crit, u, *limits_grid(inst, crit, u))


def _strictify(
    inst: CostInstance, crit: CriticalData, u: ValueFunction, D: int, start, lo, hi
) -> ValueFunction:
    """One running sum per walk, padded with its last iterate to N steps,
    then one division; the iterates are never kept."""
    walks = [orbit_walk(inst, crit, D, start, lim, pos) for lim, pos in ((lo, False), (hi, True))]
    total, steps, lasts = list(start), [], []
    for walk in walks:
        last, k = next(walk), 0
        for k, last in enumerate(walk, 1):
            total = list(map(add, total, last))
        steps.append(k)
        lasts.append(last)
    N = max(1, *steps)
    for k, last in zip(steps, lasts):
        total = [t + (N - k) * v for t, v in zip(total, last)]
    tag = f"strict[{u.tag}]" if u.tag else "strict"
    return ValueFunction.on_grid(total, D * (2 * N + 1), inst.mode, tag)


def strict_pairs(
    inst: CostInstance, crit: CriticalData, u: ValueFunction
) -> tuple[tuple[int, int], ...]:
    """Ordered pairs where the domination inequality is strict for u.

    Compared on the kernel's grid refined to u's denominators, against
    ``crit.kernel_at(D)``, (c + alpha0) * D."""
    check_function(inst, u)
    mode = inst.mode
    D = math.lcm(crit.kernel.scale, u.grid_in(mode)[1])
    vals = u.at(mode, D)
    return tuple(
        (x, y)
        for x, (ux, row) in enumerate(zip(vals, crit.kernel_at(D)))
        for y, (uy, c) in enumerate(zip(vals, row))
        if uy - ux < c
    )


def uniform_subsolution_mix(inst: CostInstance, crit: CriticalData) -> ValueFunction:
    """Average of all potential rows, each normalized to vanish at point 0."""
    phi = mane_potential(inst, crit)
    rows = [[v - row[0] for v in row] for row in phi.grid]
    total = [sum(col) for col in zip(*rows)]
    return ValueFunction.on_grid(total, phi.scale * len(rows), inst.mode, "potential_mix")


def max_strict_subsolution(inst: CostInstance, crit: CriticalData) -> ValueFunction:
    """Sub-solution strict at every pair off the global Aubry edges.

    Built by strictifying the uniform potential-row mix.  The mix must be
    dominated and have the global Aubry set as its own Aubry set; this is
    verified rather than assumed, and a failure, which only a faulty P can
    cause, raises ``ConstructionError``, a mismatch with both vertex sets.
    The global Aubry vertices, the mix and its closed-form limits are all
    read off the Kleene plus P that ``crit`` holds; the limits serve the
    check and end the two walks of the strictification.
    """
    mix = uniform_subsolution_mix(inst, crit)
    global_vertices = crit.aubry_vertices()
    D, start = _dominated_grid(inst, crit, mix, ConstructionError)
    lo, hi = _limits(inst, crit, D, start)
    mix_vertices = _fixed_points(start, lo, hi)
    if mix_vertices != global_vertices:
        raise ConstructionError(
            "potential-row mix does not pin the Aubry set: "
            f"mix {mix_vertices} vs global {global_vertices}"
        )
    return _strictify(inst, crit, mix, D, start, lo, hi)
