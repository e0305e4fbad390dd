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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .barrier import orbit_neg, orbit_pos
from .core import CostInstance, ValueFunction, as_value_function
from .critical import CriticalData, is_dominated
from .numbers import ConstructionError, InputError, Value
from .potential import jump_F, mane_potential


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
    mode = inst.mode
    scale = inst.value_scale()
    lo = orbit_neg(inst, crit, u)[-1]
    hi = orbit_pos(inst, crit, u)[-1]
    return tuple(
        x
        for x in range(inst.n)
        if mode.eq(lo[x], u.values[x], scale=scale)
        and mode.eq(hi[x], u.values[x], scale=scale)
    )


def _uniform_weights(inst: CostInstance, count: int) -> list[Value]:
    if inst.mode.exact:
        w = Fraction(1, count)
    else:
        w = 1.0 / count
    return [w] * count


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
    neg_hist = orbit_neg(inst, crit, u)
    pos_hist = orbit_pos(inst, crit, u)
    N = max(1, len(neg_hist) - 1, len(pos_hist) - 1)
    comps: list[tuple[Value, ...]] = []
    for k in range(N + 1):
        comps.append(neg_hist[min(k, len(neg_hist) - 1)])
    for k in range(1, N + 1):
        comps.append(pos_hist[min(k, len(pos_hist) - 1)])
    weights = _uniform_weights(inst, len(comps))
    vals = [
        sum(w * comp[i] for comp, w in zip(comps, weights)) for i in range(inst.n)
    ]
    return as_value_function(inst, vals, tag=f"strict[{u.tag}]" if u.tag else "strict")


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


def uniform_subsolution_mix(inst: CostInstance, crit: CriticalData) -> ValueFunction:
    """Average of all potential rows, each normalized to vanish at point 0."""
    phi = mane_potential(inst, crit)
    rows = []
    for x in range(inst.n):
        base = phi.entries[x][0]
        rows.append(ValueFunction(tuple(v - base for v in phi.entries[x])))
    weights = _uniform_weights(inst, inst.n)
    vals = [sum(w * r.values[i] for r, w in zip(rows, weights)) for i in range(inst.n)]
    return as_value_function(inst, vals, tag="potential_mix")


def max_strict_subsolution(inst: CostInstance, crit: CriticalData) -> ValueFunction:
    """Sub-solution strict at every pair off the global Aubry edges.

    Built by strictifying the uniform potential-row mix.  The mix must have
    the global Aubry set as its own Aubry set; this is verified rather than
    assumed, and a mismatch raises with both vertex sets.
    """
    mix = uniform_subsolution_mix(inst, crit)
    scale = inst.value_scale()
    jumps = jump_F(inst, crit).values
    global_vertices = tuple(
        x for x in range(inst.n) if inst.mode.is_zero(jumps[x], scale=scale)
    )
    mix_vertices = aubry_of(inst, crit, mix)
    if mix_vertices != global_vertices:
        raise ConstructionError(
            "potential-row mix does not pin the Aubry set: "
            f"mix {mix_vertices} vs global {global_vertices}"
        )
    return strict_subsolution(inst, crit, mix)


def calibrates_all(
    inst: CostInstance,
    crit: CriticalData,
    functions: Sequence[ValueFunction],
    chain: object,
) -> bool:
    """True iff every function in the family calibrates the chain."""
    return all(is_calibrated(inst, crit, f, chain) for f in functions)
