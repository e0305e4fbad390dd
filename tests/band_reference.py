"""Reference for the solver's band decisions: one ``Mode`` call per entry.

Each function is the decision as the solver made it before ``numbers.Band``
tested whole rows: the Aubry vertices and edges, the tight subgraph of
``critical._tight``, ``critical._undominated``, ``subsolution._fixed_points``
and ``strict_pairs``, ``core.vf_le`` and ``vf_eq``, and the transient's
pruning test ``barrier._failing``.  Each one calls ``Mode.is_zero``, ``eq``,
``le`` or ``lt`` on one pair of entries at a time.
"""

import math
from operator import sub

from wkam.core import CostInstance, Matrix, ValueFunction
from wkam.critical import CriticalData, _bellman_ford, _finite_edges, _rows
from wkam.numbers import Mode, is_inf


def aubry_vertices(inst: CostInstance, p: Matrix) -> list[int]:
    scale = inst.value_scale()
    return [x for x in range(inst.n) if inst.mode.is_zero(p[x][x], scale=scale)]


def aubry_edges(inst: CostInstance, r: Matrix, h: Matrix) -> list[tuple[int, int]]:
    scale = inst.value_scale()
    pts = range(inst.n)
    return [(x, y) for x in pts for y in pts if inst.mode.is_zero(r[x][y] + h[y][x], scale=scale)]


def tight(inst: CostInstance, kernel: Matrix) -> list[list[int]]:
    mode, scale = inst.mode, inst.value_scale()
    edges = _finite_edges(kernel, inst.total)
    pot, _ = _bellman_ford(edges)
    return [
        [v for v, r in pairs if mode.eq(pu + r, pot[v], scale=scale)]
        for pu, pairs in zip(pot, _rows(edges))
    ]


def undominated(mode: Mode, vals, cost: Matrix, a, scale):
    for x, row in enumerate(cost):
        ux = vals[x]
        for y, c in enumerate(row):
            if not is_inf(c) and not mode.le(vals[y] - ux, c + a, scale=scale):
                return x, y
    return None


def fixed_points(inst: CostInstance, start, lo, hi) -> tuple[int, ...]:
    mode, scale = inst.mode, inst.value_scale()
    return tuple(
        x
        for x, (v, a, b) in enumerate(zip(start, lo, hi))
        if mode.eq(a, v, scale=scale) and mode.eq(b, v, scale=scale)
    )


def strict_pairs(inst: CostInstance, crit: CriticalData, u: ValueFunction):
    mode, scale = inst.mode, inst.value_scale()
    D = math.lcm(crit.kernel.scale, u.grid_in(mode)[1])
    vals = u.at(mode, D)
    return tuple(
        (x, y)
        for x, (ux, row) in enumerate(zip(vals, crit.kernel.at(D)))
        for y, (uy, k) in enumerate(zip(vals, row))
        if mode.lt(uy - ux, k, scale=scale)
    )


def vf_le(mode: Mode, u, v, scale) -> bool:
    return all(mode.le(a, b, scale=scale) for a, b in zip(u, v))


def vf_eq(mode: Mode, u, v, scale) -> bool:
    return all(mode.eq(a, b, scale=scale) for a, b in zip(u, v))


def failing(mode: Mode, scale, hx: list, pb: list, ws: list, vs: list) -> list:
    def fails(v, pw: list) -> bool:
        gaps = list(map(sub, hx, pw))
        y = gaps.index(max(gaps))
        return not mode.le(hx[y], v + pw[y], scale=scale) or not all(
            mode.le(a, v + q, scale=scale) for a, q in zip(hx, pw)
        )

    return [w for w, v in zip(ws, vs) if fails(v, pb[w])]
