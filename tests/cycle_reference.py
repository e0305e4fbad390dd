"""Naive reference for ``wkam.oracle.cycle_scan``.

Every simple cycle is yielded as its own tuple with its own total, and the
scan's fields are accumulated cycle by cycle on the exact values of the
costs (``Fraction``, no integer grid; a float instance's doubles at their
dyadic values), so the reference shares nothing with the scan's subset
DPs.  ``vertex_min_reduced`` is rounded once to doubles in float mode.
"""

from typing import Callable, Optional

from wkam.numbers import EXACT, INF, SizeGuardError, Value, is_inf
from wkam.oracle import CycleScan


def iter_simple_cycles(n: int, weight: Callable[[int, int], Optional[Value]]):
    """Yield (cycle, total_weight) over all simple cycles, each cycle
    listed once with its least vertex first."""
    for m in range(n):
        path = [m]
        used = {m}

        def rec(v: int, acc):
            w_close = weight(v, m)
            if w_close is not None:
                yield tuple(path), acc + w_close
            for nxt in range(m + 1, n):
                if nxt in used:
                    continue
                w = weight(v, nxt)
                if w is None:
                    continue
                path.append(nxt)
                used.add(nxt)
                yield from rec(nxt, acc + w)
                path.pop()
                used.discard(nxt)

        yield from rec(m, 0)


def naive_cycle_scan(inst) -> CycleScan:
    """``cycle_scan`` computed one cycle at a time: the cycles are listed
    once, the least mean is taken over them, and at alpha = -(least mean)
    each cycle's vertices and edges are walked to update the zero structure
    and the minima."""
    mode = inst.mode
    cost = [[EXACT.coerce(v) for v in row] for row in inst.cost]

    def weight(i, j):
        return None if is_inf(cost[i][j]) else cost[i][j]

    cycles = list(iter_simple_cycles(inst.n, weight))
    if not cycles:
        raise SizeGuardError("instance has no cycle")
    best_s, best_len = cycles[0][1], len(cycles[0][0])
    for cyc, total in cycles:
        if total * best_len < best_s * len(cyc):
            best_s, best_len = total, len(cyc)
    min_mean = best_s / best_len
    alpha = -min_mean
    zero_v, zero_e = set(), set()
    vmin = [INF] * inst.n
    for cyc, total in cycles:
        red = total + len(cyc) * alpha
        for v in cyc:
            vmin[v] = min(vmin[v], red)
        if red == 0:
            zero_v.update(cyc)
            zero_e.update(zip(cyc, cyc[1:] + cyc[:1]))
    return CycleScan(
        min_mean=min_mean,
        cycle_count=len(cycles),
        zero_vertices=tuple(sorted(zero_v)),
        zero_edges=tuple(sorted(zero_e)),
        vertex_min_reduced=tuple(v if mode.exact or is_inf(v) else float(v) for v in vmin),
    )
