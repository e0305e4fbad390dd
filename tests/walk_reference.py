"""Naive references for n-step chain costs and normalized orbits.

``enum_walks`` enumerates every walk of exactly n steps by bare recursion
on the instance's own values (``Fraction`` or float, no integer grid), so
it shares nothing with the min-plus powers of the cost table and
``phi_n`` that the tests check against it.

``ref_orbit`` steps a normalized orbit one full ``T- + alpha0`` (or
``T+ - alpha0``) step at a time, every entry of every iterate, on the
reduced matrix ``r = c + alpha0`` it is given (a grid table or
``Fraction``s), so it shares nothing with ``barrier.orbit_sum``, which
steps only the points off their limit and jumps whole periods.
"""

from operator import add, sub

from wkam.core import CostInstance
from wkam.numbers import INF, SizeGuardError, Value, is_inf

WALK_GUARD = 6


def enum_walks(inst: CostInstance, x: int, y: int, n: int) -> Value:
    """n-step chain cost by bare recursive enumeration (small sizes only)."""
    if inst.n > WALK_GUARD or n > WALK_GUARD:
        raise SizeGuardError(f"walk enumeration is guarded to n <= {WALK_GUARD}")
    if n < 1:
        raise SizeGuardError("walk length must be >= 1")
    cost = inst.cost
    best: list[Value] = [INF]

    def rec(v: int, steps: int, acc: Value) -> None:
        if steps == n:
            if v == y and acc < best[0]:
                best[0] = acc
            return
        for z in range(inst.n):
            w = cost[v][z]
            if is_inf(w):
                continue
            rec(z, steps + 1, acc + w)

    rec(x, 0, inst.mode.coerce(0))
    return best[0]


def ref_orbit(r, u, positive: bool) -> list[tuple]:
    """u and its iterates up to the first that its step fixes, by full
    steps: ``min_z v(z) + r(z, y)``, or with ``positive``
    ``max_z v(z) - r(x, z)``.  The orbit of a dominated u ends at its
    limit; the tests pass no other."""
    lines = [tuple(row) for row in r] if positive else list(zip(*r))
    out = [tuple(u)]
    while True:
        v = out[-1]
        if positive:
            nxt = tuple(max(map(sub, v, row)) for row in lines)
        else:
            nxt = tuple(min(map(add, v, col)) for col in lines)
        if nxt == v:
            return out
        out.append(nxt)


def walk_sum(walk: list[tuple]) -> tuple[list, int]:
    """(sum of iterates 1..K, K) of an orbit given as u and its K iterates."""
    total = [sum(col) for col in zip(*walk[1:])] or [0] * len(walk[0])
    return total, len(walk) - 1
