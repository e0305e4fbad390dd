"""Naive reference for n-step chain costs.

``enum_walks`` enumerates every walk of exactly n steps by bare recursion
on the instance's own values (``Fraction`` or float, no integer grid), so
it shares nothing with the min-plus powers of the cost table and
``phi_n`` that the tests check against it.
"""

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
