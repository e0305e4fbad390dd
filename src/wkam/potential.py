"""Mane potential, tail potentials, and the jump functions.

The Mane potential ``phi(x, y)`` is the largest increment ``u(y) - u(x)``
any critical sub-solution can achieve.  On a finite total instance it is the
least reduced weight (``c + alpha0``) of a walk from x to y using at least
one edge, with the diagonal forced to zero.  The tail potential of order n,
``phi_n(x, y)``, is the least reduced weight over walks of at least n edges;
it obeys the one-step recursion ``phi_{n+1} row = T-(phi_n row) + alpha0``
and increases pointwise with n towards the Peierls barrier.

The jump functions measure the defect of the potential rows from being
fixed points:

    ``F(x) = T-(phi_x)(x) + alpha0``   (>= 0, zero exactly on the Aubry set)
    ``f(x) = T+(phi^x)(x) - alpha0``   (<= 0, zero exactly on the Aubry set)

where ``phi_x = phi(x, .)`` and ``phi^x = -phi(., x)``.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    CostInstance,
    PotentialTable,
    ValueFunction,
    kleene_plus,
    lax_oleinik_pos,
    minplus_product,
)
from .critical import CriticalData
from .numbers import InputError, neg


def phi_n(inst: CostInstance, crit: CriticalData, n: int) -> PotentialTable:
    """Tail potential of order n >= 1.

    phi_1 is the least reduced walk weight with >= 1 edge: the Kleene plus
    of the reduced matrix, which has no negative cycle.  Higher orders
    follow by min-plus products with the reduced matrix, which realises the
    row recursion T-(row) + alpha0.
    """
    if n < 1:
        raise InputError("tail potential is defined for order >= 1")
    inst.require_total("tail potential")
    entries = kleene_plus(crit.reduced)
    for _ in range(n - 1):
        entries = minplus_product(entries, crit.reduced)
    return PotentialTable(entries=entries, kind="phi_n", alpha0=crit.alpha0, order=n)


def mane_potential(inst: CostInstance, crit: CriticalData) -> PotentialTable:
    """Mane potential: phi_1 off the diagonal, zero on it."""
    inst.require_total("Mane potential")
    base = phi_n(inst, crit, 1).entries
    zero = inst.mode.coerce(0)
    entries = tuple(
        tuple(zero if i == j else v for j, v in enumerate(row))
        for i, row in enumerate(base)
    )
    return PotentialTable(entries=entries, kind="phi", alpha0=crit.alpha0)


def jump_F(
    inst: CostInstance,
    crit: CriticalData,
    phi: Optional[PotentialTable] = None,
) -> ValueFunction:
    """Backward jump F(x) = T-(phi_x)(x) + alpha0; nonnegative."""
    if phi is None:
        phi = mane_potential(inst, crit)
    cost = inst.cost
    n = inst.n
    vals = tuple(
        min(phi.entries[x][z] + cost[z][x] for z in range(n)) + crit.alpha0
        for x in range(n)
    )
    return ValueFunction(vals, tag="F")


def jump_f(
    inst: CostInstance,
    crit: CriticalData,
    phi: Optional[PotentialTable] = None,
) -> ValueFunction:
    """Forward jump f(x) = T+(phi^x)(x) - alpha0; nonpositive.

    phi^x is the negated column of the potential; the forward operator runs
    through the shared reversal kernel.
    """
    if phi is None:
        phi = mane_potential(inst, crit)
    vals = []
    for x in range(inst.n):
        col = ValueFunction(tuple(neg(v) for v in phi.col(x)))
        vals.append(lax_oleinik_pos(inst, col).values[x] - crit.alpha0)
    return ValueFunction(tuple(vals), tag="f")
