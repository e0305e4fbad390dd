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

where ``phi_x = phi(x, .)`` and ``phi^x = -phi(., x)``.  With
``r = c + alpha0`` they read ``F(x) = min_z phi(x, z) + r(z, x)`` and
``f(x) = -min_y phi(y, x) + r(x, y)``, which is how they are computed: on the
integer kernel of ``CriticalData`` (see ``core``), with no transposed
instance.
"""

from __future__ import annotations

import math
from operator import add
from typing import Optional

from .core import CostInstance, PotentialTable, ValueFunction, minplus_product
from .critical import CriticalData
from .numbers import InputError


def phi_n(inst: CostInstance, crit: CriticalData, n: int) -> PotentialTable:
    """Tail potential of order n >= 1.

    phi_1 is the least reduced walk weight with >= 1 edge: the Kleene plus
    of the reduced matrix, which has no negative cycle, held on ``crit`` and
    returned as it is.  Higher orders follow by min-plus products with the
    reduced matrix, which realises the row recursion T-(row) + alpha0.  All
    of it runs on the integer kernel.
    """
    if n < 1:
        raise InputError("tail potential is defined for order >= 1")
    inst.require_total("tail potential")
    p = crit.kernel_plus()
    if n == 1:
        return p
    g = p.grid
    for _ in range(n - 1):
        g = minplus_product(g, crit.kernel.grid)
    return PotentialTable(g, p.scale, p.mode)


def mane_potential(inst: CostInstance, crit: CriticalData) -> PotentialTable:
    """Mane potential: phi_1 off the diagonal, zero on it."""
    inst.require_total("Mane potential")
    p = crit.kernel_plus()
    zero = 0 if p.mode.exact else 0.0
    grid = tuple(
        tuple(zero if i == j else v for j, v in enumerate(row)) for i, row in enumerate(p.grid)
    )
    return PotentialTable(grid, p.scale, p.mode)


def jump_F(
    inst: CostInstance,
    crit: CriticalData,
    phi: Optional[PotentialTable] = None,
) -> ValueFunction:
    """Backward jump F(x) = T-(phi_x)(x) + alpha0; nonnegative."""
    if phi is None:
        phi = mane_potential(inst, crit)
    D = math.lcm(phi.scale, crit.kernel.scale)
    p, r = phi.at(D), crit.kernel.at(D)
    vals = [min(map(add, p[x], rcol)) for x, rcol in enumerate(zip(*r))]
    return ValueFunction.on_grid(vals, D, inst.mode, "F")


def jump_f(
    inst: CostInstance,
    crit: CriticalData,
    phi: Optional[PotentialTable] = None,
) -> ValueFunction:
    """Forward jump f(x) = T+(phi^x)(x) - alpha0; nonpositive.

    phi^x is the negated column of the potential, so
    f(x) = -min_y phi(y, x) + r(x, y), read straight off the kernel rows.
    """
    if phi is None:
        phi = mane_potential(inst, crit)
    D = math.lcm(phi.scale, crit.kernel.scale)
    p, r = phi.at(D), crit.kernel.at(D)
    vals = [-min(map(add, pcol, r[x])) for x, pcol in enumerate(zip(*p))]
    return ValueFunction.on_grid(vals, D, inst.mode, "f")
