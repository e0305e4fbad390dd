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
``r = c + alpha0``, ``F(x) = min_y phi(x, y) + r(y, x)`` is the least
closed walk through x, and so is ``-f(x)``: both are the diagonal of the
Kleene plus ``P = phi_1`` that ``CriticalData`` holds, which is how they are
read, in both modes, with no product and no transposed instance.  The same
diagonal decides the Aubry set (``CriticalData.aubry_vertices``).
"""

from __future__ import annotations

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
    grid = tuple(row[:i] + (0,) + row[i + 1:] for i, row in enumerate(p.grid))
    return PotentialTable(grid, p.scale, p.mode)


def jump_F(
    inst: CostInstance,
    crit: CriticalData,
    phi: Optional[PotentialTable] = None,
) -> ValueFunction:
    """Backward jump F(x) = T-(phi_x)(x) + alpha0, the diagonal of
    P = ``crit.kernel_plus()``; nonnegative.  ``phi`` is not read."""
    inst.require_total("jumps")
    p = crit.kernel_plus()
    return ValueFunction.on_grid([row[x] for x, row in enumerate(p.grid)], p.scale, p.mode, "F")


def jump_f(
    inst: CostInstance,
    crit: CriticalData,
    phi: Optional[PotentialTable] = None,
) -> ValueFunction:
    """Forward jump f(x) = T+(phi^x)(x) - alpha0 = -F(x); nonpositive.

    phi^x is the negated column of the potential, so
    f(x) = -min_y r(x, y) + phi(y, x), minus the least closed walk through
    x.  ``phi`` is not read."""
    inst.require_total("jumps")
    p = crit.kernel_plus()
    return ValueFunction.on_grid([-row[x] for x, row in enumerate(p.grid)], p.scale, p.mode, "f")
