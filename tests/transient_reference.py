"""Reference for the barrier's transient: doubling over G_j.

``reference_transient`` is the search ``barrier._transient`` made before it
walked pruned fronts.  With ``S`` the reduced matrix on the points ``B``
off the Aubry set and ``G_j = S^(j-1) S^+`` the least weight of a walk of
at least j edges inside B, the transient is the least k with
``G_{k+1} >= h`` on B x B (0 when B is empty).  ``G_j`` is nondecreasing in
j, so doubling and binary lifting find it with one Kleene plus and
O(log k) dense min-plus products.  It shares the ``core`` kernels with the
solver but none of its pruning.
"""

from wkam.core import CostInstance, Matrix, PotentialTable, kleene_plus, minplus_product
from wkam.critical import CriticalData


def reference_transient(inst: CostInstance, crit: CriticalData, h: PotentialTable) -> int:
    """Least k >= 0 with G_{k+1} >= h on B x B."""
    r, hg = crit.kernel.grid, h.at(crit.kernel.scale)
    off = [x for x in range(inst.n) if hg[x][x] != 0]
    s = tuple(tuple(r[x][y] for y in off) for x in off)
    hb = [[hg[x][y] for y in off] for x in off]

    def reached(g: Matrix) -> bool:
        return all(hv <= gv for hrow, grow in zip(hb, g) for hv, gv in zip(hrow, grow))

    g = kleene_plus(s)  # G_1
    if reached(g):
        return 0
    # Invariant: g = G_j falls short of h, j = 2^i and powers[t] = S^(2^t).
    j, powers = 1, [s]
    while not reached(nxt := minplus_product(powers[-1], g)):
        g, j = nxt, 2 * j
        powers.append(minplus_product(powers[-1], powers[-1]))
    # G_(2j) reaches h; lift j to the longest length that still falls short.
    for i in range(len(powers) - 2, -1, -1):
        cand = minplus_product(powers[i], g)
        if not reached(cand):
            g, j = cand, j + (1 << i)
    return j
