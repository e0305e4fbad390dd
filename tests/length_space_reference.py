"""Reference for ``wkam.models.check_length_space``: the hop-capped DP.

``reference_length_space`` is the verdict the checker gave before it took
one closure of the step graph.  ``best[j]`` is the least total length of a
chain of at most j steps of length at most K, by one min-plus product per
step, on the metric's own values (``Fraction`` or float, no grid), and a
pair passes when the chain within the thinning bound 2*B*d/K + 1 has total
length at most B*d.  The DP stops early once a table repeats, since every
later one equals it.  It returns no witness chains.
"""

import math

from wkam.core import minplus_product
from wkam.numbers import EXACT, INF


def reference_length_space(metric, B, K, mode=EXACT):
    """(ok, failures, max_chain_length_bound, B, K) of the hop-capped DP."""
    n = len(metric)
    B, K = mode.coerce(B), mode.coerce(K)
    d = [[mode.coerce(v) for v in row] for row in metric]
    step = [[v if v <= K else INF for v in row] for row in d]
    bound = [[math.floor(2 * B * v / K + 1) for v in row] for row in d]
    top = max(map(max, bound))
    best = [[[0 if i == j else INF for j in range(n)] for i in range(n)]]
    for _ in range(top):
        ext = minplus_product(best[-1], step)
        best.append([list(map(min, row, erow)) for row, erow in zip(best[-1], ext)])
        if best[-1] == best[-2]:  # a table that repeats stays fixed
            break
    failures = tuple(
        (x, y)
        for x in range(n)
        for y in range(n)
        if not mode.le(best[min(bound[x][y], len(best) - 1)][x][y], B * d[x][y])
    )
    return not failures, failures, top, B, K
