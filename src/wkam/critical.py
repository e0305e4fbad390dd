"""Critical constant, domination checks, and sub-solution synthesis.

A function ``u`` is alpha-dominated when ``u(y) - u(x) <= c(x, y) + alpha``
for every ordered pair.  Summing that inequality around any cycle forces
``alpha >= -(cycle mean)``, so the smallest feasible constant is

    ``alpha0 = -(minimum mean over simple cycles)``,

computed here with Karp's recurrence on the (super-source augmented)
digraph.  Feasible sub-solutions at a given alpha are shortest-path
potentials for the shifted weights ``c + alpha`` from a virtual source
connected to every point at weight zero (difference-constraint feasibility);
an infeasible alpha yields a negative-cycle witness instead.

Everything here runs on the integer grid of ``core``.  Karp runs on the
costs the instance holds on their own grid ``D0`` and compares cycle means
by cross-multiplication; ``critical_value`` then holds the reduced matrix
``c + alpha0`` as a table on a grid ``D``, a common denominator of the costs
and alpha0: the integer kernel ``(c + alpha0) * D`` that the solver modules
compute with (float mode: ``D = 1`` and the kernel is the reduced matrix
itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, sub
from typing import NamedTuple, Optional, Sequence

from .core import (
    CostInstance,
    Matrix,
    PotentialTable,
    ValueFunction,
    from_grid,
    grid_scale,
    kleene_plus,
    to_grid,
)
from .numbers import INF, InputError, Mode, Value, is_inf


@dataclass(frozen=True)
class CriticalData:
    """Critical constant with a witness cycle and the reduced cost matrix.

    ``witness_cycle`` is a simple cycle (vertex indices, closing edge
    implied) whose mean cost equals ``-alpha0``.  ``kernel`` is the reduced
    matrix ``c + alpha0``, which has no negative cycle and at least one zero
    cycle, as a table on the integer grid of ``core``; ``reduced`` is its
    entries.  ``kernel_plus()`` is its Kleene plus P, held once per object:
    phi_1, the Mane potential, the Aubry vertices and the closed-form
    barrier all read the same P.
    """

    alpha0: Value
    witness_cycle: tuple[int, ...]
    kernel: PotentialTable
    _plus: Optional[PotentialTable] = field(default=None, init=False, repr=False, compare=False)

    @property
    def reduced(self) -> Matrix:
        return self.kernel.entries

    def kernel_plus(self) -> PotentialTable:
        """P = kleene_plus(kernel), phi_1 on the kernel's grid.

        Computed on the first call and kept on the object."""
        if self._plus is None:
            k = self.kernel
            object.__setattr__(self, "_plus", PotentialTable(kleene_plus(k.grid), k.scale, k.mode))
        return self._plus


class DominationResult(NamedTuple):
    ok: bool
    witness: Optional[tuple[int, int]]

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class SubsolutionResult(NamedTuple):
    feasible: bool
    u: Optional[ValueFunction]
    negative_cycle: Optional[tuple[int, ...]]


def critical_value(inst: CostInstance) -> CriticalData:
    """Smallest alpha admitting a dominated function, with witness cycle."""
    mode = inst.mode
    t = inst.cost_grid
    if not inst.total:
        for x, row in enumerate(t.grid):
            if all(is_inf(v) for v in row):
                raise InputError(f"point {inst.labels[x]} has out-degree 0")
    total, length = _karp_min_cycle_mean(t.grid)
    (alpha0,) = from_grid(mode, (-total,), length * t.scale)
    D = grid_scale(mode, (alpha0,), t.scale)
    (a,) = to_grid(mode, (alpha0,), D)
    kernel = tuple(tuple(v + a for v in row) for row in t.at(D))
    witness = _zero_cycle(inst, kernel)
    return CriticalData(alpha0, witness, PotentialTable(kernel, D, mode))


def _karp_min_cycle_mean(cost: Matrix) -> tuple[Value, int]:
    """Karp's recurrence with a virtual source feeding every point at 0.

    D[k][v] is the least weight of a walk with exactly k edges from the
    source; the minimum cycle mean is min_v max_k (D[N][v]-D[k][v])/(N-k)
    over finite entries, N being the augmented vertex count.  Means are
    kept as (total, length) pairs and compared by cross-multiplication,
    so integer weights stay integers.
    """
    n = len(cost)
    big = n + 1  # vertices 0..n-1 plus source n
    cols = tuple(zip(*cost))
    levels = [[INF] * n, [0] * n]  # one edge: source -> v at weight 0
    for _ in range(2, big + 1):
        levels.append([min(map(add, levels[-1], col)) for col in cols])
    top = levels[big]
    best: Optional[tuple[Value, int]] = None
    for v in range(n):
        if is_inf(top[v]):
            continue
        worst: Optional[tuple[Value, int]] = None
        for k in range(big):
            if is_inf(levels[k][v]):
                continue
            num, den = top[v] - levels[k][v], big - k
            if worst is None or num * worst[1] > worst[0] * den:
                worst = (num, den)
        if worst is not None and (best is None or worst[0] * best[1] < best[0] * worst[1]):
            best = worst
    if best is None:
        raise InputError("instance has no cycle; critical constant undefined")
    return best


def _zero_cycle(inst: CostInstance, kernel: Matrix) -> tuple[int, ...]:
    """Deterministic simple cycle of zero reduced weight.

    Shortest-path potentials p for the reduced weights make every
    zero-reduced cycle live inside the tight subgraph p(v) = p(u) + r(u,v);
    a DFS scanning vertices and successors in ascending index returns the
    first (hence lexicographically least) cycle.
    """
    n = inst.n
    mode = inst.mode
    scale = inst.value_scale()
    pot, _ = _bellman_ford(kernel)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            r = kernel[u][v]
            if not is_inf(r) and mode.eq(pot[u] + r, pot[v], scale=scale):
                adj[u].append(v)
    cyc = _first_cycle(adj, n)
    if cyc is None:
        raise RuntimeError("no zero-reduced cycle found in tight subgraph")
    return cyc


def _bellman_ford(weights: Matrix) -> tuple[list[Value], list[Optional[int]]]:
    """Distances from a virtual source at weight 0 to every point, with
    predecessors; at most n relaxation rounds."""
    n = len(weights)
    dist: list[Value] = [0] * n
    pred: list[Optional[int]] = [None] * n
    for _ in range(n):
        changed = False
        for u, row in enumerate(weights):
            du = dist[u]
            for v, w in enumerate(row):
                cand = du + w
                if cand < dist[v]:
                    dist[v] = cand
                    pred[v] = u
                    changed = True
        if not changed:
            break
    return dist, pred


def _first_cycle(adj: list[list[int]], n: int) -> Optional[tuple[int, ...]]:
    for start in range(n):
        path = [start]
        onpath = {start}
        iters = [iter(adj[start])]
        while iters:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                iters.pop()
                onpath.discard(path.pop())
                continue
            if nxt == start:
                return tuple(path)
            if nxt in onpath or nxt < start:
                continue
            path.append(nxt)
            onpath.add(nxt)
            iters.append(iter(adj[nxt]))
    return None


def is_dominated(
    inst: CostInstance, u: ValueFunction, alpha: Value
) -> DominationResult:
    """Check u(y) - u(x) <= c(x, y) + alpha for all pairs; witness on failure."""
    mode = inst.mode
    alpha = mode.coerce(alpha)
    t = inst.cost_grid
    D = grid_scale(mode, (alpha,), math.lcm(t.scale, u.grid_in(mode)[1]))
    (a,) = to_grid(mode, (alpha,), D)
    hit = _undominated(mode, u.at(mode, D), t.at(D), a, inst.value_scale())
    return DominationResult(hit is None, hit)


def _dominated_grid(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> tuple[int, list]:
    """D and u * D on the kernel's grid refined to u's scale, after
    checking u against ``crit.kernel.at(D)``, (c + alpha0) * D: InputError
    unless u is dominated at alpha0."""
    mode = inst.mode
    D = math.lcm(crit.kernel.scale, u.grid_in(mode)[1])
    start = list(u.at(mode, D))
    if _undominated(mode, start, crit.kernel.at(D), 0, inst.value_scale()) is not None:
        raise InputError("function is not dominated at the critical constant")
    return D, start


def _undominated(
    mode: Mode, vals: Sequence[Value], cost: Matrix, a: Value, scale: Value
) -> Optional[tuple[int, int]]:
    """The first pair (x, y), in row-major order, with
    vals[y] - vals[x] > cost[x][y] + a, or None when vals is dominated.

    ``vals``, ``cost`` and ``a`` are on one grid.  Exact mode decides each
    row with one reduction, max_y (vals[y] - cost[x][y]) <= vals[x] + a, and
    scans the entries of a failing row only, for the witness; float mode
    compares entry by entry within the tolerance band."""
    if mode.exact:
        for x, row in enumerate(cost):
            top = vals[x] + a
            if max(map(sub, vals, row)) > top:
                return x, next(y for y, (v, c) in enumerate(zip(vals, row)) if v - c > top)
        return None
    for x, row in enumerate(cost):
        ux = vals[x]
        for y, c in enumerate(row):
            if not is_inf(c) and not mode.le(vals[y] - ux, c + a, scale=scale):
                return x, y
    return None


def solve_subsolution(inst: CostInstance, alpha: Value) -> SubsolutionResult:
    """Produce a dominated function at alpha, or a negative-cycle witness.

    Bellman-Ford on weights c + alpha with a virtual source at weight 0 to
    every point: converged distances d satisfy d(y) <= d(x) + c(x,y) + alpha,
    which is exactly domination.  A relaxation surviving n rounds exposes a
    cycle of negative shifted weight, i.e. alpha below the critical constant.
    """
    n = inst.n
    mode = inst.mode
    alpha = mode.coerce(alpha)
    t = inst.cost_grid
    D = grid_scale(mode, (alpha,), t.scale)
    (a,) = to_grid(mode, (alpha,), D)
    w = tuple(tuple(v + a for v in row) for row in t.at(D))
    dist, pred = _bellman_ford(w)
    margin = 0 if mode.exact else mode.tolerance * float(inst.value_scale())
    for u in range(n):
        for v in range(n):
            if is_inf(w[u][v]):
                continue
            if dist[u] + w[u][v] < dist[v] - margin:
                pred[v] = u
                return SubsolutionResult(False, None, _trace_cycle(pred, v, n))
    u_fn = ValueFunction.on_grid(dist, D, mode, f"subsolution(alpha={alpha})")
    return SubsolutionResult(True, u_fn, None)


def _trace_cycle(pred: list[Optional[int]], v: int, n: int) -> tuple[int, ...]:
    for _ in range(n):  # walk back onto the cycle itself
        v = pred[v]  # type: ignore[assignment]
    cyc = [v]
    x = pred[v]
    while x != v:
        cyc.append(x)  # type: ignore[arg-type]
        x = pred[x]  # type: ignore[index]
    cyc.reverse()
    k = cyc.index(min(cyc))
    return tuple(cyc[k:] + cyc[:k])
