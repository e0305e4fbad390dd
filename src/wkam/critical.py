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
by cross-multiplication; ``critical_value`` then stores the scale ``D``, a
common denominator of the costs and alpha0, with the integer kernel
``(c + alpha0) * D`` that the solver modules compute with (float mode:
``D = 1`` and the kernel is the reduced matrix itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import add
from typing import NamedTuple, Optional

from .core import (
    CostInstance,
    Matrix,
    ValueFunction,
    as_value_function,
    from_grid,
    grid_scale,
    kleene_plus,
    to_grid,
)
from .numbers import INF, InputError, Value, is_inf


@dataclass(frozen=True)
class CriticalData:
    """Critical constant with a witness cycle and the reduced cost matrix.

    ``witness_cycle`` is a simple cycle (vertex indices, closing edge
    implied) whose mean cost equals ``-alpha0``; ``reduced`` is
    ``c + alpha0``, which has no negative cycle and at least one zero cycle.
    ``kernel`` is ``reduced * scale`` on the integer grid of ``core``.
    ``kernel_plus()`` is its Kleene plus P, held once per object: phi_1, the
    Mane potential, the Aubry vertices and the closed-form barrier all read
    the same P.
    """

    alpha0: Value
    witness_cycle: tuple[int, ...]
    reduced: Matrix
    scale: int
    kernel: Matrix
    _plus: Optional[Matrix] = field(default=None, init=False, repr=False, compare=False)

    def kernel_plus(self) -> Matrix:
        """P = kleene_plus(kernel), phi_1 on the kernel's grid.

        Computed on the first call and kept on the object."""
        if self._plus is None:
            object.__setattr__(self, "_plus", kleene_plus(self.kernel))
        return self._plus

    def kernel_at(self, D: int) -> Matrix:
        """The kernel on the finer grid D, a multiple of ``scale``."""
        m = D // self.scale
        return self.kernel if m == 1 else tuple(tuple(v * m for v in row) for row in self.kernel)


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
    n = inst.n
    mode = inst.mode
    if not inst.total:
        for x in range(n):
            if all(is_inf(v) for v in inst.cost[x]):
                raise InputError(f"point {inst.labels[x]} has out-degree 0")
    D0, grid = inst.cost_grid()
    total, length = _karp_min_cycle_mean(grid)
    (alpha0,) = from_grid(mode, (-total,), length * D0)
    D = grid_scale(mode, (alpha0,), D0)
    (a,) = to_grid(mode, (alpha0,), D)
    kernel = tuple(tuple(v + a for v in row) for row in inst.cost_at(D))
    reduced = tuple(from_grid(mode, row, D) for row in kernel)
    witness = _zero_cycle(inst, kernel)
    return CriticalData(alpha0, witness, reduced, D, kernel)


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
    scale = inst.value_scale()
    alpha = mode.coerce(alpha)
    values = [mode.coerce(v) for v in u.values]
    D = grid_scale(mode, chain(values, (alpha,)), inst.cost_grid()[0])
    vals = to_grid(mode, values, D)
    (a,) = to_grid(mode, (alpha,), D)
    for x, row in enumerate(inst.cost_at(D)):
        ux = vals[x]
        for y, c in enumerate(row):
            if is_inf(c):
                continue
            if not mode.le(vals[y] - ux, c + a, scale=scale):
                return DominationResult(False, (x, y))
    return DominationResult(True, None)


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
    D = grid_scale(mode, (alpha,), inst.cost_grid()[0])
    (a,) = to_grid(mode, (alpha,), D)
    w = tuple(tuple(v + a for v in row) for row in inst.cost_at(D))
    dist, pred = _bellman_ford(w)
    margin = 0 if mode.exact else mode.tolerance * float(inst.value_scale())
    for u in range(n):
        for v in range(n):
            if is_inf(w[u][v]):
                continue
            if dist[u] + w[u][v] < dist[v] - margin:
                pred[v] = u
                return SubsolutionResult(False, None, _trace_cycle(pred, v, n))
    u_fn = as_value_function(inst, from_grid(mode, dist, D), tag=f"subsolution(alpha={alpha})")
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
