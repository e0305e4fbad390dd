"""Critical constant, domination checks, and sub-solution synthesis.

A function ``u`` is alpha-dominated when ``u(y) - u(x) <= c(x, y) + alpha``
for every ordered pair.  Summing that inequality around any cycle forces
``alpha >= -(cycle mean)``, so the smallest feasible constant is

    ``alpha0 = -(minimum mean over simple cycles)``.

A search finds that mean (``_least_cycle_mean``): it takes the mean p/q
of a real cycle and certifies it by Bellman-Ford rounds on the weights
``c * q - p``, or improves it by a cycle of their predecessor graph; past
n + 1 rounds Karp's recurrence answers, each missing edge priced above
every finite cycle mean.  Float mode runs the same search on the dyadic
values of its doubles and rounds alpha0 once, when it is read.

Feasible sub-solutions at a given alpha are shortest-path potentials for
the shifted weights ``c + alpha`` from a virtual source connected to every
point at weight zero (difference-constraint feasibility); an infeasible
alpha yields a negative-cycle witness instead.  Every relaxation here is
one Gauss-Seidel round (``_relax``) over the finite edges, so an int beyond
the float range never meets +inf there.

Everything here runs on the integer grid of ``core``, in both modes.  The
search and Karp run on the costs the instance holds on their own grid
``D0`` and compare cycle means by cross-multiplication; ``critical_value``
then holds the reduced matrix ``c + alpha0`` as a table on a grid ``D``, a
common denominator of the costs and alpha0: the integer kernel
``(c + alpha0) * D`` that the solver modules compute with.

The witness cycle is read off the tight graph of the kernel r: the edges
with ``pot(y) = pot(x) + r(x, y)``, ``pot`` the Bellman-Ford potentials.
The search's certifying round leaves them: its weights ``c * q - p`` are
an integer multiple of r, and so are its converged distances.  Only when
Karp answered does ``_bellman_ford`` run on r.
``CriticalData`` keeps both and computes the Kleene plus P of r on the
tight graph's strongly connected components (Tarjan, 1972).
With ``r'(x, y) = r(x, y) + pot(x) - pot(y) >= 0``, zero on tight edges,
``C(Ci, Cj)`` is the least r' over the edges from Ci to Cj; then
``P(x, y) = C+(Cx, Cy) - pot(x) + pot(y)``, C+ the Kleene plus of the
c x c matrix C, whose entries are nonnegative ints, so that
``core.kleene_plus`` runs on packed rows.  This is exact: inside a
component of two or more points tight walks of r'-weight 0 join any two
points, so a walk of C realises its weight in r', and every zero cycle
of r lies in one component.  The
condensation runs only when some component has two points (c < n); when
none has, P is the Kleene plus of r itself.  The components also give
the Aubry classes (``CriticalData.class_leaders``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, sub
from typing import NamedTuple, Optional, Sequence

from .core import (
    CostInstance,
    Matrix,
    PotentialTable,
    ValueFunction,
    check_function,
    from_grid,
    grid_scale,
    kleene_plus,
    minplus_row,
    to_grid,
)
from .numbers import EXACT, INF, ConstructionError, InputError, Value, is_inf

# the finite edges as (targets, weights): u's edges end at targets[u] with
# weights[u]; targets None: every row is dense, weights the matrix itself
Edges = tuple[Optional[list[list[int]]], Sequence[Sequence[Value]]]


@dataclass(frozen=True)
class CriticalData:
    """Critical constant with a witness cycle and the reduced cost matrix.

    ``witness_cycle`` is a simple cycle (vertex indices, closing edge
    implied) whose mean cost equals ``-alpha0``.  ``kernel`` is the reduced
    matrix ``c + alpha0``, which has no negative cycle and at least one zero
    cycle, as a table on the integer grid of ``core``; ``reduced`` is its
    entries, and ``alpha_grid`` is alpha0 on that grid, an integer.
    ``alpha0`` is read off it in the kernel's mode: exact, or rounded once
    to a double; ``alpha0_exact`` and ``alpha_at(D)`` are exact in both.
    ``kernel_plus()`` is its Kleene plus P, held once per object: phi_1,
    the Mane potential, the Aubry vertices and the closed-form barrier all
    read the same P.  ``aubry_vertices()``, the zero set of P's
    diagonal, is decided once and held the same way.  ``_pot`` holds the
    kernel's Bellman-Ford potentials and ``_tight`` its tight successor
    lists, from which ``kernel_plus()`` condenses the kernel and keeps each
    point's component in ``_comp`` (see the module docstring).
    """

    alpha_grid: int
    witness_cycle: tuple[int, ...]
    kernel: PotentialTable
    _pot: list[int] = field(repr=False, compare=False)
    _tight: list[list[int]] = field(repr=False, compare=False)
    _plus: Optional[PotentialTable] = field(default=None, init=False, repr=False, compare=False)
    _aubry: Optional[tuple[int, ...]] = field(default=None, init=False, repr=False, compare=False)
    _comp: Optional[list[int]] = field(default=None, init=False, repr=False, compare=False)
    _at: Optional[tuple[int, Matrix]] = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def alpha0(self) -> Value:
        (value,) = from_grid(self.kernel.mode, (self.alpha_grid,), self.kernel.scale)
        return value

    @property
    def alpha0_exact(self) -> Fraction:
        """alpha0 as a Fraction, in both modes."""
        return Fraction(self.alpha_grid, self.kernel.scale)

    def alpha_at(self, D: int) -> int:
        """alpha0 times D, a multiple of the kernel's scale."""
        return self.alpha_grid * (D // self.kernel.scale)

    def kernel_at(self, D: int) -> Matrix:
        """``kernel.at(D)``, (c + alpha0) * D; the last one made is kept, so
        that the steps of one construction on one grid share it."""
        if self._at is None or self._at[0] != D:
            object.__setattr__(self, "_at", (D, self.kernel.at(D)))
        return self._at[1]

    @property
    def reduced(self) -> Matrix:
        return self.kernel.entries

    def kernel_plus(self) -> PotentialTable:
        """P = kleene_plus(kernel), phi_1 on the kernel's grid, through the
        condensed tight graph when a component has two points.

        Computed on the first call and kept on the object."""
        if self._plus is None:
            k = self.kernel
            comp, c = _components(self._tight)
            object.__setattr__(self, "_comp", comp)
            if c < len(comp):
                plus = _condensed_plus(k.grid, self._pot, comp, c)
            else:
                plus = kleene_plus(k.grid)
            object.__setattr__(self, "_plus", PotentialTable(plus, k.scale, k.mode))
        return self._plus

    def aubry_vertices(self) -> tuple[int, ...]:
        """The Aubry vertices A of the instance whose critical data this is.

        Decided by ``_aubry_set`` on the first call and kept on the object."""
        if self._aubry is None:
            object.__setattr__(self, "_aubry", _aubry_set(self.kernel_plus()))
        return self._aubry

    def class_leaders(self) -> tuple[int, ...]:
        """The least vertex of each Aubry class, the classes being the tight
        components that hold Aubry vertices."""
        verts = self.aubry_vertices()
        first: dict[int, int] = {}
        for a in verts:
            first.setdefault(self._comp[a], a)
        return tuple(first.values())


def _aubry_set(p: PotentialTable) -> tuple[int, ...]:
    """The zero set of the diagonal of P = ``kernel_plus()``: the solver's
    one test of A."""
    verts = [x for x, row in enumerate(p.grid) if row[x] == 0]
    if not verts:
        raise ConstructionError("no Aubry vertex found for the closed form")
    return tuple(verts)


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
    t = inst.cost_grid
    if not inst.total:
        for x, row in enumerate(t.grid):
            if all(is_inf(v) for v in row):
                raise InputError(f"point {inst.labels[x]} has out-degree 0")
    total, length, dist = _least_cycle_mean(t.grid, inst.total)
    alpha0 = Fraction(-total, length * t.scale)
    D = grid_scale((alpha0,), t.scale)
    (a,) = to_grid((alpha0,), D)
    kernel = _shifted(t.at(D), a)
    edges = _finite_edges(kernel, inst.total)
    # the search's weights c * q - p are M = q * D0 / D times the kernel's,
    # so its distances are M times the kernel's potentials
    M = length * t.scale // D
    pot = _bellman_ford(edges)[0] if dist is None else [d // M for d in dist]
    adj = _tight(pot, edges)
    return CriticalData(a, _zero_cycle(adj), PotentialTable(kernel, D, inst.mode), pot, adj)


def _shifted(rows: Matrix, a: Value) -> Matrix:
    """rows + a entrywise, +inf kept as +inf, which an int beyond the float
    range cannot meet."""
    return tuple(tuple(v if v == INF else v + a for v in row) for row in rows)


def _finite_edges(rows: Matrix, total: bool) -> Edges:
    """The finite edges of a matrix, targets ascending; a ``total`` matrix
    is its own weights, with no copy."""
    if total:
        return None, rows
    targets = [[v for v, w in enumerate(row) if w != INF] for row in rows]
    return targets, [[row[v] for v in ends] for row, ends in zip(rows, targets)]


def _rows(edges: Edges):
    """For each point u in turn, the (v, weight) pairs of its finite edges."""
    targets, weights = edges
    return map(enumerate, weights) if targets is None else map(zip, targets, weights)


def _least_cycle_mean(cost: Matrix, total: bool) -> tuple[int, int, Optional[list[int]]]:
    """The least cycle mean of an integer matrix, as (cycle total, length,
    distances): the distances of the certifying round, or None when Karp
    answered.

    The candidate p/q is always the mean of a real cycle: first the least
    finite self-loop or, when there is none, the best cycle of the graph
    that keeps each point's cheapest out-edge.  Bellman-Ford rounds on
    w = c * q - p over the finite edges, from a virtual source, then
    certify it: a round that changes nothing leaves potentials under which
    every cycle has w-weight >= 0.  After a round that changes something,
    any cycle of the predecessor graph has negative w-weight (Cherkassky
    and Goldberg, 1999), so its mean, below p/q, becomes the candidate and
    the rounds restart.  n + 1 rounds in all, as many as Karp has levels,
    bound the search; past them Karp answers, on ``_priced`` costs unless
    the matrix is ``total``.
    """
    n = len(cost)
    edges = _finite_edges(cost, total)
    p, q = min(row[x] for x, row in enumerate(cost)), 1
    if p == INF:  # no finite self-loop: each point's cheapest out-edge
        cheapest = [row.index(min(row)) for row in cost]
        p, q = _best_cycle(cheapest, lambda x: cost[x][cheapest[x]])
    rounds = 0
    while True:
        w = (edges[0], [[c * q - p for c in ws] for ws in edges[1]])
        dist: list[Value] = [0] * n
        pred: list[Optional[int]] = [None] * n
        while True:
            if rounds > n:
                return (*_karp_min_cycle_mean(cost if total else _priced(cost)), None)
            rounds += 1
            if not _relax(dist, pred, w):
                return p, q, dist
            found = _best_cycle(pred, lambda y: cost[pred[y]][y])
            if found is not None:
                break
        s, k = found
        if s * q >= p * k:
            raise ConstructionError("predecessor cycle does not lower the cycle mean")
        g = math.gcd(s, k)
        p, q = s // g, k // g


def _best_cycle(ptr: Sequence[Optional[int]], weight) -> Optional[tuple[int, int]]:
    """The least mean, as (total, length), over the cycles of the graph in
    which each point x has at most one pointer ptr[x]; ``weight(x)`` is the
    cost of the edge that x's pointer stands for.  None without a cycle."""
    mark = [0] * len(ptr)
    best: Optional[tuple[int, int]] = None
    for s in range(len(ptr)):
        path, x = [], s
        while x is not None and not mark[x]:
            mark[x] = s + 1
            path.append(x)
            x = ptr[x]
        if x is not None and mark[x] == s + 1:  # the walk closed on itself
            cyc = path[path.index(x):]
            total = sum(weight(y) for y in cyc)
            if best is None or total * best[1] < best[0] * len(cyc):
                best = (total, len(cyc))
    return best


def _priced(cost: Matrix) -> Matrix:
    """cost with each +inf replaced by 2 * n * B + 1, B the largest finite
    |entry|.  A cycle through such an edge has a mean above B, so above the
    least finite cycle's (each point keeps a finite out-edge), and the least
    cycle mean is unchanged; Karp's levels then meet no +inf."""
    big = 2 * len(cost) * max(abs(v) for row in cost for v in row if v != INF) + 1
    return tuple(tuple(big if v == INF else v for v in row) for row in cost)


def _karp_min_cycle_mean(cost: Matrix) -> tuple[Value, int]:
    """Karp's recurrence with a virtual source feeding every point at 0:
    the least cycle mean past the search's round budget.

    D[k][v] is the least weight of a walk with exactly k edges from the
    source; the minimum cycle mean is min_v max_k (D[N][v]-D[k][v])/(N-k)
    over finite entries, N being the augmented vertex count.  Means are
    kept as (total, length) pairs and compared by cross-multiplication,
    so integer weights stay integers.  A level holds +inf or finite values
    only, so ``== INF`` tests for a missing walk.
    """
    n = len(cost)
    big = n + 1  # vertices 0..n-1 plus source n
    cols = tuple(zip(*cost))
    levels = [[INF] * n, [0] * n]  # one edge: source -> v at weight 0
    for _ in range(2, big + 1):
        levels.append(minplus_row(levels[-1], cols))
    top = levels[big]
    best: Optional[tuple[Value, int]] = None
    for v in range(n):
        if top[v] == INF:
            continue
        worst: Optional[tuple[Value, int]] = None
        for k in range(big):
            if levels[k][v] == INF:
                continue
            num, den = top[v] - levels[k][v], big - k
            if worst is None or num * worst[1] > worst[0] * den:
                worst = (num, den)
        if worst is not None and (best is None or worst[0] * best[1] < best[0] * worst[1]):
            best = worst
    if best is None:
        raise InputError("instance has no cycle; critical constant undefined")
    return best


def _zero_cycle(adj: list[list[int]]) -> tuple[int, ...]:
    """Deterministic simple cycle of zero reduced weight.

    Every zero-reduced cycle lives inside the tight subgraph ``adj``
    (``_tight``); a DFS scanning vertices and successors in ascending index
    returns the first (hence lexicographically least) cycle.
    """
    cyc = _first_cycle(adj, len(adj))
    if cyc is None:
        raise RuntimeError("no zero-reduced cycle found in tight subgraph")
    return cyc


def _tight(pot: Sequence[int], edges: Edges) -> list[list[int]]:
    """The tight subgraph pot(v) = pot(u) + r(u, v) of the finite edges of
    the reduced weights r, pot their shortest-path potentials, as ascending
    successor lists, each pair decided by one integer comparison."""
    return [[v for v, r in pairs if pu + r == pot[v]] for pu, pairs in zip(pot, _rows(edges))]


def _components(adj: list[list[int]]) -> tuple[list[int], int]:
    """The strongly connected components of the graph with successor lists
    ``adj`` (Tarjan, 1972), in O(points + edges): each point's component
    index, and their count."""
    n = len(adj)
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    seen = c = 0
    for s in range(n):
        if index[s] >= 0:
            continue
        index[s] = low[s] = seen
        seen += 1
        stack.append(s)
        work = [(s, iter(adj[s]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if index[w] < 0:  # descend into w, resume v's successors after
                    index[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] < 0:  # w is on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if low[v] == index[v]:  # v roots a component: pop it
                    while True:
                        w = stack.pop()
                        comp[w] = c
                        if w == v:
                            break
                    c += 1
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
    return comp, c


def _condensed_plus(r: Matrix, pot: Sequence[int], comp: Sequence[int], c: int) -> Matrix:
    """kleene_plus(r) for a total integer kernel r, as
    P(x, y) = C+(Cx, Cy) - pot(x) + pot(y), with C the least
    r(x, y) + pot(x) - pot(y) between the c components (module docstring).
    C takes the least of the member rows of each component, then of the
    member columns."""
    members: list[list[int]] = [[] for _ in range(c)]
    for x, i in enumerate(comp):
        members[i].append(x)
    shifted = [[v + px - py for v, py in zip(row, pot)] for row, px in zip(r, pot)]
    rows = [_least([shifted[x] for x in xs]) for xs in members]
    cols = list(zip(*rows))
    cond = tuple(zip(*(_least([cols[y] for y in ys]) for ys in members)))
    lifted = [list(map(add, map(row.__getitem__, comp), pot)) for row in kleene_plus(cond)]
    return tuple(tuple(map((-px).__add__, lifted[i])) for i, px in zip(comp, pot))


def _least(vectors: list) -> Sequence[int]:
    """The entrywise least of one or more vectors."""
    return vectors[0] if len(vectors) == 1 else list(map(min, *vectors))


def _bellman_ford(edges: Edges) -> tuple[list[Value], list[Optional[int]]]:
    """Distances from a virtual source at weight 0 to every point, with
    predecessors, over the finite edges; at most n relaxation rounds."""
    n = len(edges[1])
    dist: list[Value] = [0] * n
    pred: list[Optional[int]] = [None] * n
    for _ in range(n):
        if not _relax(dist, pred, edges):
            break
    return dist, pred


def _relax(dist: list[Value], pred: list[Optional[int]], edges: Edges) -> bool:
    """One Gauss-Seidel round, in place: each finite edge (u, v, w), in
    row-major order, lowers dist[v] to dist[u] + w and sets pred[v] = u.
    True when some distance fell.  The only relaxation loop outside
    ``core``: a Jacobi round of ``minplus_row`` sets other predecessors."""
    changed = False
    for u, pairs in enumerate(_rows(edges)):
        du = dist[u]
        for v, w in pairs:
            cand = du + w
            if cand < dist[v]:
                dist[v] = cand
                pred[v] = u
                changed = True
    return changed


def _first_cycle(adj: list[list[int]], n: int) -> Optional[tuple[int, ...]]:
    """The cycle a depth-first search finds first, trying starts and then
    successors (``adj`` lists are ascending) in order, through points above
    the start.  It starts at the least point s on a cycle, and each step
    takes the least successor that is s or still reaches s through points
    above s off the path: one backward search per step, O(n * edges).
    """
    radj: list[list[int]] = [[] for _ in range(n)]
    for u, vs in enumerate(adj):
        for v in vs:
            radj[v].append(u)
    for s in range(n):
        if not adj[s] or adj[s][-1] < s:
            continue  # no successor the search could take
        path, seen = [s], {s}
        while s not in adj[path[-1]]:
            reach, todo = set(), [s]
            while todo:
                for u in radj[todo.pop()]:
                    if u > s and u not in seen and u not in reach:
                        reach.add(u)
                        todo.append(u)
            y = next((y for y in adj[path[-1]] if y in reach), None)
            if y is None:  # only at the start: s lies on no cycle
                break
            path.append(y)
            seen.add(y)
        else:
            return tuple(path)
    return None


def is_dominated(
    inst: CostInstance, u: ValueFunction, alpha: Value
) -> DominationResult:
    """Check u(y) - u(x) <= c(x, y) + alpha for all pairs; witness on failure.

    alpha is taken at its exact value in both modes."""
    check_function(inst, u)
    mode = inst.mode
    alpha = EXACT.coerce(alpha)
    t = inst.cost_grid
    D = grid_scale((alpha,), math.lcm(t.scale, u.grid_in(mode)[1]))
    (a,) = to_grid((alpha,), D)
    hit = _undominated(u.at(mode, D), t.at(D), a)
    return DominationResult(hit is None, hit)


def _dominated_grid(
    inst: CostInstance, crit: CriticalData, u: ValueFunction, fault: type = InputError
) -> tuple[int, list]:
    """D and u * D on the kernel's grid refined to u's scale, after
    checking u against ``crit.kernel_at(D)``, (c + alpha0) * D: ``fault``
    unless u is dominated at alpha0."""
    check_function(inst, u)
    mode = inst.mode
    D = math.lcm(crit.kernel.scale, u.grid_in(mode)[1])
    start = list(u.at(mode, D))
    if _undominated(start, crit.kernel_at(D), 0) is not None:
        raise fault("function is not dominated at the critical constant")
    return D, start


def _undominated(vals: Sequence[Value], cost: Matrix, a: Value) -> Optional[tuple[int, int]]:
    """The first pair (x, y), in row-major order, with
    vals[y] - vals[x] > cost[x][y] + a, or None when vals is dominated.

    ``vals``, ``cost`` and ``a`` are on one grid.  Each row is decided with
    one reduction, max_y (vals[y] - cost[x][y]) <= vals[x] + a, where a
    missing edge (c = +inf) always passes, and the entries of a failing row
    only are scanned, for the witness."""
    for x, row in enumerate(cost):
        top = vals[x] + a
        if max(map(sub, vals, row)) > top:
            return x, next(y for y, (v, c) in enumerate(zip(vals, row)) if v - c > top)
    return None


def solve_subsolution(inst: CostInstance, alpha: Value) -> SubsolutionResult:
    """Produce a dominated function at alpha, or a negative-cycle witness.

    Bellman-Ford on weights c + alpha with a virtual source at weight 0 to
    every point: converged distances d satisfy d(y) <= d(x) + c(x,y) + alpha,
    which is exactly domination.  A relaxation surviving n rounds exposes a
    cycle of negative shifted weight, i.e. alpha below the critical constant.
    alpha is taken at its exact value in both modes.
    """
    n = inst.n
    alpha = EXACT.coerce(alpha)
    t = inst.cost_grid
    D = grid_scale((alpha,), t.scale)
    (a,) = to_grid((alpha,), D)
    edges = _finite_edges(_shifted(t.at(D), a), inst.total)
    dist, pred = _bellman_ford(edges)
    for u, pairs in enumerate(_rows(edges)):
        for v, w in pairs:
            if dist[u] + w < dist[v]:
                pred[v] = u
                return SubsolutionResult(False, None, _trace_cycle(pred, v, n))
    u_fn = ValueFunction.on_grid(dist, D, inst.mode, f"subsolution(alpha={alpha})")
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
