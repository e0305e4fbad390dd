"""Brute-force reference implementations and the full property harness.

Everything here recomputes solver outputs by a different route at desk
scale.  The simple cycles are scanned from the costs alone (with exact
integer-scaled weights), least vertex first.  Per least
vertex, a forward subset DP over (vertex set, last vertex) holds the number
of paths and the least path total; it gives the cycle count and the least
mean.  At the scan's own alpha = -(least mean) no cycle is negative, so the
zero cycles are the least ones: the per-vertex minimum reduced weight comes
from the same totals, and a backward subset DP of least reduced returns
gives, through each DP state and edge, the least reduced weight of the
cycles that run through it, hence the vertices and edges of the zero
cycles, with no cycle listed.  The barrier comes from the eventual
periodicity of reduced min-plus powers, and the per-function Aubry sets from
reachability in the tight-edge graph.  A failed check always carries a
concrete witness.

The harness computes on the integer grid of ``core``: the tables on the
kernel's grid (refined to a claimed barrier), what meets the samples on the
samples' finer grid, and the value functions the solver returns on their
own grids, so each identity compares integers exactly, in float mode on the
dyadic values of the doubles.  ``Fraction`` remains in witness text and a
few scalars.  An inequality lhs <= a (x) b + s over X x X x X is decided
row by row against one min-plus product; only a failing row is scanned
entry by entry, for the first witness (x, y, z) of the loop it replaces.

The barrier identities of the paper are decided here, on the same tables:
the min formulas h = h (x) c_n + n alpha0 = c_n (x) h + n alpha0 against
the cached products of h with the raw powers, the orbit bound
S(x, y) = max_k T-^k u(y) + k alpha0 - min_k T+^k u(x) + k alpha0 <= h from
whole-table orbits of the samples and of the rows of phi_1 (which attain h
on their own row), and the alternation of u_minus and u_plus, which
``barrier`` computes in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, eq, le, mul, sub
from random import Random
from typing import Callable, Iterator, Optional

from .barrier import (
    AubryData,
    BarrierData,
    aubry,
    is_weak_kam,
    peierls_barrier,
    u_minus,
    u_plus,
    weak_kam_neg,
    weak_kam_pos,
)
from .core import (
    CostInstance,
    Matrix,
    PotentialTable,
    ValueFunction,
    from_grid,
    grid_operands,
    grid_scale,
    lax_oleinik_neg,
    lax_oleinik_pos,
    minplus_product,
    ratio,
    reverse_cost,
    to_grid,
)
from .critical import CriticalData, critical_value, is_dominated, solve_subsolution
from .models import check_apriori, lipschitz_constants, lipschitz_large_check
from .numbers import INF, ConstructionError, InputError, SizeGuardError, Value, is_inf
from .potential import jump_F, jump_f, mane_potential, phi_n
from .subsolution import (
    aubry_of,
    is_calibrated,
    max_strict_subsolution,
    strict_pairs,
    strict_subsolution,
)

CYCLE_GUARD = 10
# Most entry additions the liminf oracle may make without a horizon (n^3 a
# power): 125000 powers at n = 2 and 1000 at n = 10, which take about 1.3 s
# and 0.2 s with CPython 3.11 on one core of a 2-vCPU VM.  (At n = 1 the
# reduced matrix is [[0]], whose powers repeat at once.)
_LIMINF_WORK_LIMIT = 10**6
# phi tables _Workspace keeps: orders 1..8 are the ones the chain-splitting
# suite compares
_PHI_KEPT = 8
_SAMPLES = 20  # dominated functions verify_all draws for its sample checks


def _guard(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise SizeGuardError(f"{what} is guarded to n <= {limit}, got {n}")


# ---------------------------------------------------------------------------
# simple-cycle enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleScan:
    """The least mean over all simple cycles of an instance and, at
    alpha = -min_mean, the zero structure."""

    min_mean: Value
    cycle_count: int
    zero_vertices: tuple[int, ...]
    zero_edges: tuple[tuple[int, int], ...]
    vertex_min_reduced: tuple[Value, ...]


def _members(k: int) -> list[tuple[int, ...]]:
    """members[mask]: the set bits of each k-bit mask, in increasing order."""
    return [tuple(i for i in range(k) if mask >> i & 1) for mask in range(1 << k)]


def _closings(w: list, m: int, members: list) -> tuple[int, list, list[Value]]:
    """Forward subset DP over the cycles whose least vertex is m.

    Bit i of a mask S stands for vertex m + 1 + i.  Per (S, i) the DP keeps
    tot[S][i], the least total of the paths from m through the vertices of
    S that end at m + 1 + i, and the number of these paths.  Return the
    number of cycles, tot, and for each S the least total of the cycles on
    the vertex set {m} + S."""
    k = len(w) - 1 - m
    full = 1 << k
    sub = [row[m + 1:] for row in w[m + 1:]]
    back = [row[m] for row in w[m + 1:]]
    tot = [[INF] * k for _ in range(full)]
    num = [[0] * k for _ in range(full)]
    for i, x in enumerate(w[m][m + 1:]):
        if x is not None:
            tot[1 << i][i] = x
            num[1 << i][i] = 1
    x = w[m][m]
    count = 0 if x is None else 1
    cyc_min: list[Value] = [INF] * full
    if x is not None:
        cyc_min[0] = x
    for S in range(1, full):
        tS, nS = tot[S], num[S]
        outside = members[full - 1 ^ S]
        c, low = 0, INF
        for i in members[S]:
            p = nS[i]
            if not p:
                continue
            t = tS[i]
            x = back[i]
            if x is not None:
                c += p
                x = t + x
                if x < low:
                    low = x
            row = sub[i]
            for j in outside:
                x = row[j]
                if x is not None:
                    x = t + x
                    T = S | 1 << j
                    if x < tot[T][j]:
                        tot[T][j] = x
                    num[T][j] += p
        count += c
        cyc_min[S] = low
    return count, tot, cyc_min


def _zero_edges(
    w: list, m: int, members: list, tot: list, f: int, a: Value
) -> set[tuple[int, int]]:
    """The edges of the zero cycles whose least vertex is m.

    The reduced weights are r = w * f + a, with f the ratio of the grids
    and a the scan's alpha, so no cycle is negative.  A backward subset DP
    gives least[R][i], the least reduced weight of a path from m + 1 + i
    through a subset of R back to m (bits as in ``_closings``).  The paths
    to (S, i) weigh at least pre = tot[S][i] * f + |S| a.  With rest the
    vertices not in S, the least cycle through (S, i) weighs
    pre + least[rest][i], and the least one that goes on by the edge (i, j)
    weighs pre + (r(i, j) + least[rest - j][j]); the edge is zero when that
    is 0.  least[rest][i] is the least of r(i, m) and r(i, j) +
    least[rest - j][j], so no edge sum is below its state's: a state
    skipped for its own sum drops no zero edge."""
    k = len(w) - 1 - m
    top = (1 << k) - 1
    sub = [[None if x is None else x * f + a for x in row[m + 1:]] for row in w[m + 1:]]
    back = [INF if row[m] is None else row[m] * f + a for row in w[m + 1:]]
    least: list[list[Value]] = [[INF] * k for _ in range(top + 1)]
    for R in range(top + 1):
        for i in members[top ^ R]:
            low, row = back[i], sub[i]
            for j in members[R]:
                x = row[j]
                if x is not None:
                    x += least[R ^ 1 << j][j]
                    if x < low:
                        low = x
            least[R][i] = low
    edges = set()
    x = w[m][m]
    if x is not None and x * f + a <= 0:
        edges.add((m, m))
    for j, x in enumerate(w[m][m + 1:]):
        if x is not None and x * f + a + least[top ^ 1 << j][j] <= 0:
            edges.add((m, m + 1 + j))
    for S in range(1, top + 1):
        rest = top ^ S
        shift = len(members[S]) * a
        for i in members[S]:
            pre = tot[S][i] * f + shift
            if pre + least[rest][i] > 0:  # no zero cycle runs through (S, i)
                continue
            v = m + 1 + i
            if pre + back[i] <= 0:
                edges.add((v, m))
            row = sub[i]
            for j in members[rest]:
                x = row[j]
                if x is not None and pre + (x + least[rest ^ 1 << j][j]) <= 0:
                    edges.add((v, m + 1 + j))
    return edges


def cycle_scan(inst: CostInstance) -> CycleScan:
    """Scan all simple cycles for the least mean and the zero structure.

    A forward subset DP per least vertex m (``_closings``) gives
    ``cycle_count`` and the least mean, the least total over length over
    the vertex sets, with no cycle closed one by one.  The zero structure is
    taken at the scan's own alpha = -min_mean, where no simple cycle is
    negative, so a cycle is zero iff it is least: ``vertex_min_reduced`` is
    the least total plus L * alpha over the vertex sets through the vertex,
    and a backward subset DP per m (``_zero_edges``) finds the edges of the
    zero cycles from the least reduced weight through each DP state and
    edge.  The zero vertices are the ends of the zero edges.  The costs and
    alpha are scaled to integers on the grid of ``core``, so every
    comparison is integer arithmetic; ``min_mean`` is exact in both modes.
    """
    _guard(inst.n, CYCLE_GUARD, "cycle enumeration")
    n = inst.n
    mode = inst.mode
    t = inst.cost_grid
    D0 = t.scale
    w = [[None if is_inf(v) else v for v in row] for row in t.grid]
    members = _members(n - 1)

    count = 0
    low_s: Value = INF  # the least mean is low_s / low_len
    low_len = 1
    dps = []
    for m in range(n):
        c, tot, cyc_min = _closings(w, m, members)
        count += c
        dps.append((tot, cyc_min))
        for S, low in enumerate(cyc_min):
            L = len(members[S]) + 1
            if low * low_len < low_s * L:
                low_s, low_len = low, L
    if count == 0:
        raise SizeGuardError("instance has no cycle")
    min_mean = Fraction(low_s, low_len * D0)

    # the costs and alpha = -min_mean on one grid D, as in critical_value
    D = grid_scale((min_mean,), D0)
    (a,) = to_grid((-min_mean,), D)
    f = D // D0
    zero_e: set[tuple[int, int]] = set()
    vmin: list[Value] = [INF] * n
    for m, (tot, cyc_min) in enumerate(dps):
        zero_e |= _zero_edges(w, m, members, tot, f, a)
        for S, low in enumerate(cyc_min):
            red = low * f + (len(members[S]) + 1) * a
            for v in (m, *(m + 1 + i for i in members[S])):
                if red < vmin[v]:
                    vmin[v] = red
    return CycleScan(
        min_mean=min_mean,
        cycle_count=count,
        zero_vertices=tuple(sorted({v for e in zero_e for v in e})),
        zero_edges=tuple(sorted(zero_e)),
        vertex_min_reduced=from_grid(mode, vmin, D),
    )


def enum_zero_cycles(inst: CostInstance) -> AubryData:
    """Reference Aubry data: vertices and edges on zero-reduced simple
    cycles; jumps are the per-vertex minimum reduced cycle weight."""
    scan = cycle_scan(inst)
    return AubryData(
        vertices=scan.zero_vertices,
        edges=scan.zero_edges,
        jumps=ValueFunction(scan.vertex_min_reduced, tag="F_oracle"),
    )


# ---------------------------------------------------------------------------
# liminf of reduced powers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiminfReport:
    table: PotentialTable
    stabilized: bool
    period: int = 0
    powers_used: int = 0

    @property
    def matrix(self) -> Matrix:
        return self.table.entries


def liminf_barrier_bounded(
    inst: CostInstance, crit: CriticalData, N: Optional[int] = None
) -> LiminfReport:
    """Tail-minimum of reduced powers, with explicit stabilization.

    The reduced matrix powers R^1, R^2, ..., taken on the kernel's integer
    grid, become eventually periodic, R^(t+p) = R^t from a transient t on;
    the limiting tail minimum, the entrywise min over one period, is exactly
    the barrier.  Brent's cycle detection (1980) finds the period p with two
    powers and a running minimum held: when the hare meets the tortoise, its
    powers since the tortoise last moved make up one period.  A horizon N
    asks for the first repeat R^(t+p) within N powers: the search stops at
    3N powers, which reach every such repeat, and a second pass finds t;
    without one the report is flagged unstabilized and carries the last
    power.  Without a horizon, the search may take ``_LIMINF_WORK_LIMIT / n^3``
    powers and raises ``SizeGuardError`` when it has taken them.
    """
    if N is not None and N < 2:
        raise SizeGuardError("need N >= 2")
    inst.require_total("liminf oracle")
    mode, red, D = inst.mode, crit.kernel.grid, crit.kernel.scale
    limit = 3 * N if N is not None else max(2, _LIMINF_WORK_LIMIT // inst.n**3)
    tortoise = hare = red
    power, period, used, low = 1, 0, 1, red
    while not (period and tortoise == hare):
        if used == limit:
            if N is None:
                what = f"found no repeat in {limit} powers at n = {inst.n}"
                raise SizeGuardError(f"liminf oracle {what}")
            return LiminfReport(PotentialTable(hare, D, mode), False, powers_used=used)
        if period == power:
            tortoise, power, period = hare, 2 * power, 0
        hare, period, used = minplus_product(hare, red), period + 1, used + 1
        low = hare if period == 1 else tuple(tuple(map(min, a, b)) for a, b in zip(low, hare))
    if N is not None:  # the least t with R^t = R^(t+p)
        a, b, t = red, red, 1
        for _ in range(period):
            b = minplus_product(b, red)
        while a != b:
            a, b, t = minplus_product(a, red), minplus_product(b, red), t + 1
        used += period + 2 * (t - 1)
        if t + period > N:
            return LiminfReport(PotentialTable(b, D, mode), False, powers_used=used)
    return LiminfReport(PotentialTable(low, D, mode), True, period, used)


# ---------------------------------------------------------------------------
# chain-based Aubry sets
# ---------------------------------------------------------------------------

def tight_graph(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> list[list[int]]:
    """Adjacency of the edges where domination is tight for u."""
    pts = range(inst.n)
    D, g, c = grid_operands(inst, u, crit.kernel.scale)
    a0 = crit.alpha_at(D)
    return [[b for b in pts if not is_inf(c[a][b]) and g[b] - g[a] == c[a][b] + a0] for a in pts]


def aubry_chain_sets(
    inst: CostInstance, crit: CriticalData, u: ValueFunction
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Aubry vertex and edge sets of u via bi-infinite calibrated chains.

    A calibrated chain is a path in the tight graph; a bi-infinite one
    through a point (or edge) exists iff the point is reachable from a tight
    cycle and reaches a tight cycle.
    """
    if not is_dominated(inst, u, crit.alpha0_exact).ok:
        raise InputError("chain oracle needs a dominated function")
    n = inst.n
    adj = tight_graph(inst, crit, u)
    radj: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for b in adj[a]:
            radj[b].append(a)
    on_cycle = [v for v in range(n) if _reach(adj[v], adj, n)[v]]
    from_cycle, to_cycle = _reach(on_cycle, adj, n), _reach(on_cycle, radj, n)
    vertices = tuple(v for v in range(n) if from_cycle[v] and to_cycle[v])
    edges = ((a, b) for a in range(n) for b in adj[a] if from_cycle[a] and to_cycle[b])
    return vertices, tuple(sorted(edges))


def _reach(starts: list[int], adj: list[list[int]], n: int) -> list[bool]:
    seen = [False] * n
    stack = list(starts)
    for s in starts:
        seen[s] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen


# ---------------------------------------------------------------------------
# dominated-function sampler
# ---------------------------------------------------------------------------

def subsolution_sampler(
    inst: CostInstance,
    crit: CriticalData,
    seed: int,
    count: int,
    phi: Optional[PotentialTable] = None,
    bar: Optional[BarrierData] = None,
) -> list[ValueFunction]:
    """Seeded dominated functions: random positive mixes of potential rows,
    barrier rows and the Bellman-Ford sub-solution, plus a shift of s / 4,
    with integer weights and one division."""
    rng = Random(seed)
    mode = inst.mode
    if phi is None:
        phi = mane_potential(inst, crit)
    if bar is None:
        bar = peierls_barrier(inst, crit)
    base = [t.row(x) for x in range(inst.n) for t in (phi, bar.h)]
    sol = solve_subsolution(inst, crit.alpha0_exact)
    if sol.feasible and sol.u is not None:
        base.append(sol.u)
    D = math.lcm(*(u.grid_in(mode)[1] for u in base))  # integer weights, one division
    cols = list(zip(*(u.at(mode, D) for u in base)))
    out = []
    for k in range(count):
        raw = [rng.randint(0, 3) for _ in base]
        if sum(raw) == 0:
            raw[rng.randrange(len(raw))] = 1
        total = sum(raw)
        s, scale = rng.randint(-8, 8), 4 * D * total
        grid = [4 * sum(map(mul, raw, col)) + s * D * total for col in cols]
        out.append(ValueFunction.on_grid(grid, scale, mode, f"sample[{seed}:{k}]"))
    return out


# ---------------------------------------------------------------------------
# the property harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class OracleReport:
    summary: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


class _Workspace:
    """Everything verify_all needs, computed once.

    The tables the checks compare entrywise live on one integer grid D (see
    ``core``): the kernel's grid, refined to the denominators of a claimed
    barrier.  ``c``, ``r``, ``p`` and ``h`` are the cost, reduced, Mane
    potential and barrier matrices times D, ``a`` is alpha0 times D, and
    the raw powers and the phi tables are on D too.  The checks that take
    samples compare on the finer grid Ds, D refined to the samples' scales:
    ``grid_samples`` are the samples times Ds, ``fine(t)`` is a table t of D
    times Ds / D, and ``grids`` puts value functions on one grid.  ``alpha``
    is alpha0 exactly, which the solver functions that take a constant
    get, in float mode too.  ``rev`` is the
    reversed instance, shared by the reversal and jump checks.  A sample
    that is not dominated at alpha0 can only come from a faulty solver
    table; ``refused`` keeps its tag for ``critical.T_preserves_domination``
    to report, and ``samples`` holds the others, which the solver functions
    that the other checks call accept.
    """

    def __init__(
        self,
        inst: CostInstance,
        seed: int,
        samples: int,
        horizon: Optional[int],
        barrier_override: Optional[Matrix],
    ):
        self.inst = inst
        self.rev = reverse_cost(inst)
        self.mode = mode = inst.mode
        self.crit = critical_value(inst)
        self.alpha = self.crit.alpha0_exact
        self.phi1 = phi_n(inst, self.crit, 1)
        self.phi = mane_potential(inst, self.crit)
        self.F = jump_F(inst, self.crit)
        self.f = jump_f(inst, self.crit)
        self.bar = peierls_barrier(inst, self.crit)
        self.aub = aubry(inst, self.crit, self.bar)
        self.scan = cycle_scan(inst)
        drawn = subsolution_sampler(inst, self.crit, seed, samples, phi=self.phi, bar=self.bar)
        ok = [is_dominated(inst, u, self.alpha).ok for u in drawn]
        self.samples = [u for u, keep in zip(drawn, ok) if keep]
        self.refused = [u.tag for u, keep in zip(drawn, ok) if not keep]
        self.horizon = horizon
        self.rng = Random(seed + 1)
        claimed = None
        if barrier_override is not None:
            claimed = tuple(tuple(mode.coerce(v) for v in row) for row in barrier_override)
        self.D = D = grid_scale(chain.from_iterable(claimed or ()), self.crit.kernel.scale)
        self.a = self.crit.alpha_at(D)
        self.c = inst.cost_grid.at(D)
        self.r = self.crit.kernel.at(D)
        self.p = self.phi.at(D)
        self.h = self.bar.h.at(D)
        # the barrier itself when there is no override, so products are shared
        self.h_claimed = self.h if claimed is None else tuple(to_grid(r, D) for r in claimed)
        self.Ds = math.lcm(D, *(u.grid_in(mode)[1] for u in self.samples))
        self.grid_samples = [u.at(mode, self.Ds) for u in self.samples]
        self._raw_powers: dict[int, Matrix] = {1: self.c}
        self._phi_tables: dict[int, Matrix] = {1: self.phi1.at(D)}
        self._products: dict[tuple[int, int], tuple[Matrix, Matrix, Matrix]] = {}
        self._max_strict: Optional[ValueFunction | ConstructionError] = None

    def raw_power(self, k: int) -> Matrix:
        """c^k times D."""
        m = max(self._raw_powers)
        while m < k:
            self._raw_powers[m + 1] = minplus_product(self._raw_powers[m], self.c)
            m += 1
        return self._raw_powers[k]

    def phi_table(self, k: int) -> Matrix:
        """phi_k times D.  The orders up to ``_PHI_KEPT`` are kept; a higher
        order is walked to from the highest order kept below it, and of the
        orders past ``_PHI_KEPT`` only the last two walked stay (the
        closed-form check compares phi_(1+k) with phi_k for the transient k)."""
        tables = self._phi_tables
        if k not in tables:
            m = max(t for t in tables if t < k)
            table = tables[m]
            for t in [t for t in tables if t > _PHI_KEPT]:
                del tables[t]
            for m in range(m + 1, k + 1):
                table = minplus_product(table, self.r)
                if m <= _PHI_KEPT or m >= k - 1:
                    tables[m] = table
        return tables[k]

    def product(self, a: Matrix, b: Matrix) -> Matrix:
        """a (x) b, held for the last eight pairs of tables (with the pair, so
        the ids in the key stay theirs): enough for a check to reuse its own
        products and the next checks to reuse those of the one before."""
        key = (id(a), id(b))
        if key not in self._products:
            if len(self._products) == 8:
                del self._products[next(iter(self._products))]
            self._products[key] = (a, b, minplus_product(a, b))
        return self._products[key][2]

    def fine(self, t: Matrix) -> Matrix:
        """A table t of D times Ds / D; it follows a table that replaces h."""
        m = self.Ds // self.D
        return t if m == 1 else tuple(tuple(v * m for v in row) for row in t)

    def grids(self, *fns: ValueFunction) -> tuple:
        """(E, alpha0 * E, u * E for each u) for E the least multiple of D
        and of the scales of ``fns``."""
        E = math.lcm(self.D, *(u.grid_in(self.mode)[1] for u in fns))
        return (E, self.a * (E // self.D), *(u.at(self.mode, E) for u in fns))

    def first_pair(self, bad: Callable[[int, int], bool]) -> Optional[tuple[int, int]]:
        """The first pair (x, y), in row-major order, with bad(x, y)."""
        pts = range(self.inst.n)
        return next(((x, y) for x in pts for y in pts if bad(x, y)), None)

    def first_violation(self, *ineqs: tuple) -> Optional[tuple[int, int, int, int]]:
        """The first (x, y, z, i) in lexicographic order where the i-th of
        ``ineqs`` (lhs, a, b, s), lhs[x][z] <= a[x][y] + b[y][z] + s, fails.

        Row x holds for all y iff it holds against row x of a (x) b, the least
        right-hand side.  Only a failing row is scanned entry by entry, for
        the witness."""
        pts = range(self.inst.n)
        rows = [(lhs, self.product(a, b), s) for lhs, a, b, s in ineqs]
        for x in pts:
            if all(all(map(le, lhs[x], [t + s for t in prod[x]])) for lhs, prod, s in rows):
                continue
            for y in pts:
                for z in pts:
                    for i, (lhs, a, b, s) in enumerate(ineqs):
                        if not lhs[x][z] <= a[x][y] + b[y][z] + s:
                            return x, y, z, i
        return None

    def orbit(
        self, table: Matrix, steps: int, forward: bool, fine: bool = False
    ) -> Iterator[Matrix]:
        """Iterates 1..steps of u -> T- u + alpha0, or with ``forward`` of
        u -> T+ u - alpha0, on every row u of ``table`` (of Ds with ``fine``,
        else of D), one min-plus product per step: T- u = u (x) c and
        T+ u (w) = -((-u) (x) c^T)(w)."""
        c, a = (self.fine(self.c), self.a * (self.Ds // self.D)) if fine else (self.c, self.a)
        cT = tuple(zip(*c))
        for _ in range(steps):
            if forward:
                low = minplus_product(tuple(tuple(-v for v in row) for row in table), cT)
                table = tuple(tuple(-v - a for v in row) for row in low)
            else:
                table = tuple(tuple(v + a for v in row) for row in minplus_product(table, c))
            yield table

    def max_strict(self) -> ValueFunction | ConstructionError:
        """The solver's maximally strict sub-solution, or the
        ``ConstructionError`` it raised, which the checks that read it
        report."""
        if self._max_strict is None:
            try:
                self._max_strict = max_strict_subsolution(self.inst, self.crit)
            except ConstructionError as exc:
                self._max_strict = exc
        return self._max_strict


def _shift(ws: _Workspace, u: ValueFunction, k: Value) -> ValueFunction:
    """u + k, on u's grid refined to k's denominator."""
    p, q = ratio(k)
    E, _, g = ws.grids(u)
    return ValueFunction.on_grid([q * v + p * E for v in g], q * E, ws.mode)


def _mix(ws: _Workspace, u: ValueFunction, v: ValueFunction, t: int, q: int) -> ValueFunction:
    """(t u + (q - t) v) / q, the convex mix (t/q) u + (1 - t/q) v."""
    E, _, gu, gv = ws.grids(u, v)
    return ValueFunction.on_grid([t * a + (q - t) * b for a, b in zip(gu, gv)], q * E, ws.mode)


def verify_all(
    inst: CostInstance,
    seed: int = 0,
    horizon: Optional[int] = None,
    barrier_override: Optional[Matrix] = None,
) -> OracleReport:
    """Run every structural identity against one instance.

    ``barrier_override`` substitutes a foreign matrix for the computed
    barrier in the closed-form, triangle and chain-splitting checks
    (negative-control hook: a corrupted matrix must fail with a witness).
    """
    _guard(inst.n, CYCLE_GUARD, "verify_all")
    inst.require_total("verify_all")
    ws = _Workspace(inst, seed, _SAMPLES, horizon, barrier_override)
    metric = _METRIC_CHECKS if inst.metric_grid is not None else ()
    checks = tuple(check(ws) for check in _CHECKS + metric)
    summary = (
        f"n={inst.n} mode={inst.mode.kind} total={inst.total} "
        f"alpha0={ws.crit.alpha0} aubry={[inst.labels[v] for v in ws.aub.vertices]}"
    )
    return OracleReport(summary=summary, checks=checks)


# --- tropical ---------------------------------------------------------------

def _check_semigroup_law(ws: _Workspace) -> CheckResult:
    name = "tropical.semigroup_law"
    inst = ws.inst
    top = 5 if inst.n <= 8 else 3
    for a in range(1, top + 1):
        for b in range(1, top + 1):
            lhs = ws.raw_power(a + b)
            rhs = minplus_product(ws.raw_power(a), ws.raw_power(b))
            hit = ws.first_pair(lambda i, j: lhs[i][j] != rhs[i][j])
            if hit is not None:
                return CheckResult(name, False, "n={} m={} at ({},{})".format(a, b, *hit))
    return CheckResult(name, True)


def _check_monotonicity(ws: _Workspace) -> CheckResult:
    name = "tropical.monotonicity"
    inst = ws.inst
    for u in ws.samples[:5]:
        bump = [abs(ws.rng.randint(0, 4)) for _ in range(inst.n)]
        E, _, g = ws.grids(u)
        v = ValueFunction.on_grid([2 * a + d * E for a, d in zip(g, bump)], 2 * E, ws.mode)
        _, _, tu, tv = ws.grids(lax_oleinik_neg(inst, u), lax_oleinik_neg(inst, v))
        if not all(map(le, tu, tv)):
            return CheckResult(name, False, f"sample {u.tag}")
    return CheckResult(name, True)


def _check_constant_commutation(ws: _Workspace) -> CheckResult:
    name = "tropical.constant_commutation"
    inst = ws.inst
    k = Fraction(7, 4)
    for u in ws.samples[:5]:
        lhs = lax_oleinik_neg(inst, _shift(ws, u, k))
        rhs = _shift(ws, lax_oleinik_neg(inst, u), k)
        if not all(map(eq, *ws.grids(lhs, rhs)[2:])):
            return CheckResult(name, False, f"sample {u.tag}")
    return CheckResult(name, True)


def _check_reversal(ws: _Workspace) -> CheckResult:
    name = "tropical.reversal_identity"
    inst = ws.inst
    for u in ws.samples[:5]:
        E, _, g = ws.grids(u)
        neg_u = ValueFunction.on_grid([-v for v in g], E, ws.mode)
        _, _, direct, via = ws.grids(lax_oleinik_pos(inst, u), lax_oleinik_neg(ws.rev, neg_u))
        if not all(map(eq, direct, [-v for v in via])):
            return CheckResult(name, False, f"sample {u.tag}")
    return CheckResult(name, True)


# --- critical ----------------------------------------------------------------

def _check_alpha0_vs_cycles(ws: _Workspace) -> CheckResult:
    name = "critical.alpha0_vs_cycle_oracle"
    ok = ws.alpha == -ws.scan.min_mean
    return CheckResult(name, ok, "" if ok else f"{ws.alpha} vs {-ws.scan.min_mean}")


def _check_witness_cycle(ws: _Workspace) -> CheckResult:
    name = "critical.witness_cycle_mean"
    cyc = ws.crit.witness_cycle
    total = sum(ws.c[a][b] for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    if total == -len(cyc) * ws.a:
        return CheckResult(name, True)
    return CheckResult(name, False, f"cycle {cyc} mean {Fraction(total, len(cyc) * ws.D)}")


def _check_alpha0_lower_bound(ws: _Workspace) -> CheckResult:
    name = "critical.alpha0_lower_bound"
    bound = max(-row[x] for x, row in enumerate(ws.c) if not is_inf(row[x]))
    if bound <= ws.a:
        return CheckResult(name, True)
    return CheckResult(name, False, f"alpha0 {ws.alpha} < {Fraction(bound, ws.D)}")


def _check_T_preserves_domination(ws: _Workspace) -> CheckResult:
    name = "critical.T_preserves_domination"
    inst = ws.inst
    if ws.refused:
        return CheckResult(name, False, f"sampler produced non-dominated {ws.refused[0]}")
    for u in ws.samples:
        shifted = _shift(ws, lax_oleinik_neg(inst, u), ws.alpha)
        res = is_dominated(inst, shifted, ws.alpha)
        if not res.ok:
            return CheckResult(name, False, f"{u.tag} -> pair {res.witness}")
    return CheckResult(name, True)


def _check_convexity(ws: _Workspace) -> CheckResult:
    name = "critical.dominated_set_convex"
    inst = ws.inst
    pairs = list(zip(ws.samples, ws.samples[1:]))[:10]
    for u, v in pairs:
        res = is_dominated(inst, _mix(ws, u, v, ws.rng.randint(1, 7), 8), ws.alpha)
        if not res.ok:
            return CheckResult(name, False, f"{u.tag}+{v.tag} pair {res.witness}")
    return CheckResult(name, True)


def _check_subsolution_feasibility(ws: _Workspace) -> CheckResult:
    name = "critical.subsolution_feasibility"
    inst = ws.inst
    at = solve_subsolution(inst, ws.alpha)
    if not at.feasible or not is_dominated(inst, at.u, ws.alpha).ok:
        return CheckResult(name, False, "infeasible at alpha0")
    below = solve_subsolution(inst, ws.alpha - 1)
    if below.feasible:
        return CheckResult(name, False, "feasible below alpha0")
    cyc = below.negative_cycle
    total = sum(ws.c[a][b] + ws.a - ws.D for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    if not total < 0:
        what = f"witness cycle {cyc} not negative: {Fraction(total, ws.D)}"
        return CheckResult(name, False, what)
    return CheckResult(name, True)


# --- potential ---------------------------------------------------------------

def _check_potential_axioms(ws: _Workspace) -> CheckResult:
    name = "potential.axioms"
    inst = ws.inst
    p = ws.p
    for x in range(inst.n):
        if p[x][x] != 0:
            return CheckResult(name, False, f"diagonal at {x}")
        for y in range(inst.n):
            if not p[x][y] <= ws.c[x][y] + ws.a:
                return CheckResult(name, False, f"upper bound at ({x},{y})")
    hit = ws.first_violation((p, p, p, 0))
    if hit is not None:
        return CheckResult(name, False, "triangle at ({},{},{})".format(*hit[:3]))
    return CheckResult(name, True)


def _check_sup_representation(ws: _Workspace) -> CheckResult:
    name = "potential.sup_representation"
    inst = ws.inst
    p = ws.fine(ws.p)
    for u, g in zip(ws.samples, ws.grid_samples):
        hit = ws.first_pair(lambda x, y: not g[y] - g[x] <= p[x][y])
        if hit is not None:
            return CheckResult(name, False, "{} at ({},{})".format(u.tag, *hit))
    # any function below the potential in increments is dominated: the
    # envelope min_x r(x) + phi(x, .) of r on the quarter grid
    for _ in range(5):
        r = [ws.rng.randint(-8, 8) for _ in range(inst.n)]
        env = [min(4 * pv + rv * ws.D for rv, pv in zip(r, col)) for col in zip(*ws.p)]
        res = is_dominated(inst, ValueFunction.on_grid(env, 4 * ws.D, ws.mode), ws.alpha)
        if not res.ok:
            return CheckResult(name, False, f"phi-envelope not dominated at {res.witness}")
    return CheckResult(name, True)


def _check_phi_vs_phi1(ws: _Workspace) -> CheckResult:
    name = "potential.phi_matches_phi1"
    p1 = ws.phi_table(1)
    for x in range(ws.inst.n):
        for y in range(ws.inst.n):
            if x == y:
                if p1[x][x] < 0:
                    return CheckResult(name, False, f"phi1 diag negative at {x}")
            elif ws.p[x][y] != p1[x][y]:
                return CheckResult(name, False, f"off-diagonal at ({x},{y})")
    return CheckResult(name, True)


def _check_phi_recursion(ws: _Workspace) -> CheckResult:
    name = "potential.tail_recursion"
    for k in range(1, 4):
        step = ws.product(ws.phi_table(k), ws.c)
        for x, (row, want) in enumerate(zip(step, ws.phi_table(k + 1))):
            if [v + ws.a for v in row] != list(want):
                return CheckResult(name, False, f"order {k} row {x}")
    return CheckResult(name, True)


def _check_vanish(ws: _Workspace) -> CheckResult:
    name = "potential.forward_vanish"
    (step,) = ws.orbit(ws.phi_table(1), 1, forward=True)
    for x, row in enumerate(step):
        if row[x] != 0:
            return CheckResult(name, False, f"x={x} value {Fraction(row[x], ws.D)}")
    return CheckResult(name, True)


def _check_iterated_vanish(ws: _Workspace) -> CheckResult:
    name = "potential.iterated_forward_vanish"
    orbits = [list(ws.orbit(start, 5, forward=True)) for start in (ws.phi_table(1), ws.p)]
    for x in range(ws.inst.n):
        for orbit in orbits:
            for m, table in enumerate(orbit, 1):
                if table[x][x] != 0:
                    return CheckResult(name, False, f"x={x} m={m}")
    return CheckResult(name, True)


def _check_rows_cols_dominated(ws: _Workspace) -> CheckResult:
    name = "potential.rows_and_columns_dominated"
    inst, phi = ws.inst, ws.phi
    for x in range(inst.n):
        if not is_dominated(inst, phi.row(x), ws.alpha).ok:
            return CheckResult(name, False, f"row {x}")
        col = ValueFunction.on_grid([-row[x] for row in phi.grid], phi.scale, phi.mode)
        if not is_dominated(inst, col, ws.alpha).ok:
            return CheckResult(name, False, f"column {x}")
    return CheckResult(name, True)


def _check_jumps(ws: _Workspace) -> CheckResult:
    name = "potential.jump_signs_and_reversal"
    _, _, F, f = ws.grids(ws.F, ws.f)
    for x in range(ws.inst.n):
        if F[x] < 0:
            return CheckResult(name, False, f"F({x}) < 0")
        if 0 < f[x]:
            return CheckResult(name, False, f"f({x}) > 0")
    _, _, f, rF = ws.grids(ws.f, jump_F(ws.rev, critical_value(ws.rev)))
    if not all(map(eq, f, [-v for v in rF])):
        return CheckResult(name, False, "f != -F(reversed)")
    return CheckResult(name, True)


# --- barrier -----------------------------------------------------------------

def _check_barrier_fixed_points(ws: _Workspace) -> CheckResult:
    name = "barrier.rows_columns_are_solutions"
    inst = ws.inst
    for x in range(inst.n):
        if not is_weak_kam(inst, ws.crit, weak_kam_neg(ws.bar, x), "negative"):
            return CheckResult(name, False, f"row {x}")
        if not is_weak_kam(inst, ws.crit, weak_kam_pos(ws.bar, x), "positive"):
            return CheckResult(name, False, f"column {x}")
    return CheckResult(name, True)


def _check_barrier_vs_liminf(ws: _Workspace) -> CheckResult:
    name = "barrier.matches_liminf_oracle"
    rep = liminf_barrier_bounded(ws.inst, ws.crit, ws.horizon)
    if not rep.stabilized:
        return CheckResult(name, False, "liminf oracle did not stabilize")
    h, low = ws.h, rep.table.at(ws.D)
    hit = ws.first_pair(lambda i, j: h[i][j] != low[i][j])
    if hit is not None:
        return CheckResult(name, False, "at ({},{})".format(*hit))
    return CheckResult(name, True)


def _check_barrier_closed_form(ws: _Workspace, h: Optional[Matrix] = None) -> CheckResult:
    # h comes from the Aubry closed form; the tail recursion checks it on its
    # own: h = phi_{1+k} for the reported transient k, and phi_k != h.
    name = "barrier.closed_form_via_aubry"
    h = ws.h_claimed if h is None else h
    k = ws.bar.iterations_to_fix
    for x, (row, hrow) in enumerate(zip(ws.phi_table(1 + k), h)):
        if not all(map(eq, row, hrow)):
            return CheckResult(name, False, f"row {x} differs from phi_{1 + k}")
    if k >= 1 and all(all(map(eq, row, hrow)) for row, hrow in zip(ws.phi_table(k), h)):
        return CheckResult(name, False, f"phi_{k} already equals h: transient {k} is not least")
    return CheckResult(name, True)


def _check_barrier_triangle(ws: _Workspace, h: Optional[Matrix] = None) -> CheckResult:
    # the floor at (x, y) is checked before the triangles at (x, y, z)
    name = "barrier.triangle_and_floor"
    h = ws.h_claimed if h is None else h
    hit = ws.first_violation((h, h, h, 0))
    floor = ws.first_pair(lambda x, y: not ws.p[x][y] <= h[x][y])
    if floor is not None and (hit is None or floor <= hit[:2]):
        return CheckResult(name, False, "h < phi at ({},{})".format(*floor))
    if hit is not None:
        return CheckResult(name, False, "triangle at ({},{},{})".format(*hit[:3]))
    return CheckResult(name, True)


def _check_hh_suite(ws: _Workspace, h: Optional[Matrix] = None) -> CheckResult:
    name = "barrier.chain_splitting_suite"
    h = ws.h_claimed if h is None else h

    def fail(what: str, hit: tuple) -> CheckResult:
        return CheckResult(name, False, "{} ({},{},{})".format(what, *hit[:3]))

    for m in range(1, 5):
        cm = ws.raw_power(m)
        shift = m * ws.a
        for n_ in range(1, 5):
            hit = ws.first_violation((ws.phi_table(n_ + m), ws.phi_table(n_), cm, shift))
            if hit is not None:
                return fail(f"phi split n={n_} m={m}", hit)
        # h(x,z) <= h(x,y) + c_m(y,z) + shift, then <= c_m(x,y) + shift + h(y,z)
        cm_shift = tuple(tuple(v + shift for v in row) for row in cm)
        hit = ws.first_violation((h, h, cm, shift), (h, cm_shift, h, 0))
        if hit is not None:
            return fail(f"h {('right', 'left')[hit[3]]} split m={m}", hit)
    for m in range(1, 5):
        for l in range(1, 5):
            for n_ in range(1, min(4, l + m) + 1):
                hit = ws.first_violation((ws.phi_table(n_), ws.phi_table(m), ws.phi_table(l), 0))
                if hit is not None:
                    return fail(f"phi-phi n={n_} m={m} l={l}", hit)
    for n_ in range(1, 5):
        hit = ws.first_violation((h, h, ws.phi_table(n_), 0))
        if hit is not None:
            return fail(f"h-phi n={n_}", hit)
    return CheckResult(name, True)


def _check_min_formula(ws: _Workspace) -> CheckResult:
    # h = h (x) c_n + n a0 = c_n (x) h + n a0
    name = "barrier.min_formula"
    h = ws.h
    for n_ in range(1, 4):
        cn, shift = ws.raw_power(n_), n_ * ws.a
        for prod in (ws.product(h, cn), ws.product(cn, h)):
            if not all(all(map(eq, hrow, [v + shift for v in row])) for hrow, row in zip(h, prod)):
                return CheckResult(name, False, f"n={n_}")
    return CheckResult(name, True)


def _check_representation(ws: _Workspace) -> CheckResult:
    # S(x, y) = max_{k <= N} T-^k u(y) + k a0 - min_{k <= N} T+^k u(x) + k a0
    # never exceeds h, and the rows u of phi_1 attain h on row x of their S.
    name = "barrier.orbit_representation"
    h = ws.h

    def bounds(table: Matrix, N: int, fine: bool = False) -> list[tuple]:
        """(hi, lo) of the orbits of each row of table, iterates 0..N, as a
        running max and min: no iterate is kept past its step."""
        hi = lo = table
        for up in ws.orbit(table, N, False, fine):
            hi = [list(map(max, a, b)) for a, b in zip(hi, up)]
        for down in ws.orbit(table, N, True, fine):
            lo = [list(map(min, a, b)) for a, b in zip(lo, down)]
        return list(zip(hi, lo))

    def below(hi: list, lo: list, h: Matrix) -> bool:
        return all(all(map(le, [v - lx for v in hi], row)) for lx, row in zip(lo, h))

    for u, (hi, lo) in zip(ws.samples, bounds(tuple(ws.grid_samples[:10]), 6, fine=True)):
        if not below(hi, lo, ws.fine(h)):
            return CheckResult(name, False, f"S > h for {u.tag}")
    for x, (hi, lo) in enumerate(bounds(ws.phi_table(1), max(1, ws.bar.iterations_to_fix))):
        if not below(hi, lo, h):
            return CheckResult(name, False, f"S > h for phi1 row {x}")
        if not all(map(eq, [v - lo[x] for v in hi], h[x])):
            return CheckResult(name, False, f"no attainment in row {x}")
    return CheckResult(name, True)


def _check_u_limits_extremal(ws: _Workspace) -> CheckResult:
    name = "barrier.limits_are_extremal"
    inst, mode = ws.inst, ws.mode
    h = ws.fine(ws.h)
    for u, g in zip(ws.samples[:10], ws.grid_samples):
        um = u_minus(inst, ws.crit, u)
        umg = um.at(mode, ws.Ds)
        if not all(map(le, g, umg)):
            return CheckResult(name, False, f"u_minus below u for {u.tag}")
        if not is_weak_kam(inst, ws.crit, um, "negative"):
            return CheckResult(name, False, f"u_minus not a solution for {u.tag}")
        lift = [max(map(sub, g, row)) for row in h]  # max_t g(t) - h(x, t)
        envelope = tuple(min(map(add, col, lift)) for col in zip(*h))
        if not all(map(eq, umg, envelope)):
            return CheckResult(name, False, f"u_minus not least solution above {u.tag}")
        up = u_plus(inst, ws.crit, u)
        upg = up.at(mode, ws.Ds)
        if not all(map(le, upg, g)):
            return CheckResult(name, False, f"u_plus above u for {u.tag}")
        if not is_weak_kam(inst, ws.crit, up, "positive"):
            return CheckResult(name, False, f"u_plus not a solution for {u.tag}")
        low = [min(map(add, g, col)) for col in zip(*h)]  # min_s g(s) + h(s, x)
        envelope_p = tuple(max(map(sub, low, row)) for row in h)
        if not all(map(eq, upg, envelope_p)):
            return CheckResult(name, False, f"u_plus not greatest solution below {u.tag}")
    return CheckResult(name, True)


def _check_phi_orbit_identity(ws: _Workspace) -> CheckResult:
    name = "barrier.potential_orbit_identity"
    orbit = list(ws.orbit(ws.p, 4, forward=False))
    for x in range(ws.inst.n):
        for k, table in enumerate(orbit, 1):
            if not all(map(eq, table[x], ws.phi_table(k)[x])):
                return CheckResult(name, False, f"row {x} order {k}")
    return CheckResult(name, True)


def _check_conjugation(ws: _Workspace) -> CheckResult:
    # u_-+ = u_-+-+; T+ T- u <= u <= T- T+ u; (T- T+)^2 u = (T- T+) u
    name = "barrier.conjugation_idempotent"
    inst, crit = ws.inst, ws.crit
    for u in ws.samples[:10]:
        ump = u_plus(inst, crit, u_minus(inst, crit, u))
        umpmp = u_plus(inst, crit, u_minus(inst, crit, ump))
        down_up = lax_oleinik_pos(inst, lax_oleinik_neg(inst, u))
        up_down = lax_oleinik_neg(inst, lax_oleinik_pos(inst, u))
        twice = lax_oleinik_neg(inst, lax_oleinik_pos(inst, up_down))
        _, _, g, g1, g2, du, ud, tw = ws.grids(u, ump, umpmp, down_up, up_down, twice)
        if not (
            all(map(eq, g1, g2))
            and all(map(le, du, g))
            and all(map(le, g, ud))
            and all(map(eq, tw, ud))
        ):
            return CheckResult(name, False, u.tag)
    # the pointwise min of the negative solutions h(x, .) is again one
    low = tuple(map(min, zip(*ws.h)))
    (image,) = ws.orbit((low,), 1, forward=False)
    if not all(map(eq, image[0], low)):
        what = "pointwise min of solutions failed the fixed-point test"
        return CheckResult(name, False, f"inf of solutions: {what}")
    return CheckResult(name, True)


def _check_lemma_quadruple(ws: _Workspace) -> CheckResult:
    name = "barrier.orbit_fixed_set_vs_chains"
    inst = ws.inst
    for u in ws.samples[:8]:
        solver = aubry_of(inst, ws.crit, u)
        chain_v, _ = aubry_chain_sets(inst, ws.crit, u)
        if solver != chain_v:
            return CheckResult(name, False, f"{u.tag}: {solver} vs {chain_v}")
    return CheckResult(name, True)


def _check_aubry_invariance(ws: _Workspace) -> CheckResult:
    name = "barrier.aubry_set_invariant_under_T"
    inst = ws.inst
    for u in ws.samples[:8]:
        tu = _shift(ws, lax_oleinik_neg(inst, u), ws.alpha)
        if aubry_of(inst, ws.crit, u) != aubry_of(inst, ws.crit, tu):
            return CheckResult(name, False, f"{u.tag}")
    return CheckResult(name, True)


def _check_aubry_four_way(ws: _Workspace) -> CheckResult:
    name = "barrier.aubry_four_way_equality"
    inst = ws.inst
    by_h = tuple(x for x in range(inst.n) if ws.h[x][x] == 0)
    _, _, F = ws.grids(ws.F)
    by_F = tuple(x for x in range(inst.n) if F[x] == 0)
    by_kam = tuple(
        x for x in range(inst.n) if is_weak_kam(inst, ws.crit, ws.phi.row(x), "negative")
    )
    by_cycles = ws.scan.zero_vertices
    if not (by_h == by_F == by_kam == by_cycles):
        return CheckResult(
            name, False, f"h:{by_h} F:{by_F} kam:{by_kam} cycles:{by_cycles}"
        )
    if ws.aub.vertices != by_h:
        return CheckResult(name, False, "aubry() vertices disagree")
    if tuple(sorted(ws.aub.edges)) != ws.scan.zero_edges:
        return CheckResult(
            name, False, f"edges {ws.aub.edges} vs cycles {ws.scan.zero_edges}"
        )
    for (a, b) in ws.aub.edges:
        if a not in ws.aub.vertices or b not in ws.aub.vertices:
            return CheckResult(name, False, f"edge ({a},{b}) leaves the vertex set")
    return CheckResult(name, True)


# --- subsolution -------------------------------------------------------------

def _check_strict_dichotomy(ws: _Workspace) -> CheckResult:
    name = "subsolution.strict_dichotomy"
    inst = ws.inst
    u1 = ws.max_strict()
    if isinstance(u1, ConstructionError):
        return CheckResult(name, False, f"construction failed: {u1}")
    if not is_dominated(inst, u1, ws.alpha).ok:
        return CheckResult(name, False, "constructed function not dominated")
    _, a, g, back, fwd = ws.grids(u1, lax_oleinik_neg(inst, u1), lax_oleinik_pos(inst, u1))
    for x in range(inst.n):
        if x in ws.aub.vertices:
            continue
        if not g[x] < back[x] + a:
            return CheckResult(name, False, f"backward slack missing at {x}")
        if not fwd[x] - a < g[x]:
            return CheckResult(name, False, f"forward slack missing at {x}")
    return CheckResult(name, True)


def _check_tightness_propagates(ws: _Workspace) -> CheckResult:
    # every sample is dominated, u(x) - u(y) <= c(y, x) + alpha0, and tight
    # on the Aubry edges (the cycle scan's zero edges, never empty); a tight
    # pair (x, y), the step y -> x, makes x a fixed point of T- + alpha0
    name = "subsolution.tight_pair_forces_fixed_point"
    inst, pts = ws.inst, range(ws.inst.n)
    c, a = ws.fine(ws.c), ws.a * (ws.Ds // ws.D)
    for u, g in zip(ws.samples[:10], ws.grid_samples):
        timg = lax_oleinik_neg(inst, u).at(ws.mode, ws.Ds)
        tight = [(x, y) for x in pts for y in pts if g[x] - g[y] == c[y][x] + a]
        if not tight:
            return CheckResult(name, False, f"{u.tag} has no tight pair")
        over = ws.first_pair(lambda y, x: not g[x] - g[y] <= c[y][x] + a)
        if over is not None:
            return CheckResult(name, False, "{} not dominated at ({},{})".format(u.tag, *over))
        loose = next(((y, x) for y, x in ws.scan.zero_edges if (x, y) not in tight), None)
        if loose is not None:
            return CheckResult(name, False, f"{u.tag} not tight on Aubry edge {loose}")
        for x, y in tight:
            if g[x] != timg[x] + a:
                return CheckResult(name, False, f"{u.tag} at ({y},{x})")
    return CheckResult(name, True)


def _check_convex_calibration(ws: _Workspace) -> CheckResult:
    name = "subsolution.mix_calibrates_iff_all_do"
    inst = ws.inst
    crit = ws.crit
    for u, v in list(zip(ws.samples, ws.samples[1:]))[:6]:
        mix = _mix(ws, u, v, ws.rng.randint(1, 3), 4)
        adj = tight_graph(inst, crit, mix)
        chains = []
        for a in range(inst.n):
            for b in adj[a]:
                chains.append((a, b))
                for c in adj[b]:
                    chains.append((a, b, c))
        chains = chains[:20] or [(0, 0)]
        for ch in chains:
            both = is_calibrated(inst, crit, u, ch) and is_calibrated(inst, crit, v, ch)
            if is_calibrated(inst, crit, mix, ch) != both:
                return CheckResult(name, False, f"chain {ch}")
    return CheckResult(name, True)


def _check_in_between(ws: _Workspace) -> CheckResult:
    # u + t (T u - u) for the shifted images T- u + a0 and T+ u - a0, with t
    # on the quarter grid
    name = "subsolution.in_between"
    inst, mode = ws.inst, ws.mode
    for u in ws.samples[:8]:
        E, a, g, up, lo = ws.grids(u, lax_oleinik_neg(inst, u), lax_oleinik_pos(inst, u))
        ts = [ws.rng.randint(0, 4) for _ in g]
        for what, img, s in (("upper", up, a), ("lower", lo, -a)):
            mid = ValueFunction.on_grid(
                [4 * x + t * (b + s - x) for x, b, t in zip(g, img, ts)], 4 * E, mode
            )
            if not is_dominated(inst, mid, ws.alpha).ok:
                return CheckResult(name, False, f"{u.tag} {what} mix")
    return CheckResult(name, True)


def _check_strict_pattern(ws: _Workspace) -> CheckResult:
    name = "subsolution.strict_exactly_off_aubry_edges"
    inst = ws.inst
    for u in ws.samples[:6]:
        u2 = strict_subsolution(inst, ws.crit, u)
        if not is_dominated(inst, u2, ws.alpha).ok:
            return CheckResult(name, False, f"{u.tag}: not dominated")
        verts, edges = aubry_chain_sets(inst, ws.crit, u)
        strict = set(strict_pairs(inst, ws.crit, u2))
        tight = set(edges)
        pair = ws.first_pair(lambda x, y: ((x, y) in strict) == ((x, y) in tight))
        if pair is not None:
            what = "strict on edge" if pair in strict else "tight off edges"
            return CheckResult(name, False, f"{u.tag}: {what} {pair}")
        _, _, g2, g = ws.grids(u2, u)
        for x in verts:
            if g2[x] != g[x]:
                return CheckResult(name, False, f"{u.tag}: changed on Aubry point {x}")
    return CheckResult(name, True)


def _check_max_strict_pattern(ws: _Workspace) -> CheckResult:
    name = "subsolution.max_strict_pattern"
    inst = ws.inst
    u1 = ws.max_strict()
    if isinstance(u1, ConstructionError):
        return CheckResult(name, False, f"construction failed: {u1}")
    strict = set(strict_pairs(inst, ws.crit, u1))
    tight = set(ws.scan.zero_edges)
    pair = ws.first_pair(lambda x, y: ((x, y) in strict) == ((x, y) in tight))
    if pair is not None:
        what = "strict on global edge" if pair in strict else "not strict off edges at"
        return CheckResult(name, False, f"{what} {pair}")
    return CheckResult(name, True)


# --- models ------------------------------------------------------------------

def _metric_B_K(inst: CostInstance) -> tuple[Value, Value]:
    t = inst.metric_grid
    (diam,) = from_grid(inst.mode, (max(map(max, t.grid)),), t.scale)
    return 1, diam if diam > 0 else 1


def _check_lipschitz(ws: _Workspace) -> CheckResult:
    name = "models.lipschitz_in_the_large"
    inst = ws.inst
    B, K = _metric_B_K(inst)
    k, b = lipschitz_constants(inst, ws.alpha, B, K)
    for u in ws.samples[:10]:
        res = lipschitz_large_check(inst, u, k, b)
        if not res.ok:
            return CheckResult(name, False, f"{u.tag} at {res.witness}")
    return CheckResult(name, True)


def _check_apriori(ws: _Workspace) -> CheckResult:
    name = "models.apriori_argmin_radius"
    inst = ws.inst
    B, K = _metric_B_K(inst)
    for u in ws.samples[:10]:
        res = check_apriori(inst, u, ws.alpha, B, K)
        if not res.ok:
            return CheckResult(name, False, f"{u.tag} at {res.witness} (D={res.radius})")
    return CheckResult(name, True)


# every check, in report order; the metric checks run on metric instances
_CHECKS = (
    _check_semigroup_law, _check_monotonicity, _check_constant_commutation, _check_reversal,
    _check_alpha0_vs_cycles, _check_witness_cycle, _check_alpha0_lower_bound,
    _check_T_preserves_domination, _check_convexity, _check_subsolution_feasibility,
    _check_potential_axioms, _check_sup_representation, _check_phi_vs_phi1,
    _check_phi_recursion, _check_vanish, _check_iterated_vanish, _check_rows_cols_dominated,
    _check_jumps, _check_barrier_fixed_points, _check_barrier_vs_liminf,
    _check_barrier_closed_form, _check_barrier_triangle, _check_hh_suite, _check_min_formula,
    _check_representation, _check_u_limits_extremal, _check_phi_orbit_identity,
    _check_conjugation, _check_lemma_quadruple, _check_aubry_invariance, _check_aubry_four_way,
    _check_strict_dichotomy, _check_tightness_propagates, _check_convex_calibration,
    _check_in_between, _check_strict_pattern, _check_max_strict_pattern,
)
_METRIC_CHECKS = (_check_lipschitz, _check_apriori)
