"""Brute-force reference implementations and the full property harness.

Everything here recomputes solver outputs by a different route at desk
scale: every simple cycle is enumerated (with exact integer-scaled weights in
exact mode) in one depth-first pass that does O(1) work per cycle and
aggregates the per-vertex minimum reduced weight and the zero-cycle vertices
and edges as each search subtree returns; chain costs come from recursive
enumeration, the barrier from the eventual periodicity of reduced min-plus
powers, and the per-function Aubry sets from reachability in the tight-edge
graph.  A failed check always carries a concrete witness.

The harness computes on the integer grid of ``core``.  ``verify_all`` puts
the costs, alpha0, the powers and tables it compares, the barrier under test
and the sampled functions on one common denominator, so each entrywise
identity compares integers; float mode runs the same code with D = 1.
``Fraction`` remains only in the values public functions return and in
witness text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from random import Random
from typing import Optional

from .barrier import (
    AubryData,
    BarrierData,
    aubry,
    conjugate_check,
    inf_solutions,
    is_weak_kam,
    peierls_barrier,
    representation_check,
    min_formula_check,
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
    reverse_cost,
    to_grid,
    vf_eq,
    vf_le,
)
from .critical import CriticalData, critical_value, is_dominated, solve_subsolution
from .models import check_apriori, lipschitz_constants, lipschitz_large_check
from .numbers import INF, InputError, SizeGuardError, Value, is_inf
from .potential import jump_F, jump_f, mane_potential, phi_n
from .subsolution import (
    aubry_of,
    is_calibrated,
    max_strict_subsolution,
    strict_pairs,
    strict_subsolution,
)

CYCLE_GUARD = 10
WALK_GUARD = 6
ATTAINING_CAP = 64


def _guard(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise SizeGuardError(f"{what} is guarded to n <= {limit}, got {n}")


# ---------------------------------------------------------------------------
# simple-cycle enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleScan:
    """One exhaustive pass over the simple cycles of an instance."""

    min_mean: Value
    attaining: tuple[tuple[int, ...], ...]  # capped; see attaining_count
    attaining_count: int
    cycle_count: int
    zero_vertices: tuple[int, ...] = ()
    zero_edges: tuple[tuple[int, int], ...] = ()
    vertex_min_reduced: tuple[Value, ...] = ()


def cycle_scan(inst: CostInstance, alpha0: Optional[Value] = None) -> CycleScan:
    """Enumerate all simple cycles; track the minimum mean and, when alpha0
    is supplied, the zero-reduced-weight structure.

    One depth-first search per least vertex m extends the path m, p1, ...
    by the remaining vertices in increasing order, and each node closes its
    own cycle (the edge back to m) before it visits its children.  The path
    total is carried down, so closing a cycle costs O(1) work, not O(length);
    a path becomes a tuple only when its cycle enters the capped
    ``attaining`` list.  Every
    cycle closed in the subtree below the node where v joined the path runs
    through v and through the edge into v, so the per-vertex minimum reduced
    weight and the zero vertices and edges are aggregated as each subtree
    returns, not cycle by cycle.

    Exact mode scales all weights to integers on the grid of ``core``, so
    every comparison is integer arithmetic.
    """
    _guard(inst.n, CYCLE_GUARD, "cycle enumeration")
    n = inst.n
    mode = inst.mode
    exact = mode.exact
    extra = () if alpha0 is None else (alpha0,)
    D = grid_scale(mode, extra, inst.cost_grid()[0])
    w_grid = [[None if is_inf(v) else v for v in row] for row in inst.cost_at(D)]
    a_grid = 0 if alpha0 is None else to_grid(mode, extra, D)[0]
    tol_band = 0.0 if exact else mode.tolerance * float(inst.value_scale())

    best_s: Value = INF
    best_len = 1
    attaining: list[tuple[int, ...]] = []
    attaining_count = 0
    count = zeros = 0
    zero_v: set[int] = set()
    zero_e: set[tuple[int, int]] = set()
    vmin: list[Value] = [INF] * n

    def visit(v: int, acc, L: int, rest: tuple[int, ...]):
        """Scan the subtree of the path ending at v (total acc, L vertices)
        and return the least reduced weight of a cycle closed in it.  A
        subtree holds a zero cycle iff it moved the ``zeros`` count."""
        nonlocal best_s, best_len, attaining, attaining_count, count, zeros
        zeros_before = zeros
        row = w_grid[v]
        sub_min = INF
        w = row[m]
        if w is not None:
            count += 1
            total = acc + w
            lhs, rhs = total * best_len, best_s * L
            if lhs < rhs:
                best_s, best_len = total, L
                attaining = [tuple(path)]
                attaining_count = 1
            elif lhs == rhs or (
                not exact and abs(total / L - best_s / best_len) <= tol_band
            ):
                attaining_count += 1
                if len(attaining) < ATTAINING_CAP:
                    attaining.append(tuple(path))
            sub_min = total + L * a_grid
            if sub_min == 0 if exact else abs(sub_min) <= tol_band:
                zeros += 1
                zero_e.add((v, m))
        for i, nxt in enumerate(rest):
            w = row[nxt]
            if w is None:
                continue
            path.append(nxt)
            z = zeros
            red = visit(nxt, acc + w, L + 1, rest[:i] + rest[i + 1 :])
            path.pop()
            if red < sub_min:
                sub_min = red
            if zeros != z:
                zero_e.add((v, nxt))
        if sub_min < vmin[v]:
            vmin[v] = sub_min
        if zeros != zeros_before:
            zero_v.add(v)
        return sub_min

    for m in range(n):
        path = [m]
        visit(m, 0, 1, tuple(range(m + 1, n)))
    if count == 0:
        raise SizeGuardError("instance has no cycle")
    (min_mean,) = from_grid(mode, (best_s,), best_len * D)
    if alpha0 is None:  # the zero structure is relative to alpha0
        zero_v, zero_e, vmin = set(), set(), [INF] * n
    return CycleScan(
        min_mean=min_mean,
        attaining=tuple(attaining),
        attaining_count=attaining_count,
        cycle_count=count,
        zero_vertices=tuple(sorted(zero_v)),
        zero_edges=tuple(sorted(zero_e)),
        vertex_min_reduced=from_grid(mode, vmin, D),
    )


def enum_cycles(inst: CostInstance) -> CycleScan:
    """Minimum simple-cycle mean with the attaining cycles (capped list)."""
    return cycle_scan(inst, alpha0=None)


def enum_zero_cycles(inst: CostInstance, crit: CriticalData) -> AubryData:
    """Reference Aubry data: vertices and edges on zero-reduced simple
    cycles; jumps are the per-vertex minimum reduced cycle weight."""
    scan = cycle_scan(inst, alpha0=crit.alpha0)
    return AubryData(
        vertices=scan.zero_vertices,
        edges=scan.zero_edges,
        jumps=ValueFunction(scan.vertex_min_reduced, tag="F_oracle"),
    )


def enum_walks(inst: CostInstance, x: int, y: int, n: int) -> Value:
    """n-step chain cost by bare recursive enumeration (small sizes only)."""
    _guard(inst.n, WALK_GUARD, "walk enumeration")
    _guard(n, WALK_GUARD, "walk enumeration length")
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


# ---------------------------------------------------------------------------
# liminf of reduced powers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiminfReport:
    matrix: Matrix
    stabilized: bool
    transient: int = 0
    period: int = 0
    powers_used: int = 0


def liminf_barrier_bounded(inst: CostInstance, crit: CriticalData, N: int) -> LiminfReport:
    """Tail-minimum of reduced powers, with explicit stabilization.

    The reduced matrix powers R^k, taken on the kernel's integer grid,
    become eventually periodic; once a repeat R^(t) = R^(t+p) is seen, the
    limiting tail minimum is the entrywise min over one full period, which
    is exactly the barrier.  Without a repeat within N powers the report is
    flagged unstabilized and carries the minimum over the last window.
    """
    if N < 2:
        raise SizeGuardError("need N >= 2")
    inst.require_total("liminf oracle")
    mode = inst.mode
    scale = inst.value_scale()
    red = crit.kernel

    def window_min(window: list[Matrix]) -> Matrix:
        return tuple(
            from_grid(mode, map(min, zip(*(w[i] for w in window))), crit.scale)
            for i in range(inst.n)
        )

    powers: list[Matrix] = [red]
    for k in range(1, N):
        nxt = minplus_product(powers[-1], red)
        for t, old in enumerate(powers):
            same = all(
                mode.eq(a, b, scale=scale)
                for ra, rb in zip(old, nxt)
                for a, b in zip(ra, rb)
            )
            if same:
                period = (k + 1) - (t + 1)
                return LiminfReport(
                    matrix=window_min(powers[t : t + period]),
                    stabilized=True,
                    transient=t + 1,
                    period=period,
                    powers_used=k + 1,
                )
        powers.append(nxt)
    window = powers[max(0, len(powers) - inst.n) :]
    return LiminfReport(matrix=window_min(window), stabilized=False, powers_used=len(powers))


# ---------------------------------------------------------------------------
# chain-based Aubry sets
# ---------------------------------------------------------------------------

def tight_graph(inst: CostInstance, crit: CriticalData, u: ValueFunction) -> list[list[int]]:
    """Adjacency of the edges where domination is tight for u."""
    mode = inst.mode
    scale = inst.value_scale()
    D, g, c = grid_operands(inst, u, crit.scale)
    (a0,) = to_grid(mode, (crit.alpha0,), D)
    adj: list[list[int]] = [[] for _ in range(inst.n)]
    for a in range(inst.n):
        for b in range(inst.n):
            r = c[a][b]
            if is_inf(r):
                continue
            if mode.eq(g[b] - g[a], r + a0, scale=scale):
                adj[a].append(b)
    return adj


def aubry_chain_sets(
    inst: CostInstance, crit: CriticalData, u: ValueFunction
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Aubry vertex and edge sets of u via bi-infinite calibrated chains.

    A calibrated chain is a path in the tight graph; a bi-infinite one
    through a point (or edge) exists iff the point is reachable from a tight
    cycle and reaches a tight cycle.
    """
    if not is_dominated(inst, u, crit.alpha0).ok:
        raise InputError("chain oracle needs a dominated function")
    n = inst.n
    adj = tight_graph(inst, crit, u)
    radj: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for b in adj[a]:
            radj[b].append(a)
    on_cycle = [False] * n
    for s in range(n):
        seen = [False] * n
        stack = list(adj[s])
        while stack:
            v = stack.pop()
            if v == s:
                on_cycle[s] = True
                break
            if seen[v]:
                continue
            seen[v] = True
            stack.extend(adj[v])
    from_cycle = _reach([v for v in range(n) if on_cycle[v]], adj, n)
    to_cycle = _reach([v for v in range(n) if on_cycle[v]], radj, n)
    vertices = tuple(v for v in range(n) if from_cycle[v] and to_cycle[v])
    edges = []
    for a in range(n):
        for b in adj[a]:
            if from_cycle[a] and to_cycle[b]:
                edges.append((a, b))
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
    barrier rows and the Bellman-Ford sub-solution, plus a constant."""
    rng = Random(seed)
    if phi is None:
        phi = mane_potential(inst, crit)
    if bar is None:
        bar = peierls_barrier(inst, crit)
    base: list[tuple[Value, ...]] = []
    for x in range(inst.n):
        base.append(phi.entries[x])
        base.append(bar.h.entries[x])
    sol = solve_subsolution(inst, crit.alpha0)
    if sol.feasible and sol.u is not None:
        base.append(sol.u.values)
    out = []
    exact = inst.mode.exact
    if exact:  # base columns on one grid D: integer weights, one division
        D = grid_scale(inst.mode, chain.from_iterable(base))
        cols = list(zip(*(to_grid(inst.mode, b, D) for b in base)))
    for k in range(count):
        raw = [rng.randint(0, 3) for _ in base]
        if sum(raw) == 0:
            raw[rng.randrange(len(raw))] = 1
        total = sum(raw)
        if exact:
            shift = Fraction(rng.randint(-8, 8), 4)
            vals = [Fraction(sum(map(mul, raw, col)), D * total) + shift for col in cols]
        else:
            weights = [r / total for r in raw]
            shift = rng.uniform(-2.0, 2.0)
            vals = [
                sum(w * b[i] for w, b in zip(weights, base)) + shift
                for i in range(inst.n)
            ]
        out.append(ValueFunction(tuple(vals), tag=f"sample[{seed}:{k}]"))
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
    ``core``): the least common multiple of the denominators of the costs,
    alpha0, the samples and the barrier under test.  ``c``, ``r``, ``p``
    and ``h`` are the cost, reduced, Mane potential and barrier matrices
    times D, ``a`` is alpha0 times D and ``grid_samples`` the samples times
    D.  Float mode has D = 1, so both modes run the same checks.
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
        self.mode = mode = inst.mode
        self.scale = inst.value_scale()
        self.crit = critical_value(inst)
        self.phi1 = phi_n(inst, self.crit, 1)
        self.phi = mane_potential(inst, self.crit)
        self.F = jump_F(inst, self.crit, phi=self.phi)
        self.f = jump_f(inst, self.crit, phi=self.phi)
        self.bar = peierls_barrier(inst, self.crit)
        self.aub = aubry(inst, self.crit, self.bar, phi=self.phi)
        self.scan = cycle_scan(inst, alpha0=self.crit.alpha0)
        self.samples = subsolution_sampler(
            inst, self.crit, seed, samples, phi=self.phi, bar=self.bar
        )
        self.horizon = horizon or 4 * inst.n * inst.n + 8
        self.rng = Random(seed + 1)
        claimed = self.bar.h.entries
        if barrier_override is not None:
            claimed = tuple(tuple(mode.coerce(v) for v in row) for row in barrier_override)
        values = chain(chain.from_iterable(u.values for u in self.samples), *claimed)
        self.D = D = grid_scale(mode, values, self.crit.scale)
        (self.a,) = to_grid(mode, (self.crit.alpha0,), D)
        self.c = inst.cost_at(D)
        self.r = self.crit.kernel_at(D)
        self.p = self.grid(self.phi.entries)
        self.h = self.grid(self.bar.h.entries)
        self.h_claimed = self.grid(claimed)
        self.grid_samples = [to_grid(mode, u.values, D) for u in self.samples]
        self._raw_powers: dict[int, Matrix] = {1: self.c}
        self._phi_tables: dict[int, Matrix] = {1: self.grid(self.phi1.entries)}
        self._max_strict: Optional[ValueFunction] = None

    def grid(self, m: Matrix) -> Matrix:
        """A matrix whose denominators divide D, times D."""
        return tuple(to_grid(self.mode, row, self.D) for row in m)

    def raw_power(self, k: int) -> Matrix:
        """c^k times D."""
        m = max(self._raw_powers)
        while m < k:
            self._raw_powers[m + 1] = minplus_product(self._raw_powers[m], self.c)
            m += 1
        return self._raw_powers[k]

    def phi_table(self, k: int) -> Matrix:
        """phi_k times D."""
        m = max(self._phi_tables)
        while m < k:
            self._phi_tables[m + 1] = minplus_product(self._phi_tables[m], self.r)
            m += 1
        return self._phi_tables[k]

    def max_strict(self) -> ValueFunction:
        if self._max_strict is None:
            self._max_strict = max_strict_subsolution(self.inst, self.crit)
        return self._max_strict


def verify_all(
    inst: CostInstance,
    seed: int = 0,
    samples: int = 20,
    horizon: Optional[int] = None,
    barrier_override: Optional[Matrix] = None,
) -> OracleReport:
    """Run every structural identity against one instance.

    ``barrier_override`` substitutes a foreign matrix for the computed
    barrier in the barrier-identity checks (negative-control hook: a
    corrupted matrix must fail with a witness).
    """
    _guard(inst.n, CYCLE_GUARD, "verify_all")
    inst.require_total("verify_all")
    ws = _Workspace(inst, seed, samples, horizon, barrier_override)
    checks: list[CheckResult] = []
    run = checks.append

    run(_check_semigroup_law(ws))
    run(_check_monotonicity(ws))
    run(_check_constant_commutation(ws))
    run(_check_reversal(ws))

    run(_check_alpha0_vs_cycles(ws))
    run(_check_witness_cycle(ws))
    run(_check_alpha0_lower_bound(ws))
    run(_check_T_preserves_domination(ws))
    run(_check_convexity(ws))
    run(_check_subsolution_feasibility(ws))

    run(_check_potential_axioms(ws))
    run(_check_sup_representation(ws))
    run(_check_phi_vs_phi1(ws))
    run(_check_phi_recursion(ws))
    run(_check_vanish(ws))
    run(_check_iterated_vanish(ws))
    run(_check_rows_cols_dominated(ws))
    run(_check_jumps(ws))

    run(_check_barrier_fixed_points(ws))
    run(_check_barrier_vs_liminf(ws))
    run(_check_barrier_closed_form(ws, ws.h_claimed))
    run(_check_barrier_triangle(ws, ws.h_claimed))
    run(_check_hh_suite(ws, ws.h_claimed))
    run(_check_min_formula(ws))
    run(_check_representation(ws))
    run(_check_u_limits_extremal(ws))
    run(_check_phi_orbit_identity(ws))
    run(_check_conjugation(ws))
    run(_check_lemma_quadruple(ws))
    run(_check_aubry_invariance(ws))
    run(_check_aubry_four_way(ws))

    run(_check_strict_dichotomy(ws))
    run(_check_tightness_propagates(ws))
    run(_check_convex_calibration(ws))
    run(_check_in_between(ws))
    run(_check_strict_pattern(ws))
    run(_check_max_strict_pattern(ws))

    if inst.metric is not None:
        run(_check_lipschitz(ws))
        run(_check_apriori(ws))

    summary = (
        f"n={inst.n} mode={inst.mode.kind} total={inst.total} "
        f"alpha0={ws.crit.alpha0} aubry={[inst.labels[v] for v in ws.aub.vertices]}"
    )
    return OracleReport(summary=summary, checks=tuple(checks))


# --- tropical ---------------------------------------------------------------

def _check_semigroup_law(ws: _Workspace) -> CheckResult:
    name = "tropical.semigroup_law"
    inst = ws.inst
    top = 5 if inst.n <= 8 else 3
    for a in range(1, top + 1):
        for b in range(1, top + 1):
            lhs = ws.raw_power(a + b)
            rhs = minplus_product(ws.raw_power(a), ws.raw_power(b))
            for i in range(inst.n):
                for j in range(inst.n):
                    if not ws.mode.eq(lhs[i][j], rhs[i][j], scale=ws.scale):
                        return CheckResult(name, False, f"n={a} m={b} at ({i},{j})")
    return CheckResult(name, True)


def _check_monotonicity(ws: _Workspace) -> CheckResult:
    name = "tropical.monotonicity"
    inst = ws.inst
    for u in ws.samples[:5]:
        bump = [abs(ws.rng.randint(0, 4)) for _ in range(inst.n)]
        if inst.mode.exact:
            v = ValueFunction(tuple(a + Fraction(d, 2) for a, d in zip(u.values, bump)))
        else:
            v = ValueFunction(tuple(a + d / 2 for a, d in zip(u.values, bump)))
        tu = lax_oleinik_neg(inst, u)
        tv = lax_oleinik_neg(inst, v)
        if not vf_le(ws.mode, tu.values, tv.values, scale=ws.scale):
            return CheckResult(name, False, f"sample {u.tag}")
    return CheckResult(name, True)


def _check_constant_commutation(ws: _Workspace) -> CheckResult:
    name = "tropical.constant_commutation"
    inst = ws.inst
    k = Fraction(7, 4) if inst.mode.exact else 1.75
    for u in ws.samples[:5]:
        shifted = ValueFunction(tuple(v + k for v in u.values))
        lhs = lax_oleinik_neg(inst, shifted).values
        rhs = tuple(v + k for v in lax_oleinik_neg(inst, u).values)
        if not vf_eq(ws.mode, lhs, rhs, scale=ws.scale):
            return CheckResult(name, False, f"sample {u.tag}")
    return CheckResult(name, True)


def _check_reversal(ws: _Workspace) -> CheckResult:
    name = "tropical.reversal_identity"
    inst = ws.inst
    rev = reverse_cost(inst)
    for u in ws.samples[:5]:
        direct = lax_oleinik_pos(inst, u).values
        neg_u = ValueFunction(tuple(-v for v in u.values))
        via_reversal = tuple(-v for v in lax_oleinik_neg(rev, neg_u).values)
        if not vf_eq(ws.mode, direct, via_reversal, scale=ws.scale):
            return CheckResult(name, False, f"sample {u.tag}")
    return CheckResult(name, True)


# --- critical ----------------------------------------------------------------

def _check_alpha0_vs_cycles(ws: _Workspace) -> CheckResult:
    name = "critical.alpha0_vs_cycle_oracle"
    ok = ws.mode.eq(ws.crit.alpha0, -ws.scan.min_mean, scale=ws.scale)
    return CheckResult(name, ok, "" if ok else f"{ws.crit.alpha0} vs {-ws.scan.min_mean}")


def _check_witness_cycle(ws: _Workspace) -> CheckResult:
    name = "critical.witness_cycle_mean"
    cyc = ws.crit.witness_cycle
    total = ws.inst.mode.coerce(0)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        total = total + ws.inst.cost[a][b]
    mean = total / len(cyc)
    ok = ws.mode.eq(mean, -ws.crit.alpha0, scale=ws.scale)
    return CheckResult(name, ok, "" if ok else f"cycle {cyc} mean {mean}")


def _check_alpha0_lower_bound(ws: _Workspace) -> CheckResult:
    name = "critical.alpha0_lower_bound"
    inst = ws.inst
    bound = max(-inst.cost[x][x] for x in range(inst.n) if not is_inf(inst.cost[x][x]))
    ok = ws.mode.le(bound, ws.crit.alpha0, scale=ws.scale)
    return CheckResult(name, ok, "" if ok else f"alpha0 {ws.crit.alpha0} < {bound}")


def _check_T_preserves_domination(ws: _Workspace) -> CheckResult:
    name = "critical.T_preserves_domination"
    inst = ws.inst
    for u in ws.samples:
        if not is_dominated(inst, u, ws.crit.alpha0).ok:
            return CheckResult(name, False, f"sampler produced non-dominated {u.tag}")
        img = lax_oleinik_neg(inst, u)
        shifted = ValueFunction(tuple(v + ws.crit.alpha0 for v in img.values))
        res = is_dominated(inst, shifted, ws.crit.alpha0)
        if not res.ok:
            return CheckResult(name, False, f"{u.tag} -> pair {res.witness}")
    return CheckResult(name, True)


def _check_convexity(ws: _Workspace) -> CheckResult:
    name = "critical.dominated_set_convex"
    inst = ws.inst
    pairs = list(zip(ws.samples, ws.samples[1:]))[:10]
    for u, v in pairs:
        if inst.mode.exact:
            t = Fraction(ws.rng.randint(1, 7), 8)
            one = Fraction(1)
        else:
            t = ws.rng.uniform(0.1, 0.9)
            one = 1.0
        mix = ValueFunction(
            tuple(t * a + (one - t) * b for a, b in zip(u.values, v.values))
        )
        res = is_dominated(inst, mix, ws.crit.alpha0)
        if not res.ok:
            return CheckResult(name, False, f"{u.tag}+{v.tag} pair {res.witness}")
    return CheckResult(name, True)


def _check_subsolution_feasibility(ws: _Workspace) -> CheckResult:
    name = "critical.subsolution_feasibility"
    inst = ws.inst
    at = solve_subsolution(inst, ws.crit.alpha0)
    if not at.feasible or not is_dominated(inst, at.u, ws.crit.alpha0).ok:
        return CheckResult(name, False, "infeasible at alpha0")
    one = Fraction(1) if inst.mode.exact else 1.0
    below = solve_subsolution(inst, ws.crit.alpha0 - one)
    if below.feasible:
        return CheckResult(name, False, "feasible below alpha0")
    cyc = below.negative_cycle
    total = sum(
        inst.cost[a][b] + ws.crit.alpha0 - one
        for a, b in zip(cyc, cyc[1:] + cyc[:1])
    )
    if not ws.mode.lt(total, 0, scale=ws.scale):
        return CheckResult(name, False, f"witness cycle {cyc} not negative: {total}")
    return CheckResult(name, True)


# --- potential ---------------------------------------------------------------

def _check_potential_axioms(ws: _Workspace) -> CheckResult:
    name = "potential.axioms"
    inst = ws.inst
    p = ws.p
    for x in range(inst.n):
        if not ws.mode.is_zero(p[x][x], scale=ws.scale):
            return CheckResult(name, False, f"diagonal at {x}")
        for y in range(inst.n):
            if not ws.mode.le(p[x][y], ws.c[x][y] + ws.a, scale=ws.scale):
                return CheckResult(name, False, f"upper bound at ({x},{y})")
    for x in range(inst.n):
        for y in range(inst.n):
            for z in range(inst.n):
                if not ws.mode.le(p[x][z], p[x][y] + p[y][z], scale=ws.scale):
                    return CheckResult(name, False, f"triangle at ({x},{y},{z})")
    return CheckResult(name, True)


def _check_sup_representation(ws: _Workspace) -> CheckResult:
    name = "potential.sup_representation"
    inst = ws.inst
    p = ws.p
    for u, g in zip(ws.samples, ws.grid_samples):
        for x in range(inst.n):
            for y in range(inst.n):
                if not ws.mode.le(g[y] - g[x], p[x][y], scale=ws.scale):
                    return CheckResult(name, False, f"{u.tag} at ({x},{y})")
    # any function below the potential in increments is dominated
    for _ in range(5):
        if inst.mode.exact:
            r = [Fraction(ws.rng.randint(-8, 8), 4) for _ in range(inst.n)]
        else:
            r = [ws.rng.uniform(-2, 2) for _ in range(inst.n)]
        v = ValueFunction(
            tuple(
                min(r[x] + ws.phi.entries[x][y] for x in range(inst.n)) for y in range(inst.n)
            )
        )
        res = is_dominated(inst, v, ws.crit.alpha0)
        if not res.ok:
            return CheckResult(name, False, f"phi-envelope not dominated at {res.witness}")
    return CheckResult(name, True)


def _check_phi_vs_phi1(ws: _Workspace) -> CheckResult:
    name = "potential.phi_matches_phi1"
    inst = ws.inst
    for x in range(inst.n):
        for y in range(inst.n):
            if x == y:
                if ws.mode.lt(ws.phi1.entries[x][x], 0, scale=ws.scale):
                    return CheckResult(name, False, f"phi1 diag negative at {x}")
            elif not ws.mode.eq(ws.phi.entries[x][y], ws.phi1.entries[x][y], scale=ws.scale):
                return CheckResult(name, False, f"off-diagonal at ({x},{y})")
    return CheckResult(name, True)


def _check_phi_recursion(ws: _Workspace) -> CheckResult:
    name = "potential.tail_recursion"
    inst = ws.inst
    for k in range(1, 4):
        cur = ws.phi_table(k)
        nxt = ws.phi_table(k + 1)
        for x in range(inst.n):
            row = tuple(
                min(cur[x][z] + ws.c[z][y] for z in range(inst.n)) + ws.a
                for y in range(inst.n)
            )
            if not vf_eq(ws.mode, row, nxt[x], scale=ws.scale):
                return CheckResult(name, False, f"order {k} row {x}")
    return CheckResult(name, True)


def _check_vanish(ws: _Workspace) -> CheckResult:
    name = "potential.forward_vanish"
    inst = ws.inst
    for x in range(inst.n):
        row = ValueFunction(ws.phi1.entries[x])
        val = lax_oleinik_pos(inst, row).values[x] - ws.crit.alpha0
        if not ws.mode.is_zero(val, scale=ws.scale):
            return CheckResult(name, False, f"x={x} value {val}")
    return CheckResult(name, True)


def _check_iterated_vanish(ws: _Workspace) -> CheckResult:
    name = "potential.iterated_forward_vanish"
    inst = ws.inst
    for x in range(inst.n):
        for start in (ws.phi1.entries[x], ws.phi.entries[x]):
            cur = ValueFunction(start)
            for m in range(1, 6):
                cur = ValueFunction(
                    tuple(v - ws.crit.alpha0 for v in lax_oleinik_pos(inst, cur).values)
                )
                if not ws.mode.is_zero(cur.values[x], scale=ws.scale):
                    return CheckResult(name, False, f"x={x} m={m}")
    return CheckResult(name, True)


def _check_rows_cols_dominated(ws: _Workspace) -> CheckResult:
    name = "potential.rows_and_columns_dominated"
    inst = ws.inst
    for x in range(inst.n):
        row = ValueFunction(ws.phi.entries[x])
        if not is_dominated(inst, row, ws.crit.alpha0).ok:
            return CheckResult(name, False, f"row {x}")
        col = ValueFunction(tuple(-v for v in ws.phi.col(x)))
        if not is_dominated(inst, col, ws.crit.alpha0).ok:
            return CheckResult(name, False, f"column {x}")
    return CheckResult(name, True)


def _check_jumps(ws: _Workspace) -> CheckResult:
    name = "potential.jump_signs_and_reversal"
    inst = ws.inst
    for x in range(inst.n):
        if ws.mode.lt(ws.F.values[x], 0, scale=ws.scale):
            return CheckResult(name, False, f"F({x}) < 0")
        if ws.mode.lt(0, ws.f.values[x], scale=ws.scale):
            return CheckResult(name, False, f"f({x}) > 0")
    rev = reverse_cost(inst)
    rcrit = critical_value(rev)
    rF = jump_F(rev, rcrit)
    flipped = tuple(-v for v in rF.values)
    if not vf_eq(ws.mode, ws.f.values, flipped, scale=ws.scale):
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
    h = ws.bar.h.entries
    for i in range(ws.inst.n):
        for j in range(ws.inst.n):
            if not ws.mode.eq(h[i][j], rep.matrix[i][j], scale=ws.scale):
                return CheckResult(name, False, f"at ({i},{j})")
    return CheckResult(name, True)


def _check_barrier_closed_form(ws: _Workspace, h: Matrix) -> CheckResult:
    # h comes from the Aubry closed form; the tail recursion checks it on its
    # own: h = phi_{1+k} for the reported transient k, and phi_k != h.
    name = "barrier.closed_form_via_aubry"
    k = ws.bar.iterations_to_fix
    for x, (row, hrow) in enumerate(zip(ws.phi_table(1 + k), h)):
        if not vf_eq(ws.mode, row, hrow, scale=ws.scale):
            return CheckResult(name, False, f"row {x} differs from phi_{1 + k}")
    if k >= 1 and all(
        vf_eq(ws.mode, row, hrow, scale=ws.scale) for row, hrow in zip(ws.phi_table(k), h)
    ):
        return CheckResult(name, False, f"phi_{k} already equals h: transient {k} is not least")
    return CheckResult(name, True)


def _check_barrier_triangle(ws: _Workspace, h: Matrix) -> CheckResult:
    name = "barrier.triangle_and_floor"
    inst = ws.inst
    for x in range(inst.n):
        for y in range(inst.n):
            if not ws.mode.le(ws.p[x][y], h[x][y], scale=ws.scale):
                return CheckResult(name, False, f"h < phi at ({x},{y})")
            for z in range(inst.n):
                if not ws.mode.le(h[x][z], h[x][y] + h[y][z], scale=ws.scale):
                    return CheckResult(name, False, f"triangle at ({x},{y},{z})")
    return CheckResult(name, True)


def _check_hh_suite(ws: _Workspace, h: Matrix) -> CheckResult:
    name = "barrier.chain_splitting_suite"
    inst = ws.inst
    rng = range(inst.n)
    for m in range(1, 5):
        cm = ws.raw_power(m)
        shift = m * ws.a
        for n_ in range(1, 5):
            pn = ws.phi_table(n_)
            pnm = ws.phi_table(n_ + m)
            for x in rng:
                for y in rng:
                    for z in rng:
                        if not ws.mode.le(
                            pnm[x][z], pn[x][y] + cm[y][z] + shift, scale=ws.scale
                        ):
                            return CheckResult(name, False, f"phi split n={n_} m={m} ({x},{y},{z})")
        for x in rng:
            for y in rng:
                for z in rng:
                    if not ws.mode.le(h[x][z], h[x][y] + cm[y][z] + shift, scale=ws.scale):
                        return CheckResult(name, False, f"h right split m={m} ({x},{y},{z})")
                    if not ws.mode.le(h[x][z], cm[x][y] + shift + h[y][z], scale=ws.scale):
                        return CheckResult(name, False, f"h left split m={m} ({x},{y},{z})")
    for m in range(1, 5):
        pm = ws.phi_table(m)
        for l in range(1, 5):
            pl = ws.phi_table(l)
            for n_ in range(1, min(4, l + m) + 1):
                pn = ws.phi_table(n_)
                for x in rng:
                    for y in rng:
                        for z in rng:
                            if not ws.mode.le(pn[x][z], pm[x][y] + pl[y][z], scale=ws.scale):
                                return CheckResult(
                                    name, False, f"phi-phi n={n_} m={m} l={l} ({x},{y},{z})"
                                )
    for n_ in range(1, 5):
        pn = ws.phi_table(n_)
        for x in rng:
            for y in rng:
                for z in rng:
                    if not ws.mode.le(h[x][z], h[x][y] + pn[y][z], scale=ws.scale):
                        return CheckResult(name, False, f"h-phi n={n_} ({x},{y},{z})")
    return CheckResult(name, True)


def _check_min_formula(ws: _Workspace) -> CheckResult:
    name = "barrier.min_formula"
    for n_ in range(1, 4):
        if not min_formula_check(ws.inst, ws.crit, ws.bar, n_):
            return CheckResult(name, False, f"n={n_}")
    return CheckResult(name, True)


def _check_representation(ws: _Workspace) -> CheckResult:
    name = "barrier.orbit_representation"
    inst = ws.inst
    for u in ws.samples[:10]:
        rep = representation_check(inst, ws.crit, u, 6, bar=ws.bar)
        if not rep.ok:
            return CheckResult(name, False, f"S > h for {u.tag}")
    N = max(1, ws.bar.iterations_to_fix)
    for x in range(inst.n):
        rep = representation_check(
            inst, ws.crit, ValueFunction(ws.phi1.entries[x]), N, bar=ws.bar
        )
        if not rep.ok:
            return CheckResult(name, False, f"S > h for phi1 row {x}")
        row = rep.matrix[x]
        if not vf_eq(ws.mode, row, ws.bar.h.entries[x], scale=ws.scale):
            return CheckResult(name, False, f"no attainment in row {x}")
    return CheckResult(name, True)


def _check_u_limits_extremal(ws: _Workspace) -> CheckResult:
    name = "barrier.limits_are_extremal"
    inst = ws.inst
    h = ws.h
    rng = range(inst.n)
    for u, g in zip(ws.samples[:10], ws.grid_samples):
        um = u_minus(inst, ws.crit, u)
        umg = to_grid(ws.mode, um.values, ws.D)
        if not vf_le(ws.mode, g, umg, scale=ws.scale):
            return CheckResult(name, False, f"u_minus below u for {u.tag}")
        if not is_weak_kam(inst, ws.crit, um, "negative"):
            return CheckResult(name, False, f"u_minus not a solution for {u.tag}")
        envelope = tuple(
            min(h[x][y] + max(g[t] - h[x][t] for t in rng) for x in rng) for y in rng
        )
        if not vf_eq(ws.mode, umg, envelope, scale=ws.scale):
            return CheckResult(name, False, f"u_minus not least solution above {u.tag}")
        up = u_plus(inst, ws.crit, u)
        upg = to_grid(ws.mode, up.values, ws.D)
        if not vf_le(ws.mode, upg, g, scale=ws.scale):
            return CheckResult(name, False, f"u_plus above u for {u.tag}")
        if not is_weak_kam(inst, ws.crit, up, "positive"):
            return CheckResult(name, False, f"u_plus not a solution for {u.tag}")
        envelope_p = tuple(
            max(-h[t][x] + min(g[s] + h[s][x] for s in rng) for x in rng) for t in rng
        )
        if not vf_eq(ws.mode, upg, envelope_p, scale=ws.scale):
            return CheckResult(name, False, f"u_plus not greatest solution below {u.tag}")
    return CheckResult(name, True)


def _check_phi_orbit_identity(ws: _Workspace) -> CheckResult:
    name = "barrier.potential_orbit_identity"
    inst = ws.inst
    for x in range(inst.n):
        cur = ws.p[x]
        for k in range(1, 5):
            cur = tuple(
                min(cur[z] + ws.c[z][y] for z in range(inst.n)) + ws.a
                for y in range(inst.n)
            )
            if not vf_eq(ws.mode, cur, ws.phi_table(k)[x], scale=ws.scale):
                return CheckResult(name, False, f"row {x} order {k}")
    return CheckResult(name, True)


def _check_conjugation(ws: _Workspace) -> CheckResult:
    name = "barrier.conjugation_idempotent"
    for u in ws.samples[:10]:
        rep = conjugate_check(ws.inst, ws.crit, u)
        if not rep.ok:
            return CheckResult(name, False, f"{u.tag}")
    # the pointwise min of negative solutions is again one
    rows = [weak_kam_neg(ws.bar, x) for x in range(ws.inst.n)]
    try:
        inf_solutions(ws.inst, ws.crit, rows)
    except Exception as exc:  # pragma: no cover - witness path
        return CheckResult(name, False, f"inf of solutions: {exc}")
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
        img = lax_oleinik_neg(inst, u)
        tu = ValueFunction(tuple(v + ws.crit.alpha0 for v in img.values))
        if aubry_of(inst, ws.crit, u) != aubry_of(inst, ws.crit, tu):
            return CheckResult(name, False, f"{u.tag}")
    return CheckResult(name, True)


def _check_aubry_four_way(ws: _Workspace) -> CheckResult:
    name = "barrier.aubry_four_way_equality"
    inst = ws.inst
    h = ws.bar.h.entries
    by_h = tuple(x for x in range(inst.n) if ws.mode.is_zero(h[x][x], scale=ws.scale))
    by_F = tuple(
        x for x in range(inst.n) if ws.mode.is_zero(ws.F.values[x], scale=ws.scale)
    )
    by_kam = tuple(
        x
        for x in range(inst.n)
        if is_weak_kam(inst, ws.crit, ValueFunction(ws.phi.entries[x]), "negative")
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
    if not is_dominated(inst, u1, ws.crit.alpha0).ok:
        return CheckResult(name, False, "constructed function not dominated")
    backward = lax_oleinik_neg(inst, u1).values
    forward = lax_oleinik_pos(inst, u1).values
    for x in range(inst.n):
        if x in ws.aub.vertices:
            continue
        tneg = backward[x] + ws.crit.alpha0
        tpos = forward[x] - ws.crit.alpha0
        if not ws.mode.lt(u1.values[x], tneg, scale=ws.scale):
            return CheckResult(name, False, f"backward slack missing at {x}")
        if not ws.mode.lt(tpos, u1.values[x], scale=ws.scale):
            return CheckResult(name, False, f"forward slack missing at {x}")
    return CheckResult(name, True)


def _check_tightness_propagates(ws: _Workspace) -> CheckResult:
    name = "subsolution.tight_pair_forces_fixed_point"
    inst = ws.inst
    for u, g in zip(ws.samples[:10], ws.grid_samples):
        timg = to_grid(ws.mode, lax_oleinik_neg(inst, u).values, ws.D)
        for x in range(inst.n):
            for y in range(inst.n):
                tight = ws.mode.eq(g[x] - g[y], ws.c[y][x] + ws.a, scale=ws.scale)
                if tight and not ws.mode.eq(g[x], timg[x] + ws.a, scale=ws.scale):
                    return CheckResult(name, False, f"{u.tag} at ({y},{x})")
    return CheckResult(name, True)


def _check_convex_calibration(ws: _Workspace) -> CheckResult:
    name = "subsolution.mix_calibrates_iff_all_do"
    inst = ws.inst
    crit = ws.crit
    for u, v in list(zip(ws.samples, ws.samples[1:]))[:6]:
        if inst.mode.exact:
            t = Fraction(ws.rng.randint(1, 3), 4)
            one = Fraction(1)
        else:
            t = ws.rng.uniform(0.25, 0.75)
            one = 1.0
        mix = ValueFunction(
            tuple(t * a + (one - t) * b for a, b in zip(u.values, v.values))
        )
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
    name = "subsolution.in_between"
    inst = ws.inst
    for u in ws.samples[:8]:
        upper = tuple(
            v + ws.crit.alpha0 for v in lax_oleinik_neg(inst, u).values
        )
        lower = tuple(
            v - ws.crit.alpha0 for v in lax_oleinik_pos(inst, u).values
        )
        if inst.mode.exact:
            ts = [Fraction(ws.rng.randint(0, 4), 4) for _ in range(inst.n)]
        else:
            ts = [ws.rng.uniform(0, 1) for _ in range(inst.n)]
        mid_up = ValueFunction(
            tuple(a + t * (b - a) for a, b, t in zip(u.values, upper, ts))
        )
        if not is_dominated(inst, mid_up, ws.crit.alpha0).ok:
            return CheckResult(name, False, f"{u.tag} upper mix")
        mid_dn = ValueFunction(
            tuple(a + t * (b - a) for a, b, t in zip(u.values, lower, ts))
        )
        if not is_dominated(inst, mid_dn, ws.crit.alpha0).ok:
            return CheckResult(name, False, f"{u.tag} lower mix")
    return CheckResult(name, True)


def _check_strict_pattern(ws: _Workspace) -> CheckResult:
    name = "subsolution.strict_exactly_off_aubry_edges"
    inst = ws.inst
    for u in ws.samples[:6]:
        u2 = strict_subsolution(inst, ws.crit, u)
        if not is_dominated(inst, u2, ws.crit.alpha0).ok:
            return CheckResult(name, False, f"{u.tag}: not dominated")
        verts, edges = aubry_chain_sets(inst, ws.crit, u)
        strict = set(strict_pairs(inst, ws.crit, u2))
        expected_tight = set(edges)
        for x in range(inst.n):
            for y in range(inst.n):
                pair = (x, y)
                if pair in expected_tight and pair in strict:
                    return CheckResult(name, False, f"{u.tag}: strict on edge {pair}")
                if pair not in expected_tight and pair not in strict:
                    return CheckResult(name, False, f"{u.tag}: tight off edges {pair}")
        for x in verts:
            if not ws.mode.eq(u2.values[x], u.values[x], scale=ws.scale):
                return CheckResult(name, False, f"{u.tag}: changed on Aubry point {x}")
    return CheckResult(name, True)


def _check_max_strict_pattern(ws: _Workspace) -> CheckResult:
    name = "subsolution.max_strict_pattern"
    inst = ws.inst
    u1 = ws.max_strict()
    strict = set(strict_pairs(inst, ws.crit, u1))
    zero_edges = set(ws.scan.zero_edges)
    for x in range(inst.n):
        for y in range(inst.n):
            pair = (x, y)
            if pair in zero_edges and pair in strict:
                return CheckResult(name, False, f"strict on global edge {pair}")
            if pair not in zero_edges and pair not in strict:
                return CheckResult(name, False, f"not strict off edges at {pair}")
    return CheckResult(name, True)


# --- models ------------------------------------------------------------------

def _metric_B_K(inst: CostInstance) -> tuple[Value, Value]:
    diam = max(
        inst.metric[x][y] for x in range(inst.n) for y in range(inst.n)
    )
    one = Fraction(1) if inst.mode.exact else 1.0
    return one, diam if diam > 0 else one


def _check_lipschitz(ws: _Workspace) -> CheckResult:
    name = "models.lipschitz_in_the_large"
    inst = ws.inst
    B, K = _metric_B_K(inst)
    k, b = lipschitz_constants(inst, ws.crit.alpha0, B, K)
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
        res = check_apriori(inst, u, ws.crit.alpha0, B, K)
        if not res.ok:
            return CheckResult(name, False, f"{u.tag} at {res.witness} (D={res.radius})")
    return CheckResult(name, True)
