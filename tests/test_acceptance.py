"""Acceptance gate: the ten exit criteria, one pass/fail line each.

Corpus: 200 seeded random instances (point counts cycling 1..8, rational
costs on the quarter grid), all in exact mode, plus circle-model instances
for the metric criteria.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

from fractions import Fraction as F
from functools import cached_property

import pytest

from wkam import (
    ValueFunction,
    aubry,
    check_apriori,
    critical_value,
    gen_fk,
    is_dominated,
    is_weak_kam,
    jump_F,
    lax_oleinik_neg,
    lax_oleinik_pos,
    lipschitz_constants,
    lipschitz_large_check,
    peierls_barrier,
    phi_n,
    solve_subsolution,
    strict_pairs,
    strict_subsolution,
    u_minus,
    u_plus,
    weak_kam_neg,
)
from wkam.core import minplus_product
from wkam.models import circle_metric, fk_potential_well, gen_random
from wkam.oracle import (
    aubry_chain_sets,
    cycle_scan,
    liminf_barrier_bounded,
    subsolution_sampler,
)
from wkam.potential import mane_potential
from wkam.subsolution import max_strict_subsolution

from conftest import orbit
from cycle_reference import iter_simple_cycles

N_INSTANCES = 200


class Bundle:
    """Per-instance cache so the criteria share all heavy computations."""

    def __init__(self, seed: int):
        self.seed = seed
        self.inst = gen_random((seed % 8) + 1, seed, -2, 2)
        self._phi_tables = {}
        self._raw_powers = {}
        self._samples = {}

    @cached_property
    def crit(self):
        return critical_value(self.inst)

    @cached_property
    def scan(self):
        return cycle_scan(self.inst)

    @cached_property
    def phi(self):
        return mane_potential(self.inst, self.crit)

    @cached_property
    def phi1(self):
        return phi_n(self.inst, self.crit, 1)

    @cached_property
    def F(self):
        return jump_F(self.inst, self.crit)

    @cached_property
    def bar(self):
        return peierls_barrier(self.inst, self.crit)

    @cached_property
    def aub(self):
        return aubry(self.inst, self.crit, self.bar)

    def phi_table(self, k: int):
        if 1 not in self._phi_tables:
            self._phi_tables[1] = self.phi1.entries
        top = max(self._phi_tables)
        while top < k:
            self._phi_tables[top + 1] = minplus_product(
                self._phi_tables[top], self.crit.reduced
            )
            top += 1
        return self._phi_tables[k]

    def raw_power(self, k: int):
        if 1 not in self._raw_powers:
            self._raw_powers[1] = self.inst.cost
        top = max(self._raw_powers)
        while top < k:
            self._raw_powers[top + 1] = minplus_product(
                self._raw_powers[top], self.inst.cost
            )
            top += 1
        return self._raw_powers[k]

    def samples(self, count: int):
        have = self._samples.get("list", [])
        if len(have) < count:
            have = subsolution_sampler(
                self.inst, self.crit, self.seed, count, phi=self.phi, bar=self.bar
            )
            self._samples["list"] = have
        return have[:count]


@pytest.fixture(scope="session")
def corpus():
    return [Bundle(seed) for seed in range(N_INSTANCES)]


def report(num, text):
    print(f"[acceptance] criterion {num:>2}: PASS  ({text})")


# --- criterion 1 -----------------------------------------------------------------

def test_criterion_1_critical_value(corpus):
    for b in corpus:
        assert b.crit.alpha0 == -b.scan.min_mean, f"seed {b.seed}"
        at = solve_subsolution(b.inst, b.crit.alpha0)
        assert at.feasible and is_dominated(b.inst, at.u, b.crit.alpha0).ok
        for q in (1, 2, 4):
            below = solve_subsolution(b.inst, b.crit.alpha0 - F(1, q))
            assert not below.feasible, f"seed {b.seed} q={q}"
            cyc = below.negative_cycle
            total = sum(
                b.inst.cost[x][y] + b.crit.alpha0 - F(1, q)
                for x, y in zip(cyc, cyc[1:] + cyc[:1])
            )
            assert total < 0
    report(1, f"alpha0 = -min cycle mean bit-exact on {len(corpus)} instances; "
              "feasible at alpha0, infeasible below")


# --- criterion 2 -----------------------------------------------------------------

def test_criterion_2_potential_axioms(corpus):
    for b in corpus:
        p = b.phi.entries
        n = b.inst.n
        a0 = b.crit.alpha0
        for x in range(n):
            assert p[x][x] == 0, f"seed {b.seed}"
            row = b.inst.cost[x]
            for y in range(n):
                assert p[x][y] <= row[y] + a0, f"seed {b.seed} ({x},{y})"
        for x in range(n):
            px = p[x]
            for y in range(n):
                pxy = px[y]
                py = p[y]
                for z in range(n):
                    assert px[z] <= pxy + py[z], f"seed {b.seed} ({x},{y},{z})"
    report(2, "zero diagonal, reduced-cost bound, triangle inequality, exhaustive")


# --- criterion 3 -----------------------------------------------------------------

def test_criterion_3_sup_representation(corpus):
    small = [b for b in corpus if b.inst.n <= 6]
    for b in small:
        p = b.phi.entries
        n = b.inst.n
        for u in b.samples(100):
            uv = u.values
            for x in range(n):
                ux = uv[x]
                px = p[x]
                for y in range(n):
                    assert uv[y] - ux <= px[y], f"seed {b.seed} {u.tag}"
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                best = max(p[z][y] - p[z][x] for z in range(n))
                assert best == p[x][y], f"seed {b.seed} ({x},{y})"
    report(3, f"100 dominated samples bounded by phi on {len(small)} instances; "
              "attainment by the potential rows themselves")


# --- criterion 4 -----------------------------------------------------------------

def test_criterion_4_barrier(corpus):
    for b in corpus:
        n = b.inst.n
        rep = liminf_barrier_bounded(b.inst, b.crit, 4 * n * n + 8)
        assert rep.stabilized, f"seed {b.seed}"
        h = b.bar.h.entries
        assert rep.matrix == h, f"seed {b.seed}"
        k = b.bar.iterations_to_fix
        assert b.phi_table(1 + k) == h, f"seed {b.seed}"
        if k >= 1:
            assert b.phi_table(k) != h, f"seed {b.seed}"
    report(4, "closed-form barrier equals the liminf oracle and the tail "
              "potential phi_(1+k), k the least such order, entrywise exact")


# --- criterion 5 -----------------------------------------------------------------

def test_criterion_5_aubry_equivalences(corpus):
    for b in corpus:
        n = b.inst.n
        h = b.bar.h.entries
        by_h = tuple(x for x in range(n) if h[x][x] == 0)
        by_F = tuple(x for x in range(n) if b.F.values[x] == 0)
        by_kam = tuple(
            x
            for x in range(n)
            if is_weak_kam(b.inst, b.crit, ValueFunction(b.phi.entries[x]), "negative")
        )
        assert by_h == by_F == by_kam == b.scan.zero_vertices, f"seed {b.seed}"
        assert b.aub.vertices == by_h
        assert tuple(sorted(b.aub.edges)) == b.scan.zero_edges, f"seed {b.seed}"
    report(5, "zero barrier diagonal = zero jump = solution rows = cycle oracle, "
              "four-way, all instances")


# --- criterion 6 -----------------------------------------------------------------

def test_criterion_6_semigroup_calculus(corpus):
    for b in corpus:
        inst = b.inst
        n = inst.n
        a0 = b.crit.alpha0
        # order inequalities and idempotence of the composed operators
        for u in b.samples(3):
            v = u
            for _ in range(3):
                v = lax_oleinik_pos(inst, v)
            for _ in range(3):
                v = lax_oleinik_neg(inst, v)
            assert all(a >= c for a, c in zip(v.values, u.values)), f"seed {b.seed}"
            w = u
            for _ in range(3):
                w = lax_oleinik_neg(inst, w)
            for _ in range(3):
                w = lax_oleinik_pos(inst, w)
            assert all(a <= c for a, c in zip(w.values, u.values)), f"seed {b.seed}"
            once = lax_oleinik_neg(inst, lax_oleinik_pos(inst, u))
            twice = lax_oleinik_neg(inst, lax_oleinik_pos(inst, once))
            assert twice.values == once.values, f"seed {b.seed}"
        sol = weak_kam_neg(b.bar, 0)
        v = sol
        for _ in range(2):
            v = lax_oleinik_pos(inst, v)
        for _ in range(2):
            v = lax_oleinik_neg(inst, v)
        assert v.values == sol.values, f"seed {b.seed}"
        # forward vanishing at the base point, iterated up to five steps
        for x in range(n):
            for start in (b.phi1.entries[x], b.phi.entries[x]):
                cur = ValueFunction(start)
                for m in range(1, 6):
                    cur = ValueFunction(
                        tuple(v - a0 for v in lax_oleinik_pos(inst, cur).values)
                    )
                    assert cur.values[x] == 0, f"seed {b.seed} x={x} m={m}"
        # one-step recursion between consecutive tail potentials
        for k in range(1, 4):
            curt = b.phi_table(k)
            nxt = b.phi_table(k + 1)
            for x in range(n):
                img = lax_oleinik_neg(inst, ValueFunction(curt[x]))
                assert tuple(v + a0 for v in img.values) == nxt[x], f"seed {b.seed}"
        # the order-1 tail potential is the backward update of the potential
        for x in range(n):
            img = lax_oleinik_neg(inst, ValueFunction(b.phi.entries[x]))
            assert tuple(v + a0 for v in img.values) == b.phi1.entries[x]
        _check_chain_splittings(b)
        # min formulas: h = h (x) c_k + k a0 = c_k (x) h + k a0
        h = b.bar.h.entries
        for steps in range(1, 4):
            ck = b.raw_power(steps)
            for prod in (minplus_product(h, ck), minplus_product(ck, h)):
                shifted = tuple(tuple(v + steps * a0 for v in row) for row in prod)
                assert shifted == h, f"seed {b.seed} steps {steps}"
    report(6, "operator order laws, vanishing, tail recursion, chain-splitting "
              "suite (indices <= 4), min-formulas (steps <= 3), all exact")


def _check_chain_splittings(b: Bundle) -> None:
    inst = b.inst
    n = inst.n
    rng = range(n)
    a0 = b.crit.alpha0
    h = b.bar.h.entries
    for m in range(1, 5):
        cm = b.raw_power(m)
        shift = m * a0
        for k in range(1, 5):
            pk = b.phi_table(k)
            pkm = b.phi_table(k + m)
            for x in rng:
                for y in rng:
                    bound = pk[x][y] + shift
                    cmy = cm[y]
                    pxm = pkm[x]
                    for z in rng:
                        assert pxm[z] <= bound + cmy[z], f"seed {b.seed}"
        for x in rng:
            hx = h[x]
            cmx = cm[x]
            for y in rng:
                hxy = hx[y] + shift
                cxy = cmx[y] + shift
                cmy = cm[y]
                hy = h[y]
                for z in rng:
                    assert hx[z] <= hxy + cmy[z], f"seed {b.seed}"
                    assert hx[z] <= cxy + hy[z], f"seed {b.seed}"
    for m in range(1, 5):
        pm = b.phi_table(m)
        for l in range(1, 5):
            pl = b.phi_table(l)
            for k in range(1, min(4, l + m) + 1):
                pk = b.phi_table(k)
                for x in rng:
                    pkx = pk[x]
                    pmx = pm[x]
                    for y in rng:
                        bound = pmx[y]
                        ply = pl[y]
                        for z in rng:
                            assert pkx[z] <= bound + ply[z], f"seed {b.seed}"
    for k in range(1, 5):
        pk = b.phi_table(k)
        for x in rng:
            hx = h[x]
            for y in rng:
                hxy = hx[y]
                pky = pk[y]
                for z in rng:
                    assert hx[z] <= hxy + pky[z], f"seed {b.seed}"


# --- criterion 7 -----------------------------------------------------------------

def _orbit_bound(b: Bundle, u, N: int):
    """S(x, y) = max_{k <= N} T-^k u(y) + k a0 - min_{k <= N} T+^k u(x) + k a0."""
    inst, a0 = b.inst, b.crit.alpha0
    neg = pos = ValueFunction(tuple(u))
    hi = lo = tuple(u)
    for _ in range(N):
        neg = ValueFunction(tuple(v + a0 for v in lax_oleinik_neg(inst, neg).values))
        pos = ValueFunction(tuple(v - a0 for v in lax_oleinik_pos(inst, pos).values))
        hi = tuple(map(max, hi, neg.values))
        lo = tuple(map(min, lo, pos.values))
    return tuple(tuple(hy - lx for hy in hi) for lx in lo)


def _below(S, h) -> bool:
    return all(s <= e for srow, hrow in zip(S, h) for s, e in zip(srow, hrow))


def test_criterion_7_limits(corpus):
    for b in corpus:
        inst, crit = b.inst, b.crit
        h = b.bar.h.entries
        for u in b.samples(20):
            assert _below(_orbit_bound(b, u.values, 6), h), f"seed {b.seed} {u.tag}"
        for u in b.samples(5):
            ump = u_plus(inst, crit, u_minus(inst, crit, u))
            umpmp = u_plus(inst, crit, u_minus(inst, crit, ump))
            assert ump.values == umpmp.values, f"seed {b.seed} {u.tag}"
            down_up = lax_oleinik_pos(inst, lax_oleinik_neg(inst, u))
            assert all(a <= c for a, c in zip(down_up.values, u.values)), f"seed {b.seed}"
            up_down = lax_oleinik_neg(inst, lax_oleinik_pos(inst, u))
            assert all(c <= a for a, c in zip(up_down.values, u.values)), f"seed {b.seed}"
            twice = lax_oleinik_neg(inst, lax_oleinik_pos(inst, up_down))
            assert twice.values == up_down.values, f"seed {b.seed} {u.tag}"
        N = max(1, b.bar.iterations_to_fix)
        for x in range(inst.n):
            S = _orbit_bound(b, b.phi1.entries[x], N)
            assert _below(S, h), f"seed {b.seed} phi1 row {x}"
            assert S[x] == h[x], f"seed {b.seed} row {x}"
    report(7, "alternating limits idempotent; orbit bound <= barrier "
              "(20 samples, N=6) with rowwise attainment via tail rows")


def _off_aubry_gap(b: Bundle):
    """(m, delta): the number of points off the Aubry set A, and the least
    reduced weight of a simple cycle avoiding A (None when m = 0).

    A comes from the zero cycles of the exhaustive scan, not the barrier."""
    inst = b.inst
    aub = set(b.scan.zero_vertices)
    red = [[c + b.crit.alpha0 for c in row] for row in inst.cost]

    def weight(i, j):
        return None if i in aub or j in aub else red[i][j]

    cycles = iter_simple_cycles(inst.n, weight)
    return inst.n - len(aub), min((w for _, w in cycles), default=None)


def test_criterion_7_stabilization_within_4n_squared(corpus):
    # The name records a claim this test refutes: that the normalized orbits
    # of a dominated u stabilize within 4*n^2 steps.  Min-plus transients
    # depend on the weights, not on n alone.  The bound that is proved:
    #
    #   Let A = {x : h(x,x) = 0}, m = n - |A|, delta > 0 the least reduced
    #   weight sum(c + alpha0) of a simple cycle avoiding A, and
    #   S = max_y (u_minus(y) - u(y)).  Then the backward orbit of u takes 0
    #   steps if S = 0, and at most m * ceil(S / delta) otherwise.  The
    #   forward orbit obeys the same bound with S = max_x (u(x) - u_plus(x)).
    #
    # Proof.  T-^k u(y) + k alpha0 is the least u(start) + reduced weight over
    # walks of length k ending at y, and it rises to u_minus(y).  A walk
    # through b in A costs at least u(b) + h(b,y) >= u_minus(y).  A walk that
    # avoids A splits into a path, which costs at least u(y) - u(start) by
    # domination, plus an integer number of simple cycles, at least
    # (k - m + 1) / m of them, each weighing at least delta.  For
    # k >= m * ceil(S / delta) there are at least ceil(S / delta) cycles, so
    # the walk costs at least u(y) + S >= u_minus(y).  T+ is the same
    # argument on reversed walks.
    #
    # Each orbit must also end at the closed-form envelope, so an orbit that
    # stops early cannot pass.  Seed 49 (n = 2, a reduced self-loop of 1/4
    # off A) has an orbit that attains the bound and exceeds 4*n^2.
    checked = attained = 0
    longest = {}  # seed -> (steps, bound) of its longest orbit
    for b in corpus:
        inst, n = b.inst, b.inst.n
        h = b.bar.h.entries
        m, delta = _off_aubry_gap(b)
        rng = range(n)
        for u in b.samples(20):
            v = u.values
            lo = tuple(
                min(h[x][y] + max(v[t] - h[x][t] for t in rng) for x in rng)
                for y in rng
            )
            hi = tuple(
                max(-h[t][x] + min(v[s] + h[s][x] for s in rng) for x in rng)
                for t in rng
            )
            for walk, env, slack in (
                (orbit(inst, b.crit, u), lo, max(e - a for e, a in zip(lo, v))),
                (orbit(inst, b.crit, u, forward=True), hi, max(a - e for e, a in zip(hi, v))),
            ):
                steps = len(walk) - 1
                bound = 0 if slack == 0 else m * -(-slack // delta)
                where = f"seed {b.seed} {u.tag}"
                assert walk[-1] == env, f"{where}: orbit ends off its envelope"
                assert steps <= bound, f"{where}: {steps} steps > bound {bound}"
                checked += 1
                attained += bound > 0 and steps == bound
                if steps > longest.get(b.seed, (-1,))[0]:
                    longest[b.seed] = (steps, bound)

    n49 = corpus[49].inst.n
    steps49, bound49 = longest[49]
    assert steps49 > 4 * n49 * n49, f"seed 49: {steps49} steps"
    assert steps49 == bound49, f"seed 49: {steps49} steps, bound {bound49}"
    worst = max(longest, key=lambda s: longest[s][0])
    n_w = corpus[worst].inst.n
    report(7, f"{checked} orbits within m*ceil(S/delta), {attained} attain it; "
              f"longest {longest[worst][0]} steps at seed {worst} "
              f"vs 4n^2 = {4 * n_w * n_w}")


# --- criterion 8 -----------------------------------------------------------------

def test_criterion_8_strictness(corpus):
    small = [b for b in corpus if b.inst.n <= 6]
    for b in small:
        inst = b.inst
        n = inst.n
        funcs = list(b.samples(5)) + [weak_kam_neg(b.bar, 0)]
        for u in funcs:
            u2 = strict_subsolution(inst, b.crit, u)
            assert is_dominated(inst, u2, b.crit.alpha0).ok
            verts, edges = aubry_chain_sets(inst, b.crit, u)
            strict = set(strict_pairs(inst, b.crit, u2))
            edge_set = set(edges)
            for x in range(n):
                for y in range(n):
                    assert ((x, y) in strict) == ((x, y) not in edge_set), (
                        f"seed {b.seed} {u.tag} pair ({x},{y})"
                    )
            for v in verts:
                assert u2.values[v] == u.values[v], f"seed {b.seed} {u.tag} at {v}"
        u1 = max_strict_subsolution(inst, b.crit)
        strict = set(strict_pairs(inst, b.crit, u1))
        zero_edges = set(b.scan.zero_edges)
        for x in range(n):
            for y in range(n):
                assert ((x, y) in strict) == ((x, y) not in zero_edges), (
                    f"seed {b.seed} global pair ({x},{y})"
                )
    report(8, f"strict exactly off the chain-oracle Aubry edges on "
              f"{len(small)} instances; global pattern matches zero cycles")


# --- criterion 9 -----------------------------------------------------------------

FK_CASES = [
    (2, F(1), "well"),
    (4, F(1), "well"),
    (8, F(1), "well"),
    (16, F(1), "well"),
    (8, F(1, 2), "zero"),
    (12, F(1), "zero"),
]


def _fk(m, lam, profile):
    pot = fk_potential_well(m, 0) if profile == "well" else [0] * m
    return gen_fk(m, lam, pot)


def test_criterion_9_metric_machinery():
    for m, lam, profile in FK_CASES:
        inst = _fk(m, lam, profile)
        crit = critical_value(inst)
        k, bb = lipschitz_constants(inst, crit.alpha0, B=1, K=1)
        for u in subsolution_sampler(inst, crit, seed=m, count=20):
            assert lipschitz_large_check(inst, u, k, bb).ok, f"m={m} {profile}"
            assert check_apriori(inst, u, crit.alpha0, B=1, K=1).ok, f"m={m}"
        # the short arc from x to y is a chain of d(x, y) arc steps
        d = circle_metric(m)
        for x in range(m):
            for y in range(m):
                s = 1 if (y - x) % m <= m // 2 else -1
                chain = [(x + s * i) % m for i in range(d[x][y] + 1)]
                steps = list(zip(chain, chain[1:]))
                assert chain[-1] == y and all(d[a][c] <= 1 for a, c in steps)
                assert sum(d[a][c] for a, c in steps) <= d[x][y]
    report(9, "dominated samples are Lipschitz in the large with measured "
              "constants; circle grids are 1-length spaces at one arc step "
              "along the short arc")


# --- criterion 10 ----------------------------------------------------------------

def test_criterion_10_circle_model_sanity():
    for m in (4, 8, 16):
        inst = gen_fk(m, 1, fk_potential_well(m, 0))
        crit = critical_value(inst)
        assert crit.alpha0 == 0
        bar = peierls_barrier(inst, crit)
        aub = aubry(inst, crit, bar)
        assert aub.vertices == (0,), f"m={m}"
    for m in (4, 8):
        inst = gen_fk(m, 1, [0] * m)
        crit = critical_value(inst)
        assert crit.alpha0 == 0
        bar = peierls_barrier(inst, crit)
        aub = aubry(inst, crit, bar)
        assert aub.vertices == tuple(range(m)), f"m={m}"
    report(10, "single-well circle model: alpha0 = 0 and the well is the "
               "Aubry set; flat potential: every point is Aubry")
