import time
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkam import (
    InputError,
    ValueFunction,
    as_value_function,
    critical_value,
    is_dominated,
    lax_oleinik_neg,
    make_instance,
    mane_potential,
    solve_subsolution,
)
import wkam.critical as critical
from wkam.barrier import limits_grid
from wkam.critical import _first_cycle
from wkam.models import gen_constant, gen_fk, gen_random, fk_potential_well
from wkam.numbers import EXACT, ConstructionError, Mode
from wkam.subsolution import is_calibrated
from wkam.oracle import cycle_scan, subsolution_sampler

from first_cycle_reference import reference_first_cycle

FLOAT = Mode("float", 1e-9)


def test_constant_instance_alpha0():
    for n in (1, 2, 4):
        inst = gen_constant(n, F(3, 2))
        crit = critical_value(inst)
        assert crit.alpha0 == F(-3, 2)
        cyc = crit.witness_cycle
        total = sum(inst.cost[a][b] for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        assert total == len(cyc) * F(3, 2)


def test_t2_alpha0_and_witness(t2):
    scan = cycle_scan(t2)  # oracle first: cycles are {a}:2, {b}:3, {a,b}:1/2
    assert scan.min_mean == F(1, 2)
    crit = critical_value(t2)
    assert crit.alpha0 == F(-1, 2)
    assert crit.witness_cycle == (0, 1)
    assert crit.reduced == ((F(3, 2), F(-1, 2)), (F(1, 2), F(5, 2)))


def test_fk_zero_min_potential_gives_zero_alpha0():
    inst = gen_fk(8, 1, fk_potential_well(8, 0))
    assert critical_value(inst).alpha0 == 0


def test_alpha0_matches_cycle_oracle_on_random_instances():
    for seed in range(30):
        n = (seed % 6) + 1
        inst = gen_random(n, seed, -2, 2)
        assert critical_value(inst).alpha0 == -cycle_scan(inst).min_mean


def test_alpha0_lower_bound_from_self_loops():
    for seed in range(10):
        inst = gen_random(4, seed, -2, 2)
        crit = critical_value(inst)
        assert crit.alpha0 >= max(-inst.cost[x][x] for x in range(4))


# --- domination ---------------------------------------------------------------

def test_dominated_constant_cases():
    inst = gen_constant(3, F(2))
    u = as_value_function(inst, [0, 0, 0])
    assert is_dominated(inst, u, F(-2)).ok
    res = is_dominated(inst, u, F(-3))
    assert not res.ok and res.witness is not None


def test_dominated_t2_tilted(t2):
    u = as_value_function(t2, [0, F(-1, 2)])
    assert is_dominated(t2, u, F(-1, 2)).ok


def test_domination_witness_is_first_violation(t2):
    u = as_value_function(t2, [0, F(10)])
    res = is_dominated(t2, u, F(-1, 2))
    assert res.witness == (0, 1)


def test_T_preserves_domination(t2):
    crit = critical_value(t2)
    for u in subsolution_sampler(t2, crit, seed=5, count=20):
        assert is_dominated(t2, u, crit.alpha0).ok
        img = lax_oleinik_neg(t2, u)
        shifted = as_value_function(t2, [v + crit.alpha0 for v in img.values])
        assert is_dominated(t2, shifted, crit.alpha0).ok


def _violations(inst, u, alpha):
    """Every pair (x, y), in row-major order, with u(y) - u(x) > c(x, y) +
    alpha, on the exact values of the operands (a double's dyadic value)."""
    u, c, alpha = [F(v) for v in u], [[F(v) for v in row] for row in inst.cost], F(alpha)
    return [(x, y) for x in range(inst.n) for y in range(inst.n) if u[y] - u[x] > c[x][y] + alpha]


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_domination_witness_is_first_in_row_major_order(mode):
    rng = Random(7)
    many_in_row = many_rows = False
    for seed in range(40):
        n = 2 + seed % 5
        inst = gen_random(n, seed, -2, 2, mode=mode)
        alpha = critical_value(inst).alpha0
        if mode.exact:
            u = [F(rng.randint(-12, 12), 4) for _ in range(n)]
        else:
            u = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        bad = _violations(inst, u, alpha)
        res = is_dominated(inst, as_value_function(inst, u), alpha)
        assert (res.ok, res.witness) == (not bad, bad[0] if bad else None)
        first_row = [p for p in bad if p[0] == (bad[0][0] if bad else None)]
        many_in_row |= len(first_row) >= 2
        many_rows |= len({x for x, _ in bad}) >= 2
    assert many_in_row and many_rows


def test_float_domination_decided_exactly():
    # u(1) - u(0) sits k steps of the kernel's grid off c(0, 1) + alpha0:
    # float mode decides it on the exact values, so it is dominated iff
    # k <= 0, and the orbit limits and the calibration test agree with
    # is_dominated
    inst = gen_random(3, 4, -2.0, 2.0, mode=FLOAT)
    crit = critical_value(inst)
    r, D = crit.kernel.grid, crit.kernel.scale
    base = [0, r[0][1], min(r[0][2], r[0][1] + r[1][2])]
    assert is_dominated(inst, ValueFunction.on_grid(base, D, FLOAT), crit.alpha0_exact).ok
    for k in (-2, -1, 0, 1, 2):
        u = ValueFunction.on_grid([base[0], base[1] + k, base[2]], D, FLOAT)
        res = is_dominated(inst, u, crit.alpha0_exact)
        assert res.ok == (k <= 0)
        assert res.witness == (None if res.ok else (0, 1))
        if res.ok:
            limits_grid(inst, crit, u)
            is_calibrated(inst, crit, u, (0, 1))
        else:
            with pytest.raises(InputError, match="not dominated"):
                limits_grid(inst, crit, u)
            with pytest.raises(InputError, match="not dominated"):
                is_calibrated(inst, crit, u, (0, 1))


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_limits_and_calibration_reject_non_dominated(mode):
    inst = gen_random(4, 2, -2, 2, mode=mode)
    crit = critical_value(inst)
    phi = mane_potential(inst, crit)
    limits_grid(inst, crit, phi.row(0))
    for y in range(1, 4):
        # row 0 of phi with 1/3 added at y
        grid = [3 * v + phi.scale * (x == y) for x, v in enumerate(phi.grid[0])]
        u = ValueFunction.on_grid(grid, 3 * phi.scale, mode)
        res = is_dominated(inst, u, crit.alpha0_exact)
        assert not res.ok and res.witness[1] == y
        with pytest.raises(InputError, match="not dominated"):
            limits_grid(inst, crit, u)
        with pytest.raises(InputError, match="not dominated"):
            is_calibrated(inst, crit, u, (0, y))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.fractions(min_value=0, max_value=1, max_denominator=16),
)
def test_dominated_set_convex(seed, t):
    inst = gen_random(4, seed % 50, -2, 2)
    crit = critical_value(inst)
    u, v = subsolution_sampler(inst, crit, seed=seed, count=2)
    if t == 0 or t == 1:
        t = F(1, 2)
    mix = as_value_function(inst, [t * a + (1 - t) * b for a, b in zip(u.values, v.values)])
    assert is_dominated(inst, mix, crit.alpha0).ok


# --- sub-solution synthesis ----------------------------------------------------

def test_solve_at_alpha0_feasible(t2):
    crit = critical_value(t2)
    res = solve_subsolution(t2, crit.alpha0)
    assert res.feasible
    assert is_dominated(t2, res.u, crit.alpha0).ok


def test_solve_below_alpha0_infeasible(t2):
    crit = critical_value(t2)
    res = solve_subsolution(t2, crit.alpha0 - 1)
    assert not res.feasible
    cyc = res.negative_cycle
    total = sum(
        t2.cost[a][b] + crit.alpha0 - 1 for a, b in zip(cyc, cyc[1:] + cyc[:1])
    )
    assert total < 0


def test_solve_t2_concrete(t2):
    res = solve_subsolution(t2, F(-1, 2))
    u = res.u.values
    assert u[1] - u[0] <= F(-1, 2)
    assert u[0] - u[1] <= F(1, 2)


def test_graph_mode_out_degree_zero_rejected():
    inst = make_instance([[float("inf"), float("inf")], [F(0), F(1)]])
    assert not inst.total
    with pytest.raises(InputError):
        critical_value(inst)


def test_graph_mode_with_cycles_works():
    inf = float("inf")
    inst = make_instance([[inf, F(1)], [F(1), inf]])
    crit = critical_value(inst)
    assert crit.alpha0 == F(-1)
    assert crit.witness_cycle == (0, 1)


def test_graph_mode_disjoint_cycles():
    # two separate 2-cycles; the cheaper one sets the critical constant
    inf = float("inf")
    inst = make_instance(
        [
            [inf, F(4), inf, inf],
            [F(4), inf, inf, inf],
            [inf, inf, inf, F(1)],
            [inf, inf, F(1), inf],
        ]
    )
    crit = critical_value(inst)
    assert crit.alpha0 == F(-1)
    assert crit.witness_cycle == (2, 3)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=12),
            min_size=4,
            max_size=4,
        ),
        min_size=4,
        max_size=4,
    )
)
def test_alpha0_matches_oracle_varied_denominators(cost):
    # exercises the oracle's integer scaling across mixed denominators
    inst = make_instance(cost)
    crit = critical_value(inst)
    assert crit.alpha0 == -cycle_scan(inst).min_mean
    total = sum(
        inst.cost[a][b]
        for a, b in zip(crit.witness_cycle, crit.witness_cycle[1:] + crit.witness_cycle[:1])
    )
    assert total == -len(crit.witness_cycle) * crit.alpha0


def test_single_point_full_pipeline():
    from wkam import aubry, jump_F, mane_potential, peierls_barrier

    inst = make_instance([[F(3, 4)]])
    crit = critical_value(inst)
    assert crit.alpha0 == F(-3, 4)
    assert crit.witness_cycle == (0,)
    phi = mane_potential(inst, crit)
    assert phi.entries == ((F(0),),)
    assert jump_F(inst, crit).values == (F(0),)
    bar = peierls_barrier(inst, crit)
    assert bar.h.entries == ((F(0),),)
    assert aubry(inst, crit, bar).vertices == (0,)


# --- the witness cycle ---------------------------------------------------------

def test_first_cycle_equals_depth_first_search_on_random_digraphs():
    rng = Random(11)
    for _ in range(600):
        n = rng.randint(1, 10)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        adj = [[v for v in range(n) if rng.random() < p] for _ in range(n)]
        assert _first_cycle(adj, n) == reference_first_cycle(adj, n), adj


def test_witness_cycle_equals_depth_first_search_on_solver_instances(monkeypatch):
    modes = (EXACT, FLOAT)
    insts = [gen_random(n, s, -2, 2, mode=m) for n in (3, 8, 14) for s in range(4) for m in modes]
    insts += [
        gen_fk(n, 1, fk_potential_well(n, c), mode=m) for n in (5, 12) for c in range(n) for m in modes
    ]
    got = [critical_value(inst).witness_cycle for inst in insts]
    monkeypatch.setattr(critical, "_first_cycle", reference_first_cycle)
    assert got == [critical_value(inst).witness_cycle for inst in insts]


def test_witness_cycle_in_polynomial_time():
    # every pair u < v lies on a cycle of mean 1/2 and the only zero cycle
    # is the loop at n - 1; the depth-first search walked every simple path
    # of the tight graph from point 0, its time doubling with each point
    n = 40
    cost = [[u - v + (u > v) for v in range(n)] for u in range(n)]
    for u in range(n):
        cost[u][u] = 1
    cost[n - 1][n - 1] = 0
    inst = make_instance(cost)
    start = time.perf_counter()
    crit = critical_value(inst)
    assert time.perf_counter() - start < 1
    assert (crit.alpha0, crit.witness_cycle) == (0, (n - 1,))


# --- the least cycle mean: certified search against Karp ----------------------

def _search_and_karp(inst):
    """The least cycle mean by the search and by Karp, as Fractions."""
    t = inst.cost_grid
    found, length, _ = critical._least_cycle_mean(t.grid, inst.total)
    total, karp_length = critical._karp_min_cycle_mean(t.grid)
    return F(found, length * t.scale), F(total, karp_length * t.scale)


def _counting(monkeypatch, name):
    """Wrap critical.<name> so that each call adds one to the returned list."""
    calls = []
    real = getattr(critical, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(critical, name, counted)
    return calls


_COSTS = {
    "quarter": st.integers(min_value=-12, max_value=12).map(lambda k: F(k, 4)),
    "hundred": st.integers(min_value=-100, max_value=100).map(F),
    "mixed": st.fractions(min_value=-5, max_value=5, max_denominator=9),
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_COSTS)).flatmap(
    lambda kind: st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(_COSTS[kind], min_size=n * n, max_size=n * n)
    )
))
def test_search_equals_karp_on_exact_instances(flat):
    n = round(len(flat) ** 0.5)
    inst = make_instance([flat[i * n:(i + 1) * n] for i in range(n)])
    search, karp = _search_and_karp(inst)
    assert search == karp
    assert critical_value(inst).alpha0 == -karp


def test_search_equals_karp_on_sparse_instances():
    rng, inf = Random(22), float("inf")
    for _ in range(400):
        n = rng.randint(1, 9)
        p = rng.choice((0.15, 0.3, 0.6))
        cost = [
            [F(rng.randint(-20, 20), rng.randint(1, 3)) if rng.random() < p else inf for _ in range(n)]
            for _ in range(n)
        ]
        for row in cost:  # every point keeps an out-edge
            if all(v == inf for v in row):
                row[rng.randrange(n)] = F(rng.randint(-20, 20))
        inst = make_instance(cost)
        search, karp = _search_and_karp(inst)
        assert search == karp, cost
        assert critical_value(inst).alpha0 == -karp
        total, length = critical._karp_min_cycle_mean(critical._priced(inst.cost_grid.grid))
        assert F(total, length * inst.cost_grid.scale) == karp, cost


def test_search_equals_karp_on_fk_and_constant_instances():
    for m in range(3, 33):
        for c in range(m):
            search, karp = _search_and_karp(gen_fk(m, 1, fk_potential_well(m, c)))
            assert search == karp, (m, c)
    for n in (1, 2, 5, 9):
        for k in (F(0), F(-7, 3), F(5)):
            search, karp = _search_and_karp(gen_constant(n, k))
            assert search == karp == k


def test_search_past_its_round_budget_asks_karp(monkeypatch):
    # found by trying gen_random(4, seed, -100, 100) for seed = 0, 1, ...:
    # the self-loop start and the cycles read off the predecessor graph
    # spend the n + 1 = 5 rounds before one is certified
    inst = gen_random(4, 8, -100, 100)
    karp = _counting(monkeypatch, "_karp_min_cycle_mean")
    rounds = _counting(monkeypatch, "_relax")
    g = inst.cost_grid.grid
    critical._least_cycle_mean(g, True)
    assert (len(karp), len(rounds)) == (1, 5)
    assert critical_value(inst).alpha0 == -cycle_scan(inst).min_mean == 75


def test_karp_past_the_round_budget_meets_no_inf(monkeypatch):
    # found by trying sparse random 2..4-point instances, seeds 0, 1, ...:
    # a restart, then the budget is spent; Karp answers on the priced
    # costs, where the raw ones add 9 * 10**309 to +inf
    big, inf = 10**309, float("inf")
    inst = make_instance([[inf, inf, 0], [-8 * big, inf, inf], [9 * big, 9 * big, inf]])
    karp = _counting(monkeypatch, "_karp_min_cycle_mean")
    crit = critical_value(inst)
    assert len(karp) == 1
    assert crit.alpha0 == F(-big, 3) and crit.witness_cycle == (0, 2, 1)


@pytest.mark.parametrize("n", [24, 64, 128])
def test_fk_well_is_certified_in_one_round(monkeypatch, n):
    inst = gen_fk(n, 1, fk_potential_well(n, 0))
    karp = _counting(monkeypatch, "_karp_min_cycle_mean")
    rounds = _counting(monkeypatch, "_relax")
    g = inst.cost_grid.grid
    assert critical._least_cycle_mean(g, True)[:2] == (0, 1)
    assert (len(karp), len(rounds)) == (0, 1)


def test_random_256_finishes_within_its_round_budget(monkeypatch):
    inst = gen_random(256, 0, -100, 100)
    karp = _counting(monkeypatch, "_karp_min_cycle_mean")
    rounds = _counting(monkeypatch, "_relax")
    g = inst.cost_grid.grid
    p, q, _ = critical._least_cycle_mean(g, True)
    assert not karp and len(rounds) <= 257
    # no cycle is lower: reduced by the mean, the costs have potentials;
    # and the witness cycle has that mean
    alpha0 = F(-p, q * inst.cost_grid.scale)
    assert solve_subsolution(inst, alpha0).feasible
    cyc = critical_value(inst).witness_cycle
    assert sum(inst.cost[a][b] for a, b in zip(cyc, cyc[1:] + cyc[:1])) == -alpha0 * len(cyc)


def test_potentials_are_the_kernels_bellman_ford_distances(monkeypatch):
    # critical_value reads the potentials off the search's certifying round,
    # scaled down by q * D0 / D, and runs Bellman-Ford on the kernel only
    # when Karp answered; both give the distances of one Bellman-Ford
    karp = _counting(monkeypatch, "_karp_min_cycle_mean")
    inf = float("inf")
    insts = [gen_random(n, s, -100, 100) for n in range(2, 9) for s in range(40)]
    insts += [gen_random(n, s, -2, 2, mode=FLOAT) for n in (3, 8) for s in range(5)]
    insts += [gen_fk(m, F(1, 3), fk_potential_well(m, m // 2)) for m in (5, 12)]
    insts.append(make_instance([[inf, F(5, 3), 0], [-8, inf, inf], [F(9, 2), 9, inf]]))
    for inst in insts:
        crit = critical_value(inst)
        edges = critical._finite_edges(crit.kernel.grid, inst.total)
        assert crit._pot == critical._bellman_ford(edges)[0]
    assert len(karp) >= 5  # the corpus reaches the search's fallback


def test_search_refuses_a_cycle_that_does_not_lower_the_mean(monkeypatch):
    # the termination argument: each new candidate lies strictly below the
    # last; a predecessor cycle that does not is a construction fault
    inst = gen_random(24, 0, -100, 100)
    g = inst.cost_grid.grid
    monkeypatch.setattr(critical, "_best_cycle", lambda ptr, weight: (10**6, 1))
    with pytest.raises(ConstructionError, match="does not lower"):
        critical._least_cycle_mean(g, True)


def test_float_mode_runs_the_search(monkeypatch):
    # float alpha0 is the exact search's on the doubles' dyadic values,
    # rounded once; Karp answers only past the round budget, as in exact mode
    search = _counting(monkeypatch, "_least_cycle_mean")
    insts = [gen_random(n, s, -2, 2, mode=FLOAT) for n in (1, 4, 9) for s in range(3)]
    insts.append(gen_fk(12, 1, fk_potential_well(12, 5), mode=FLOAT))
    for inst in insts:
        twin = make_instance([[F(v) for v in row] for row in inst.cost])
        crit, exact = critical_value(inst), critical_value(twin)
        assert crit.alpha0_exact == exact.alpha0 and crit.alpha0 == float(exact.alpha0)
        assert crit.witness_cycle == exact.witness_cycle
    assert len(search) == 2 * len(insts)


def test_tight_pairs_at_values_beyond_the_float_range():
    # the reduced row of point 1 is 10**309 twice; the search relaxes and
    # the kernel shifts finite edges only, so no int meets +inf
    inst = make_instance([[-10**309, float("inf")], [0, 0]])
    crit = critical_value(inst)
    assert crit.alpha0 == 10**309 and crit.witness_cycle == (0,)
    assert crit.kernel.grid == ((0, float("inf")), (10**309, 10**309))
