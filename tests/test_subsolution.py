from fractions import Fraction as F

import pytest

from wkam import (
    InputError,
    ValueFunction,
    as_value_function,
    aubry_of,
    critical_value,
    is_calibrated,
    is_dominated,
    lax_oleinik_neg,
    lax_oleinik_pos,
    max_strict_subsolution,
    peierls_barrier,
    strict_pairs,
    strict_subsolution,
    uniform_subsolution_mix,
    weak_kam_neg,
)
from wkam.barrier import limits_grid, orbit_sum
from wkam.models import fk_potential_well, gen_constant, gen_fk, gen_random
from wkam.numbers import Mode
from wkam.oracle import aubry_chain_sets, enum_zero_cycles, subsolution_sampler

from walk_reference import ref_orbit, walk_sum


def test_chain_validation(t2):
    crit = critical_value(t2)
    u = as_value_function(t2, [0, 0])
    with pytest.raises(InputError):
        is_calibrated(t2, crit, u, (0,))
    with pytest.raises(InputError):
        is_calibrated(t2, crit, u, (0, 5))


def test_calibrated_constant_any_chain():
    inst = gen_constant(3, F(2))
    crit = critical_value(inst)
    u = as_value_function(inst, [0, 0, 0])
    for chain in [(0, 1), (2, 0, 1), (0, 0, 0, 0)]:
        assert is_calibrated(inst, crit, u, chain)


def test_calibrated_t2_tight_step(t2):
    crit = critical_value(t2)
    u = as_value_function(t2, [0, F(-1, 2)])
    assert is_calibrated(t2, crit, u, (0, 1))  # -1/2 = 0 + 0 - 1/2
    assert is_calibrated(t2, crit, u, (1, 0))
    assert not is_calibrated(t2, crit, u, (0, 0))  # 0 != 2 - 1/2


def test_calibrated_t3_barrier_row(t3):
    crit = critical_value(t3)
    bar = peierls_barrier(t3, crit)
    h_a = weak_kam_neg(bar, 0)
    # oracle check: the single step a -> c is tight for h_a
    # (h(a,c) - h(a,a) = 9 = c(a,c) + 0), so the chain is calibrated
    assert h_a.values[2] - h_a.values[0] == t3.cost[0][2] + crit.alpha0
    assert is_calibrated(t3, crit, h_a, (0, 2))
    # the reverse step is strictly slack
    assert h_a.values[0] - h_a.values[2] < t3.cost[2][0] + crit.alpha0
    assert not is_calibrated(t3, crit, h_a, (2, 0))


def test_calibration_requires_domination(t2):
    crit = critical_value(t2)
    with pytest.raises(InputError):
        is_calibrated(t2, crit, as_value_function(t2, [0, 50]), (0, 1))


# --- per-function Aubry sets ------------------------------------------------------

def test_aubry_of_constant():
    inst = gen_constant(4, F(1))
    crit = critical_value(inst)
    u = as_value_function(inst, [0, 0, 0, 0])
    assert aubry_of(inst, crit, u) == (0, 1, 2, 3)


def test_aubry_of_t2(t2):
    crit = critical_value(t2)
    u = as_value_function(t2, [0, F(-1, 2)])
    assert aubry_of(t2, crit, u) == (0, 1)


def test_aubry_of_t3_barrier_row(t3):
    crit = critical_value(t3)
    bar = peierls_barrier(t3, crit)
    h_a = weak_kam_neg(bar, 0)
    assert aubry_of(t3, crit, h_a) == (0, 1)


def test_aubry_of_matches_chain_oracle():
    for seed in range(10):
        inst = gen_random((seed % 5) + 2, seed, -2, 2)
        crit = critical_value(inst)
        for u in subsolution_sampler(inst, crit, seed=seed, count=5):
            verts, _ = aubry_chain_sets(inst, crit, u)
            assert aubry_of(inst, crit, u) == verts


# --- strict sub-solutions ------------------------------------------------------------

def test_strict_on_solution_with_full_cycle():
    # every pair of the zero cycle stays tight, so nothing changes
    inst = gen_constant(2, F(0))
    crit = critical_value(inst)
    u = as_value_function(inst, [0, 0])
    u2 = strict_subsolution(inst, crit, u)
    assert u2.values == u.values
    assert strict_pairs(inst, crit, u2) == ()


def test_strict_t3_barrier_row(t3):
    crit = critical_value(t3)
    bar = peierls_barrier(t3, crit)
    h_a = weak_kam_neg(bar, 0)
    verts, edges = aubry_chain_sets(t3, crit, h_a)
    u2 = strict_subsolution(t3, crit, h_a)
    assert is_dominated(t3, u2, crit.alpha0).ok
    strict = set(strict_pairs(t3, crit, u2))
    # strict exactly off the chain edges; in particular at every pair touching c
    for x in range(3):
        for y in range(3):
            assert ((x, y) in strict) == ((x, y) not in set(edges))
    assert all((x, y) in strict for x in (2,) for y in range(3))
    assert all((y, x) in strict for x in (2,) for y in range(3))
    # unchanged on the Aubry set of h_a
    for v in verts:
        assert u2.values[v] == h_a.values[v]


def test_strict_pattern_matches_chain_oracle():
    for seed in (3, 14, 25):
        inst = gen_random((seed % 4) + 2, seed, -2, 2)
        crit = critical_value(inst)
        for u in subsolution_sampler(inst, crit, seed=seed, count=4):
            u2 = strict_subsolution(inst, crit, u)
            assert is_dominated(inst, u2, crit.alpha0).ok
            verts, edges = aubry_chain_sets(inst, crit, u)
            strict = set(strict_pairs(inst, crit, u2))
            for x in range(inst.n):
                for y in range(inst.n):
                    assert ((x, y) in strict) == ((x, y) not in set(edges))
            for v in verts:
                assert u2.values[v] == u.values[v]


def test_strict_keeps_connector_edges(connector):
    # tight path between two zero loops: its edges carry bi-infinite chains,
    # so the strictified function must keep them tight
    crit = critical_value(connector)
    u = as_value_function(connector, [0, 0, 0])
    u2 = strict_subsolution(connector, crit, u)
    strict = set(strict_pairs(connector, crit, u2))
    assert (0, 1) not in strict
    assert (1, 2) not in strict
    assert (1, 1) in strict


# --- maximally strict construction ----------------------------------------------------

def test_max_strict_constant_nowhere_strict():
    inst = gen_constant(2, F(5))
    crit = critical_value(inst)
    u1 = max_strict_subsolution(inst, crit)
    assert strict_pairs(inst, crit, u1) == ()


def test_max_strict_t2(t2):
    crit = critical_value(t2)
    u1 = max_strict_subsolution(t2, crit)
    strict = set(strict_pairs(t2, crit, u1))
    assert strict == {(0, 0), (1, 1)}


def test_max_strict_t3(t3):
    crit = critical_value(t3)
    ref = enum_zero_cycles(t3)
    u1 = max_strict_subsolution(t3, crit)
    strict = set(strict_pairs(t3, crit, u1))
    expected = {
        (x, y) for x in range(3) for y in range(3) if (x, y) not in set(ref.edges)
    }
    assert strict == expected
    assert all((x, y) in strict for x in (2,) for y in range(3))


def test_max_strict_dichotomy_off_aubry(t3):
    crit = critical_value(t3)
    u1 = max_strict_subsolution(t3, crit)
    ref = enum_zero_cycles(t3)
    for x in range(3):
        if x in ref.vertices:
            continue
        tneg = lax_oleinik_neg(t3, u1).values[x] + crit.alpha0
        tpos = lax_oleinik_pos(t3, u1).values[x] - crit.alpha0
        assert u1.values[x] < tneg
        assert u1.values[x] > tpos


def test_mix_pins_global_aubry_set():
    for seed in range(12):
        inst = gen_random((seed % 6) + 1, seed + 100, -2, 2)
        crit = critical_value(inst)
        mix = uniform_subsolution_mix(inst, crit)
        assert is_dominated(inst, mix, crit.alpha0).ok
        ref = enum_zero_cycles(inst)
        assert aubry_of(inst, crit, mix) == ref.vertices


# --- convex-combination calibration ----------------------------------------------------

def test_mix_calibrates_iff_components_do(t2):
    crit = critical_value(t2)
    u = as_value_function(t2, [0, F(-1, 2)])  # calibrates (0, 1)
    bar = peierls_barrier(t2, crit)
    v = weak_kam_neg(bar, 1)  # h_b = (1/2, 0), also calibrates (0, 1)
    assert is_calibrated(t2, crit, u, (0, 1))
    assert is_calibrated(t2, crit, v, (0, 1))
    mix = as_value_function(
        t2, [F(1, 2) * a + F(1, 2) * b for a, b in zip(u.values, v.values)]
    )
    assert is_calibrated(t2, crit, mix, (0, 1)) == all(
        is_calibrated(t2, crit, f, (0, 1)) for f in (u, v)
    )
    # a chain calibrated by neither component is not calibrated by the mix
    assert not is_calibrated(t2, crit, mix, (0, 0))


def test_in_between_functions_dominated():
    inst = gen_random(4, 55, -2, 2)
    crit = critical_value(inst)
    ts = [F(1, 4), F(1, 2), F(3, 4), F(0)]
    for u in subsolution_sampler(inst, crit, seed=6, count=6):
        upper = tuple(v + crit.alpha0 for v in lax_oleinik_neg(inst, u).values)
        lower = tuple(v - crit.alpha0 for v in lax_oleinik_pos(inst, u).values)
        mid_up = ValueFunction(
            tuple(a + t * (b - a) for a, b, t in zip(u.values, upper, ts))
        )
        assert is_dominated(inst, mid_up, crit.alpha0).ok
        mid_dn = ValueFunction(
            tuple(a + t * (b - a) for a, b, t in zip(u.values, lower, ts))
        )
        assert is_dominated(inst, mid_dn, crit.alpha0).ok


def test_tight_pair_forces_fixed_point():
    inst = gen_random(5, 91, -2, 2)
    crit = critical_value(inst)
    for u in subsolution_sampler(inst, crit, seed=7, count=10):
        timg = lax_oleinik_neg(inst, u).values
        for x in range(5):
            for y in range(5):
                if u.values[x] - u.values[y] == inst.cost[y][x] + crit.alpha0:
                    assert u.values[x] == timg[x] + crit.alpha0


# --- the potential-row mix is already maximally strict ------------------------------

def test_potential_row_mix_is_strict_exactly_off_the_aubry_edges():
    # the mix u* itself, not only its strictification, is strict at every
    # pair but the Aubry edges (the oracle's zero-cycle edges)
    insts = [
        gen_random(n, seed, lo, hi, mode=mode)
        for mode in (Mode("exact"), Mode("float", 1e-9))
        for n in range(1, 9)
        for seed in range(4)
        for lo, hi in ((-2, 2), (0, 3), (-100, 100))
    ]
    insts += [gen_fk(m, 1, fk_potential_well(m, c)) for m in (3, 6, 9) for c in range(m)]
    for inst in insts:
        crit = critical_value(inst)
        edges = set(enum_zero_cycles(inst).edges)
        off = {(x, y) for x in range(inst.n) for y in range(inst.n)} - edges
        assert set(strict_pairs(inst, crit, uniform_subsolution_mix(inst, crit))) == off


# --- the mix's backward walk is the walks inside B, capped by u_minus ----------------

def test_mix_backward_walk_is_the_walks_off_the_aubry_set_capped_by_u_minus():
    # with A the Aubry vertices, B the rest, S the reduced matrix on B and
    # g_k(y) = min over x in B of u(x) + S^k(x, y): the k-th iterate of the
    # backward walk from the mix u is u on A and min(u_minus, g_k) on B
    insts = [
        gen_random(n, seed, lo, hi)
        for n in range(2, 9)
        for seed in range(12)
        for lo, hi in ((-2, 2), (-100, 100))
    ]
    insts += [gen_fk(m, 1, fk_potential_well(m, c)) for m in (3, 5, 8) for c in range(m)]
    iterates = 0
    for inst in insts:
        crit = critical_value(inst)
        D, u, lo, _ = limits_grid(inst, crit, uniform_subsolution_mix(inst, crit))
        A = crit.aubry_vertices()
        B = [x for x in range(inst.n) if x not in A]
        r = crit.kernel.at(D)
        g = {y: u[y] for y in B}  # g_0 = u on B
        walk = ref_orbit(r, u, False)
        for v in walk:
            assert [v[a] for a in A] == [u[a] for a in A]
            assert [v[y] for y in B] == [min(lo[y], g[y]) for y in B]
            g = {y: min(g[x] + r[x][y] for x in B) for y in B}
            iterates += 1
        assert list(walk[-1]) == lo
        assert orbit_sum(inst, crit, D, u, lo, False) == walk_sum(walk)
    assert (len(insts), iterates) == (184, 1075)


def test_a_faulty_P_is_a_construction_fault():
    # with P(0, 1) one grid step low on CriticalData itself, the mix of the
    # potential rows is not dominated: only a faulty P does that, so
    # max_strict_subsolution raises ConstructionError, not the InputError
    # that a caller's non-dominated u gets
    from wkam.core import PotentialTable
    from wkam.numbers import ConstructionError, InputError

    inst = gen_random(6, 7, -2, 2)
    crit = critical_value(inst)
    P = crit.kernel_plus()
    low = [list(row) for row in P.grid]
    low[0][1] -= 1
    object.__setattr__(crit, "_plus", PotentialTable(tuple(map(tuple, low)), P.scale, P.mode))
    with pytest.raises(ConstructionError, match="not dominated"):
        max_strict_subsolution(inst, crit)
    good = critical_value(inst)
    u = uniform_subsolution_mix(inst, crit)
    with pytest.raises(InputError, match="not dominated"):
        limits_grid(inst, good, u)
