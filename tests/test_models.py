import math
from fractions import Fraction as F
from random import Random

import pytest

from wkam import (
    InputError,
    as_value_function,
    check_apriori,
    check_length_space,
    critical_value,
    gen_constant,
    gen_fk,
    gen_random,
    lipschitz_constants,
    lipschitz_large_check,
    load,
    make_instance,
    save,
)
from wkam.models import (
    apriori_radius,
    circle_metric,
    dumps,
    fk_potential_well,
    growth_A,
    growth_C,
    loads,
)
from wkam.numbers import EXACT, Mode
from wkam.oracle import enum_zero_cycles, subsolution_sampler


# --- generators -----------------------------------------------------------------

def test_gen_constant():
    inst = gen_constant(2, F(5))
    assert inst.cost == ((F(5), F(5)), (F(5), F(5)))
    assert gen_constant(1, 0).cost == ((F(0),),)
    inst = gen_constant(3, F(-2))
    assert all(v == -2 for row in inst.cost for v in row)


def test_gen_random_deterministic():
    a = gen_random(5, 7, -2, 2)
    b = gen_random(5, 7, -2, 2)
    assert a == b
    c = gen_random(5, 8, -2, 2)
    assert a != c
    assert gen_random(1, 3, 0, 1).n == 1
    for row in a.cost:
        for v in row:
            assert F(-2) <= v <= F(2)


def test_gen_random_rejects_bad_range():
    with pytest.raises(InputError):
        gen_random(3, 0, 2, -2)
    for lo, hi, mode in [(0, float("inf"), EXACT), (-1e308, 1e308, Mode("float"))]:
        with pytest.raises(InputError, match="range"):
            gen_random(2, 0, lo, hi, mode=mode)


FLOAT = Mode("float", 1e-9)


def _same_instance(inst, ref):
    assert inst == ref
    assert repr(inst.cost) == repr(ref.cost)
    assert repr(inst.metric) == repr(ref.metric)
    assert inst.cost_grid.grid == ref.cost_grid.grid
    assert inst.cost_grid.scale == ref.cost_grid.scale
    assert inst.value_scale() == ref.value_scale()
    assert (inst.total, inst.labels) == (ref.total, ref.labels)


def _random_values(n, seed, lo, hi, mode):
    # the values gen_random drew when it built Fractions and floats
    rng = Random(seed)
    if not mode.exact:
        return [[rng.uniform(float(lo), float(hi)) for _ in range(n)] for _ in range(n)]
    a, b = math.ceil(F(lo) * 4), math.floor(F(hi) * 4)
    return [[F(rng.randint(a, b), 4) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("mode", [Mode("exact"), FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("lo, hi", [(-2, 2), (F(-5, 3), F(7, 2)), (F(1, 3), F(5, 6)), (0, 0)])
def test_gen_random_equals_make_instance(mode, lo, hi):
    for n in range(1, 9):
        for seed in (0, 1, 7, 123):
            ref = make_instance(_random_values(n, seed, lo, hi, mode), mode=mode)
            _same_instance(gen_random(n, seed, lo, hi, mode=mode), ref)


@pytest.mark.parametrize("mode", [Mode("exact"), FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("lam", [1, F(3, 2)])
def test_gen_fk_equals_make_instance(mode, lam):
    for m in range(1, 10):
        pots = [[0] * m, fk_potential_well(m, m // 2)]
        pots.append([F(k % 3, 2 + k % 5) for k in range(m)])
        for pot in pots:
            lm, V = mode.coerce(lam), [mode.coerce(v) for v in pot]
            d = circle_metric(m)
            cost = [[lm * (d[i][j] ** 2) + V[j] for j in range(m)] for i in range(m)]
            ref = make_instance(cost, [str(i) for i in range(m)], mode, metric=d)
            _same_instance(gen_fk(m, lam, pot, mode=mode), ref)


def _circle_comprehension(m):
    # circle_metric as an m x m comprehension, before it rotated one row
    return [[min(abs(i - j), m - abs(i - j)) for j in range(m)] for i in range(m)]


def test_circle_metric_rotates_the_comprehension():
    for m in range(1, 41):
        d = _circle_comprehension(m)
        assert circle_metric(m) == d
        for c in range(-m, m):  # a negative centre counts from the end
            assert fk_potential_well(m, c) == [F(d[c][j] ** 2) for j in range(m)]
        for c in (m, m + 3):
            with pytest.raises(IndexError):
                fk_potential_well(m, c)


def _least(rows, D=1):
    # gen_fk's grids as it built them: entry by entry, then divided by the
    # gcd of D and every entry
    g = math.gcd(D, *(v for row in rows for v in row))
    return tuple(tuple(v // g for v in row) for row in rows), D // g


@pytest.mark.parametrize("mode", [Mode("exact"), FLOAT], ids=["exact", "float"])
def test_gen_fk_grids_equal_the_entrywise_build(mode):
    rng = Random(4)
    for m in range(1, 41):
        d = _circle_comprehension(m)
        well = [F(d[0][j] ** 2) for j in range(m)]
        pot = [F(rng.randrange(9), rng.choice([1, 2, 3, 7])) for _ in range(m)]
        pot[rng.randrange(m)] = 0
        for lam, V in ((1, well), (F(2, 3), pot), (0, [0] * m)):
            inst = gen_fk(m, lam, V, mode=mode)
            lm, Vm = mode.coerce(lam), [mode.coerce(v) for v in V]
            assert (inst.metric_grid.grid, inst.metric_grid.scale) == _least(d)
            if mode.exact:
                D = math.lcm(lm.denominator, *(v.denominator for v in Vm))
                cost = [[int(lm * D) * dij**2 + int(v * D) for dij, v in zip(row, Vm)] for row in d]
                assert (inst.cost_grid.grid, inst.cost_grid.scale) == _least(cost, D)
            else:
                # each cost is the exact value on the doubles, rounded once
                cost = [[float(F(lm) * dij**2 + F(v)) for dij, v in zip(row, Vm)] for row in d]
                assert repr(inst.cost) == repr(tuple(map(tuple, cost)))
                fd = [[float(dij) for dij in row] for row in d]
                assert repr(inst.metric) == repr(tuple(map(tuple, fd)))


@pytest.mark.parametrize("mode", [Mode("exact"), FLOAT], ids=["exact", "float"])
def test_gen_constant_equals_make_instance(mode):
    for n in (1, 2, 5):
        for k in (0, 3, F(-7, 6), F(1, 3), float("inf")):
            ref = make_instance([[k] * n for _ in range(n)], mode=mode)
            _same_instance(gen_constant(n, k, mode=mode), ref)


def test_gen_fk_basic():
    inst = gen_fk(4, 1, [0, 0, 0, 0])
    assert inst.total and inst.metric is not None
    assert critical_value(inst).alpha0 == 0
    # cost is coupling * squared arc distance + on-site value at the target
    d = circle_metric(4)
    for i in range(4):
        for j in range(4):
            assert inst.cost[i][j] == d[i][j] ** 2


def test_gen_fk_single_well_aubry():
    inst = gen_fk(8, 1, fk_potential_well(8, 0))
    crit = critical_value(inst)
    assert crit.alpha0 == 0
    ref = enum_zero_cycles(inst)
    assert ref.vertices == (0,)


def test_gen_fk_zero_coupling_two_wells():
    V = [0, 1, 0, 1]
    inst = gen_fk(4, 0, V)
    ref = enum_zero_cycles(inst)
    assert 0 in ref.vertices and 2 in ref.vertices


def test_gen_fk_rejects_bad_potential():
    with pytest.raises(InputError):
        gen_fk(3, 1, [0, -1, 0])
    with pytest.raises(InputError):
        gen_fk(3, 1, [1, 2, 3])  # minimum not zero
    with pytest.raises(InputError):
        gen_fk(3, 1, [0, 0])  # wrong length


# --- length-space checker ----------------------------------------------------------

def test_two_point_space_scale_one():
    rep = check_length_space([[0, 1], [1, 0]], 1, 1)
    assert rep.ok
    assert rep.witness_chains[(0, 1)] == (0, 1)


def test_two_point_space_small_scale_fails():
    rep = check_length_space([[0, 1], [1, 0]], 5, F(1, 2))
    assert not rep.ok
    assert (0, 1) in rep.failures


def test_circle_grid_length_space():
    m = 8
    rep = check_length_space(circle_metric(m), 1, 1)
    assert rep.ok
    d = circle_metric(m)
    for (x, y), chain in rep.witness_chains.items():
        total = sum(d[a][b] for a, b in zip(chain, chain[1:]))
        assert all(d[a][b] <= 1 for a, b in zip(chain, chain[1:]))
        assert total <= d[x][y]  # B = 1
        assert len(chain) - 1 <= 2 * d[x][y] + 1  # thinning bound at K = 1


def test_length_space_forced_multi_hop_chain():
    # collinear points: the far pair is only reachable through the middle
    d = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    rep = check_length_space(d, 1, 1)
    assert rep.ok
    assert rep.witness_chains[(0, 2)] == (0, 1, 2)
    assert rep.witness_chains[(2, 0)] == (2, 1, 0)


def test_length_space_bad_args():
    with pytest.raises(InputError):
        check_length_space([[0, 1], [1, 0]], F(1, 2), 1)  # B < 1
    with pytest.raises(InputError):
        check_length_space([[0, 1]], 1, 1)


# --- growth constants ----------------------------------------------------------------

def test_growth_constants_constant_cost():
    base = gen_constant(2, F(5))
    inst = make_instance(base.cost, base.labels, base.mode, metric=[[0, 1], [1, 0]])
    assert growth_A(inst, 1) == F(5)
    assert growth_C(inst, 0) == F(-5)


def test_growth_constants_fk_match_exhaustive_scan():
    inst = gen_fk(8, 1, fk_potential_well(8, 0))
    for R in (0, 1, 2):
        expected = max(
            inst.cost[x][y]
            for x in range(8)
            for y in range(8)
            if inst.metric[x][y] <= R
        )
        assert growth_A(inst, R) == expected
    for k in (0, 1, 3):
        expected = max(
            k * inst.metric[x][y] - inst.cost[x][y]
            for x in range(8)
            for y in range(8)
        )
        assert growth_C(inst, k) == expected


def test_growth_requires_metric():
    inst = gen_constant(2, 1)
    with pytest.raises(InputError):
        growth_A(inst, 1)


# --- Lipschitz in the large -----------------------------------------------------------

def test_lipschitz_constant_function():
    inst = gen_fk(6, 1, fk_potential_well(6, 0))
    u = as_value_function(inst, [3] * 6)
    assert lipschitz_large_check(inst, u, 0, 0).ok
    assert lipschitz_large_check(inst, u, 5, 1).ok


def test_lipschitz_outlier_fails_with_witness():
    inst = gen_fk(6, 1, fk_potential_well(6, 0))
    u = as_value_function(inst, [0, 0, 0, 1000, 0, 0])
    res = lipschitz_large_check(inst, u, 1, 1)
    assert not res.ok
    assert 3 in res.witness


def test_dominated_functions_pass_with_derived_constants():
    inst = gen_fk(8, 1, fk_potential_well(8, 0))
    crit = critical_value(inst)
    k, b = lipschitz_constants(inst, crit.alpha0, B=1, K=1)
    for u in subsolution_sampler(inst, crit, seed=0, count=20):
        assert lipschitz_large_check(inst, u, k, b).ok


def test_apriori_radius_bounds_argmins():
    inst = gen_fk(8, 1, fk_potential_well(8, 0))
    crit = critical_value(inst)
    D = apriori_radius(inst, crit.alpha0, B=1, K=1)
    assert D is not None and D > 0
    for u in subsolution_sampler(inst, crit, seed=1, count=20):
        assert check_apriori(inst, u, crit.alpha0, B=1, K=1).ok


def test_apriori_degenerate_slope_passes():
    # constant cost with a metric: all dominated functions are constant
    base = gen_constant(2, F(5))
    inst = make_instance(base.cost, base.labels, base.mode, metric=[[0, 1], [1, 0]])
    crit = critical_value(inst)
    assert apriori_radius(inst, crit.alpha0, B=1, K=1) is None
    u = as_value_function(inst, [2, 2])
    assert check_apriori(inst, u, crit.alpha0, B=1, K=1).ok


# --- serialization ---------------------------------------------------------------------

def test_round_trip_identity(tmp_path, t2):
    p = tmp_path / "t2.json"
    save(t2, p)
    again = load(p)
    assert again == t2
    # byte-stable in exact mode
    save(again, tmp_path / "t2b.json")
    assert (tmp_path / "t2.json").read_bytes() == (tmp_path / "t2b.json").read_bytes()


def test_round_trip_with_metric_and_rationals():
    inst = gen_fk(4, F(1, 2), fk_potential_well(4, 1))
    text = dumps(inst)
    assert loads(text) == inst
    assert '"-1/2"' in dumps(
        gen_constant(1, F(-1, 2))
    )  # rationals serialize as p/q strings


def test_load_rejects_bad_documents(tmp_path):
    with pytest.raises(InputError):
        loads("{not json")
    with pytest.raises(InputError):
        loads('{"cost": [[1, 2]]}')  # not square
    with pytest.raises(InputError):
        loads('{"cost": [[1, "x"]]}')
    with pytest.raises(InputError):
        loads('{"cost": [[NaN, 1],[1, 1]]}')
    with pytest.raises(InputError):
        load(tmp_path / "missing.json")


def test_float_mode_round_trip():
    inst = gen_random(3, 5, -2.0, 2.0, mode=Mode("float", 1e-9))
    text = dumps(inst)
    again = loads(text)
    assert again.mode.kind == "float"
    assert again.cost == inst.cost
