from fractions import Fraction as F

import pytest

from wkam import (
    InputError,
    ValueFunction,
    critical_value,
    is_dominated,
    jump_F,
    jump_f,
    lax_oleinik_neg,
    lax_oleinik_pos,
    mane_potential,
    phi_n,
    reverse_cost,
)
from wkam.models import gen_constant, gen_random
from wkam.oracle import cycle_scan, subsolution_sampler

from walk_reference import enum_walks


def reduced_walk_min(inst, crit, x, y, max_len=6):
    """Oracle: least reduced cost over walks of length 1..max_len."""
    return min(
        enum_walks(inst, x, y, n) + n * crit.alpha0 for n in range(1, max_len + 1)
    )


def test_constant_potential_vanishes():
    inst = gen_constant(3, F(7, 2))
    crit = critical_value(inst)
    phi = mane_potential(inst, crit)
    assert all(v == 0 for row in phi.entries for v in row)


def test_t2_potential_values(t2):
    crit = critical_value(t2)
    phi = mane_potential(t2, crit)
    # oracle first: shortest reduced walks up to length 6
    assert reduced_walk_min(t2, crit, 0, 1) == F(-1, 2)
    assert reduced_walk_min(t2, crit, 1, 0) == F(1, 2)
    assert phi.entries == ((F(0), F(-1, 2)), (F(1, 2), F(0)))


def test_potential_bounded_by_reduced_cost():
    for seed in range(12):
        inst = gen_random((seed % 5) + 1, seed, -2, 2)
        crit = critical_value(inst)
        phi = mane_potential(inst, crit)
        for x in range(inst.n):
            for y in range(inst.n):
                assert phi.entries[x][y] <= inst.cost[x][y] + crit.alpha0


def test_potential_triangle_inequality():
    inst = gen_random(5, 23, -2, 2)
    crit = critical_value(inst)
    p = mane_potential(inst, crit).entries
    for x in range(5):
        for y in range(5):
            for z in range(5):
                assert p[x][z] <= p[x][y] + p[y][z]


# --- tail potentials -----------------------------------------------------------

def test_phi_n_constant():
    inst = gen_constant(2, F(3))
    crit = critical_value(inst)
    for n in (1, 2, 4):
        table = phi_n(inst, crit, n)
        assert all(v == 0 for row in table.entries for v in row)


def test_phi1_diagonal_t2(t2):
    crit = critical_value(t2)
    scan = cycle_scan(t2)  # oracle: min reduced cycle per point
    table = phi_n(t2, crit, 1)
    assert scan.vertex_min_reduced == (F(0), F(0))
    assert table.entries[0][0] == 0
    assert table.entries[1][1] == 0


def test_phi_n_rejects_zero(t2):
    crit = critical_value(t2)
    with pytest.raises(InputError):
        phi_n(t2, crit, 0)


def test_phi_n_nondecreasing_and_recursive():
    inst = gen_random(4, 3, -2, 2)
    crit = critical_value(inst)
    tables = [phi_n(inst, crit, n) for n in range(1, 6)]
    for a, b in zip(tables, tables[1:]):
        for ra, rb in zip(a.entries, b.entries):
            assert all(x <= y for x, y in zip(ra, rb))
    # one-step recursion: next table row = backward update of current row
    for n, table in enumerate(tables[:-1]):
        for x in range(inst.n):
            row = ValueFunction(table.entries[x])
            img = lax_oleinik_neg(inst, row)
            stepped = tuple(v + crit.alpha0 for v in img.values)
            assert stepped == tables[n + 1].entries[x]


def test_phi_n_rows_critically_dominated():
    inst = gen_random(5, 62, -2, 2)
    crit = critical_value(inst)
    for n in range(1, 5):
        table = phi_n(inst, crit, n)
        for x in range(inst.n):
            row = ValueFunction(table.entries[x])
            assert is_dominated(inst, row, crit.alpha0).ok


def test_phi1_equals_backward_update_of_phi():
    # the tail potential of order 1 is exactly T-(phi row) + alpha0, diagonal included
    inst = gen_random(5, 40, -2, 2)
    crit = critical_value(inst)
    phi = mane_potential(inst, crit)
    phi1 = phi_n(inst, crit, 1)
    for x in range(inst.n):
        img = lax_oleinik_neg(inst, ValueFunction(phi.entries[x]))
        assert tuple(v + crit.alpha0 for v in img.values) == phi1.entries[x]


# --- jump functions -------------------------------------------------------------

def test_jumps_constant():
    inst = gen_constant(3, F(5))
    crit = critical_value(inst)
    assert jump_F(inst, crit).values == (0, 0, 0)
    assert jump_f(inst, crit).values == (0, 0, 0)


def test_jumps_t2(t2):
    crit = critical_value(t2)
    assert jump_F(t2, crit).values == (0, 0)
    assert jump_f(t2, crit).values == (0, 0)


def test_jump_t3_positive_off_aubry(t3):
    crit = critical_value(t3)
    scan = cycle_scan(t3)
    assert 2 not in scan.zero_vertices  # oracle: no zero cycle through c
    Fv = jump_F(t3, crit)
    assert Fv.values[0] == 0 and Fv.values[1] == 0
    assert Fv.values[2] > 0
    fv = jump_f(t3, crit)
    assert fv.values[2] < 0


def test_jump_signs_and_reversal():
    for seed in (2, 9, 31):
        inst = gen_random(5, seed, -2, 2)
        crit = critical_value(inst)
        Fv = jump_F(inst, crit)
        fv = jump_f(inst, crit)
        assert all(v >= 0 for v in Fv.values)
        assert all(v <= 0 for v in fv.values)
        rev = reverse_cost(inst)
        rcrit = critical_value(rev)
        rF = jump_F(rev, rcrit)
        assert fv.values == tuple(-v for v in rF.values)
        # both jump functions vanish on the same set (cycle reversal
        # preserves zero cycles)
        assert {x for x in range(5) if fv.values[x] == 0} == {
            x for x in range(5) if Fv.values[x] == 0
        }


def test_jump_F_equals_phi1_diagonal():
    for seed in (1, 17):
        inst = gen_random(6, seed, -2, 2)
        crit = critical_value(inst)
        table = phi_n(inst, crit, 1)
        assert jump_F(inst, crit).values == tuple(
            table.entries[x][x] for x in range(6)
        )


# --- structural identities -------------------------------------------------------

def test_sup_representation_over_samples(t3):
    crit = critical_value(t3)
    phi = mane_potential(t3, crit)
    for u in subsolution_sampler(t3, crit, seed=0, count=50):
        for x in range(3):
            for y in range(3):
                assert u.values[y] - u.values[x] <= phi.entries[x][y]


def test_phi_envelope_is_dominated():
    inst = gen_random(5, 77, -2, 2)
    crit = critical_value(inst)
    p = mane_potential(inst, crit).entries
    r = [F(1), F(-3, 4), F(2), F(0), F(1, 4)]
    v = ValueFunction(
        tuple(min(r[x] + p[x][y] for x in range(5)) for y in range(5))
    )
    assert is_dominated(inst, v, crit.alpha0).ok


def test_forward_vanish_identities():
    inst = gen_random(5, 13, -2, 2)
    crit = critical_value(inst)
    phi = mane_potential(inst, crit)
    phi1 = phi_n(inst, crit, 1)
    for x in range(5):
        row = ValueFunction(phi1.entries[x])
        val = lax_oleinik_pos(inst, row).values[x] - crit.alpha0
        assert val == 0
    # iterated: forward orbits of both rows keep vanishing at the base point
    for x in range(5):
        for start in (phi1.entries[x], phi.entries[x]):
            cur = ValueFunction(start)
            for _ in range(5):
                cur = ValueFunction(
                    tuple(v - crit.alpha0 for v in lax_oleinik_pos(inst, cur).values)
                )
                assert cur.values[x] == 0


def test_rows_and_columns_dominated():
    inst = gen_random(5, 29, -2, 2)
    crit = critical_value(inst)
    phi = mane_potential(inst, crit)
    for x in range(5):
        assert is_dominated(inst, ValueFunction(phi.entries[x]), crit.alpha0).ok
        col = ValueFunction(tuple(-row[x] for row in phi.entries))
        assert is_dominated(inst, col, crit.alpha0).ok
