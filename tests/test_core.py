import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkam import (
    InputError,
    ValueFunction,
    as_value_function,
    lax_oleinik_neg,
    lax_oleinik_pos,
    make_instance,
    reverse_cost,
)
from wkam.core import check_circulant, check_metric, minplus_product
from wkam.numbers import Mode, parse_value
from wkam.models import circle_metric, gen_constant

from conftest import power
from walk_reference import enum_walks


def vf(inst, vals):
    return as_value_function(inst, vals)


# --- construction ------------------------------------------------------------

def test_empty_instance_rejected():
    with pytest.raises(InputError):
        make_instance([])


def test_non_square_rejected():
    with pytest.raises(InputError):
        make_instance([[F(1), F(2)]])


def test_metric_validation():
    with pytest.raises(InputError):
        make_instance([[F(0)]], metric=[[F(1)]])  # nonzero diagonal
    with pytest.raises(InputError):
        make_instance(
            [[F(0), F(0)], [F(0), F(0)]], metric=[[F(0), F(1)], [F(2), F(0)]]
        )  # asymmetric
    bad_triangle = [
        [0, 1, 5],
        [1, 0, 1],
        [5, 1, 0],
    ]
    with pytest.raises(InputError):
        make_instance([[F(0)] * 3 for _ in range(3)], metric=bad_triangle)


@pytest.mark.parametrize(
    "metric, where",
    [
        ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], "(0,1,2)"),
        ([[0, 5, 1, 1], [5, 0, 1, 9], [1, 1, 0, 1], [1, 9, 1, 0]], "(0,2,1)"),
    ],
)
def test_triangle_violation_names_first_triple(metric, where):
    # the scan covers pairs j > i only; the first violation it names is
    # the first in row-major order over all pairs
    n = len(metric)
    with pytest.raises(InputError, match=re.escape(f"triangle inequality at {where}")):
        make_instance([[0] * n] * n, metric=metric)


def _verdict(check, *args):
    """The message of the InputError that check raises, or None."""
    try:
        check(*args)
    except InputError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(-1, 5), min_size=1, max_size=8), st.booleans())
def test_circulant_check_is_check_metric_on_its_matrix(row, mirrored):
    # gen_fk checks its circle metric on the base row, in O(m^2): it must
    # reject what check_metric rejects on the whole matrix, with its message
    if mirrored:  # nonnegative, a zero diagonal and symmetric: only triangles can fail
        row[0] = 0
        for a in range(1, len(row)):
            row[-a] = row[a] = abs(row[a])
    matrix = tuple(tuple(row[-i:] + row[:-i]) for i in range(len(row)))
    assert _verdict(check_circulant, row) == _verdict(check_metric, matrix)


def test_circulant_check_accepts_the_circle_metric():
    for m in range(1, 65):
        check_circulant(circle_metric(m)[0])


LINE = [[0, F(1, 10), F(8, 10)], [F(1, 10), 0, F(7, 10)], [F(8, 10), F(7, 10), 0]]


def test_float_metric_holds_within_the_band():
    # 0.1 + 0.7 = 0.7999999999999999 < 0.8 in floats: the line metric is a
    # metric in both modes
    cost = [[0] * 3] * 3
    assert make_instance(cost, metric=LINE).metric == tuple(map(tuple, LINE))
    inst = make_instance(cost, mode=Mode("float"), metric=LINE)
    assert inst.metric == ((0.0, 0.1, 0.8), (0.1, 0.0, 0.7), (0.8, 0.7, 0.0))
    check_metric(tuple(tuple(float(v) for v in row) for row in LINE), Mode("float"))


@pytest.mark.parametrize("mode", [Mode("exact"), Mode("float")], ids=["exact", "float"])
def test_metric_off_by_more_than_the_band_raises(mode):
    bad = [[0, 0.1, 0.801], [0.1, 0, 0.7], [0.801, 0.7, 0]]
    with pytest.raises(InputError, match=re.escape("triangle inequality at (0,1,2)")):
        make_instance([[0] * 3] * 3, mode=mode, metric=bad)
    # exact mode keeps its exact comparison: a triangle missed by 1e-12
    tight = [[0, F(1, 10), F(8, 10) + F(1, 10**12)], [F(1, 10), 0, F(7, 10)]]
    tight.append([tight[0][2], F(7, 10), 0])
    if mode.exact:
        with pytest.raises(InputError, match=re.escape("triangle inequality at (0,1,2)")):
            make_instance([[0] * 3] * 3, metric=tight)
    else:
        make_instance([[0] * 3] * 3, mode=mode, metric=tight)


@pytest.mark.parametrize("mode", [Mode("exact"), Mode("float")], ids=["exact", "float"])
def test_negative_infinity_refused(mode):
    with pytest.raises(InputError, match="-inf"):
        make_instance([[-math.inf, 0], [0, 0]], mode=mode)
    with pytest.raises(InputError, match="-inf"):
        make_instance([[0, 0], [0, 0]], mode=mode, metric=[[0, -math.inf], [-math.inf, 0]])
    for inf in (math.inf, parse_value("inf", mode)):  # a missing edge
        inst = make_instance([[inf, 0], [0, 0]], mode=mode)
        assert not inst.total and inst.cost[0][0] == math.inf


# --- backward operator -------------------------------------------------------

def test_lax_neg_constant_cost():
    inst = gen_constant(2, 5)
    out = lax_oleinik_neg(inst, vf(inst, [0, 0]))
    assert out.values == (F(5), F(5))


def test_lax_neg_t2_zero(t2):
    out = lax_oleinik_neg(t2, vf(t2, [0, 0]))
    assert out.values == (F(1), F(0))


def test_lax_neg_t2_tilted(t2):
    # four-term min done by hand, cross-checked against one-step walk costs
    u = vf(t2, [0, F(-1, 2)])
    out = lax_oleinik_neg(t2, u)
    expected = tuple(
        min(u.values[y] + enum_walks(t2, y, x, 1) for y in range(2)) for x in range(2)
    )
    assert out.values == expected == (F(1, 2), F(0))


def test_lax_requires_finite():
    inst = gen_constant(2, 1)
    with pytest.raises(InputError):
        lax_oleinik_neg(inst, ValueFunction((F(0), float("inf"))))


# --- forward operator --------------------------------------------------------

def test_lax_pos_constant_cost():
    inst = gen_constant(2, 5)
    out = lax_oleinik_pos(inst, vf(inst, [0, 0]))
    assert out.values == (F(-5), F(-5))


def test_lax_pos_t2(t2):
    out = lax_oleinik_pos(t2, vf(t2, [0, 0]))
    assert out.values == (F(0), F(-1))


def test_pos_after_neg_below_identity(t2):
    u = vf(t2, [F(1, 4), F(-3, 4)])
    down = lax_oleinik_pos(t2, lax_oleinik_neg(t2, u))
    assert all(a <= b for a, b in zip(down.values, u.values))


# --- reversal ----------------------------------------------------------------

def test_reverse_constant_is_identity():
    inst = gen_constant(3, 7)
    assert reverse_cost(inst).cost == inst.cost


def test_reverse_t2(t2):
    assert reverse_cost(t2).cost == ((F(2), F(1)), (F(0), F(3)))


def test_reverse_involution(t2):
    assert reverse_cost(reverse_cost(t2)) == t2


def test_reversal_identity_bit_exact(t2):
    u = vf(t2, [F(1, 3), F(-2, 7)])
    pos = lax_oleinik_pos(t2, u)
    neg_u = ValueFunction(tuple(-v for v in u.values))
    via = lax_oleinik_neg(reverse_cost(t2), neg_u)
    assert pos.values == tuple(-v for v in via.values)


# --- chain costs -------------------------------------------------------------

def test_minplus_power_constant():
    inst = gen_constant(3, F(3, 2))
    for n in (1, 2, 5):
        table = power(inst, n)
        assert all(v == n * F(3, 2) for row in table.entries for v in row)


def test_minplus_power_t2_matches_enumeration(t2):
    c2 = power(t2, 2)
    assert c2.entries[0][0] == F(1)
    assert c2.entries[0][1] == F(2)
    for n in range(1, 7):
        table = power(t2, n)
        for x in range(2):
            for y in range(2):
                assert table.entries[x][y] == enum_walks(t2, x, y, n)


def test_semigroup_law(t2):
    # chain costs split over intermediate lengths
    for n in range(1, 6):
        for m in range(1, 6):
            whole = power(t2, n + m).entries
            split = minplus_product(power(t2, n).entries, power(t2, m).entries)
            assert whole == split


# --- operator laws (property-based) -------------------------------------------

small_costs = st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)
small_funcs = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=3, max_size=3
)


@settings(max_examples=40, deadline=None)
@given(small_costs, small_funcs, small_funcs)
def test_monotonicity(cost, uvals, bump):
    inst = make_instance(cost)
    u = vf(inst, uvals)
    v = vf(inst, [a + abs(b) for a, b in zip(uvals, bump)])
    tu = lax_oleinik_neg(inst, u)
    tv = lax_oleinik_neg(inst, v)
    assert all(a <= b for a, b in zip(tu.values, tv.values))


@settings(max_examples=40, deadline=None)
@given(small_costs, small_funcs, st.fractions(min_value=-5, max_value=5, max_denominator=8))
def test_constant_commutation(cost, uvals, k):
    inst = make_instance(cost)
    u = vf(inst, uvals)
    shifted = vf(inst, [v + k for v in uvals])
    assert lax_oleinik_neg(inst, shifted).values == tuple(
        v + k for v in lax_oleinik_neg(inst, u).values
    )


def test_minplus_power_graph_mode_absorbs_missing_edges():
    inf = float("inf")
    inst = make_instance([[inf, F(1)], [F(2), inf]])
    assert not inst.total
    c2 = power(inst, 2)
    # two-step walks exist only loop-wise: a->b->a and b->a->b
    assert c2.entries == ((F(3), inf), (inf, F(3)))


def test_operations_do_not_mutate_inputs(t2):
    u = vf(t2, [0, 0])
    before_cost, before_grid = t2.cost, t2.cost_grid.grid
    before_u = u.values
    lax_oleinik_neg(t2, u)
    lax_oleinik_pos(t2, u)
    power(t2, 3)
    assert t2.cost == before_cost
    assert t2.cost_grid.grid == before_grid
    assert u.values == before_u
