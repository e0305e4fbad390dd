"""Exact P and h from the Aubry classes equal the tables of the whole kernel.

Exact ``CriticalData.kernel_plus()`` condenses the tight graph when one of
its strongly connected components holds two points, and the exact
closed-form barrier takes the least vertex of each Aubry class.  Both must
give the integers that ``core.kleene_plus`` on the whole kernel and the
product over every Aubry vertex give.  The condensed matrix has
nonnegative int entries, whose Kleene plus ``core.kleene_plus`` computes
on packed rows: it must give the ints of the entry loop at every field
width.  So must ``core.MinPlusRows``, the packed product and row of the
barrier's transient, which falls back to the entry loop past 63 bits.
The thin ``core.minplus_product`` must give the floats of the
one-``min``-per-entry form, signed zeros included.
"""

from fractions import Fraction
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from wkam import (
    barrier_closed_form,
    critical_value,
    gen_constant,
    gen_fk,
    gen_random,
    make_instance,
)
import wkam.core as core
from wkam.core import MinPlusRows, kleene_plus, minplus_product, minplus_row
from wkam.models import fk_potential_well
from wkam.numbers import INF

CASES = settings(max_examples=60, deadline=None, derandomize=True)
RANGES = [(-2, 2), (-100, 100), (0, 3)]


def _check(inst):
    """P and h of ``inst`` equal the tables of the whole kernel and all of A."""
    crit = critical_value(inst)
    p = crit.kernel_plus().grid
    assert p == kleene_plus(crit.kernel.grid)
    verts = crit.aubry_vertices()
    pts = range(inst.n)
    full = tuple(tuple(min(row[a] + p[a][y] for a in verts) for y in pts) for row in p)
    assert barrier_closed_form(inst, crit).grid == full
    return crit


@CASES
@given(st.integers(1, 24), st.integers(0, 10**6), st.sampled_from(RANGES))
def test_random_instances(n, seed, bounds):
    _check(gen_random(n, seed, *bounds))


@CASES
@given(st.data())
def test_mixed_denominators(data):
    n = data.draw(st.integers(1, 8), label="n")
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7, 12]))
    _check(make_instance([[data.draw(entry) for _ in range(n)] for _ in range(n)]))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.sampled_from([1, Fraction(1, 3), 2]))
def test_fk_at_every_centre(m, lam):
    for c in range(m):
        _check(gen_fk(m, lam, fk_potential_well(m, c)))


def test_constant_instance_is_one_class():
    for n in (1, 2, 7, 16):
        inst = gen_constant(n, Fraction(-3, 2))
        crit = _check(inst)
        assert crit.aubry_vertices() == tuple(range(n))
        assert crit.class_leaders() == (0,)


def test_random_instance_condenses():
    # the exact-random workload's size: A spans 11 points in 3 classes
    inst = gen_random(32, 1, -2, 2)
    crit = _check(inst)
    assert len(set(crit._comp)) < inst.n
    assert len(crit.aubry_vertices()) == 11
    assert len(crit.class_leaders()) == 3



def _floyd_warshall(a):
    d = [list(row) for row in a]
    for k in range(len(d)):
        for i in range(len(d)):
            for j in range(len(d)):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return tuple(map(tuple, d))


# the largest entries of one- to eight-byte fields, and past the last
TOPS = [0, 1, 63, 64, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**62 - 1, 2**62, 2**70]


@CASES
@given(st.data())
def test_packed_plus_matches_the_entry_loop(data):
    n = data.draw(st.integers(1, 12), label="n")
    top = data.draw(st.sampled_from(TOPS), label="top")
    entry = st.integers(0, top) | st.sampled_from([0, top])
    a = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(n))
    assert kleene_plus(a) == _floyd_warshall(a)


def test_packed_plus_at_every_field_boundary():
    # each top sets the field width, or sends the matrix past 64 bits
    for top in TOPS:
        a = ((top, 0, top // 2), (top // 3, top, 0), (0, top, top))
        assert kleene_plus(a) == _floyd_warshall(a)


def _entry_product(a, b):
    """min_z a(x, z) + b(z, y), one min per entry."""
    return tuple(tuple(min(map(add, arow, col)) for col in zip(*b)) for arow in a)


@CASES
@given(st.data())
def test_packed_product_and_row_match_the_entry_loop(data):
    # at 2^62 - 1 and lead = top every sum fits 63 bits; at 2^62 and past
    # 64 bits the kernel falls back to the entry loop
    n, k, rows = (data.draw(st.integers(1, hi), label=name) for name, hi in (("n", 12), ("k", 8), ("rows", 4)))
    top = data.draw(st.sampled_from(TOPS), label="top")
    lead = data.draw(st.sampled_from([0, top // 3, top]), label="lead")
    entry = st.integers(0, top) | st.sampled_from([0, top])
    coeff = st.integers(0, lead) | st.sampled_from([0, lead])
    b = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(k))
    a = tuple(tuple(data.draw(coeff) for _ in range(k)) for _ in range(rows))
    kernel = MinPlusRows(b, lead)
    assert kernel.product(a) == _entry_product(a, b)
    # a front advance: a few rows of b, in any order, with their weights
    zs = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k), label="zs")
    vs = [data.draw(coeff) for _ in zs]
    assert kernel.row(vs, zs) == _entry_product([vs], [b[z] for z in zs])[0]


def test_packed_rows_fall_back_past_63_bits(monkeypatch):
    # the fields hold sums up to lead + top below 2^63; from 2^63 on, and
    # for negative entries, the entry loop answers
    calls = []
    monkeypatch.setattr(core, "minplus_row", lambda *a: calls.append(1) or minplus_row(*a))
    cases = [(2**62 - 1, 2**62 - 1, 0), (2**62, 2**62, 1), (2**70, 0, 1), (-1, 0, 1)]
    for top, lead, entry_loops in cases:
        calls.clear()
        b = ((top, 0), (1, top))
        assert MinPlusRows(b, lead).row([lead, 0], [0, 1]) == (min(lead + top, 1), min(lead, top))
        assert len(calls) == entry_loops, top


@CASES
@given(st.data())
def test_offset_operand_of_m_matches_the_entry_loop(data):
    # the transient's m(x, w) = min_y P(w, y) - h(x, y) takes -h, whose
    # entries are negative; on packed rows it takes top - h >= 0, with top
    # the largest h, and gives top + m
    n = data.draw(st.integers(1, 10), label="n")
    top = data.draw(st.sampled_from(TOPS), label="top")
    entry = st.integers(0, top) | st.sampled_from([0, top])
    h = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(n))
    p = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(n))
    want = _entry_product([[-v for v in row] for row in h], tuple(zip(*p)))
    high = max(map(max, h))
    got = MinPlusRows(tuple(zip(*p)), high).product([[high - v for v in row] for row in h])
    assert tuple(tuple(v - high for v in row) for row in got) == want

SIGNED = st.sampled_from([0.0, -0.0, INF, 1.0, -1.0, 0.5, -0.5]) | st.floats(-4, 4, width=16)


@CASES
@given(st.data())
def test_thin_product_matches_min_per_entry(data):
    rows, k, width = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 6), (1, 4), (1, 16)))
    a = [[data.draw(SIGNED) for _ in range(k)] for _ in range(rows)]
    b = [[data.draw(SIGNED) for _ in range(width)] for _ in range(k)]
    want = tuple(tuple(min(map(add, arow, col)) for col in zip(*b)) for arow in a)
    assert repr(minplus_product(a, b)) == repr(want)


def test_thin_product_keeps_the_first_signed_zero():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        b = [[first] * 8, [second] * 8]
        assert repr(minplus_product([[-0.0, -0.0]], b)) == repr(((first,) * 8,))
