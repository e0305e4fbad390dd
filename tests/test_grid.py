"""The integer grid against the Fraction reference.

Exact mode computes on integers scaled by a common denominator and converts
to Fraction at the API.  These tests recompute every grid-backed output
with plain Fraction arithmetic (the generic ``kleene_plus`` and
``minplus_product`` on ``crit.reduced``, and the operator and domination
formulas written out entrywise) and require the same values and types.  The
instances mix denominators 3, 5 and 7 and have witness cycles of two or
more points, so alpha0 brings a denominator of its own; the orbit inputs
carry a denominator 11 that divides no grid scale.
"""

from fractions import Fraction as F
from itertools import chain
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkam import make_instance, reverse_cost
from wkam.barrier import (
    peierls_barrier,
    u_minus,
    u_plus,
    weak_kam_neg,
    weak_kam_pos,
)
from wkam.cli import main
from wkam.core import (
    PotentialTable,
    ValueFunction,
    format_grid,
    from_grid,
    grid_scale,
    kleene_plus,
    lax_oleinik_neg,
    lax_oleinik_pos,
    minplus_product,
    to_grid,
)
from wkam.critical import critical_value, is_dominated, solve_subsolution
from wkam.models import fk_potential_well, gen_constant, gen_fk, gen_random
from wkam.numbers import EXACT, INF, InputError, Mode, format_value, formatted_str, value_str
from wkam.oracle import subsolution_sampler
from wkam.potential import jump_F, jump_f, mane_potential, phi_n
from wkam.subsolution import max_strict_subsolution, uniform_subsolution_mix

from conftest import orbit, power


def _mixed(n: int, seed: int):
    rng = Random(seed)
    return make_instance(
        [[F(rng.randint(-12, 12), rng.choice((3, 5, 7))) for _ in range(n)] for _ in range(n)]
    )


def _corpus():
    """Mixed-denominator instances whose alpha0 leaves the cost grid."""
    out = [
        make_instance(
            [
                [F(1, 3), F(-2, 5), F(3), F(2)],
                [F(5, 7), F(1, 2), F(-1, 3), F(4)],
                [F(-3, 5), F(2), F(1), F(1, 7)],
                [F(1), F(2, 3), F(3, 5), F(2)],
            ]
        )
    ]
    seed = 0
    while len(out) < 12:
        inst = _mixed(3 + seed % 5, seed)
        crit = critical_value(inst)
        d0 = grid_scale((v for row in inst.cost for v in row))
        if len(crit.witness_cycle) > 1 and crit.kernel.scale != d0:
            out.append(inst)
        seed += 1
    return out


CORPUS = _corpus()


def _same(got, want):
    """Equal values, and every entry a Fraction (no int or float leaks)."""
    assert got == want
    flat = [v for row in got for v in (row if isinstance(row, tuple) else (row,))]
    assert all(type(v) is F for v in flat)


def _ref_phi1(crit):
    return kleene_plus(crit.reduced)


def _ref_barrier(inst, crit):
    e = _ref_phi1(crit)
    verts = [a for a in range(inst.n) if e[a][a] == 0]
    h = tuple(
        tuple(min(e[x][a] + e[a][y] for a in verts) for y in range(inst.n))
        for x in range(inst.n)
    )
    k, phi = 0, e
    while phi != h:  # phi_{1+k} = h, least k
        phi, k = minplus_product(phi, crit.reduced), k + 1
    return h, k


def _ref_mane(inst, crit):
    e = _ref_phi1(crit)
    return tuple(
        tuple(F(0) if x == y else e[x][y] for y in range(inst.n)) for x in range(inst.n)
    )


def _ref_neg(inst, u):
    """T-(u)(x) = min_y u(y) + c(y, x), entry by entry."""
    return tuple(min(u[y] + inst.cost[y][x] for y in range(inst.n)) for x in range(inst.n))


def _ref_pos(inst, u):
    """T+(u)(x) = -min_y c(x, y) - u(y), entry by entry."""
    return tuple(-min(inst.cost[x][y] - u[y] for y in range(inst.n)) for x in range(inst.n))


def _ref_dominated(inst, u, alpha):
    for x in range(inst.n):
        for y in range(inst.n):
            if u[y] - u[x] > inst.cost[x][y] + alpha:
                return False, (x, y)
    return True, None


def _ref_orbit(inst, crit, u, forward):
    cur, out = tuple(u), [tuple(u)]
    while True:
        if forward:
            nxt = tuple(v - crit.alpha0 for v in _ref_pos(inst, cur))
        else:
            nxt = tuple(v + crit.alpha0 for v in _ref_neg(inst, cur))
        if nxt == cur:
            return out
        out.append(nxt)
        cur = nxt


def _ref_strict(inst, crit, u):
    neg, pos = _ref_orbit(inst, crit, u, False), _ref_orbit(inst, crit, u, True)
    N = max(1, len(neg) - 1, len(pos) - 1)
    comps = [neg[min(k, len(neg) - 1)] for k in range(N + 1)]
    comps += [pos[min(k, len(pos) - 1)] for k in range(1, N + 1)]
    w = F(1, len(comps))
    return tuple(sum(w * c[i] for c in comps) for i in range(inst.n))


def _ref_mix(inst, crit):
    phi = _ref_mane(inst, crit)
    w = F(1, inst.n)
    return tuple(sum(w * (row[i] - row[0]) for row in phi) for i in range(inst.n))


def test_corpus_leaves_the_cost_grid():
    assert len(CORPUS) == 12
    assert all(len(critical_value(inst).witness_cycle) > 1 for inst in CORPUS)


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_grid_matches_fraction_reference(idx):
    inst = CORPUS[idx]
    crit = critical_value(inst)
    assert crit.kernel.grid == tuple(to_grid(row, crit.kernel.scale) for row in crit.reduced)
    phi1 = _ref_phi1(crit)
    _same(phi_n(inst, crit, 1).entries, phi1)
    phi3 = minplus_product(minplus_product(phi1, crit.reduced), crit.reduced)
    _same(phi_n(inst, crit, 3).entries, phi3)
    bar = peierls_barrier(inst, crit)
    h, k = _ref_barrier(inst, crit)
    _same(bar.h.entries, h)
    assert bar.iterations_to_fix == k
    phi = mane_potential(inst, crit)
    _same(phi.entries, _ref_mane(inst, crit))
    F_ref = tuple(
        min(phi.entries[x][z] + inst.cost[z][x] for z in range(inst.n)) + crit.alpha0
        for x in range(inst.n)
    )
    _same(jump_F(inst, crit).values, F_ref)
    f_ref = tuple(
        _ref_pos(inst, tuple(-row[x] for row in phi.entries))[x] - crit.alpha0
        for x in range(inst.n)
    )
    _same(jump_f(inst, crit).values, f_ref)
    mix = uniform_subsolution_mix(inst, crit)
    _same(mix.values, _ref_mix(inst, crit))
    _same(max_strict_subsolution(inst, crit).values, _ref_strict(inst, crit, mix.values))


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_orbits_off_the_grid_match_fraction_reference(idx):
    inst = CORPUS[idx]
    crit = critical_value(inst)
    phi = _ref_mane(inst, crit)
    # The mean of two dominated rows, shifted by 1/11: dominated, and every
    # entry has a denominator 11, which divides no scale the instance has.
    u = tuple((a + b) / 2 + F(1, 11) for a, b in zip(phi[0], phi[-1]))
    assert all(v.denominator % 11 == 0 for v in u)
    for forward in (False, True):
        got = orbit(inst, crit, ValueFunction(u), forward)
        want = _ref_orbit(inst, crit, u, forward)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)


def test_grid_helpers_round_trip():
    vals = (F(1, 3), F(-5, 7), F(2), INF)
    D = grid_scale(vals)
    assert D == 21
    assert to_grid(vals, D) == (7, -15, 42, INF)
    assert from_grid(EXACT, to_grid(vals, D), D) == vals
    # doubles are dyadic: their grid is the largest denominator, and
    # float mode reads each grid value as the nearest double
    assert grid_scale((0.5, 0.25, -3.0, INF)) == 4
    assert to_grid((0.5, INF, -0.75), 4) == (2, INF, -3)
    flt = Mode("float")
    assert from_grid(flt, (3, 1, 0, INF), 2) == (1.5, 0.5, 0.0, INF)
    assert from_grid(flt, (1,), 3) == (1 / 3,)


@st.composite
def _exact_rows(draw):
    D = draw(st.one_of(st.just(1), st.integers(1, 10**12)))
    k = st.integers(-(2**70), 2**70)
    entry = st.one_of(k, k.map(lambda q: q * D), st.just(0), st.just(INF))
    return D, draw(st.lists(entry, max_size=8))


_float_rows = st.tuples(
    st.sampled_from([1, 2, 3, 10, 2**60]),
    st.lists(st.one_of(st.integers(-(2**80), 2**80), st.just(0), st.just(INF)), max_size=8),
)


def _same_format(mode, D, row):
    # the printed form of each grid value, with the types and signed zeros
    # of format_value and the CSV text of value_str
    got = format_grid(mode, row, D)
    want = [format_value(v) for v in from_grid(mode, row, D)]
    assert repr(got) == repr(want)
    assert [formatted_str(v) for v in got] == [value_str(v) for v in from_grid(mode, row, D)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_exact_rows())
def test_format_grid_equals_format_value_of_from_grid(case):
    _same_format(EXACT, *case)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_float_rows)
def test_float_format_grid_equals_format_value_of_from_grid(case):
    _same_format(Mode("float"), *case)


def test_format_grid_reduces_by_the_gcd():
    assert format_grid(EXACT, [25, -9, 0, 30, INF, 2**65 * 30], 30) == [
        "5/6", "-3/10", 0, 1, "inf", 2**65,
    ]
    assert format_grid(EXACT, [7, INF], 1) == [7, "inf"]
    # exact arithmetic has no -0.0: float mode prints 0 as 0.0
    assert repr(format_grid(Mode("float"), [0, INF, 1, -3], 2)) == repr([0.0, "inf", 0.5, -1.5])


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_operators_off_the_grid_match_fraction_reference(idx):
    inst = CORPUS[idx]
    rng = Random(idx)
    inputs = [tuple(F(rng.randint(-40, 40), 11) for _ in range(inst.n)) for _ in range(4)]
    inputs.append((0,) * inst.n)  # ints come back as Fractions
    for u in inputs:
        _same(lax_oleinik_neg(inst, ValueFunction(u)).values, _ref_neg(inst, u))
        _same(lax_oleinik_pos(inst, ValueFunction(u)).values, _ref_pos(inst, u))


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_domination_off_the_grid_matches_fraction_reference(idx):
    inst = CORPUS[idx]
    crit = critical_value(inst)
    phi = _ref_mane(inst, crit)
    rng = Random(idx)
    inputs = [tuple((a + b) / 2 + F(1, 11) for a, b in zip(phi[0], phi[-1]))]
    inputs += [tuple(F(rng.randint(-9, 9), 11) for _ in range(inst.n)) for _ in range(3)]
    outcomes = set()
    for u in inputs:
        for alpha in (crit.alpha0, crit.alpha0 - F(1, 11), crit.alpha0 + 3):
            got = is_dominated(inst, ValueFunction(u), alpha)
            want = _ref_dominated(inst, u, alpha)
            assert (got.ok, got.witness) == want
            outcomes.add(want[0])
    assert outcomes == {True, False}


def test_sparse_costs_keep_their_errors():
    # Column 1 and row 1 are all +inf: point 1 has no incoming and no
    # outgoing edge.
    dead = make_instance([[F(1, 3), INF, F(2)], [INF, INF, INF], [F(1, 5), INF, F(1, 7)]])
    u = ValueFunction((F(1, 11), F(0), F(-2, 11)))
    no_in = r"^backward update produced \+inf \(a point has no incoming edge\)$"
    no_out = r"^forward update produced -inf \(a point has no outgoing edge\)$"
    with pytest.raises(InputError, match=no_in):
        lax_oleinik_neg(dead, u)
    with pytest.raises(InputError, match=no_out):
        lax_oleinik_pos(dead, u)
    with pytest.raises(InputError, match=r"^value function must be finite everywhere$"):
        lax_oleinik_neg(dead, ValueFunction((F(0), INF, F(0))))
    with pytest.raises(InputError, match=r"^function length 2 != 3 points$"):
        lax_oleinik_pos(dead, ValueFunction((F(0), F(0))))
    # +inf entries elsewhere are skipped, as in the Fraction formulas.
    sparse = make_instance([[F(1, 3), INF], [F(2, 5), F(1, 7)]])
    for u in ((F(1, 11), F(-3, 11)), (F(0), F(5, 11))):
        _same(lax_oleinik_neg(sparse, ValueFunction(u)).values, _ref_neg(sparse, u))
        _same(lax_oleinik_pos(sparse, ValueFunction(u)).values, _ref_pos(sparse, u))
        for alpha in (F(0), F(-1, 3)):
            got = is_dominated(sparse, ValueFunction(u), alpha)
            assert (got.ok, got.witness) == _ref_dominated(sparse, u, alpha)


def test_float_operators_equal_by_repr():
    # float mode computes on the dyadic values of its doubles and rounds
    # each output once: its operators equal float() of the exact ones on
    # the same values, by repr, so 0 is read as 0.0 and never as -0.0
    flt = Mode("float")
    signed = make_instance([[0.0, -0.0, 1.5], [-0.0, 0.0, 0.0], [2.0, 0.0, -0.0]], mode=flt)
    cases = [(signed, (0.0, -0.0, 0.0)), (signed, (-0.0, 0.0, -0.0)), (signed, (0, F(1, 2), -0.0))]
    rng = Random(5)
    for n in (1, 4, 7):
        inst = gen_random(n, n, -2.0, 2.0, mode=flt)
        cases.append((inst, tuple(rng.uniform(-3.0, 3.0) for _ in range(n))))
    for inst, u in cases:
        twin = make_instance([[F(v) for v in row] for row in inst.cost])
        v = tuple(F(float(x)) for x in u)
        for op, ref in ((lax_oleinik_neg, _ref_neg), (lax_oleinik_pos, _ref_pos)):
            assert repr(op(inst, ValueFunction(u)).values) == repr(tuple(map(float, ref(twin, v))))
    assert repr(lax_oleinik_pos(signed, ValueFunction((-0.0,) * 3)).values) == "(0.0, 0.0, 0.0)"
    # u_plus of a barrier row of the fk well, which has zeros
    inst = gen_fk(6, 1, fk_potential_well(6, 2), mode=flt)
    twin = gen_fk(6, 1, fk_potential_well(6, 2))
    crit, tcrit = critical_value(inst), critical_value(twin)
    u = weak_kam_neg(peierls_barrier(inst, crit), crit.aubry_vertices()[0])
    tu = weak_kam_neg(peierls_barrier(twin, tcrit), tcrit.aubry_vertices()[0])
    up = u_plus(inst, crit, u).values
    assert repr(up) == repr(tuple(map(float, u_plus(twin, tcrit, tu).values)))
    assert 0.0 in up and "-0.0" not in repr(up)


def test_cost_grid_held_once():
    inst = CORPUS[0]
    t = inst.cost_grid
    assert t.scale == grid_scale(chain.from_iterable(inst.cost)) == 210
    assert t.grid == tuple(to_grid(row, t.scale) for row in inst.cost)
    assert t.at(t.scale) is t.grid
    assert t.at(2 * t.scale) == tuple(tuple(2 * v for v in row) for row in t.grid)
    # a float instance holds the doubles it drew on their dyadic grid
    flt = gen_random(4, 0, -2.0, 2.0, mode=Mode("float"))
    rng = Random(0)
    drawn = tuple(tuple(rng.uniform(-2.0, 2.0) for _ in range(4)) for _ in range(4))
    t = flt.cost_grid
    assert t.scale == max(v.as_integer_ratio()[1] for row in drawn for v in row)
    assert t.grid == tuple(to_grid(row, t.scale) for row in drawn)
    assert flt.cost == drawn


def test_float_tables_hold_floats(monkeypatch, capsys):
    # a float table holds its exact grid, ints on the doubles' dyadic grid
    # or a finer one, and reads floats: each entry is k / D rounded once
    made = []
    init = PotentialTable.__init__

    def recorded(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(PotentialTable, "__init__", recorded)
    flt = Mode("float", 1e-9)
    for inst in (
        gen_random(6, 1, -2, 2, mode=flt),
        gen_fk(6, 1, fk_potential_well(6, 2), mode=flt),
        gen_constant(3, 1, mode=flt),
        make_instance([[1, 2], [3, 0]], mode=flt, metric=[[0, 1], [1, 0]]),
    ):
        crit = critical_value(inst)
        mane_potential(inst, crit)
        peierls_barrier(inst, crit).iterations_to_fix
        phi_n(inst, crit, 3)
        max_strict_subsolution(inst, crit)
        reverse_cost(inst)
        power(inst, 2)
    for sub in ("critical", "potential", "barrier", "aubry", "subsolution", "plotdata"):
        assert main([sub, "--gen", "fk:6:1:well@1", "--mode", "float"]) == 0
    capsys.readouterr()
    assert len(made) > 40
    for t in made:
        assert all(type(k) is int for row in t.grid for k in row)
        assert t.entries == tuple(tuple(k / t.scale for k in row) for row in t.grid)
        assert all(type(v) is float for row in t.entries for v in row)


def test_value_function_on_the_grid_equals_one_from_values():
    # a vector is held like a table: on its least grid, converted on read
    by_grid = ValueFunction.on_grid((3, -6, 0, 9), 12, EXACT, tag="u")
    by_values = ValueFunction((F(1, 4), F(-1, 2), F(0), F(3, 4)), tag="u")
    assert (by_grid.grid, by_grid.scale) == ((1, -2, 0, 3), 4)
    assert by_values.grid is None
    assert by_grid == by_values and hash(by_grid) == hash(by_values)
    assert repr(by_grid) == repr(by_values)
    assert by_values.grid_in(EXACT) == ((1, -2, 0, 3), 4)
    assert by_values.grid == (1, -2, 0, 3) and by_values.scale == 4
    assert by_values.at(EXACT, 8) == (2, -4, 0, 6)
    assert all(type(v) is F for v in by_grid.values)
    assert by_grid != ValueFunction.on_grid((3, -6, 0, 9), 12, EXACT, tag="v")
    # the operators return grid-held functions equal to value-held ones
    inst = CORPUS[0]
    for op in (lax_oleinik_neg, lax_oleinik_pos):
        img = op(inst, by_values)
        assert img._values is None
        again = ValueFunction(img.values, tag=img.tag)
        assert img == again and hash(img) == hash(again) and repr(img) == repr(again)
        assert all(type(v) is F for v in img.values)


def test_float_vectors_hold_floats():
    flt = Mode("float", 1e-9)
    # a float vector holds its exact grid and reads floats, rounded once
    half = ValueFunction.on_grid([1, 0, -3], 2, flt)
    assert half.values == (0.5, 0.0, -1.5) and (half.grid, half.scale) == ((1, 0, -3), 2)
    for inst in (gen_random(6, 1, -2, 2, mode=flt), gen_fk(6, 1, [0, 1, 4, 9, 4, 1], mode=flt)):
        crit = critical_value(inst)
        bar = peierls_barrier(inst, crit)
        u = uniform_subsolution_mix(inst, crit)
        made = [
            u,
            max_strict_subsolution(inst, crit),
            jump_F(inst, crit),
            jump_f(inst, crit),
            lax_oleinik_neg(inst, u),
            lax_oleinik_pos(inst, u),
            u_minus(inst, crit, u),
            u_plus(inst, crit, u),
            weak_kam_neg(bar, 1),
            weak_kam_pos(bar, 1),
            solve_subsolution(inst, crit.alpha0).u,
            *subsolution_sampler(inst, crit, 0, 3),
        ]
        for v in made:
            assert all(type(k) is int for k in v.grid), v.tag
            assert v.values == tuple(k / v.scale for k in v.grid), v.tag
            assert all(type(x) is float for x in v.values), v.tag
            assert all(type(x) is float for x in v.values), v.tag
