"""The integer grid against the Fraction reference.

Exact mode computes on integers scaled by a common denominator and converts
to Fraction at the API.  These tests recompute every grid-backed output
with plain Fraction arithmetic (the generic ``kleene_plus`` and
``minplus_product`` on ``crit.reduced``, and iterated ``lax_oleinik_neg``
and ``lax_oleinik_pos``) and require the same values and types.  The
instances mix denominators 3, 5 and 7 and have witness cycles of two or
more points, so alpha0 brings a denominator of its own; the orbit inputs
carry a denominator 11 that divides no grid scale.
"""

from fractions import Fraction as F
from random import Random

import pytest

from wkam import make_instance
from wkam.barrier import orbit_neg, orbit_pos, peierls_barrier
from wkam.core import (
    ValueFunction,
    from_grid,
    grid_scale,
    kleene_plus,
    lax_oleinik_neg,
    lax_oleinik_pos,
    minplus_product,
    to_grid,
)
from wkam.critical import critical_value
from wkam.numbers import EXACT, INF, Mode
from wkam.potential import jump_F, jump_f, mane_potential, phi_n
from wkam.subsolution import max_strict_subsolution, uniform_subsolution_mix


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
        d0 = grid_scale(EXACT, (v for row in inst.cost for v in row))
        if len(crit.witness_cycle) > 1 and crit.scale != d0:
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


def _ref_orbit(inst, crit, u, forward):
    cur, out = tuple(u), [tuple(u)]
    while True:
        if forward:
            img = lax_oleinik_pos(inst, ValueFunction(cur)).values
            nxt = tuple(v - crit.alpha0 for v in img)
        else:
            img = lax_oleinik_neg(inst, ValueFunction(cur)).values
            nxt = tuple(v + crit.alpha0 for v in img)
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
    assert crit.kernel == tuple(to_grid(EXACT, row, crit.scale) for row in crit.reduced)
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
    _same(jump_F(inst, crit, phi=phi).values, F_ref)
    f_ref = tuple(
        lax_oleinik_pos(inst, ValueFunction(tuple(-v for v in phi.col(x)))).values[x]
        - crit.alpha0
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
    for forward, orbit in ((False, orbit_neg), (True, orbit_pos)):
        got = orbit(inst, crit, ValueFunction(u))
        want = _ref_orbit(inst, crit, u, forward)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)


def test_grid_helpers_round_trip():
    vals = (F(1, 3), F(-5, 7), F(2), INF)
    D = grid_scale(EXACT, vals)
    assert D == 21
    assert to_grid(EXACT, vals, D) == (7, -15, 42, INF)
    assert from_grid(EXACT, to_grid(EXACT, vals, D), D) == vals
    flt = Mode("float")
    assert grid_scale(flt, (0.5, 0.25)) == 1
    assert to_grid(flt, (0.5, INF), 1) == (0.5, INF)
    assert from_grid(flt, (3.0, 1), 2) == (1.5, 0.5)
