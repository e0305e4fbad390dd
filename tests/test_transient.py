"""The barrier's transient: the vector walk and the fronts against the
doubling reference.

With one Aubry class led by a, h(x, y) = P(x, a) + P(a, y) separates, and
``barrier._transient`` walks one column vector e_j = S^j g against the
bounds P(x, a); with two or more it walks, from every point x off the
Aubry set, the fronts of the walks that can still end below h.  Either
walk squares its step once it has paid for a product.  These tests check
k against ``transient_reference.reference_transient``, which doubles over
the dense tables G_j, pin the vector walk against the fronts on one-class
instances, and count the min-plus products each search makes, packed or
entry loop.  Both walks run on packed rows of potential-shifted ints
(``core.MinPlusRows``) and on the entry loop only where the fields would
pass 63 bits.
"""

import math
import time
from fractions import Fraction as F

import pytest

import transient_reference
import wkam.barrier
import wkam.core
from wkam import critical_value, make_instance, peierls_barrier
from wkam.core import MinPlusRows
from wkam.models import fk_potential_well, gen_fk, gen_random
from wkam.numbers import Mode

FLOAT = Mode("float", 1e-9)


@pytest.fixture
def products(monkeypatch):
    """The min-plus products of the solver's search, packed or entry loop,
    and of the reference, counted apart."""
    rec = {"solver": 0, "reference": 0}
    for key, owner, name in (
        ("solver", MinPlusRows, "product"),
        ("reference", transient_reference, "minplus_product"),
    ):
        def counted(*args, key=key, product=getattr(owner, name)):
            rec[key] += 1
            return product(*args)

        monkeypatch.setattr(owner, name, counted)
    return rec


def _both(inst, products):
    """(solver k, reference k, solver products, their bound) for one
    instance."""
    crit = critical_value(inst)
    h = peierls_barrier(inst, crit).h
    products["solver"] = products["reference"] = 0
    k = wkam.barrier._transient(inst, crit, h)
    made = products["solver"]
    return k, transient_reference.reference_transient(inst, crit, h), made, _limit(k, crit)


def _limit(k, crit):
    """Most products one search may make: a squaring follows a step at
    every smaller power, so at most floor(log2 k) of them, and m for two or
    more Aubry classes."""
    several = len(crit.class_leaders()) > 1 and len(crit.aubry_vertices()) < len(crit.kernel.grid)
    return max(k.bit_length() - 1, 0) + several


@pytest.mark.parametrize("mode", [Mode(), FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("lo, hi", [(-2, 2), (-100, 100), (0, 3)], ids=["2", "100", "0-3"])
def test_transient_matches_reference_on_random(products, mode, lo, hi):
    if not mode.exact:
        lo, hi = float(lo), float(hi)
    for n in range(1, 13):
        for seed in range(3):
            k, want, made, limit = _both(gen_random(n, seed, lo, hi, mode=mode), products)
            assert k == want, (n, seed)
            assert made <= limit, (n, seed)


@pytest.mark.parametrize("mode", [Mode(), FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("n", [8, 12])
def test_transient_matches_reference_on_fk_at_every_centre(products, mode, n):
    for c in range(n):
        k, want, made, limit = _both(gen_fk(n, 1, fk_potential_well(n, c), mode=mode), products)
        assert k == want, c
        assert made <= limit, c


def _two_wells(n, c):
    """An fk potential with zeros at 0 and c: each is an Aubry class of its
    own, as the step between them costs at least 1."""
    d = [min(y, n - y) for y in range(n)]  # circle distance to 0
    return [min(d[y], d[(y - c) % n]) ** 2 for y in range(n)]


@pytest.mark.parametrize("mode", [Mode(), FLOAT], ids=["exact", "float"])
def test_transient_matches_reference_at_mid_sizes(products, mode):
    lo, hi = (-100, 100) if mode.exact else (-100.0, 100.0)
    for n in (16, 24, 32, 48):
        well = gen_fk(n, 1, fk_potential_well(n, n // 3), mode=mode)
        wells = gen_fk(n, 1, _two_wells(n, n // 3), mode=mode)
        for inst in (well, wells, gen_random(n, n, lo, hi, mode=mode)):
            k, want, made, limit = _both(inst, products)
            assert k == want, n
            assert made <= limit, n


@pytest.mark.parametrize("mode", [Mode(), FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("n", [8, 12])
def test_fronts_match_reference_on_two_wells(products, mode, n):
    for c in range(1, n):
        inst = gen_fk(n, 1, _two_wells(n, c), mode=mode)
        assert len(critical_value(inst).class_leaders()) == 2, c
        k, want, made, limit = _both(inst, products)
        assert k == want, c
        assert made <= limit, c


def _by_fronts(monkeypatch, inst, crit, h):
    """k by the fronts, which hold for any number of classes."""
    with monkeypatch.context() as m:
        m.setattr(wkam.barrier, "_vector_walk", lambda crit, off: wkam.barrier._fronts(crit, h, off))
        return wkam.barrier._transient(inst, crit, h)


def test_vector_walk_matches_fronts_on_one_class(monkeypatch):
    insts = [gen_fk(n, 1, fk_potential_well(n, c)) for n in (5, 12) for c in range(n)]
    insts += [gen_random(n, n, -100, 100) for n in (16, 24, 32)]
    insts += [gen_random(n, s, 0.0, 3.0, mode=FLOAT) for n in (6, 9) for s in range(4)]
    # the 2 * 10^12-edge walk of the test below, and the full fronts
    insts += [make_instance([[0, 10**7], [10**7, F(1, 10**5)]]), _full_front(10, 10**3, F(1, 10))]
    for i, inst in enumerate(insts):
        crit = critical_value(inst)
        h = peierls_barrier(inst, crit).h
        assert len(crit.class_leaders()) == 1, i
        k = wkam.barrier._transient(inst, crit, h)
        assert k == _by_fronts(monkeypatch, inst, crit, h), i
        assert k == transient_reference.reference_transient(inst, crit, h), i


@pytest.mark.parametrize("mode", [Mode(), FLOAT], ids=["exact", "float"])
def test_fk_wells_never_reach_the_fronts(monkeypatch, mode):
    def refused(*args):
        raise AssertionError("an fk well reached the fronts")

    monkeypatch.setattr(wkam.barrier, "_fronts", refused)
    for n in (3, 5, 8, 12, 24):
        for c in range(n):
            inst = gen_fk(n, 1, fk_potential_well(n, c), mode=mode)
            assert peierls_barrier(inst, critical_value(inst)).iterations_to_fix >= 0


def _entry_loops(monkeypatch):
    """Count the entry-loop kernels wherever the transient could call them."""
    calls = []
    for mod in (wkam.core, wkam.barrier):
        for name in ("minplus_product", "minplus_row"):
            def counted(*args, kernel=getattr(mod, name)):
                calls.append(kernel.__name__)
                return kernel(*args)

            monkeypatch.setattr(mod, name, counted)
    return calls


def test_fk_transient_runs_on_packed_rows(monkeypatch):
    inst = gen_fk(24, 1, fk_potential_well(24, 0))
    crit = critical_value(inst)
    h = peierls_barrier(inst, crit).h
    calls = _entry_loops(monkeypatch)
    assert wkam.barrier._transient(inst, crit, h) == 8
    assert calls == []


def test_transient_past_64_bit_fields_takes_the_entry_loop(monkeypatch):
    # a double of 1e-300 next to ones near 1 puts the grid at 2^1049, so no
    # field holds the shifted weights
    cost = [
        [-1.05, 0.18, -0.52, 0.42],
        [0.5, -1.74, 1e-300, 1.35],
        [-0.96, -1.06, 1.98, -0.12],
        [1.35, -0.09, 0.56, -1.4],
    ]
    inst = make_instance(cost, mode=FLOAT)
    crit = critical_value(inst)
    h = peierls_barrier(inst, crit).h
    assert crit.kernel.scale.bit_length() > 1000
    calls = _entry_loops(monkeypatch)
    k = wkam.barrier._transient(inst, crit, h)
    assert calls
    # one class: the fronts, too, on the entry loop
    calls.clear()
    assert _by_fronts(monkeypatch, inst, crit, h) == k
    assert calls
    assert k == transient_reference.reference_transient(inst, crit, h) == 13


def test_long_transient_in_logarithmic_products(products):
    # walks inside B = {1} cost j / 10^5 and h(1, 1) = 2 * 10^7: the last
    # walk below h has 2 * 10^12 - 1 edges
    inst = make_instance([[0, 10**7], [10**7, F(1, 10**5)]])
    crit = critical_value(inst)
    bar = peierls_barrier(inst, crit)
    start = time.perf_counter()
    assert bar.iterations_to_fix == 1_999_999_999_999
    assert time.perf_counter() - start < 1.0
    assert products["solver"] <= _limit(bar.iterations_to_fix, crit)


def _full_front(n, M, eps, classes=1):
    """Points 0 .. classes-1 are the Aubry set, each a class of its own,
    reached from B, the other points, only through costs M; inside B every
    cost is eps.  Every walk inside B stays below h = 2M until it has
    2M / eps edges, so every front is full."""
    c = [[M] * n for _ in range(n)]
    for a in range(classes):
        c[a][a] = 0
    for x in range(classes, n):
        c[x][classes:] = [eps] * (n - classes)
    return make_instance(c)


@pytest.mark.parametrize(
    "n, M, eps, made",
    [(10, 10**3, F(1, 10), 11), (40, 10**4, F(1, 100), 15)],
    ids=["10", "40"],
)
def test_full_fronts_switch_to_powers(products, n, M, eps, made):
    # one class: the vector walk squares once it has made |B| steps, each
    # a packed row of |B|^2 entry updates, and makes no m
    k, want, solver, limit = _both(_full_front(n, M, eps), products)
    assert k == want == math.ceil(2 * M / eps) - 1
    assert solver == made
    assert 1 < solver <= min(limit, products["reference"])


@pytest.mark.parametrize(
    "n, M, eps, made",
    [(10, 10**3, F(1, 10), 15), (40, 10**4, F(1, 100), 21)],
    ids=["10", "40"],
)
def test_two_class_full_fronts_switch_to_powers(products, n, M, eps, made):
    # two classes: the fronts square after every step, each |B|^3 entry
    # updates, and one product is m
    k, want, solver, limit = _both(_full_front(n, M, eps, classes=2), products)
    assert k == want == math.ceil(2 * M / eps) - 1
    assert solver == made == limit
    assert solver <= products["reference"]
