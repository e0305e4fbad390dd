"""The barrier's transient: pruned fronts against the doubling reference.

``barrier._transient`` walks, from every point x off the Aubry set, only
the walks that can still end below h, and squares its step once the walk
has paid for a product.  These tests check its k against
``transient_reference.reference_transient``, which doubles over the dense
tables G_j, and count the min-plus products each search makes.
"""

import math
import time
from fractions import Fraction as F

import pytest

import transient_reference
import wkam.barrier
from wkam import critical_value, make_instance, peierls_barrier
from wkam.models import fk_potential_well, gen_fk, gen_random
from wkam.numbers import Mode

FLOAT = Mode("float", 1e-9)


@pytest.fixture
def products(monkeypatch):
    """The min-plus products of the solver's search and of the reference,
    counted apart."""
    rec = {"solver": 0, "reference": 0}
    for key, mod in (("solver", wkam.barrier), ("reference", transient_reference)):
        def counted(a, b, key=key, product=mod.minplus_product):
            rec[key] += 1
            return product(a, b)

        monkeypatch.setattr(mod, "minplus_product", counted)
    return rec


def _both(inst, products):
    """(solver k, reference k, solver products) for one instance."""
    crit = critical_value(inst)
    h = peierls_barrier(inst, crit).h
    products["solver"] = products["reference"] = 0
    k = wkam.barrier._transient(inst, crit, h)
    made = products["solver"]
    return k, transient_reference.reference_transient(inst, crit, h), made


def _limit(k):
    """Most products one search may make: m, and a squaring per doubling."""
    return 2 + (math.ceil(math.log2(k)) if k > 1 else 0)


@pytest.mark.parametrize("mode", [Mode(), FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("lo, hi", [(-2, 2), (-100, 100), (0, 3)], ids=["2", "100", "0-3"])
def test_transient_matches_reference_on_random(products, mode, lo, hi):
    if not mode.exact:
        lo, hi = float(lo), float(hi)
    for n in range(1, 13):
        for seed in range(3):
            k, want, made = _both(gen_random(n, seed, lo, hi, mode=mode), products)
            assert k == want, (n, seed)
            assert made <= _limit(k), (n, seed)


@pytest.mark.parametrize("mode", [Mode(), FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("n", [8, 12])
def test_transient_matches_reference_on_fk_at_every_centre(products, mode, n):
    for c in range(n):
        k, want, made = _both(gen_fk(n, 1, fk_potential_well(n, c), mode=mode), products)
        assert k == want, c
        assert made <= _limit(k), c


def test_long_transient_in_logarithmic_products(products):
    # walks inside B = {1} cost j / 10^5 and h(1, 1) = 2 * 10^7: the last
    # walk below h has 2 * 10^12 - 1 edges
    inst = make_instance([[0, 10**7], [10**7, F(1, 10**5)]])
    crit = critical_value(inst)
    bar = peierls_barrier(inst, crit)
    start = time.perf_counter()
    assert bar.iterations_to_fix == 1_999_999_999_999
    assert time.perf_counter() - start < 1.0
    assert products["solver"] <= _limit(bar.iterations_to_fix)


def _full_front(n, M, eps):
    """Point 0 is the Aubry set, reached from B = {1..n-1} only through
    costs M; inside B every cost is eps.  Every walk inside B stays below
    h = 2M until it has 2M / eps edges, so every front is full."""
    c = [[M] * n for _ in range(n)]
    c[0][0] = 0
    for x in range(1, n):
        c[x][1:] = [eps] * (n - 1)
    return make_instance(c)


@pytest.mark.parametrize(
    "n, M, eps, made",
    [(10, 10**3, F(1, 10), 15), (40, 10**4, F(1, 100), 21)],
    ids=["10", "40"],
)
def test_full_fronts_switch_to_powers(products, n, M, eps, made):
    k, want, solver = _both(_full_front(n, M, eps), products)
    assert k == want == math.ceil(2 * M / eps) - 1
    # the search squared its step (one product is m) and made no more
    # products than the doubling reference
    assert solver == made
    assert 1 < solver <= products["reference"]
