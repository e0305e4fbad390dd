"""The barrier's transient: pruned fronts against the doubling reference.

``barrier._transient`` walks, from every point x off the Aubry set, only
the walks that can still end below h, and squares its step once the walk
has paid for a product.  These tests check its k against
``transient_reference.reference_transient``, which doubles over the dense
tables G_j, and count the min-plus products each search makes, packed or
entry loop.  The search runs on packed rows of potential-shifted ints
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


@pytest.mark.parametrize("mode", [Mode(), FLOAT], ids=["exact", "float"])
def test_transient_matches_reference_at_mid_sizes(products, mode):
    lo, hi = (-100, 100) if mode.exact else (-100.0, 100.0)
    for n in (16, 24, 32, 48):
        well = gen_fk(n, 1, fk_potential_well(n, n // 3), mode=mode)
        for inst in (well, gen_random(n, n, lo, hi, mode=mode)):
            k, want, made = _both(inst, products)
            assert k == want, n
            assert made <= _limit(k), n


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
