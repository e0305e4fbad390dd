"""The solver's float band decisions against their per-entry references.

``numbers.Band`` decides a whole row with one threshold; ``band_reference``
keeps every decision as one ``Mode`` call per entry.  The two must agree
on random float instances whose entries sit at the band's edge, one ulp
either side of it, at +-0.0 and at value scales of 10^15 and above, for
tolerances from 1e-9 up to 0.999.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import band_reference as ref
from wkam import make_instance
from wkam.barrier import BarrierData, _failing, aubry
from wkam.core import PotentialTable, ValueFunction, vf_eq, vf_le
from wkam.critical import CriticalData, _aubry_set, _tight, _undominated
from wkam.numbers import INF, Band, ConstructionError, Mode
from wkam.subsolution import _fixed_points, strict_pairs

TOLERANCES = [1e-9, 0.5, 0.999]
TOPS = [1.0, 1e3, 1e15, 1e17, 1e300]  # the largest |cost|; the value scale is n times it
CASES = settings(max_examples=60, deadline=None, derandomize=True)


def instance(data, sparse=False):
    """A float instance of 1..5 points that sets the tolerance and the
    value scale; ``sparse`` makes some costs +inf."""
    tol = data.draw(st.sampled_from(TOLERANCES), label="tol")
    top = data.draw(st.sampled_from(TOPS), label="top")
    n = data.draw(st.integers(1, 5), label="n")
    cost = [[data.draw(st.floats(-top, top)) for _ in range(n)] for _ in range(n)]
    cost[0][0] = top
    if sparse and n > 1:
        cost[0][1] = INF
    return make_instance(cost, mode=Mode("float", tol))


def near(data, inst, b):
    """A value for the partner of b: b itself, the band's edge around b or
    one ulp either side of it, +-0.0, or any value of the instance's size."""
    S = max(1.0, inst.value_scale())
    edge = b + data.draw(st.sampled_from([1.0, -1.0])) * inst.mode.tolerance * max(S, abs(b))
    return data.draw(
        st.sampled_from([b, edge, math.nextafter(edge, INF), math.nextafter(edge, -INF), 0.0, -0.0])
        | st.floats(-S, S)
    )


def square(data, inst, entry):
    """An n x n table with ``entry(x, y)`` at each place."""
    pts = range(inst.n)
    return tuple(tuple(entry(x, y) for y in pts) for x in pts)


@CASES
@given(st.data())
def test_aubry_vertices_match(data):
    inst = instance(data)
    p = square(data, inst, lambda x, y: near(data, inst, 0.0))
    want = ref.aubry_vertices(inst, p)
    table = PotentialTable(p, 1, inst.mode)
    if want:
        assert _aubry_set(inst, table) == tuple(want)
    else:
        with pytest.raises(ConstructionError):
            _aubry_set(inst, table)


@CASES
@given(st.data())
def test_aubry_edges_match(data):
    # r >= 0 with r(0, 0) = 0 keeps 0 an Aubry vertex; h(y, x) puts
    # r(x, y) + h(y, x) at the band's edges around 0
    inst = instance(data)
    size = st.sampled_from([0.0]) | st.floats(0, inst.value_scale())
    r = square(data, inst, lambda x, y: 0.0 if x == y == 0 else data.draw(size))
    h = square(data, inst, lambda y, x: near(data, inst, 0.0) - r[x][y])
    crit = CriticalData(0.0, (0,), PotentialTable(r, 1, inst.mode))
    out = aubry(inst, crit, BarrierData(PotentialTable(h, 1, inst.mode), inst, crit))
    assert out.vertices == tuple(ref.aubry_vertices(inst, crit.kernel_plus().grid))
    assert list(out.edges) == ref.aubry_edges(inst, r, h)


@CASES
@given(st.data(), st.booleans())
def test_tight_subgraph_matches(data, sparse):
    inst = instance(data, sparse)
    missing = st.booleans() if sparse else st.just(False)
    kernel = square(
        data, inst, lambda x, y: INF if x != y and data.draw(missing) else near(data, inst, 0.0)
    )
    assert _tight(inst, kernel)[1] == ref.tight(inst, kernel)


@CASES
@given(st.data(), st.booleans())
def test_undominated_matches(data, sparse):
    inst = instance(data)
    S = inst.value_scale()
    vals = [data.draw(st.floats(-S, S)) for _ in range(inst.n)]
    a = data.draw(st.sampled_from([0.0]) | st.floats(-S, S))
    missing = st.booleans() if sparse else st.just(False)
    cost = square(
        data,
        inst,
        lambda x, y: INF if data.draw(missing) else near(data, inst, vals[y] - vals[x]) - a,
    )
    want = ref.undominated(inst.mode, vals, cost, a, S)
    assert _undominated(inst.mode, vals, cost, a, S) == want


@CASES
@given(st.data())
def test_fixed_points_match(data):
    inst = instance(data)
    S = inst.value_scale()
    start = [data.draw(st.floats(-S, S)) for _ in range(inst.n)]
    lo = [near(data, inst, v) for v in start]
    hi = [near(data, inst, v) for v in start]
    assert _fixed_points(inst, start, lo, hi) == ref.fixed_points(inst, start, lo, hi)


@CASES
@given(st.data(), st.booleans())
def test_strict_pairs_match(data, sparse):
    inst = instance(data)
    S = inst.value_scale()
    vals = [data.draw(st.floats(-S, S)) for _ in range(inst.n)]
    missing = st.booleans() if sparse else st.just(False)
    k = square(
        data, inst, lambda x, y: INF if data.draw(missing) else near(data, inst, vals[y] - vals[x])
    )
    crit = CriticalData(0.0, (0,), PotentialTable(k, 1, inst.mode))
    u = ValueFunction(vals)
    assert strict_pairs(inst, crit, u) == ref.strict_pairs(inst, crit, u)


@CASES
@given(st.data())
def test_vf_le_and_eq_match(data):
    inst = instance(data)
    S = inst.value_scale()
    infinite = st.sampled_from([INF, -INF])
    u = [data.draw(st.floats(-S, S) | infinite) for _ in range(inst.n)]
    v = [
        data.draw(infinite) if data.draw(st.booleans()) or math.isinf(a) else near(data, inst, a)
        for a in u
    ]
    for a, b in ((u, v), (v, u)):
        assert vf_le(inst.mode, a, b, S) == ref.vf_le(inst.mode, a, b, S)
        assert vf_eq(inst.mode, a, b, S) == ref.vf_eq(inst.mode, a, b, S)


@settings(CASES, max_examples=150)
@given(st.data())
def test_transient_pruning_matches(data):
    # candidate w at weight v fails iff some y has h(x, y) beyond the band
    # above v + P(w, y); the widest gap is tried first, but a y of smaller
    # magnitude, so of a narrower band, may fail where it passes
    inst = instance(data)
    S, pts = inst.value_scale(), range(inst.n)
    hx = [data.draw(st.floats(-S, S)) for _ in pts]
    ws = data.draw(st.lists(st.sampled_from(list(pts)), unique=True))
    vs = [data.draw(st.sampled_from([0.0]) | st.floats(-S, S)) for _ in ws]
    weight = dict(zip(ws, vs))
    pb = [[near(data, inst, hx[y] - weight.get(w, 0.0)) for y in pts] for w in pts]
    band = Band(inst.mode, S)
    assert _failing(band, hx, pb, ws, vs) == ref.failing(inst.mode, S, hx, pb, ws, vs)
