import gc
from fractions import Fraction as F
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wkam.oracle as oracle

from wkam import (
    SizeGuardError,
    critical_value,
    is_dominated,
    make_instance,
    peierls_barrier,
)
from wkam.models import fk_potential_well, gen_constant, gen_fk, gen_random
from wkam.numbers import INF, Mode
from wkam.oracle import (
    _Workspace,
    cycle_scan,
    enum_zero_cycles,
    liminf_barrier_bounded,
    subsolution_sampler,
    verify_all,
)

from conftest import power
from cycle_reference import naive_cycle_scan
from walk_reference import enum_walks


# --- cycle enumeration ------------------------------------------------------------

def test_enum_cycles_constant():
    scan = cycle_scan(gen_constant(3, F(2)))
    assert scan.min_mean == F(2)
    assert scan.cycle_count == 8  # 3 loops + 3 two-cycles + 2 three-cycles


def test_enum_cycles_t2(t2):
    scan = cycle_scan(t2)
    assert scan.cycle_count == 3
    assert scan.min_mean == F(1, 2)


def test_enum_cycles_t3(t3):
    scan = cycle_scan(t3)
    assert scan.min_mean == 0


def test_enum_cycles_guard():
    with pytest.raises(SizeGuardError):
        cycle_scan(gen_constant(11, 1))


# --- walk enumeration ----------------------------------------------------------------

def test_enum_walks_matches_power_t2(t2):
    for n in range(1, 7):
        table = power(t2, n)
        for x in range(2):
            for y in range(2):
                assert enum_walks(t2, x, y, n) == table.entries[x][y]


def test_enum_walks_constant():
    inst = gen_constant(2, F(3))
    assert enum_walks(inst, 0, 1, 4) == 12


def test_enum_walks_one_step_is_cost(t3):
    for x in range(3):
        for y in range(3):
            assert enum_walks(t3, x, y, 1) == t3.cost[x][y]


def test_enum_walks_guard(t2):
    with pytest.raises(SizeGuardError):
        enum_walks(t2, 0, 0, 7)
    with pytest.raises(SizeGuardError):
        enum_walks(gen_constant(7, 1), 0, 0, 2)


# --- liminf oracle ---------------------------------------------------------------------

def test_liminf_constant_is_zero():
    inst = gen_constant(2, F(5))
    crit = critical_value(inst)
    rep = liminf_barrier_bounded(inst, crit, 8)
    assert rep.stabilized
    assert all(v == 0 for row in rep.matrix for v in row)


def test_liminf_t2_stabilizes_by_12(t2):
    crit = critical_value(t2)
    rep = liminf_barrier_bounded(t2, crit, 12)
    assert rep.stabilized
    assert rep.matrix == ((F(0), F(-1, 2)), (F(1, 2), F(0)))


def test_liminf_t3(t3):
    crit = critical_value(t3)
    rep = liminf_barrier_bounded(t3, crit, 20)
    assert rep.stabilized
    assert rep.matrix[2][2] > 0
    bar = peierls_barrier(t3, crit)
    assert rep.matrix == bar.h.entries


def test_liminf_matches_barrier_on_randoms():
    for seed in (1, 6, 15, 28):
        n = (seed % 6) + 2
        inst = gen_random(n, seed, -2, 2)
        crit = critical_value(inst)
        rep = liminf_barrier_bounded(inst, crit, 4 * n * n + 8)
        assert rep.stabilized
        assert rep.matrix == peierls_barrier(inst, crit).h.entries


# --- zero-cycle reference -----------------------------------------------------------------

def test_zero_cycles_constant_everything():
    ref = enum_zero_cycles(gen_constant(3, F(1)))
    assert ref.vertices == (0, 1, 2)
    assert len(ref.edges) == 9
    assert all(v == 0 for v in ref.jumps.values)


def test_zero_cycles_t2(t2):
    ref = enum_zero_cycles(t2)
    assert ref.vertices == (0, 1)
    assert ref.edges == ((0, 1), (1, 0))


def test_zero_cycles_t3_excludes_c(t3):
    ref = enum_zero_cycles(t3)
    assert ref.vertices == (0, 1)
    assert 2 not in ref.vertices
    assert ref.jumps.values[2] == F(9)


# --- sampler ----------------------------------------------------------------------------

def test_sampler_every_sample_dominated(t3):
    crit = critical_value(t3)
    samples = subsolution_sampler(t3, crit, seed=4, count=25)
    assert len(samples) == 25
    for u in samples:
        assert is_dominated(t3, u, crit.alpha0).ok


def test_sampler_deterministic(t2):
    crit = critical_value(t2)
    a = subsolution_sampler(t2, crit, seed=9, count=5)
    b = subsolution_sampler(t2, crit, seed=9, count=5)
    assert [u.values for u in a] == [u.values for u in b]
    c = subsolution_sampler(t2, crit, seed=10, count=5)
    assert [u.values for u in a] != [u.values for u in c]


# --- harness ----------------------------------------------------------------------------

def test_verify_all_t2(t2):
    report = verify_all(t2)
    assert report.ok, report.failures()


def test_verify_all_constant():
    report = verify_all(gen_constant(3, F(2)))
    assert report.ok, report.failures()


def test_verify_all_negative_control(t2):
    # corrupting the barrier must trip a barrier identity with a witness
    bad = ((F(0), F(5)), (F(-9), F(0)))
    report = verify_all(t2, barrier_override=bad)
    bad_names = {c.name for c in report.failures()}
    assert bad_names  # at least one barrier check fails
    assert any("barrier" in n for n in bad_names)
    for c in report.failures():
        assert c.witness  # failures carry witnesses


def test_verify_all_guard():
    with pytest.raises(SizeGuardError):
        verify_all(gen_constant(11, 1))


def test_cycle_scan_is_exhaustive_at_the_desk_limit():
    # A total instance on 10 vertices has sum_k C(10, k) (k - 1)! simple
    # cycles, and the scan must count every one of them.
    assert cycle_scan(gen_random(10, 0, -2, 2)).cycle_count == 1_112_083


def test_cycle_scan_all_cycles_zero():
    # Every cycle of a constant instance has the least mean, so at the
    # scan's alpha = -1 all 1,112,083 are zero and no DP state is pruned:
    # every vertex and edge lies on a zero cycle.
    n = 10
    scan = cycle_scan(gen_constant(n, F(1)))
    assert scan.cycle_count == 1_112_083
    assert scan.min_mean == F(1)
    assert scan.zero_vertices == tuple(range(n))
    assert scan.zero_edges == tuple((i, j) for i in range(n) for j in range(n))
    assert scan.vertex_min_reduced == (0,) * n


def test_cycle_scan_leaves_no_reference_cycle():
    # Garbage in a reference cycle (a recursive closure, say) keeps the
    # scan's DP tables until a full collection, and the peak RSS of
    # repeated verify_all calls grows.
    inst = gen_random(6, 0, -2, 2)
    gc.collect()
    gc.disable()
    try:
        cycle_scan(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _sparse(n: int, seed: int, mode: Mode):
    """Random instance with about 40 % +inf entries and a loop at 0."""
    rng = Random(seed)
    cost = [
        [INF if rng.random() < 0.4 else F(rng.randint(-8, 8), rng.choice((1, 2, 4)))
         for _ in range(n)]
        for _ in range(n)
    ]
    cost[0][0] = F(1)
    if not mode.exact:
        cost = [[float(v) for v in row] for row in cost]
    return make_instance(cost, mode=mode)


def _jitter(inst, seed: int, noise: float):
    """The costs as floats, each moved by noise far below 1: cycles that tie
    exactly on the grid now have means and reduced weights that differ in
    the last bits, which float mode, solved exactly, tells apart."""
    rng = Random(seed)
    cost = [[float(v) + rng.uniform(-noise, noise) for v in row] for row in inst.cost]
    return make_instance(cost, mode=Mode("float"))


_SCAN_KINDS = {
    "exact": lambda n, s: gen_random(n, s, -2, 2),
    "float": lambda n, s: gen_random(n, s, -2, 2, mode=Mode("float")),
    "exact-wide": lambda n, s: gen_random(n, s, -100, 100),
    "float-wide": lambda n, s: gen_random(n, s, -100, 100, mode=Mode("float")),
    "float-near-tie": lambda n, s: _jitter(gen_random(n, s, -2, 2), s, 1e-11),
    # every cycle ties on the grid, and the noise is 5e-10 * n, half what
    # a 1e-9 tolerance band once read as zero
    "float-band-tie": lambda n, s: _jitter(gen_constant(n, 1), s, 5e-10 * n),
    "sparse-exact": lambda n, s: _sparse(n, s, Mode()),
    "sparse-float": lambda n, s: _sparse(n, s, Mode("float")),
    "constant-exact": lambda n, s: gen_constant(n, F((1, 0, -2)[s])),
    "constant-float": lambda n, s: gen_constant(n, (1, 0, -2)[s], mode=Mode("float")),
}


@pytest.mark.parametrize("kind", sorted(_SCAN_KINDS))
def test_cycle_scan_matches_naive_reference(kind):
    fields = (
        "min_mean",
        "cycle_count",
        "zero_vertices",
        "zero_edges",
        "vertex_min_reduced",
    )
    for n in range(1, 9):
        for seed in range(3):
            inst = _SCAN_KINDS[kind](n, seed)
            got = cycle_scan(inst)
            want = naive_cycle_scan(inst)
            for f in fields:
                assert getattr(got, f) == getattr(want, f), f"{kind} n={n} seed={seed}: {f}"


def test_liminf_rejects_tiny_horizon(t2):
    crit = critical_value(t2)
    with pytest.raises(SizeGuardError):
        liminf_barrier_bounded(t2, crit, 1)


def test_verify_all_float_mode():
    inst = gen_random(5, 3, -2.0, 2.0, mode=Mode("float", 1e-9))
    report = verify_all(inst, seed=3)
    assert report.ok, report.failures()


def test_float_alpha0_close_to_exact():
    exact = gen_random(6, 12, -2, 2)
    approx = gen_random(6, 12, -2.0, 2.0, mode=Mode("float", 1e-9))
    # different draws (uniform vs grid), so compare each to its own oracle
    assert critical_value(exact).alpha0 == -cycle_scan(exact).min_mean
    a_f = critical_value(approx).alpha0
    assert abs(a_f - (-cycle_scan(approx).min_mean)) <= 1e-9 * 64


def test_verify_all_negative_control_witnesses_pinned(t3):
    # The full failure lists, names and witnesses, of two corrupted
    # barriers.  The second puts entries off the instance's grid (1/13), so
    # the oracle's common scale must widen to cover the override.
    on_grid = ((F(0), F(0), F(8)), (F(0), F(0), F(9)), (F(-1), F(-1), F(8)))
    report = verify_all(t3, barrier_override=on_grid)
    assert [(c.name, c.witness) for c in report.failures()] == [
        ("barrier.closed_form_via_aubry", "row 0 differs from phi_2"),
        ("barrier.triangle_and_floor", "h < phi at (0,2)"),
        ("barrier.chain_splitting_suite", "h left split m=1 (1,0,2)"),
    ]
    inst = gen_random(5, 2, -2, 2)
    h = [list(row) for row in peierls_barrier(inst, critical_value(inst)).h.entries]
    h[3][0] -= F(1, 13)
    h[1][2] += F(1, 13)
    report = verify_all(inst, seed=2, barrier_override=tuple(map(tuple, h)))
    assert [(c.name, c.witness) for c in report.failures()] == [
        ("barrier.closed_form_via_aubry", "row 1 differs from phi_17"),
        ("barrier.triangle_and_floor", "triangle at (0,3,0)"),
        ("barrier.chain_splitting_suite", "h left split m=1 (1,3,0)"),
    ]


def _nudged(h, x, y, units):
    """h with entry (x, y) moved by ``units`` grid units."""
    rows = [list(row) for row in h]
    rows[x][y] += units
    return tuple(map(tuple, rows))


def test_barrier_identities_fail_on_a_nudged_barrier():
    # The orbit bound reads ws.h: one step of the kernel's grid (1/4) off at
    # one entry, it names its first failure.  ws.h is on the workspace's one
    # grid D, which the samples' scales refine.
    ws = _Workspace(gen_random(5, 2, -2, 2), 2, 20, None, None)
    h = ws.h
    step = ws.D // ws.crit.kernel.scale
    assert ws.crit.kernel.scale == 4
    cases = [
        ((4, 1, -step), "S > h for sample[2:2]"),
        ((0, 3, -step), "S > h for phi1 row 0"),
        ((2, 4, step), "no attainment in row 2"),
    ]
    for (x, y, units), representation in cases:
        ws.h = _nudged(h, x, y, units)
        assert oracle._check_representation(ws) == oracle.CheckResult(
            "barrier.orbit_representation", False, representation
        )
    ws.h = h
    assert oracle._check_representation(ws).passed


def test_conjugation_fails_on_a_shifted_u_plus(monkeypatch):
    ws = _Workspace(gen_random(5, 2, -2, 2), 2, 20, None, None)
    assert oracle._check_conjugation(ws).passed
    u_plus = oracle.u_plus

    def shifted(inst, crit, u):
        return oracle.ValueFunction(tuple(v + 1 for v in u_plus(inst, crit, u).values))

    monkeypatch.setattr(oracle, "u_plus", shifted)
    assert oracle._check_conjugation(ws) == oracle.CheckResult(
        "barrier.conjugation_idempotent", False, "sample[2:0]"
    )


@pytest.mark.parametrize(
    "inst, seed",
    [(gen_random(5, 2, -2, 2), 2), (gen_fk(10, 1, fk_potential_well(10, 3)), 5)],
    ids=["random:5:2", "fk:10:1:well@3"],
)
def test_tightness_check_compares_on_the_one_grid(inst, seed):
    # The samples meet the costs on the workspace's one grid D, a multiple
    # of the kernel's scale and of every sample's scale; on both instances
    # the samples' scales are far finer than the kernel's.
    ws = _Workspace(inst, seed, 20, None, None)
    assert all(ws.D % u.grid_in(ws.mode)[1] == 0 for u in ws.samples)
    assert ws.D % ws.crit.kernel.scale == 0 and ws.D > ws.crit.kernel.scale
    assert oracle._check_tightness_propagates(ws).passed


# --- whole-table checks -----------------------------------------------------------

_WORKSPACES = {}


def _workspace(n, mode):
    """A verify_all workspace on an n-point instance, for its mode and scale."""
    key = (n, mode.kind)
    if key not in _WORKSPACES:
        lo, hi = (-2, 2) if mode.exact else (-2.0, 2.0)
        _WORKSPACES[key] = _Workspace(gen_random(n, n, lo, hi, mode=mode), 0, 2, None, None)
    return _WORKSPACES[key]


def _naive_first_violation(ws, *ineqs):
    """The loops the table checks replace: x, y, z, then the inequality."""
    pts = range(ws.inst.n)
    for x, y, z in product(pts, pts, pts):
        for i, (lhs, a, b, s) in enumerate(ineqs):
            if not lhs[x][z] <= a[x][y] + b[y][z] + s:
                return x, y, z, i
    return None


def _square(draw, n, cell):
    flat = draw(st.lists(cell, min_size=n * n, max_size=n * n))
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_violation_matches_triple_scan_on_int_tables(data):
    n = data.draw(st.integers(1, 5))
    cell = st.integers(-6, 6)
    lhs, a, b = (_square(data.draw, n, cell) for _ in range(3))
    shift = data.draw(st.sampled_from([0, -3, 2]))
    ws = _workspace(n, Mode())
    ineq = (lhs, a, b, shift)
    assert ws.first_violation(ineq) == _naive_first_violation(ws, ineq)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_h_splits_interleave_right_before_left(data):
    # the chain-splitting suite decides both h splits of one m in one scan
    n = data.draw(st.integers(1, 4))
    h, cm = (_square(data.draw, n, st.integers(-4, 4)) for _ in range(2))
    shift = data.draw(st.integers(-2, 2))
    cm_shift = tuple(tuple(v + shift for v in row) for row in cm)
    ws = _workspace(n, Mode())
    ineqs = ((h, h, cm, shift), (h, cm_shift, h, 0))
    assert ws.first_violation(*ineqs) == _naive_first_violation(ws, *ineqs)


def test_h_split_tie_names_the_right_split():
    zero = ((0, 0), (0, 0))
    early, late = ((0, 1), (0, 0)), ((0, 0), (0, 1))
    ws = _workspace(2, Mode())
    # both splits fail first at (0, 0, 1): the right split is named
    assert ws.first_violation((early, zero, zero, 0), (early, zero, zero, 0)) == (0, 0, 1, 0)
    # the right split fails first at (1, 0, 1), after the left one
    assert ws.first_violation((late, zero, zero, 0), (early, zero, zero, 0)) == (0, 0, 1, 1)


def test_verify_all_makes_each_table_product_once(monkeypatch):
    # Passing verify_all at n = 10 computes each min-plus product it needs
    # once: the raw and phi powers, the liminf powers, the nine products of
    # the semigroup law, 60 products for the whole-table checks, the two
    # orbits of the samples (6 steps) and of phi_1 (the transient, at least
    # 1) for the orbit bound, and one step of the pointwise min of the
    # barrier rows.
    inst = gen_random(10, 1, -2, 2)
    workspaces = []
    init = oracle._Workspace.__init__

    def keep(self, *args):
        init(self, *args)
        workspaces.append(self)

    monkeypatch.setattr(oracle._Workspace, "__init__", keep)
    counted = []
    product_ = oracle.minplus_product
    monkeypatch.setattr(oracle, "minplus_product", lambda a, b: counted.append(1) or product_(a, b))
    assert verify_all(inst, seed=1).ok
    (ws,) = workspaces
    monkeypatch.undo()
    liminf = liminf_barrier_bounded(inst, ws.crit, ws.horizon).powers_used - 1
    tables = 44 + 1 + 1 + 4 + 10  # chain splits, two triangles, orbit identity, vanishing
    tables += 2 * 6 + 2 * max(1, ws.bar.iterations_to_fix) + 1
    need = len(ws._raw_powers) - 1 + len(ws._phi_tables) - 1 + liminf + 9 + tables
    assert len(counted) <= need


@pytest.mark.parametrize("mode", [Mode(), Mode("float", 1e-9)], ids=["exact", "float"])
def test_chain_splitting_suite_compares_rows_not_entries(monkeypatch, mode):
    # A passing chain-splitting suite makes at most one product per
    # inequality of the paper (44), and compares the n^2 entries of each of
    # the 88 inequalities a row at a time against its product, in both
    # modes: a loop over (x, y, z) would make 88 n^3 comparisons.
    lo, hi = (-2, 2) if mode.exact else (-2.0, 2.0)
    ws = _Workspace(gen_random(10, 2, lo, hi, mode=mode), 2, 20, None, None)
    ws.phi_table(8)
    ws.raw_power(4)
    counts = {"products": 0, "le": 0, "entries": 0}
    product_, le, entry_le = oracle.minplus_product, Mode.le, oracle.le

    def counted_product(a, b):
        counts["products"] += 1
        return product_(a, b)

    def counted_le(self, *args, **kwargs):
        counts["le"] += 1
        return le(self, *args, **kwargs)

    def counted_entry_le(a, b):
        counts["entries"] += 1
        return entry_le(a, b)

    monkeypatch.setattr(oracle, "minplus_product", counted_product)
    monkeypatch.setattr(Mode, "le", counted_le)
    monkeypatch.setattr(oracle, "le", counted_entry_le)
    assert oracle._check_hh_suite(ws, ws.h).passed
    assert counts["products"] <= 44
    assert (counts["le"], counts["entries"]) == (0, 88 * 10 * 10)
