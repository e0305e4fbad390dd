from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkam import (
    InputError,
    SizeGuardError,
    ValueFunction,
    as_value_function,
    aubry,
    barrier_closed_form,
    critical_value,
    is_dominated,
    is_weak_kam,
    lax_oleinik_neg,
    make_instance,
    peierls_barrier,
    solve_subsolution,
    u_minus,
    u_plus,
    weak_kam_neg,
    weak_kam_pos,
)
from wkam.models import gen_constant, gen_random
from wkam.numbers import Mode
from wkam.oracle import (
    aubry_chain_sets,
    enum_zero_cycles,
    liminf_barrier_bounded,
    subsolution_sampler,
    verify_all,
)
from wkam.potential import mane_potential, phi_n
from wkam.subsolution import aubry_of, max_strict_subsolution

from conftest import orbit
from walk_reference import ref_orbit, walk_sum


def crit_bar(inst):
    crit = critical_value(inst)
    return crit, peierls_barrier(inst, crit)


# --- the barrier itself --------------------------------------------------------

def test_barrier_constant_vanishes():
    inst = gen_constant(3, F(4))
    crit, bar = crit_bar(inst)
    assert all(v == 0 for row in bar.h.entries for v in row)


def test_barrier_t2_matches_liminf_oracle(t2):
    crit = critical_value(t2)
    rep = liminf_barrier_bounded(t2, crit, 12)  # oracle first
    assert rep.stabilized
    assert rep.matrix == ((F(0), F(-1, 2)), (F(1, 2), F(0)))
    bar = peierls_barrier(t2, crit)
    assert bar.h.entries == rep.matrix


def test_barrier_t3_positive_diagonal(t3):
    crit = critical_value(t3)
    rep = liminf_barrier_bounded(t3, crit, 20)
    assert rep.stabilized
    assert rep.matrix[2][2] > 0
    bar = peierls_barrier(t3, crit)
    assert bar.h.entries == rep.matrix
    assert bar.h.entries[2][2] == F(18)


def test_barrier_closed_form_agrees():
    # the closed-form barrier against the tail-potential recursion: h is
    # phi_{1+k} for the reported transient k, and no earlier order
    for seed in (0, 5, 9, 21):
        inst = gen_random((seed % 6) + 2, seed, -2, 2)
        crit, bar = crit_bar(inst)
        k = bar.iterations_to_fix
        assert phi_n(inst, crit, 1 + k).entries == bar.h.entries
        if k >= 1:
            assert phi_n(inst, crit, k).entries != bar.h.entries


def test_float_barrier_answers_and_matches_exact():
    # every float instance gets a barrier (no iteration cap to hit), and
    # each entry is the exact barrier of the same doubles, rounded once
    fmode = Mode("float", 1e-9)
    for n in range(2, 9):
        for seed in range(200):
            inst = gen_random(n, seed, -2, 2, mode=fmode)
            crit, bar = crit_bar(inst)
            exact = make_instance([[F(v) for v in row] for row in inst.cost])
            eh = barrier_closed_form(exact, critical_value(exact)).entries
            assert bar.h.entries == tuple(tuple(map(float, row)) for row in eh), (n, seed)


def test_barrier_above_potential_and_triangle():
    inst = gen_random(6, 33, -2, 2)
    crit, bar = crit_bar(inst)
    p = mane_potential(inst, crit).entries
    h = bar.h.entries
    for x in range(6):
        for y in range(6):
            assert p[x][y] <= h[x][y]
            for z in range(6):
                assert h[x][z] <= h[x][y] + h[y][z]


def test_barrier_requires_total():
    sparse = make_instance([[F(1), float("inf")], [F(1), F(1)]])
    assert not sparse.total
    crit = critical_value(sparse)
    with pytest.raises(InputError):
        peierls_barrier(sparse, crit)


# --- Aubry sets ------------------------------------------------------------------

def test_aubry_constant_everything():
    inst = gen_constant(3, F(2))
    crit, bar = crit_bar(inst)
    aub = aubry(inst, crit, bar)
    assert aub.vertices == (0, 1, 2)
    assert len(aub.edges) == 9


def test_aubry_t2(t2):
    crit, bar = crit_bar(t2)
    ref = enum_zero_cycles(t2)  # oracle first
    assert ref.vertices == (0, 1)
    assert ref.edges == ((0, 1), (1, 0))
    aub = aubry(t2, crit, bar)
    assert aub.vertices == ref.vertices
    assert tuple(sorted(aub.edges)) == ref.edges


def test_aubry_t3_excludes_c(t3):
    crit, bar = crit_bar(t3)
    ref = enum_zero_cycles(t3)
    aub = aubry(t3, crit, bar)
    assert aub.vertices == ref.vertices == (0, 1)
    assert tuple(sorted(aub.edges)) == ref.edges == ((0, 1), (1, 0))
    assert all(a in aub.vertices and b in aub.vertices for a, b in aub.edges)


# --- weak KAM solutions ------------------------------------------------------------

def test_rows_are_negative_solutions(t2):
    crit, bar = crit_bar(t2)
    h_a = weak_kam_neg(bar, 0)
    assert h_a.values == (F(0), F(-1, 2))
    img = lax_oleinik_neg(t2, h_a)
    assert tuple(v + crit.alpha0 for v in img.values) == h_a.values
    assert is_weak_kam(t2, crit, h_a, "negative")
    assert is_dominated(t2, h_a, crit.alpha0).ok


def test_columns_are_positive_solutions(t2):
    crit, bar = crit_bar(t2)
    for x in range(2):
        assert is_weak_kam(t2, crit, weak_kam_pos(bar, x), "positive")


def test_constant_rows_fixed():
    inst = gen_constant(2, F(7))
    crit, bar = crit_bar(inst)
    for x in range(2):
        assert is_weak_kam(inst, crit, weak_kam_neg(bar, x), "negative")


def test_potential_row_solution_iff_aubry(t3):
    crit = critical_value(t3)
    phi = mane_potential(t3, crit)
    # a is Aubry: its potential row is a solution
    assert is_weak_kam(t3, crit, ValueFunction(phi.entries[0]), "negative")
    # c is not: the fixed-point identity fails at c and only at c
    row_c = ValueFunction(phi.entries[2])
    assert not is_weak_kam(t3, crit, row_c, "negative")
    img = lax_oleinik_neg(t3, row_c)
    fixed = tuple(v + crit.alpha0 for v in img.values)
    mismatches = [y for y in range(3) if fixed[y] != row_c.values[y]]
    assert mismatches == [2]


def test_is_weak_kam_rejects_bad_sign(t2):
    crit = critical_value(t2)
    with pytest.raises(InputError):
        is_weak_kam(t2, crit, ValueFunction((F(0), F(0))), "sideways")


# --- limits ----------------------------------------------------------------------

def test_u_minus_of_solution_is_itself(t2):
    crit, bar = crit_bar(t2)
    h_a = weak_kam_neg(bar, 0)
    assert u_minus(t2, crit, h_a).values == h_a.values


def test_u_minus_constant():
    inst = gen_constant(2, F(3))
    crit = critical_value(inst)
    u = as_value_function(inst, [0, 0])
    assert u_minus(inst, crit, u).values == (0, 0)


def test_u_minus_t2_tilted(t2):
    crit = critical_value(t2)
    u = as_value_function(t2, [0, F(-1, 2)])
    assert u_minus(t2, crit, u).values == u.values


def test_limits_reject_non_dominated(t2):
    crit = critical_value(t2)
    with pytest.raises(InputError):
        u_minus(t2, crit, as_value_function(t2, [0, 100]))


def test_float_u_plus_answers_past_4n_squared():
    # the forward orbit descends by the 1/4 reduced self-loop for 19 steps,
    # past 4*n^2 = 16; float u_plus reads the closed form and the float walk
    # runs to it, both the exact twin's on the same doubles, rounded once
    mode = Mode("float", 1e-12)
    inst = make_instance([[-1.5, 0.75], [1.25, -1.25]], mode=mode)
    crit = critical_value(inst)
    u = as_value_function(inst, [-7 / 12, 17 / 12])
    assert is_dominated(inst, u, crit.alpha0).ok
    up = u_plus(inst, crit, u)
    exact = make_instance([[F(-3, 2), F(3, 4)], [F(5, 4), F(-5, 4)]])
    ecrit = critical_value(exact)
    eu = as_value_function(exact, [F(-7, 12), F(17, 12)])
    eup = u_plus(exact, ecrit, eu)
    assert is_weak_kam(exact, ecrit, eup, "positive")
    assert len(orbit(exact, ecrit, eu, forward=True)) - 1 == 19
    twin = as_value_function(exact, [F(v) for v in u.values])
    assert up.values == tuple(float(v) for v in u_plus(exact, ecrit, twin).values)
    hist = orbit(inst, crit, u, forward=True)
    assert len(hist) - 1 > 16
    assert hist[-1] == up.values


def test_walk_refused_after_its_work_limit(monkeypatch):
    # the work limit is lowered to 50000 steps at n = 3, and each walk is
    # the backward orbit of 0.  On ``slopes`` it climbs to its limit 100 at
    # points 1 and 2 by their self-loops off the Aubry set, 1/1000 and
    # 1/999 a step: the difference of the two never repeats before point 2
    # settles at step 99900, so the walk steps every step and is refused.
    # On ``cycle`` it climbs by the 1/100 two-cycle, 1/200 a step, for
    # 200000 steps, repeating up to a shift every 2 steps from the start.
    # On ``lagged`` point 2 climbs by 1/10 a step until it meets point 1
    # plus the cost 1 between them, then follows point 1, 1/1000 a step:
    # the period starts after that transient, so the tortoise must move to
    # find it.  Both jump and pass the same limit
    import wkam.barrier as barrier

    slopes = make_instance([[0, 100, 100], [100, F(1, 1000), 100], [100, 100, F(1, 999)]])
    cycle = make_instance([[0, 1000, 1000], [1000, 100, F(1, 100)], [1000, 0, 100]])
    lagged = make_instance([[0, 100, 100], [100, F(1, 1000), 1], [100, 100, F(1, 10)]])
    monkeypatch.setattr(barrier, "_WALK_WORK_LIMIT", 50000 * 9)
    walks = []
    for inst, L in ((slopes, 100), (cycle, 1000), (lagged, 100)):
        crit = critical_value(inst)
        D, start, lo, _ = barrier.limits_grid(inst, crit, as_value_function(inst, [0, 0, 0]))
        assert lo == [0, L * D, L * D]
        walks.append((inst, crit, D, start, lo, False))
    with pytest.raises(SizeGuardError, match="did not settle in 50000 steps"):
        barrier.orbit_sum(*walks[0])
    assert [barrier.orbit_sum(*w)[1] for w in walks[1:]] == [200000, 100000]


def test_orbits_monotone_and_solutions():
    for mode in (Mode("exact"), Mode("float", 1e-9)):
        inst = gen_random(5, 11, -2, 2, mode=mode)
        crit = critical_value(inst)
        for u in subsolution_sampler(inst, crit, seed=3, count=10):
            hist = orbit(inst, crit, u)
            for a, b in zip(hist, hist[1:]):
                assert all(x <= y for x, y in zip(a, b))
            um = u_minus(inst, crit, u)
            assert is_weak_kam(inst, crit, um, "negative")
            hist_p = orbit(inst, crit, u, forward=True)
            for a, b in zip(hist_p, hist_p[1:]):
                assert all(y <= x for x, y in zip(a, b))
            up = u_plus(inst, crit, u)
            assert is_weak_kam(inst, crit, up, "positive")
            assert all(p <= z <= m for p, z, m in zip(up.values, u.values, um.values))
            # each orbit ends at its closed-form limit
            for last, lim in ((hist[-1], um.values), (hist_p[-1], up.values)):
                assert last == lim



def _walks_match_the_reference(inst, crit, u):
    """Both walks of u: orbit_sum gives the sum and length of the
    reference's full steps, which end at the closed-form limits."""
    from wkam.barrier import limits_grid, orbit_sum

    D, start, lo, hi = limits_grid(inst, crit, u)
    r = crit.kernel.at(D)
    for limit, positive in ((lo, False), (hi, True)):
        walk = ref_orbit(r, start, positive)
        assert list(walk[-1]) == list(limit)
        assert orbit_sum(inst, crit, D, start, limit, positive) == walk_sum(walk)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 24), st.integers(0, 10**6), st.integers(0, 3))
def test_exact_walk_gives_the_full_steps(n, seed, sample):
    # a walk steps only the points off their limit and jumps whole periods;
    # its sum and length must still be those of the full T- + alpha0
    # (T+ - alpha0) steps
    from wkam.subsolution import uniform_subsolution_mix

    inst = gen_random(n, seed, -2, 2)
    crit = critical_value(inst)
    u = uniform_subsolution_mix(inst, crit)
    if sample:
        u = list(subsolution_sampler(inst, crit, seed=seed, count=sample))[-1]
    _walks_match_the_reference(inst, crit, u)


@st.composite
def _walks(draw):
    """(inst, u) in either mode: a random instance with its potential-row
    mix or a sampled u, or an instance whose points 1..m climb off the
    Aubry point 0 by self-loops of about 1/1000 and two-cycles among them
    for 10^3 to 10^5 steps.  Points there that share a slope keep their
    difference, so the walk jumps, and the points off their limit shrink
    between its periods as the lower gaps settle."""
    from wkam.subsolution import uniform_subsolution_mix

    mode = draw(st.sampled_from((Mode("exact"), Mode("float", 1e-9))))
    seed, count = draw(st.integers(0, 10**6)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        span = draw(st.sampled_from((2, 100)))
        inst = gen_random(draw(st.integers(1, 8)), seed, -span, span, mode=mode)
    else:
        m = draw(st.integers(1, 3))
        gaps = [draw(st.sampled_from((1, 3, 10, 30, 75))) for _ in range(m)]
        loop = st.sampled_from((1000, F(1, 1000), F(1, 999)))
        cost = [[0, *gaps]] + [[g] + [draw(loop) for _ in range(m)] for g in gaps]
        for i in range(m):
            cost[1 + i][1 + i] = F(1, 999 if i and draw(st.booleans()) else 1000)
        inst = make_instance(cost, mode=mode)
    crit = critical_value(inst)
    if count:
        return inst, crit, list(subsolution_sampler(inst, crit, seed=seed, count=count))[-1]
    return inst, crit, uniform_subsolution_mix(inst, crit)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_walks())
def test_orbit_sum_is_the_reference_walks_sum(case):
    _walks_match_the_reference(*case)


def test_limits_are_enveloping_solutions():
    inst = gen_random(5, 47, -2, 2)
    crit, bar = crit_bar(inst)
    h = bar.h.entries
    n = inst.n
    for u in subsolution_sampler(inst, crit, seed=8, count=8):
        um = u_minus(inst, crit, u)
        envelope = tuple(
            min(h[x][y] + max(u.values[t] - h[x][t] for t in range(n)) for x in range(n))
            for y in range(n)
        )
        assert um.values == envelope
        up = u_plus(inst, crit, u)
        envelope_p = tuple(
            max(-h[t][x] + min(u.values[s] + h[s][x] for s in range(n)) for x in range(n))
            for t in range(n)
        )
        assert up.values == envelope_p


# --- conjugation and the barrier identities ------------------------------------------

def test_conjugate_solution_fixed(t2):
    from wkam import lax_oleinik_pos as tp, lax_oleinik_neg as tm

    crit, bar = crit_bar(t2)
    h_a = weak_kam_neg(bar, 0)
    assert u_minus(t2, crit, h_a).values == h_a.values
    # n-fold down-up round trip recovers a negative solution exactly
    v = h_a
    for _ in range(3):
        v = tp(t2, v)
    for _ in range(3):
        v = tm(t2, v)
    assert v.values == h_a.values


@pytest.mark.parametrize("which", ["constant:1", "constant:2", "constant:3", "t2", "t3"])
def test_verify_all_passes_the_barrier_identities(request, which):
    # the orbit bound with its attainment on the phi_1 rows, and the
    # alternating limits with the pointwise min of solutions
    if which.startswith("constant:"):
        inst = gen_constant(2, F(which[len("constant:"):]))
    else:
        inst = request.getfixturevalue(which)
    passed = {c.name: c.passed for c in verify_all(inst).checks}
    for name in (
        "barrier.orbit_representation",
        "barrier.conjugation_idempotent",
    ):
        assert passed[name], name


# --- per-function Aubry sets vs chains ----------------------------------------------

def test_orbit_fixed_set_matches_chain_oracle(connector):
    crit = critical_value(connector)
    u = as_value_function(connector, [0, 0, 0])
    assert is_dominated(connector, u, crit.alpha0).ok
    verts, edges = aubry_chain_sets(connector, crit, u)
    # the middle point carries a bi-infinite calibrated chain despite lying
    # on no zero cycle itself
    assert verts == (0, 1, 2)
    assert (0, 1) in edges and (1, 2) in edges
    assert aubry_of(connector, crit, u) == verts
    # globally, only the two self-loop points are Aubry
    ref = enum_zero_cycles(connector)
    assert ref.vertices == (0, 2)


def test_aubry_set_invariant_under_backward_update():
    inst = gen_random(5, 61, -2, 2)
    crit = critical_value(inst)
    for u in subsolution_sampler(inst, crit, seed=2, count=8):
        img = lax_oleinik_neg(inst, u)
        tu = ValueFunction(tuple(v + crit.alpha0 for v in img.values))
        assert aubry_of(inst, crit, u) == aubry_of(inst, crit, tu)


def test_potential_orbit_reaches_tail_tables():
    # T-^k (phi row) + k alpha0 equals the order-k tail potential row
    inst = gen_random(5, 71, -2, 2)
    crit = critical_value(inst)
    phi = mane_potential(inst, crit)
    for x in range(inst.n):
        cur = ValueFunction(phi.entries[x])
        for k in range(1, 5):
            img = lax_oleinik_neg(inst, cur)
            cur = ValueFunction(tuple(v + crit.alpha0 for v in img.values))
            assert cur.values == phi_n(inst, crit, k).entries[x]


# --- robustness: exact and float limits agree on quarter-grid instances ----------

@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-12, max_value=12), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_limits_never_raise_and_float_matches_exact(quarters):
    mode = Mode("float", 1e-9)
    exact = make_instance([[F(k, 4) for k in row] for row in quarters])
    flt = make_instance([[k / 4 for k in row] for row in quarters], mode=mode)
    ecrit, fcrit = critical_value(exact), critical_value(flt)

    def rounded(a, b):
        # float mode computes exactly on the same values and rounds once
        return a == tuple(float(y) for y in b)

    eu = solve_subsolution(exact, ecrit.alpha0).u
    samples = [eu, ValueFunction(tuple(v + F(1, 3) for v in eu.values))]
    samples += subsolution_sampler(exact, ecrit, seed=len(quarters), count=3)
    for u in samples:
        grid, scale = u.grid_in(exact.mode)
        fu = ValueFunction.on_grid(grid, scale, mode)
        assert rounded(u_minus(flt, fcrit, fu).values, u_minus(exact, ecrit, u).values)
        assert rounded(u_plus(flt, fcrit, fu).values, u_plus(exact, ecrit, u).values)
        assert aubry_of(flt, fcrit, fu) == aubry_of(exact, ecrit, u)
    e1 = max_strict_subsolution(exact, ecrit)
    assert rounded(max_strict_subsolution(flt, fcrit).values, e1.values)
