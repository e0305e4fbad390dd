"""Mutation score of the desk oracle: which checks catch which solver fault.

Each mutant patches one solver result in ``wkam.oracle``'s namespace, so
``verify_all`` sees it where it reads that result, and the test pins the
set of checks that fail on each of four desk instances, in exact mode and
in float mode (the same instances read as doubles, which hold the same
quarters, so float mode computes the same exact values).  A mutant must be
killed, by the checks named here and no other, in both modes alike, and
``verify_all`` must report the failure rather than raise.

The mutants (a nudged value moves by one step 1/D of the kernel's grid D):
- ``F_up``: F(0) one step up;
- ``f_down``: f(0) one step down;
- ``vertex_dropped``: the first Aubry vertex dropped;
- ``edge_dropped``: the first Aubry edge dropped;
- ``non_edge_added``: the first pair (x, y), in lexicographic order, that
  is not an Aubry edge, added;
- ``P_low``: P(0, 1), the Kleene plus that ``CriticalData`` holds and every
  solver layer reads, one step low;
- ``h_high``: h(0, 1) of the barrier one step high;
- ``alpha0_up``: alpha0 one step up on ``CriticalData``, which every solver
  layer that takes the constant from it reads, over the true kernel;
- ``witness_wrong``: the witness cycle replaced by the first self-loop that
  is not tight, a cycle whose mean is not -alpha0;
- ``k_up`` and ``k_down``: the barrier's transient k one more or one less
  (k >= 2 on every instance here);
- ``u1_non_strict``: the maximally strict sub-solution u1 raised at its
  first point off the Aubry set as far as domination allows, which makes
  it tight at a pair that is no Aubry edge;
- ``u_minus_up``: u_minus one step up, still a solution above u;
- ``strict_pair_dropped``: the first strict pair dropped from
  ``strict_pairs``.

Two mutants are equivalent: no check can kill them, because the solver's
output stays correct.  ``witness_rotated`` starts the witness cycle at its
second point, which is the same certificate (on a self-loop it is the
solver itself), and ``u1_is_u_star`` returns the potential-row mix u* for
u1, which is as strict as u1 (see
``tests/test_subsolution.py::test_potential_row_mix_is_strict_exactly_off_the_aubry_edges``).
The test pins them as passing every check.

The workspace of ``verify_all`` holds every table and sample on one grid,
so a check cannot compare a sample with a table on a coarser grid: the
wrong-grid mutants that passed ``_check_tightness_propagates`` twice have
no grid left to be wrong on.

``test_every_check_is_scored`` makes each check of ``verify_all`` either
kill some mutant here or stand in ``UNREACHED``: a new check cannot enter
unscored, and a deleted check cannot leave a mutant alive.
"""

import math
from dataclasses import replace

import pytest

import wkam.oracle as oracle
from wkam.barrier import BarrierData
from wkam.core import PotentialTable, ValueFunction, make_instance
from wkam.models import fk_potential_well, gen_fk, gen_random
from wkam.numbers import Mode
from wkam.subsolution import uniform_subsolution_mix

INSTANCES = {
    "random:5:3": lambda: gen_random(5, 3, -2, 2),
    "random:6:7": lambda: gen_random(6, 7, -2, 2),
    "random:4:1": lambda: gen_random(4, 1, -2, 2),
    "fk:6:1:well@2": lambda: gen_fk(6, 1, fk_potential_well(6, 2)),
}

JUMPS = "potential.jump_signs_and_reversal"
FOUR_WAY = "barrier.aubry_four_way_equality"
DICHOTOMY = "subsolution.strict_dichotomy"
# the checks that P_low fails on every instance; a lower P breaks the
# potential's axioms and, on random:6:7, the mix that max_strict_subsolution
# strictifies, whose ConstructionError the two strict checks report
P_CHECKS = {"barrier.chain_splitting_suite", "barrier.potential_orbit_identity"}
P_AXIOMS = {"potential.axioms"}
# the checks that h_high fails on every instance; on two the sampler also
# mixes the barrier row it breaks into a function that is not dominated
H_CHECKS = {
    "barrier.closed_form_via_aubry",
    "barrier.triangle_and_floor",
    "barrier.chain_splitting_suite",
    "barrier.rows_columns_are_solutions",
    "barrier.orbit_representation",
    "barrier.matches_liminf_oracle",
}
SAMPLER = "critical.T_preserves_domination"
CLOSED_FORM = "barrier.closed_form_via_aubry"
STRICT_MAX = "subsolution.max_strict_pattern"
# the checks that alpha0_up fails on every instance: the constant certified
# by cycles, the fixed points and orbits that add it to a step of the true
# kernel, and the samples, tight where alpha0 is
ALPHA_CHECKS = {
    "critical.alpha0_vs_cycle_oracle",
    "critical.witness_cycle_mean",
    "potential.iterated_forward_vanish",
    "barrier.rows_columns_are_solutions",
    "barrier.orbit_representation",
    "barrier.limits_are_extremal",
    "barrier.potential_orbit_identity",
    "barrier.conjugation_idempotent",
    "barrier.orbit_fixed_set_vs_chains",
    FOUR_WAY,
    "subsolution.tight_pair_forces_fixed_point",
    "subsolution.strict_exactly_off_aubry_edges",
}
# the checks that no mutant here reaches: the operator laws, which read
# ``core`` and the samples; phi against phi_1, which read the same P; the
# sample-mixing laws of domination and calibration; and the models checks
UNREACHED = {
    "tropical.semigroup_law",
    "tropical.monotonicity",
    "tropical.constant_commutation",
    "tropical.reversal_identity",
    "critical.dominated_set_convex",
    "potential.phi_matches_phi1",
    "barrier.aubry_set_invariant_under_T",
    "subsolution.mix_calibrates_iff_all_do",
    "subsolution.in_between",
    "models.lipschitz_in_the_large",
    "models.apriori_argmin_radius",
}

# mutant -> instance -> failing checks, the same in both modes
KILLS = {
    "F_up": {name: {JUMPS} for name in INSTANCES} | {"random:6:7": {JUMPS, FOUR_WAY}},
    "f_down": {name: {JUMPS} for name in INSTANCES},
    "vertex_dropped": {name: {FOUR_WAY, DICHOTOMY} for name in INSTANCES},
    "edge_dropped": {name: {FOUR_WAY} for name in INSTANCES},
    "non_edge_added": {name: {FOUR_WAY} for name in INSTANCES},
    "P_low": {
        "random:5:3": P_CHECKS | P_AXIOMS,
        "random:6:7": P_CHECKS | P_AXIOMS | H_CHECKS | {
            FOUR_WAY,
            SAMPLER,
            DICHOTOMY,
            "potential.sup_representation",
            "subsolution.max_strict_pattern",
        },
        "random:4:1": P_CHECKS,
        "fk:6:1:well@2": P_CHECKS | P_AXIOMS | {
            "barrier.closed_form_via_aubry",
            "barrier.orbit_representation",
        },
    },
    "h_high": {
        "random:5:3": H_CHECKS | {SAMPLER},
        "random:6:7": H_CHECKS | {SAMPLER},
        "random:4:1": H_CHECKS,
        "fk:6:1:well@2": H_CHECKS,
    },
    "alpha0_up": {name: ALPHA_CHECKS for name in INSTANCES}
    | {"fk:6:1:well@2": ALPHA_CHECKS | {"critical.subsolution_feasibility"}},
    "witness_wrong": {name: {"critical.witness_cycle_mean"} for name in INSTANCES},
    "k_up": {name: {CLOSED_FORM} for name in INSTANCES},
    "k_down": {name: {CLOSED_FORM, "barrier.orbit_representation"} for name in INSTANCES},
    "u1_non_strict": {name: {DICHOTOMY, STRICT_MAX} for name in INSTANCES},
    "u_minus_up": {
        name: {"barrier.limits_are_extremal", "barrier.conjugation_idempotent"}
        for name in INSTANCES
    },
    "strict_pair_dropped": {
        name: {STRICT_MAX, "subsolution.strict_exactly_off_aubry_edges"} for name in INSTANCES
    },
}
EQUIVALENT = ("witness_rotated", "u1_is_u_star")


def _instance(name, mode):
    inst = INSTANCES[name]()
    if mode == "float":
        inst = make_instance(inst.cost, inst.labels, Mode("float"), inst.metric)
    return inst


def _nudge(jump, sign):
    def mutant(inst, crit, *args, **kwargs):
        v = jump(inst, crit, *args, **kwargs)
        D = math.lcm(v.scale, crit.kernel.scale)
        grid = list(v.at(v.mode, D))
        grid[0] += sign * (D // crit.kernel.scale)
        return ValueFunction.on_grid(grid, D, v.mode, v.tag)

    return mutant


def _edit_aubry(change):
    solver = oracle.aubry

    def mutant(inst, crit, bar, *args, **kwargs):
        return change(inst, solver(inst, crit, bar, *args, **kwargs))

    return mutant


def _bump(table, units):
    """The table with entry (0, 1) moved by ``units`` steps of its grid."""
    grid = [list(row) for row in table.grid]
    grid[0][1] += units
    return PotentialTable(tuple(map(tuple, grid)), table.scale, table.mode)


def _low_P():
    solver = oracle.critical_value

    def mutant(inst):
        crit = solver(inst)
        object.__setattr__(crit, "_plus", _bump(crit.kernel_plus(), -1))
        return crit

    return mutant


def _high_h():
    solver = oracle.peierls_barrier

    def mutant(inst, crit):
        return BarrierData(_bump(solver(inst, crit).h, 1), inst, crit)

    return mutant


def _edit_crit(change):
    solver = oracle.critical_value

    def mutant(inst):
        crit = solver(inst)
        for attr, value in change(inst, crit).items():
            object.__setattr__(crit, attr, value)
        return crit

    return mutant


def _alpha_up(inst, crit):
    return {"alpha_grid": crit.alpha_grid + 1}


def _wrong_witness(inst, crit):
    """The first self-loop whose reduced cost is not 0, as the cycle."""
    return {"witness_cycle": (next(x for x in range(inst.n) if crit.kernel.grid[x][x] != 0),)}


def _rotated_witness(inst, crit):
    cyc = crit.witness_cycle
    return {"witness_cycle": cyc[1:] + cyc[:1]}


def _moved_k(d):
    solver = oracle.peierls_barrier

    def mutant(inst, crit):
        bar = solver(inst, crit)
        bar.__dict__["iterations_to_fix"] = bar.iterations_to_fix + d
        return bar

    return mutant


def _tight_u1():
    solver = oracle.max_strict_subsolution

    def mutant(inst, crit):
        u1 = solver(inst, crit)
        D = math.lcm(u1.scale, crit.kernel.scale)
        g, r = list(u1.at(u1.mode, D)), crit.kernel_at(D)
        y = next(x for x in range(inst.n) if x not in crit.aubry_vertices())
        g[y] = min(g[x] + r[x][y] for x in range(inst.n) if x != y)
        return ValueFunction.on_grid(g, D, u1.mode, u1.tag)

    return mutant


def _raised_u_minus():
    solver = oracle.u_minus

    def mutant(inst, crit, u):
        v = solver(inst, crit, u)
        D = math.lcm(v.scale, crit.kernel.scale)
        step = D // crit.kernel.scale
        return ValueFunction.on_grid([x + step for x in v.at(v.mode, D)], D, v.mode, v.tag)

    return mutant


def _dropped_strict_pair():
    solver = oracle.strict_pairs
    return lambda inst, crit, u: solver(inst, crit, u)[1:]


def _add_non_edge(inst, aub):
    pairs = ((x, y) for x in range(inst.n) for y in range(inst.n))
    return replace(aub, edges=aub.edges + (next(p for p in pairs if p not in aub.edges),))


MUTANTS = {
    "F_up": ("jump_F", lambda: _nudge(oracle.jump_F, 1)),
    "f_down": ("jump_f", lambda: _nudge(oracle.jump_f, -1)),
    "vertex_dropped": ("aubry", lambda: _edit_aubry(lambda _, a: replace(a, vertices=a.vertices[1:]))),
    "edge_dropped": ("aubry", lambda: _edit_aubry(lambda _, a: replace(a, edges=a.edges[1:]))),
    "non_edge_added": ("aubry", lambda: _edit_aubry(_add_non_edge)),
    "P_low": ("critical_value", _low_P),
    "h_high": ("peierls_barrier", _high_h),
    "alpha0_up": ("critical_value", lambda: _edit_crit(_alpha_up)),
    "witness_wrong": ("critical_value", lambda: _edit_crit(_wrong_witness)),
    "witness_rotated": ("critical_value", lambda: _edit_crit(_rotated_witness)),
    "k_up": ("peierls_barrier", lambda: _moved_k(1)),
    "k_down": ("peierls_barrier", lambda: _moved_k(-1)),
    "u1_non_strict": ("max_strict_subsolution", _tight_u1),
    "u1_is_u_star": ("max_strict_subsolution", lambda: uniform_subsolution_mix),
    "u_minus_up": ("u_minus", _raised_u_minus),
    "strict_pair_dropped": ("strict_pairs", _dropped_strict_pair),
}


def _failing(inst):
    return {c.name for c in oracle.verify_all(inst, seed=1).checks if not c.passed}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_unmutated_solver_passes_every_check(mode):
    for name in INSTANCES:
        assert _failing(_instance(name, mode)) == set(), name


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_kill_set(monkeypatch, mutant, mode):
    attr, make = MUTANTS[mutant]
    monkeypatch.setattr(oracle, attr, make())
    got = {name: _failing(_instance(name, mode)) for name in INSTANCES}
    if mutant in EQUIVALENT:
        assert got == {name: set() for name in INSTANCES}
    else:
        assert got == KILLS[mutant]
        assert all(got.values())


def test_every_check_is_scored():
    # the report of a metric instance names every check once
    names = [c.name for c in oracle.verify_all(_instance("fk:6:1:well@2", "exact")).checks]
    assert len(names) == len(set(names)) == len(oracle._CHECKS) + len(oracle._METRIC_CHECKS)
    killed = set().union(*(s for kills in KILLS.values() for s in kills.values()))
    assert sorted(MUTANTS) == sorted([*KILLS, *EQUIVALENT])
    assert killed.isdisjoint(UNREACHED)
    assert set(names) == killed | UNREACHED
