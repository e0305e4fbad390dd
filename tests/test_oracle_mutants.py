"""Mutation score of the desk oracle: which checks catch which solver fault.

Each mutant patches one solver result in ``wkam.oracle``'s namespace, so
``verify_all`` sees it where it reads that result, and the test pins the
set of checks that fail on each of four desk instances, in exact mode and
in float mode (the same instances read as doubles, which hold the same
quarters, so float mode computes the same exact values).  A mutant must be
killed, by the checks named here and no other, in both modes alike, and
``verify_all`` must report the failure rather than raise.

The mutants, each one step 1/D of the kernel's grid D:
- ``F_up``: F(0) one step up;
- ``f_down``: f(0) one step down;
- ``vertex_dropped``: the first Aubry vertex dropped;
- ``edge_dropped``: the first Aubry edge dropped;
- ``non_edge_added``: the first pair (x, y), in lexicographic order, that
  is not an Aubry edge, added;
- ``P_low``: P(0, 1), the Kleene plus that ``CriticalData`` holds and every
  solver layer reads, one step low;
- ``h_high``: h(0, 1) of the barrier one step high.
"""

import math
from dataclasses import replace

import pytest

import wkam.oracle as oracle
from wkam.barrier import BarrierData
from wkam.core import PotentialTable, ValueFunction, make_instance
from wkam.models import fk_potential_well, gen_fk, gen_random
from wkam.numbers import Mode

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
P_AXIOMS = {"potential.axioms", "potential.rows_and_columns_dominated"}
# the checks that h_high fails on every instance; on two the sampler also
# mixes the barrier row it breaks into a function that is not dominated
H_CHECKS = {
    "barrier.closed_form_via_aubry",
    "barrier.triangle_and_floor",
    "barrier.chain_splitting_suite",
    "barrier.min_formula",
    "barrier.rows_columns_are_solutions",
    "barrier.orbit_representation",
    "barrier.matches_liminf_oracle",
}
SAMPLER = "critical.T_preserves_domination"

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
}


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
    assert got == KILLS[mutant]
