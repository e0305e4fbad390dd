"""Mutation score of the desk oracle: which checks catch which solver fault.

Each mutant patches one solver result in ``wkam.oracle``'s namespace, so
``verify_all`` sees it where it reads that result, and the test pins the
set of checks that fail on each of four desk instances, in exact mode and
in float mode (the same instances read as floats).  A mutant must be
killed, by the checks named here and no other, and ``verify_all`` must
report the failure rather than raise.

The mutants:
- ``F_up``: F(0) one unit up (1/D on the kernel's grid D; 1e-3 in float);
- ``f_down``: f(0) one unit down;
- ``vertex_dropped``: the first Aubry vertex dropped;
- ``edge_dropped``: the first Aubry edge dropped;
- ``non_edge_added``: the first pair (x, y), in lexicographic order, that
  is not an Aubry edge, added.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

import wkam.oracle as oracle
from wkam.core import ValueFunction, make_instance
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

# mutant -> instance -> failing checks, the same in both modes
KILLS = {
    "F_up": {name: {JUMPS} for name in INSTANCES} | {"random:6:7": {JUMPS, FOUR_WAY}},
    "f_down": {name: {JUMPS} for name in INSTANCES},
    "vertex_dropped": {name: {FOUR_WAY, DICHOTOMY} for name in INSTANCES},
    "edge_dropped": {name: {FOUR_WAY} for name in INSTANCES},
    "non_edge_added": {name: {FOUR_WAY} for name in INSTANCES},
}


def _instance(name, mode):
    inst = INSTANCES[name]()
    if mode == "float":
        inst = make_instance(inst.cost, inst.labels, Mode("float"), inst.metric)
    return inst


def _nudge(jump, sign):
    def mutant(inst, crit, *args, **kwargs):
        v = jump(inst, crit, *args, **kwargs)
        unit = Fraction(1, crit.kernel.scale) if inst.mode.exact else 1e-3
        vals = list(v.values)
        vals[0] += sign * unit
        return ValueFunction(vals, v.tag)

    return mutant


def _edit_aubry(change):
    solver = oracle.aubry

    def mutant(inst, crit, bar, *args, **kwargs):
        return change(inst, solver(inst, crit, bar, *args, **kwargs))

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
