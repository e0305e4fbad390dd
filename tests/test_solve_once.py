"""Each instance is solved once.

``CriticalData`` holds P = kleene_plus(kernel), from which phi_1, the Mane
potential, F and the closed-form barrier follow, and the Aubry vertices,
decided once from P's diagonal; the barrier's transient runs only when
``iterations_to_fix`` is read.
These tests count the Kleene plus calls, one per ``CriticalData`` (of the
kernel, or in exact mode of its condensed tight graph), and the transient
searches made by every CLI subcommand, by ``verify`` and by the library
pipeline, and check the lazy transient against values computed
when it was still eager.  Every solver matrix stays a table on the integer
grid, and so do each instance's costs and metric, so they also count the
tables and vectors turned into values: a command prints off the grid and
converts none.
"""

import sys
from fractions import Fraction
from fractions import Fraction as F
from functools import cached_property
from pathlib import Path

import pytest

import wkam
import wkam.barrier
import wkam.core
import wkam.critical
from wkam import Mode, critical_value, gen_fk, gen_random, make_instance, peierls_barrier
from wkam.cli import main
from wkam.models import fk_potential_well

FLOAT = Mode("float", 1e-9)
INSTANCES = Path(__file__).resolve().parents[1] / "instances"


@pytest.fixture
def calls(monkeypatch):
    """The matrices passed to kleene_plus, wherever wkam binds it, the
    Kleene plus calls made by each ``CriticalData`` that computed its P, the
    number of transient searches and the sizes of the tables whose entries
    and of the vectors whose values were converted."""
    rec = {"plus": [], "per_crit": [], "transient": 0, "converted": [], "vectors": []}
    kleene_plus = wkam.core.kleene_plus
    kernel_plus = wkam.critical.CriticalData.kernel_plus
    transient = wkam.barrier._transient
    convert = wkam.core.PotentialTable.entries.func

    def counted_plus(a):
        rec["plus"].append(a)
        return kleene_plus(a)

    def counted_kernel_plus(crit):
        fresh, before = crit._plus is None, len(rec["plus"])
        p = kernel_plus(crit)
        if fresh:
            rec["per_crit"].append(len(rec["plus"]) - before)
        return p

    def counted_transient(*args):
        rec["transient"] += 1
        return transient(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("wkam") and getattr(mod, "kleene_plus", None) is kleene_plus:
            monkeypatch.setattr(mod, "kleene_plus", counted_plus)
    monkeypatch.setattr(wkam.critical.CriticalData, "kernel_plus", counted_kernel_plus)
    monkeypatch.setattr(wkam.barrier, "_transient", counted_transient)

    def counted_entries(table):
        rec["converted"].append(len(table.grid))
        return convert(table)

    entries = cached_property(counted_entries)
    entries.__set_name__(wkam.core.PotentialTable, "entries")
    monkeypatch.setattr(wkam.core.PotentialTable, "entries", entries)
    values = wkam.core.ValueFunction.values.fget

    def counted_values(u):
        if u._values is None:
            rec["vectors"].append(len(u.grid))
        return values(u)

    monkeypatch.setattr(wkam.core.ValueFunction, "values", property(counted_values))
    return rec


def _kernel_plus_count(rec):
    # each CriticalData makes one Kleene plus, and they are the only ones
    # wkam makes: the transient walks pruned fronts and calls none
    assert rec["per_crit"] == [1] * len(rec["per_crit"])
    assert len(rec["plus"]) == len(rec["per_crit"])
    return len(rec["plus"])


@pytest.mark.parametrize(
    "argv, kernel_plus, transient",
    [
        (["critical"], 0, 0),
        (["potential"], 1, 0),
        (["barrier"], 1, 1),
        (["aubry"], 1, 0),
        (["subsolution"], 1, 0),
        (["subsolution", "--check"], 1, 0),
        (["plotdata"], 1, 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_cli_subcommand_solves_once(calls, capsys, argv, kernel_plus, transient):
    code = main([argv[0], "--gen", "fk:24:1:well@0", *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert _kernel_plus_count(calls) == kernel_plus
    assert calls["transient"] == transient
    # every table and vector is printed off its grid, the instance's cost
    # and metric included (plotdata reads V off the cost grid's diagonal)
    assert calls["converted"] == []
    assert calls["vectors"] == []


def test_verify_solves_once_per_instance(calls, capsys):
    code = main(["verify", "--gen", "fk:8:1:well@0"])
    capsys.readouterr()
    assert code == 0
    # one for the instance and one for its transpose, which the check
    # potential.jump_signs_and_reversal solves on its own
    kernels = [a for a in calls["plus"] if len(a) == 8]
    assert len(kernels) == 2
    assert _kernel_plus_count(calls) == 2
    assert kernels[0] is not kernels[1]
    assert calls["transient"] == 1
    # the oracle compares on the grids: no table, the instance's cost and
    # metric among them, is turned into values
    assert calls["converted"].count(8) == 0


def test_mode_change_retables_the_grids(calls, capsys):
    # --in with a differing --mode builds the float tables from the exact
    # grids, k / D per entry, and converts none of them
    assert main(["aubry", "--in", str(INSTANCES / "fk8_well.json"), "--mode", "float"]) == 0
    by_file = capsys.readouterr().out
    assert calls["converted"] == []
    assert main(["aubry", "--gen", "fk:8:1:well@0", "--mode", "float"]) == 0
    assert capsys.readouterr().out == by_file


# Fraction constructions in one verify_all before vectors were held on the
# grid; today the two runs construct 183 and 24
FRACTIONS = [
    ("fk:10:1:well@3", lambda: gen_fk(10, 1, fk_potential_well(10, 3)), 5, 14262),
    ("random:10:11:-2:2", lambda: gen_random(10, 11, -2, 2), 11, 7488),
]


@pytest.mark.parametrize(
    "make, seed, before", [f[1:] for f in FRACTIONS], ids=[f[0] for f in FRACTIONS]
)
def test_verify_all_constructs_few_fractions(monkeypatch, make, seed, before):
    inst = make()
    made = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert wkam.verify_all(inst, seed=seed).ok
    monkeypatch.undo()
    assert made[0] <= before // 3


@pytest.mark.parametrize("mode", [wkam.EXACT, FLOAT], ids=["exact", "float"])
def test_library_pipeline_solves_once(calls, mode):
    # the pipeline of the benchmark's exact-random and float-random ops
    inst = gen_random(8, 3, -2, 2, mode=mode)
    crit = critical_value(inst)
    phi = wkam.mane_potential(inst, crit)
    wkam.jump_F(inst, crit, phi=phi)
    wkam.jump_f(inst, crit, phi=phi)
    bar = peierls_barrier(inst, crit)
    wkam.aubry(inst, crit, bar, phi=phi)
    wkam.max_strict_subsolution(inst, crit)
    assert _kernel_plus_count(calls) == 1
    assert calls["transient"] == 0
    assert calls["converted"] == []


@pytest.mark.parametrize("mode", [wkam.EXACT, FLOAT], ids=["exact", "float"])
def test_aubry_vertices_decided_once_per_critical_data(monkeypatch, mode):
    # the float-random pipeline reads A in the closed form, the Aubry sets,
    # the limits, the two orbit walks and the strict sub-solution's check
    decided = []
    aubry_set = wkam.critical._aubry_set

    def counted(p):
        decided.append(p)
        return aubry_set(p)

    monkeypatch.setattr(wkam.critical, "_aubry_set", counted)
    for seed in range(3):
        inst = gen_random(8, seed, -2, 2, mode=mode)
        crit = critical_value(inst)
        phi = wkam.mane_potential(inst, crit)
        wkam.jump_F(inst, crit, phi=phi)
        wkam.jump_f(inst, crit, phi=phi)
        bar = peierls_barrier(inst, crit)
        assert wkam.aubry(inst, crit, bar, phi=phi).vertices is crit.aubry_vertices()
        wkam.max_strict_subsolution(inst, crit)
        assert decided == [crit.kernel_plus()]
        decided.clear()


def test_exact_kernel_plus_condenses_the_tight_graph(calls):
    # random:128:0:-2:2 has 127 Aubry vertices in one class: the Kleene plus
    # is one of the 2 x 2 condensed matrix, not of the 128 x 128 kernel
    inst = gen_random(128, 0, -2, 2)
    crit = critical_value(inst)
    assert len(crit.class_leaders()) == 1
    assert [len(a) for a in calls["plus"]] == [2]
    assert _kernel_plus_count(calls) == 1


def test_tables_are_shared_and_converted_once(calls):
    inst = gen_random(8, 3, -2, 2)
    crit = critical_value(inst)
    assert wkam.phi_n(inst, crit, 1) is crit.kernel_plus()
    phi = wkam.mane_potential(inst, crit)
    first = phi.entries
    assert phi.entries is first
    assert calls["converted"] == [8]
    # an instance holds its grids only: its matrices are read off them on
    # each read, and no solver table is converted for them
    assert inst.cost == inst.cost and inst.cost is not inst.cost
    assert calls["converted"] == [8]


def test_transient_runs_once_on_first_read(calls):
    inst = gen_fk(24, 1, fk_potential_well(24, 0))
    bar = peierls_barrier(inst, critical_value(inst))
    assert calls["transient"] == 0
    plus = len(calls["plus"])
    assert bar.iterations_to_fix == 8
    assert bar.iterations_to_fix == 8
    assert calls["transient"] == 1
    assert len(calls["plus"]) == plus  # the transient makes no Kleene plus


def _slow():
    # the instance of test_cli.py::test_barrier_long_transient_exits_0
    return make_instance([[F(0), F(1000)], [F(1000), F(1, 100)]])


# iterations_to_fix as peierls_barrier returned it when the transient was
# computed eagerly, before the barrier was returned
EAGER = [
    ("random:5:2:-100:100", lambda: gen_random(5, 2, -100, 100), 13),
    ("random:8:2:-100:100", lambda: gen_random(8, 2, -100, 100), 25),
    ("random:12:2:-100:100", lambda: gen_random(12, 2, -100, 100), 47),
    ("random:32:0:-100:100", lambda: gen_random(32, 0, -100, 100), 521),
    ("fk:8:1:well@3", lambda: gen_fk(8, 1, fk_potential_well(8, 3)), 6),
    ("float random:4:2:-2:2", lambda: gen_random(4, 2, -2, 2, mode=FLOAT), 0),
    ("float random:6:1:-2:2", lambda: gen_random(6, 1, -2, 2, mode=FLOAT), 194),
    ("long transient", _slow, 199999),
]


@pytest.mark.parametrize("make, k", [e[1:] for e in EAGER], ids=[e[0] for e in EAGER])
def test_lazy_transient_matches_eager_value(make, k):
    inst = make()
    assert peierls_barrier(inst, critical_value(inst)).iterations_to_fix == k


@pytest.mark.parametrize("mode", [wkam.EXACT, FLOAT], ids=["exact", "float"])
def test_max_strict_scales_the_kernel_once(monkeypatch, mode):
    # the domination check of the mix and both orbit walks read the kernel
    # on the mix's grid D; CriticalData keeps the last matrix kernel_at(D)
    # made, so the n^2 multiplications are paid once per call
    made = []
    at = wkam.core.PotentialTable.at

    def recorded(table, D):
        if D != table.scale:
            made.append(D)
        return at(table, D)

    monkeypatch.setattr(wkam.core.PotentialTable, "at", recorded)
    scaled = 0
    for seed in range(6):
        inst = gen_random(6, seed, -2, 2, mode=mode)
        crit = critical_value(inst)
        made.clear()
        wkam.max_strict_subsolution(inst, crit)
        # none when the mix sits on the kernel's own grid
        assert len(made) <= 1, seed
        scaled += len(made)
    assert scaled >= 4
