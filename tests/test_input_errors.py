"""Every typed input error of the instance constructors and the metric
machinery: the library raises InputError, and the CLI exits 2 where an
argument or a file can reach it."""

import json
from fractions import Fraction as F

import pytest

from wkam import InputError, as_value_function, check_apriori, critical_value, make_instance
from wkam.cli import EXIT_INPUT, _parse_gen, main
from wkam.models import gen_constant, gen_fk, gen_random, growth_A, instance_from_dict
from wkam.numbers import EXACT

COST2 = [[0, 1], [1, 0]]
LINE3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

# (id, library call, message, CLI source: a --gen spec, a JSON document for
# --in, or None where no argument reaches the error)
CASES = [
    ("labels/count", lambda: make_instance(COST2, labels=["a"]), "label count",
     {"cost": COST2, "labels": ["a"]}),
    ("labels/duplicate", lambda: make_instance(COST2, labels=["a", "a"]), "unique",
     {"cost": COST2, "labels": ["a", "a"]}),
    ("metric/not-n-by-n", lambda: make_instance(COST2, metric=[[0]]), "not n x n",
     {"cost": COST2, "metric": [[0]]}),
    ("metric/negative", lambda: make_instance(COST2, metric=[[0, -1], [-1, 0]]), "finite >= 0",
     {"cost": COST2, "metric": [[0, -1], [-1, 0]]}),
    ("gen/constant-arity", lambda: _parse_gen("constant:3", EXACT), "constant:n:k",
     "constant:3"),
    ("gen/random-arity", lambda: _parse_gen("random:3:0:1", EXACT), "random:n:seed:lo:hi",
     "random:3:0:1"),
    ("gen/fk-arity", lambda: _parse_gen("fk:4:1", EXACT), "fk:m:lambda:potential", "fk:4:1"),
    ("doc/not-object", lambda: instance_from_dict([COST2]), "JSON object", [COST2]),
    ("doc/missing-cost", lambda: instance_from_dict({"n": 2}), "missing field", {"n": 2}),
    ("doc/empty-cost", lambda: instance_from_dict({"cost": []}), "nonempty", {"cost": []}),
    ("doc/inf-metric", lambda: instance_from_dict({"cost": COST2, "metric": [[0, "inf"], ["inf", 0]]}),
     "metric entries must be finite", {"cost": COST2, "metric": [[0, "inf"], ["inf", 0]]}),
    ("gen_constant/n", lambda: gen_constant(0, 1), "n >= 1", "constant:0:1"),
    ("gen_random/n", lambda: gen_random(0, 0, 0, 1), "n >= 1", "random:0:0:0:1"),
    ("gen_random/no-quarter", lambda: gen_random(2, 0, F(1, 8), F(1, 5)), "no representable entry",
     "random:2:0:1/8:1/5"),
    ("gen_fk/m", lambda: gen_fk(0, 1, []), "m >= 1", "fk:0:1:zero"),
    ("gen_fk/coupling", lambda: gen_fk(3, -1, [0, 0, 0]), "coupling", "fk:3:-1:zero"),
    ("growth_A/no-pair", lambda: growth_A(make_instance(LINE3, metric=LINE3), -1),
     "no pair within distance", None),
]


@pytest.mark.parametrize("call, match, source", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_typed_input_error(call, match, source, tmp_path, capsys):
    with pytest.raises(InputError, match=match):
        call()
    if source is None:
        return
    if isinstance(source, str):
        argv = ["critical", "--gen", source]
    else:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(source))
        argv = ["critical", "--in", str(path)]
    assert main(argv) == EXIT_INPUT
    assert match in capsys.readouterr().err


def test_apriori_check_fails_with_a_witness():
    # near pairs cost 1 and far ones 10^6, so the radius is 5/2, yet the
    # deep value at point 2 pulls point 0's argmin out to distance 10
    M = 10**6
    inst = make_instance([[0, 1, M], [1, 1, M], [M, M, 1]], metric=[[0, 1, 10], [1, 0, 9], [10, 9, 0]])
    alpha = critical_value(inst).alpha0
    u = as_value_function(inst, [0, 0, -(10**7)])
    res = check_apriori(inst, u, alpha, 1, 1)
    assert (res.ok, res.witness) == (False, (0, 2))
    assert res.radius == F(5, 2)
