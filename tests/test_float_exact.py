"""Float mode is exact mode on the inputs' doubles, each output rounded once.

A float run reads its instance as doubles and solves exactly on their
dyadic values, so every value it prints is ``float()`` of the value an
exact run prints on the same doubles, and every set, cycle and pair list
is the exact run's.  ``exact_twin`` writes the doubles of a float source
as an exact instance file, and ``rounded_once`` compares the two outputs.

The named regressions are inputs on which float mode once decided its zero
tests within a tolerance band, in places that disagreed near the band's
edge: each now answers with exit 0.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from test_cli_golden import _sources
from wkam import cli
from wkam.models import dumps
from wkam.numbers import EXACT


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def exact_twin(tmp: Path, source: list[str]) -> list[str]:
    """The source, read in float mode, as an exact instance file of the
    same doubles: the ``--in`` arguments of the exact run."""
    args = cli._build_parser().parse_args(["critical", *source, "--mode", "float"])
    twin = cli._with_mode(cli._load_instance(args), EXACT)
    path = tmp / "twin.json"
    path.write_text(dumps(twin), encoding="utf-8")
    return ["--in", str(path)]


def rounded_once(got, want) -> bool:
    """Whether the float output ``got`` is the exact output ``want`` with
    each number printed as the nearest double: labels, flags and "inf" as
    they are, each exact int or "p/q" as ``float`` of its value."""
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(rounded_once, got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(rounded_once(got[k], want[k]) for k in want)
    if isinstance(got, float):
        return not isinstance(want, bool) and got == float(Fraction(want))
    return got == want


def _csv_rounded_once(got: str, want: str) -> bool:
    rows = list(csv.reader(io.StringIO(got))), list(csv.reader(io.StringIO(want)))
    return len(rows[0]) == len(rows[1]) and all(
        len(g) == len(w) and all(a == b or float(a) == float(Fraction(b)) for a, b in zip(g, w))
        for g, w in zip(*rows)
    )


SUBCOMMANDS = (["critical"], ["potential"], ["barrier"], ["aubry"], ["subsolution", "--check"])


def test_every_float_golden_is_the_exact_run_rounded_once(tmp_path):
    checked = 0
    for name, source in _sources(tmp_path).items():
        twin = exact_twin(tmp_path, source)
        metric = name.startswith(("fk", "gen:fk", "sparse"))
        for sub in SUBCOMMANDS + ((["plotdata"],) if metric else ()):
            fcode, fout, _ = run_cli([sub[0], *source, *sub[1:], "--mode", "float"])
            ecode, eout, _ = run_cli([sub[0], *twin, *sub[1:]])
            assert fcode == ecode, (name, sub)
            if fcode:
                assert fout == eout == "", (name, sub)
                continue
            if sub == ["plotdata"]:
                assert _csv_rounded_once(fout, eout), (name, sub)
            else:
                assert rounded_once(json.loads(fout), json.loads(eout)), (name, sub)
            assert re.search(r"-0\.0\b", fout) is None, (name, sub)  # 0 prints as 0.0
            checked += 1
    assert checked == 5 * 5 + 2 + 1  # plotdata on the fk sources; sparse answers critical only


# --- named regressions -----------------------------------------------------------

TIE = {"cost": [[-1, 1], [1, 2]]}
FIVE_POINTS = {
    "cost": [
        [0.5, 0.5, "7/2", -1, "7/2"],
        [-3, 1, 1, 1, -3],
        [-3, "1/100", 3, "1/100", 12345.678],
        [1000, 3, "1/3", 1000, -0.25],
        [1, "7/2", "7/2", 2, 0.5],
    ]
}
NEAR_ZERO_CYCLE = {"cost": [["1/1000000007", "-5/7"], [1, 0]]}
MIXED_MAGNITUDES = {"cost": [[0, "1/3", 1], [10**30, 0.1, 0.1], [0, -1, "1/1000000007"]]}


def _file(tmp: Path, doc: dict) -> list[str]:
    path = tmp / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["--in", str(path)]


def _answers_as_exact(tmp: Path, source: list[str], sub: list[str], tol: str) -> None:
    fcode, fout, ferr = run_cli([sub[0], *source, *sub[1:], "--mode", "float", "--tol", tol])
    assert fcode == 0, ferr
    ecode, eout, _ = run_cli([sub[0], *exact_twin(tmp, source), *sub[1:]])
    assert ecode == 0 and rounded_once(json.loads(fout), json.loads(eout))


@pytest.mark.parametrize("tol", ["0.5", "1e-9"])
def test_float_tie_mix_pins_the_aubry_set(tmp_path, tol):
    # at tol 0.5 the band once called the mix's limits fixed off the Aubry
    # set: "potential-row mix does not pin the Aubry set", exit 1
    source = _file(tmp_path, TIE)
    _answers_as_exact(tmp_path, source, ["subsolution", "--check"], tol)
    code, out, _ = run_cli(["verify", *source, "--mode", "float", "--tol", tol])
    assert code == 0 and json.loads(out)["ok"]


def test_float_five_point_subsolution_answers(tmp_path):
    # exited 1 under --tol 1e-6, as the tie instance did at 0.5
    _answers_as_exact(tmp_path, _file(tmp_path, FIVE_POINTS), ["subsolution", "--check"], "1e-6")


def test_float_verify_tells_a_near_zero_cycle_from_zero(tmp_path):
    # a 1e-9 band called the cycle of weight 1/1000000007 a zero cycle while
    # the solver did not: exit 3.  Exact on its double, verify passes, as
    # exact mode does on this file, past a barrier transient of about 3 * 10^8
    code, out, err = run_cli(["verify", *_file(tmp_path, NEAR_ZERO_CYCLE), "--mode", "float"])
    assert code == 0, err
    assert json.loads(out)["ok"]


def test_float_verify_passes_on_mixed_magnitudes(tmp_path):
    # exited 3: 10**30 next to 1/1000000007 and 0.1 widened the band past
    # the cycle gaps
    code, out, _ = run_cli(["verify", *_file(tmp_path, MIXED_MAGNITUDES), "--mode", "float"])
    assert code == 0 and json.loads(out)["ok"]
