import json

import pytest

from wkam.cli import _COMMANDS, _build_parser, main
from wkam.models import dumps


@pytest.fixture
def t2_file(tmp_path, t2):
    p = tmp_path / "t2.json"
    p.write_text(dumps(t2))
    return str(p)


@pytest.fixture
def t3_file(tmp_path, t3):
    p = tmp_path / "t3.json"
    p.write_text(dumps(t3))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_critical_t2(capsys, t2_file):
    code, out, _ = run(capsys, "critical", "--in", t2_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha0"] == "-1/2"
    assert doc["witness_cycle"] == ["a", "b"]


def test_critical_constant(capsys):
    code, out, _ = run(capsys, "critical", "--gen", "constant:3:5")
    assert code == 0
    assert json.loads(out)["alpha0"] == -5


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "critical", "--in", "no-such-file.json")
    assert code == 2
    assert "error" in err


def test_malformed_file_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    code, _, _ = run(capsys, "critical", "--in", str(p))
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "float", "tolerance": "x", "cost": [[0]]},
        {"mode": "float", "tolerance": None, "cost": [[0]]},
        {"mode": "float", "tolerance": True, "cost": [[0]]},
        {"mode": "float", "tolerance": 1, "cost": [[0]]},
        {"mode": "float", "tolerance": 2, "cost": [[0]]},
        {"mode": "float", "tolerance": float("inf"), "cost": [[0]]},
        {"cost": [[0]], "labels": 5},
        {"cost": [[0, 1], [1, 0]], "labels": ["a", ["b"]]},
        {"cost": [[0, 1], [1, 0]], "metric": 7},
        {"cost": [[0, 1], [1, 0]], "metric": [[0, 1], 5]},
        # json writes and reads a non-finite number as Infinity; only the
        # string "inf" is a missing edge
        {"cost": [[float("inf"), 0], [0, 0]]},
    ],
    ids=[
        "tolerance-str",
        "tolerance-null",
        "tolerance-bool",
        "tolerance-1",
        "tolerance-2",
        "tolerance-inf",
        "labels",
        "label-not-str",
        "metric",
        "metric-row",
        "cost-non-finite",
    ],
)
def test_malformed_fields_exit_2(capsys, tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "critical", "--in", str(p))
    assert code == 2
    assert err.startswith("error:")


def test_oversize_verify_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--gen", "constant:11:1")
    assert code == 2
    assert "guard" in err


def test_bad_generator_exits_2(capsys):
    code, _, _ = run(capsys, "critical", "--gen", "nope:1:2")
    assert code == 2
    code, _, _ = run(capsys, "critical", "--gen", "constant:x:2")
    assert code == 2
    code, _, err = run(capsys, "critical", "--gen", "fk:0:1:well@3")
    assert code == 2
    assert err.startswith("error:")
    for argv in (["random:2:0:0:inf"], ["random:2:0:-1e308:1e308", "--mode", "float"]):
        code, _, err = run(capsys, "critical", "--gen", *argv)
        assert code == 2
        assert "range [lo, hi]" in err


def test_two_calls_build_the_parser_once(capsys):
    _build_parser.cache_clear()
    code, with_check, _ = run(capsys, "subsolution", "--gen", "constant:2:1", "--check")
    assert code == 0
    code, plain, _ = run(capsys, "subsolution", "--gen", "constant:2:1")
    assert code == 0
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the shared parser keeps no option of the call before
    assert "strict_matches_aubry_complement" in json.loads(with_check)
    assert "strict_matches_aubry_complement" not in json.loads(plain)


# every option but the source and subsolution's --check
COMMON = ["--out", "o.json", "--format", "csv", "--mode", "float",
          "--tol", "1e-6", "--seed", "3", "--horizon", "5"]


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_every_subcommand_takes_the_common_options(capsys, name):
    parser = _build_parser()
    args = vars(parser.parse_args([name, "--gen", "constant:2:1", *COMMON]))
    assert args.pop("check", False) is False
    assert args == {
        "command": name,
        "infile": None,
        "genspec": "constant:2:1",
        "outfile": "o.json",
        "fmt": "csv",
        "mode": "float",
        "tol": 1e-6,
        "seed": 3,
        "horizon": 5,
    }
    assert parser.parse_args([name, "--in", "x.json"]).infile == "x.json"
    if name == "subsolution":
        assert parser.parse_args([name, "--in", "x.json", "--check"]).check
    else:
        with pytest.raises(SystemExit):
            parser.parse_args([name, "--in", "x.json", "--check"])
    for bad in ([name], [name, "--gen", "g", "--in", "f"]):  # exactly one source
        with pytest.raises(SystemExit):
            parser.parse_args(bad)
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, argv",
    [
        ('{"mode": "float", "cost": [["1e400", 0], [0, 0]]}', []),
        ('{"cost": [["1e400", 0], [0, 0]]}', ["--mode", "float"]),
        ('{"cost": [[1e400, 0], [0, 0]]}', []),
        (None, ["--mode", "float", "--gen", "constant:2:1e400"]),
    ],
    ids=["float-file", "exact-file-as-float", "json-number", "float-gen"],
)
def test_values_beyond_float_range_exit_2(capsys, tmp_path, text, argv):
    if text is not None:
        p = tmp_path / "big.json"
        p.write_text(text)
        argv = ["--in", str(p), *argv]
    code, _, err = run(capsys, "critical", *argv)
    assert code == 2
    assert err.startswith("error:")


# -10**309 as a JSON integer beside a missing edge: an int beyond the float
# range must never meet +inf, so each call answers or names the input
_BEYOND_FLOAT_SPARSE = '{"cost": [[-1%s, "inf"], [0, 0]]}' % ("0" * 309)


@pytest.fixture
def beyond_float_sparse_file(tmp_path):
    p = tmp_path / "beyond.json"
    p.write_text(_BEYOND_FLOAT_SPARSE)
    return str(p)


def test_critical_beyond_float_range_with_a_missing_edge_exits_0(capsys, beyond_float_sparse_file):
    code, out, err = run(capsys, "critical", "--in", beyond_float_sparse_file)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["alpha0"] == 10**309
    assert doc["witness_cycle"] == ["p0"]
    assert doc["reduced"] == [[0, "inf"], [10**309, 10**309]]


def test_critical_past_the_round_budget_beyond_float_range_exits_0(capsys, tmp_path):
    # the search spends its n + 1 rounds here and Karp answers
    p = tmp_path / "budget.json"
    big = "9" + "0" * 309
    p.write_text('{"cost": [["inf", "inf", 0], [-8%s, "inf", "inf"], [%s, %s, "inf"]]}' % (big[1:], big, big))
    code, out, err = run(capsys, "critical", "--in", str(p))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["alpha0"] == "-%d/3" % 10**309
    assert doc["witness_cycle"] == ["p0", "p2", "p1"]


@pytest.mark.parametrize("name", ["potential", "barrier", "aubry", "subsolution", "verify"])
def test_beyond_float_range_with_a_missing_edge_exits_2_as_non_total(capsys, beyond_float_sparse_file, name):
    code, out, err = run(capsys, name, "--in", beyond_float_sparse_file)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "requires a total instance" in err


def test_plotdata_beyond_float_range_with_a_missing_edge_exits_2(capsys, beyond_float_sparse_file):
    code, out, err = run(capsys, "plotdata", "--in", beyond_float_sparse_file)
    assert (code, out) == (2, "")
    assert "needs a metric instance" in err


# a total instance with entries beyond the float range: the transient's
# first fronts never meet +inf, so the barrier and the oracle answer
_BEYOND_FLOAT_TOTAL = "[[3, -B, 1, B], [-2, B, B, B], [3, 1, B, 0], [3, -B, 0, 3]]".replace("B", "1" + "0" * 309)


@pytest.mark.parametrize("name", ["barrier", "verify"])
def test_beyond_float_range_total_barrier_and_verify_exit_0(capsys, tmp_path, name):
    p = tmp_path / "beyond_total.json"
    p.write_text('{"cost": %s}' % _BEYOND_FLOAT_TOTAL)
    code, out, err = run(capsys, name, "--in", str(p))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    if name == "barrier":
        assert doc["iterations_to_fix"] == 2
    else:
        assert all(c["passed"] for c in doc["checks"])


def test_aubry_t3(capsys, t3_file):
    code, out, _ = run(capsys, "aubry", "--in", t3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == ["a", "b"]
    assert ["a", "b"] in doc["edges"] and ["b", "a"] in doc["edges"]


def test_barrier_constant_csv(capsys):
    code, out, _ = run(capsys, "barrier", "--gen", "constant:3:5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,source,target,value"
    h_lines = [l for l in lines if l.startswith("h,")]
    assert len(h_lines) == 9
    assert all(l.endswith(",0") for l in h_lines)


def test_barrier_long_transient_exits_0(capsys, tmp_path):
    # walks of j steps that stay at the off-Aubry point cost j/100, below
    # h = 2000 until j = 200000, so phi_{1+k} = h first at k = 199999; a
    # brute-force row iteration with no cap takes exactly that many steps
    p = tmp_path / "slow.json"
    p.write_text('{"cost": [[0, 1000], [1000, "1/100"]]}')
    code, out, _ = run(capsys, "barrier", "--in", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == [[0, 1000], [1000, 2000]]
    assert doc["iterations_to_fix"] == 199999


def test_subsolution_slow_orbit_exits_0(capsys, tmp_path):
    # both orbits of the mix u* = (0, 0) creep by the 1/100 self-loop at the
    # off-Aubry point for 100000 steps until they meet their closed-form
    # limits (0, 1000) and (0, -1000); the iterates average to (0, 0)
    from wkam.models import load
    from wkam.oracle import cycle_scan

    p = tmp_path / "slow.json"
    p.write_text('{"cost": [[0, 1000], [1000, "1/100"]]}')
    code, out, _ = run(capsys, "subsolution", "--in", str(p))
    assert code == 0
    doc = json.loads(out)
    inst = load(p)
    scan = cycle_scan(inst)
    assert doc["alpha0"] == -scan.min_mean
    tight = set(scan.zero_edges)
    expected = [
        [inst.labels[x], inst.labels[y]]
        for x in range(inst.n)
        for y in range(inst.n)
        if (x, y) not in tight
    ]
    assert doc["strict_pairs"] == expected
    assert doc["u1"] == [0, 0]


def test_subsolution_long_orbit_answers_fast(capsys, tmp_path, monkeypatch):
    # the off-Aubry self-loop 1/100000 (1/1000) moves each orbit of the mix
    # u* = (0, 0) by that much a step, so both take 10^10 (10^9) steps to
    # reach their limits; each repeats up to that shift from its first
    # step and jumps there, well within a work limit lowered to 1000 steps.
    # The certificate: u1 is dominated and strict exactly off the Aubry
    # edges, which the exhaustive cycle scan gives
    import wkam.barrier as barrier
    from wkam import as_value_function, critical_value, is_dominated
    from wkam.models import load
    from wkam.oracle import cycle_scan

    monkeypatch.setattr(barrier, "_WALK_WORK_LIMIT", 1000 * 4)
    for name, cost in (("big", '[[0, 100000], [100000, "1/100000"]]'),
                       ("slower", '[[0, 1000000], [1000000, "1/1000"]]')):
        p = tmp_path / f"{name}.json"
        p.write_text(f'{{"cost": {cost}}}')
        code, out, _ = run(capsys, "subsolution", "--in", str(p), "--check")
        assert code == 0
        doc = json.loads(out)
        assert doc["u1"] == [0, 0]
        assert doc["strict_matches_aubry_complement"] is True
        inst = load(p)
        crit = critical_value(inst)
        assert is_dominated(inst, as_value_function(inst, doc["u1"]), crit.alpha0).ok
        tight = set(cycle_scan(inst).zero_edges)
        assert doc["strict_pairs"] == [
            [inst.labels[x], inst.labels[y]]
            for x in range(inst.n)
            for y in range(inst.n)
            if (x, y) not in tight
        ]


def test_potential_output(capsys, t2_file):
    code, out, _ = run(capsys, "potential", "--in", t2_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["phi"][0][1] == "-1/2"
    assert doc["F"] == [0, 0]


def test_float_potential_prints_jumps_on_the_phi1_diagonal(capsys, tmp_path):
    # the inline three-point-cycle instance of the CLI goldens: float F is
    # the diagonal of the printed phi1, and f is -F, to the last bit, with 0
    # printed as 0.0
    p = tmp_path / "mixed.json"
    p.write_text(json.dumps({"cost": [
        ["1/3", "-2/5", 3, 2], ["5/7", "1/2", "-1/3", 4], ["-3/5", 2, 1, "1/7"], [1, "2/3", "3/5", 2],
    ]}))
    code, out, _ = run(capsys, "potential", "--in", str(p), "--mode", "float")
    assert code == 0
    doc = json.loads(out)
    assert list(map(repr, doc["F"])) == [repr(row[x]) for x, row in enumerate(doc["phi1"])]
    assert list(map(repr, doc["f"])) == [repr(0 - v) for v in doc["F"]]


def test_subsolution_check(capsys, t3_file):
    code, out, _ = run(capsys, "subsolution", "--in", t3_file, "--check")
    assert code == 0
    doc = json.loads(out)
    assert doc["strict_matches_aubry_complement"] is True
    assert ["c", "c"] in doc["strict_pairs"]
    assert ["a", "b"] not in doc["strict_pairs"]


def test_verify_t2_exit_0(capsys, t2_file):
    code, out, _ = run(capsys, "verify", "--in", t2_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_failure_exits_3(capsys, monkeypatch, t2_file):
    from wkam import cli as cli_mod
    from wkam.oracle import CheckResult, OracleReport

    def fake(inst, seed=0, samples=20, horizon=None, barrier_override=None):
        return OracleReport(
            summary="forced", checks=(CheckResult("forced.fail", False, "witness"),)
        )

    monkeypatch.setattr(cli_mod, "verify_all", fake)
    code, out, _ = run(capsys, "verify", "--in", t2_file)
    assert code == 3
    assert json.loads(out)["ok"] is False


def test_plotdata_fk(capsys):
    code, out, _ = run(capsys, "plotdata", "--gen", "fk:16:1:well")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "point,V,F,f,h_xx,in_aubry,h_row0"
    assert len(lines) == 17
    flags = [l.split(",")[5] for l in lines[1:]]
    assert flags.count("1") == 1  # single well -> one Aubry row


def test_plotdata_zero_potential_all_flagged(capsys):
    code, out, _ = run(capsys, "plotdata", "--gen", "fk:6:1:zero")
    lines = out.strip().splitlines()
    assert code == 0
    flags = [l.split(",")[5] for l in lines[1:]]
    assert flags.count("1") == 6


def test_plotdata_needs_metric(capsys):
    code, _, _ = run(capsys, "plotdata", "--gen", "constant:3:1")
    assert code == 2


def test_verify_with_tiny_horizon_exits_3(capsys, tmp_path):
    # the tails of this instance are fixed only from N = 200000 on: a
    # smaller horizon leaves the oracle unstabilized, which counts as a
    # failed check, and that horizon passes
    p = tmp_path / "slow.json"
    p.write_text('{"cost": [[0, 1000], [1000, "1/100"]]}')
    code, out, _ = run(capsys, "verify", "--in", str(p), "--horizon", "2")
    assert code == 3
    doc = json.loads(out)
    bad = [c for c in doc["checks"] if not c["passed"]]
    assert any("liminf" in c["name"] or "liminf" in c["witness"] for c in bad)
    code, out, _ = run(capsys, "verify", "--in", str(p), "--horizon", "200000")
    assert code == 0 and json.loads(out)["ok"]


def test_verify_long_transient_never_fails_a_check(capsys, tmp_path):
    # the reduced powers of this instance repeat only after a transient of
    # about 2 * 10^5, which the oracle's powers by doubling reach in a few
    # dozen products
    p = tmp_path / "slow.json"
    p.write_text('{"cost": [[0, 1000], [1000, "1/100"]]}')
    code, out, err = run(capsys, "verify", "--in", str(p))
    assert code == 0, err
    assert json.loads(out)["ok"]


def test_verify_passes_every_check_past_a_transient_of_3e8(capsys, tmp_path):
    # the barrier's transient is 285714287: the tails are fixed only past it
    p = tmp_path / "near.json"
    p.write_text('{"cost": [["1/1000000007", "-5/7"], [1, 0]]}')
    code, out, err = run(capsys, "verify", "--in", str(p))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ok"] and len(doc["checks"]) == 32


def test_verify_with_zero_horizon_exits_2(capsys, t2_file):
    # 0 is an explicit horizon, not the default: it is refused like 1
    code, _, err = run(capsys, "verify", "--in", t2_file, "--horizon", "0")
    assert code == 2
    assert "N >= 2" in err


def test_float_tol_flag(capsys, t2_file):
    code, out, _ = run(capsys, "critical", "--in", t2_file, "--tol", "1e-6")
    assert code == 0
    assert json.loads(out)["alpha0"] == -0.5


def test_internal_failure_exits_1(capsys, monkeypatch, t2_file):
    from wkam import cli as cli_mod

    def boom(inst):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(cli_mod, "critical_value", boom)
    code, _, err = run(capsys, "critical", "--in", t2_file)
    assert code == 1
    assert "internal error" in err


def test_outputs_reproducible(tmp_path, capsys, t2_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["barrier", "--in", t2_file, "--out", str(a)]) == 0
    assert main(["barrier", "--in", t2_file, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_file_csv(tmp_path, capsys, t2_file):
    p = tmp_path / "crit.csv"
    assert main(["critical", "--in", t2_file, "--out", str(p), "--format", "csv"]) == 0
    text = p.read_text()
    assert text.startswith("field,source,target,value")
    assert "alpha0,,,-1/2" in text


def test_mode_override_float(capsys, t2_file):
    code, out, _ = run(capsys, "critical", "--in", t2_file, "--mode", "float")
    assert code == 0
    assert json.loads(out)["alpha0"] == -0.5


def test_mode_override_exact_on_sparse_float(capsys, tmp_path):
    p = tmp_path / "sparse.json"
    p.write_text(
        '{"mode": "float", "cost": [["inf", 1.5], [0.5, "inf"]]}'
    )
    code, out, _ = run(capsys, "critical", "--in", str(p), "--mode", "exact")
    assert code == 0
    assert json.loads(out)["alpha0"] == -1


def test_gen_fk_with_list(capsys):
    code, out, _ = run(capsys, "aubry", "--gen", "fk:4:1:0,1,1,1")
    assert code == 0
    assert json.loads(out)["vertices"] == ["0"]
