"""The command line's contract on small total instances, fuzzed.

Every subcommand answers (exit 0) or refuses on a size guard (exit 2), in
both modes; ``verify`` never reports a failed check (exit 3), since the
solver and the oracle decide every identity exactly, in float mode on the
dyadic values of the doubles.  A float run prints the exact run on the
same doubles rounded once: alpha0, the Aubry vertices and edges, the
witness cycle and u1's strict pairs, checked here, and every other value
(``test_float_exact.rounded_once``), whatever the tolerance: it governs
only the metric checks, and these instances carry no metric.  Entries mix
ints, "p/q" strings and doubles.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_float_exact import exact_twin, rounded_once, run_cli

ENTRY = st.one_of(
    st.integers(-4, 4),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-20, 20), st.integers(1, 12)),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)
INSTANCES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
)
SUBCOMMANDS = (["critical"], ["potential"], ["barrier"], ["aubry"], ["subsolution", "--check"])


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(INSTANCES, st.sampled_from(["1e-9", "1e-6", "0.5"]))
def test_cli_answers_and_float_is_exact_rounded_once(tmp_path, cost, tol):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps({"cost": cost}), encoding="utf-8")
    source = ["--in", str(path)]
    floats = [*source, "--mode", "float", "--tol", tol]
    twin = exact_twin(tmp_path, source)
    for sub in SUBCOMMANDS:
        runs = {}
        for mode, src in (("float", floats), ("exact", source), ("twin", twin)):
            code, out, err = run_cli([sub[0], *src, *sub[1:]])
            assert code in (0, 2), (sub, mode, err)
            runs[mode] = code, out
        (fcode, fout), (tcode, tout) = runs["float"], runs["twin"]
        assert fcode == tcode, sub
        if fcode == 0:
            got, want = json.loads(fout), json.loads(tout)
            assert rounded_once(got, want), sub
            for key in ("witness_cycle", "vertices", "edges", "strict_pairs"):
                assert got.get(key) == want.get(key), (sub, key)
            if sub[0] == "subsolution":
                assert got["strict_matches_aubry_complement"] is True
    for src in (floats, source):
        code, _, err = run_cli(["verify", *src])
        assert code in (0, 2), err
