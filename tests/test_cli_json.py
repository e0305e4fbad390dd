"""The CLI's JSON writer against ``json.dumps(doc, indent=2)``.

``cli.json_text`` lays out dicts and nested lists itself and hands each
list of scalars, and each list of such lists, to the C encoder of
``_json``; its text must be json's, byte for byte, on every document the
subcommands could print, strings holding brackets and newlines too.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from wkam.cli import json_text, main

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.inf, -math.inf, math.nan]),
    st.text(),
    st.sampled_from(["é", "p0", '"quoted" \\ back', "tab\tnew\nline", " \x00\x1f", "\U0001f600"]),
    st.sampled_from(["[", "]", "],\n      [", "a]", "[b", "]]"]),
)

DOCS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(DOCS)
def test_json_text_is_json_dumps_with_indent(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


def test_json_text_on_verify_shaped_documents():
    checks = [
        {"name": "é check", "passed": True, "witness": None},
        {"name": "bounds", "passed": False, "witness": [[0, "1/3"], [], {}]},
        {"name": "floats", "passed": True, "witness": [1e300, -0.0, math.inf, -math.inf, math.nan]},
    ]
    for doc in (
        {"summary": "3 checks, 1 failed", "ok": False, "checks": checks},
        {"alpha0": 0, "h": [[0, 1], [1, 0]], "finite": True, "iterations_to_fix": 0},
        {"edges": [["a]", "[b"], ("]", "],\n      ["), ["x"]], "rows": [[1], [], [2]]},
        {"vertices": [], "edges": [], "F": {}},
        [],
        {},
        [[]],
        [{}],
        "é",
    ):
        assert json_text(doc) == json.dumps(doc, indent=2)


def test_out_file_bytes_are_json_dumps(tmp_path, capsys):
    p = tmp_path / "barrier.json"
    argv = ["barrier", "--gen", "fk:6:1/2:well@2"]
    assert main(argv + ["--out", str(p)]) == 0
    assert main(argv) == 0
    data = p.read_bytes()
    assert data == capsys.readouterr().out.encode()
    doc = json.loads(data)
    assert doc["h"] and doc["iterations_to_fix"] > 0
    assert data == (json.dumps(doc, indent=2) + "\n").encode()
