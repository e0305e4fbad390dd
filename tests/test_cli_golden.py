"""Byte-stability of the command line: sha256 of stdout for every subcommand.

Each case runs ``wkam.cli.main`` in process and compares the exit code and
the sha256 of stdout with ``cli_golden.json``.  The sources are the checked-in
``instances/*.json``, a circle-grid generator spec with mixed denominators
(3, 5 and 7) and an inline instance whose witness cycle has three points, so
that alpha0 = 4/9 brings a denominator of its own, and a sparse inline
instance: ``critical`` prints "inf" and fractions off a grid of scale 30,
and every subcommand that needs a total instance (or, for ``plotdata``, a
metric) exits 2 with empty stdout.  Every case runs in exact
mode and again with ``--mode float``, whose stdout pins the float arithmetic.

Re-record (only when an output change is intended) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from wkam.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

MIXED_GEN = "fk:6:1/3:0,2/5,1/7,3/5,2/7,1/3"
MIXED_DOC = {
    "cost": [
        ["1/3", "-2/5", 3, 2],
        ["5/7", "1/2", "-1/3", 4],
        ["-3/5", 2, 1, "1/7"],
        [1, "2/3", "3/5", 2],
    ]
}
SPARSE_DOC = {"cost": [["1/3", "inf", 2], [1, "-1/2", "inf"], ["inf", "2/5", 0]]}
SUBCOMMANDS = (
    ("critical",),
    ("potential",),
    ("barrier",),
    ("aubry",),
    ("subsolution",),
    ("subsolution", "--check"),
    ("verify",),
)


def _sources(tmp: Path) -> dict[str, list[str]]:
    src = {p.name: ["--in", str(p)] for p in sorted((ROOT / "instances").glob("*.json"))}
    src["gen:" + MIXED_GEN] = ["--gen", MIXED_GEN]
    mixed = tmp / "mixed.json"
    mixed.write_text(json.dumps(MIXED_DOC), encoding="utf-8")
    src["mixed_cycle3.json"] = ["--in", str(mixed)]
    sparse = tmp / "sparse.json"
    sparse.write_text(json.dumps(SPARSE_DOC), encoding="utf-8")
    src["sparse.json"] = ["--in", str(sparse)]
    return src


def _cases(tmp: Path) -> dict[str, list[str]]:
    cases = {}
    for name, source in _sources(tmp).items():
        for sub in SUBCOMMANDS:
            for fmt in ("json", "csv"):
                key = f"{name} {' '.join(sub)} --format {fmt}"
                cases[key] = [sub[0], *source, *sub[1:], "--format", fmt]
        if name.startswith(("fk", "gen:fk", "sparse")):
            cases[f"{name} plotdata"] = ["plotdata", *source]
    cases.update({f"{key} --mode float": [*argv, "--mode", "float"] for key, argv in cases.items()})
    return cases


def _run(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_cli_stdout_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = _cases(tmp_path)
    assert sorted(cases) == sorted(golden)
    mismatched = [key for key, argv in cases.items() if _run(argv) != golden[key]]
    assert not mismatched, f"stdout or exit code changed: {mismatched}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {key: _run(argv) for key, argv in _cases(Path(tmp)).items()}
    lines = [f"  {json.dumps(key)}: {json.dumps(record[key])}" for key in sorted(record)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(record)} cases in {GOLDEN}", file=sys.stderr)
