"""Workloads: instances drawn from the run seed, ops, and output checks.

A run executes a fixed batch of op groups.  The batch depends only on the
workload, ``--seed`` and ``--seconds`` (see GROUPS_AT_20S), so later commits
measure the same work.  A group is one instance; its ops are timed one by
one, then its outputs are checked against ``refcheck``.

* ``exact-random``: ``gen_random(32, s, -2, 2)`` in exact mode; one op is the
  full library pipeline.  Fraction-heavy work in potential, barrier and
  subsolution, with large Aubry sets.
* ``float-random``: the same pipeline in float mode (tolerance 1e-9) on
  ``gen_random(n, s, -2, 2)``.  Each sweep takes every n in [2, 8] once in a
  seed-shuffled order, so n is uniform over the batch without the batch
  cost depending on which sizes a seed happens to draw.  About 2-3 % of
  these instances raise NonConvergenceError; such an op counts as failed.
  Sizes stop at 8: with n up to 32, an instance whose iterations settle
  slowly took up to ten times a typical op of its size, and the batch time
  varied by a quarter between seeds.
* ``cli-fk``: ``fk:24:1:well@c`` with the well centre c drawn from the seed;
  one op is one ``wkam.cli.main`` call (six subcommands per instance).  Its
  stdout is compared with the recorded sha256 in ``golden_cli_fk.json``
  where one exists, and always with the reference checker.
* ``verify-desk``: ``verify_all`` at the desk-scale limit n = 10, alternating
  exact ``random:10:s:-2:2`` and ``fk:10:1:well@c``.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

from refcheck import Reference, negative_control

WORKLOADS = ("exact-random", "float-random", "cli-fk", "verify-desk")

# Op groups in a run of --seconds 20; other lengths scale the count.  A
# group takes about 15 s (exact-random), 25 ms (float-random sweep), 14 s
# (cli-fk) and 5.5 s (verify-desk) on one vCPU of a shared 2-vCPU VM with
# Python 3.11.
GROUPS_AT_20S = {
    "exact-random": 1,
    "float-random": 600,  # sweeps over FLOAT_SIZES
    "cli-fk": 1,  # instances, six subcommands each
    "verify-desk": 4,
}
FLOAT_SIZES = range(2, 9)

FLOAT_TOL = 1e-9
FK_POINTS = 24
CLI_SUBCOMMANDS = (
    ("critical",),
    ("potential",),
    ("barrier",),
    ("aubry",),
    ("subsolution", "--check"),
    ("plotdata",),
)
GOLDEN = Path(__file__).resolve().parent / "golden_cli_fk.json"


def group_count(workload: str, seconds: int) -> int:
    return max(1, round(GROUPS_AT_20S[workload] * seconds / 20))


def plan(workload: str, seed: int, seconds: int) -> list[dict]:
    """The run's instance descriptors: plain data drawn from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = Random(f"{workload}/{seed}")
    k = group_count(workload, seconds)
    if workload == "exact-random":
        return [{"n": 32, "seed": rng.randrange(2**31)} for _ in range(k)]
    if workload == "float-random":
        out = []
        for _ in range(k):
            sizes = list(FLOAT_SIZES)
            rng.shuffle(sizes)
            out.extend({"n": n, "seed": rng.randrange(2**31)} for n in sizes)
        return out
    if workload == "cli-fk":
        return [{"centre": rng.randrange(FK_POINTS)} for _ in range(k)]
    return [
        {"kind": "random", "seed": rng.randrange(2**31)}
        if i % 2 == 0
        else {"kind": "fk", "centre": rng.randrange(10), "seed": rng.randrange(2**31)}
        for i in range(k)
    ]


def op_count(workload: str, seconds: int) -> int:
    groups = len(plan(workload, 0, seconds))
    return groups * len(CLI_SUBCOMMANDS) if workload == "cli-fk" else groups


@dataclass
class Group:
    """One instance: named ops to time, then a check over their outputs.

    ``check(outputs)`` gets one output per op (None where the op raised)
    and returns one list of mismatch descriptions per op.
    ``control(outputs)`` is the negative control: it corrupts one output,
    raises if the check does not flag it, and returns whether it had an
    output to corrupt.  An op that raises one of ``expected`` is a failed
    op; any other exception makes the run incorrect.
    """

    label: str
    ops: list
    check: Callable
    control: Callable
    expected: tuple = ()


def prepare(wkam, workload: str, descriptors: list[dict]) -> list[Group]:
    """Build the run's instances with wkam's generators."""
    build = {
        "exact-random": _pipeline_group,
        "float-random": _pipeline_group,
        "cli-fk": _cli_group,
        "verify-desk": _verify_group,
    }[workload]
    return [build(wkam, workload, d) for d in descriptors]


# ---------------------------------------------------------------------------
# library pipeline
# ---------------------------------------------------------------------------

def _pipeline_group(wkam, workload, d):
    mode = wkam.EXACT if workload == "exact-random" else wkam.Mode("float", FLOAT_TOL)
    inst = wkam.gen_random(d["n"], d["seed"], -2, 2, mode=mode)
    tol = None if mode.exact else FLOAT_TOL

    def op():
        crit = wkam.critical_value(inst)
        phi = wkam.mane_potential(inst, crit)
        F = wkam.jump_F(inst, crit, phi=phi)
        f = wkam.jump_f(inst, crit, phi=phi)
        bar = wkam.peierls_barrier(inst, crit)
        aub = wkam.aubry(inst, crit, bar, phi=phi)
        u1 = wkam.max_strict_subsolution(inst, crit)
        return crit, phi, F, f, bar, aub, u1

    def reference(out):
        return Reference(inst.cost, out[0].alpha0, tol)

    def check(outputs):
        out = outputs[0]
        if out is None:
            return [[]]
        crit, phi, F, f, bar, aub, u1 = out
        ref = reference(out)
        errs = ref.check_certificate(crit.witness_cycle, u1.values)
        errs += ref.check_reduced(crit.reduced)
        errs += ref.check_phi(phi.entries)
        errs += ref.check_F(F.values) + ref.check_f(f.values)
        errs += ref.check_h(bar.h.entries)
        errs += ref.check_vertices(aub.vertices) + ref.check_edges(aub.edges)
        errs += ref.check_F(aub.jumps.values)
        errs += ref.check_strict(u1.values)
        return [errs]

    def control(outputs):
        out = outputs[0]
        if out is None:
            return False
        negative_control(reference(out), out[4].h.entries)
        return True

    label = f"{'exact' if tol is None else 'float'} random n={d['n']} seed={d['seed']}"
    # Float instances that settle slowly hit the iteration cap; that is the
    # float path's known failure rate, not a wrong answer.
    expected = () if mode.exact else (wkam.NonConvergenceError,)
    return Group(label, [("pipeline", op)], check, control, expected)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def cli_argv(sub: tuple, centre: int) -> list[str]:
    return [sub[0], "--gen", f"fk:{FK_POINTS}:1:well@{centre}", *sub[1:]]


def run_cli(main, argv):
    """One CLI call with stdout and stderr captured; a non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def _load_golden() -> dict:
    if GOLDEN.is_file():
        return json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {}


def _cli_group(wkam, workload, d):
    c = d["centre"]
    inst = wkam.gen_fk(FK_POINTS, 1, wkam.models.fk_potential_well(FK_POINTS, c))
    index = {label: i for i, label in enumerate(inst.labels)}
    golden = _load_golden()
    argvs = [cli_argv(sub, c) for sub in CLI_SUBCOMMANDS]
    main = wkam.cli.main
    ops = [(argv[0], (lambda argv=argv: run_cli(main, argv))) for argv in argvs]

    def parsed(outputs):
        docs = {}
        for (name, _), text in zip(ops, outputs):
            if text is None:
                docs[name] = None
            elif name == "plotdata":
                docs[name] = list(csv.DictReader(io.StringIO(text)))
            else:
                docs[name] = json.loads(text)
        return docs

    def reference(docs):
        for name in ("critical", "potential", "barrier", "aubry", "subsolution"):
            if docs.get(name) is not None:
                return Reference(inst.cost, Fraction(docs[name]["alpha0"]))
        return None

    def mat(m):
        return [[Fraction(v) for v in row] for row in m]

    def vec(v):
        return [Fraction(x) for x in v]

    def idx(labels):
        return [index[s] for s in labels]

    def check_doc(name, doc, ref):
        errs = []
        if name != "plotdata" and Fraction(doc["alpha0"]) != ref.alpha0:
            errs.append(f"alpha0 {doc['alpha0']} differs from the other subcommands")
        if name == "critical":
            errs += ref.check_alpha0() + ref.check_witness(idx(doc["witness_cycle"]))
            errs += ref.check_reduced(mat(doc["reduced"]))
        elif name == "potential":
            errs += ref.check_phi(mat(doc["phi"])) + ref.check_phi1(mat(doc["phi1"]))
            errs += ref.check_F(vec(doc["F"])) + ref.check_f(vec(doc["f"]))
        elif name == "barrier":
            errs += ref.check_h(mat(doc["h"]))
        elif name == "aubry":
            errs += ref.check_vertices(idx(doc["vertices"]))
            errs += ref.check_edges([idx(e) for e in doc["edges"]])
            errs += ref.check_F(vec(doc["F"]))
        elif name == "subsolution":
            u1 = vec(doc["u1"])
            errs += ref.check_dominated(u1)
            errs += ref.check_strict(u1, [idx(p) for p in doc["strict_pairs"]])
            errs += ref.check_mix(vec(doc["u_star"]))
            if doc.get("strict_matches_aubry_complement") is not True:
                errs.append("subsolution --check did not report a match")
        else:
            rows = sorted(doc, key=lambda r: index[r["point"]])
            errs += ref.check_F([Fraction(r["F"]) for r in rows])
            errs += ref.check_f([Fraction(r["f"]) for r in rows])
            hxx = [Fraction(r["h_xx"]) for r in rows]
            if hxx != [ref.h[x][x] for x in range(ref.n)]:
                errs.append("plotdata h_xx differs from the reference barrier diagonal")
            if [Fraction(r["h_row0"]) for r in rows] != ref.h[0]:
                errs.append("plotdata h_row0 differs from the reference barrier row 0")
            if [Fraction(r["V"]) for r in rows] != [inst.cost[x][x] for x in range(ref.n)]:
                errs.append("plotdata V differs from the cost diagonal")
            aub = [index[r["point"]] for r in rows if r["in_aubry"] == "1"]
            errs += ref.check_vertices(aub)
        return errs

    def check(outputs):
        result = [[] for _ in ops]
        try:
            docs = parsed(outputs)
        except (ValueError, KeyError) as exc:
            return [[f"unparseable output: {exc}"] if o is not None else [] for o in outputs]
        ref = reference(docs)
        for i, ((name, _), text, argv) in enumerate(zip(ops, outputs, argvs)):
            if text is None:
                continue
            want = golden.get(" ".join(argv))
            if want is not None and hashlib.sha256(text.encode()).hexdigest() != want:
                result[i].append("stdout differs from the recorded sha256")
            if ref is None:
                result[i].append("no alpha0 to build the reference from")
                continue
            try:
                result[i] += check_doc(name, docs[name], ref)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                result[i].append(f"malformed {name} output: {type(exc).__name__}: {exc}")
        return result

    def control(outputs):
        docs = parsed(outputs)
        if docs.get("barrier") is None:
            return False
        negative_control(reference(docs), mat(docs["barrier"]["h"]))
        return True

    return Group(f"fk:{FK_POINTS}:1:well@{c}", ops, check, control)


# ---------------------------------------------------------------------------
# desk-scale oracle
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r"alpha0=(\S+) aubry=(\[.*\])\s*$")


def _verify_group(wkam, workload, d):
    if d["kind"] == "random":
        inst = wkam.gen_random(10, d["seed"], -2, 2)
        label = f"random:10:{d['seed']}:-2:2"
    else:
        inst = wkam.gen_fk(10, 1, wkam.models.fk_potential_well(10, d["centre"]))
        label = f"fk:10:1:well@{d['centre']}"
    index = {lab: i for i, lab in enumerate(inst.labels)}

    def op():
        return wkam.verify_all(inst, seed=d["seed"])

    def parse(report):
        m = _SUMMARY.search(report.summary)
        if m is None:
            raise ValueError(f"unparseable summary {report.summary!r}")
        alpha0 = Fraction(m.group(1))
        verts = [index[s] for s in ast.literal_eval(m.group(2))]
        return Reference(inst.cost, alpha0), verts

    def check(outputs):
        report = outputs[0]
        if report is None:
            return [[]]
        errs = [f"check {c.name} failed: {c.witness}" for c in report.failures()]
        try:
            ref, verts = parse(report)
        except (ValueError, KeyError, SyntaxError) as exc:
            return [errs + [str(exc)]]
        errs += ref.check_alpha0() + ref.check_vertices(verts)
        return [errs]

    def control(outputs):
        report = outputs[0]
        if report is None:
            return False
        ref, verts = parse(report)
        toggled = sorted(set(verts) ^ {0})
        if not ref.check_vertices(toggled):
            raise AssertionError("reference checker missed a corrupted Aubry set")
        return True

    return Group(label, [("verify_all", op)], check, control)
