"""Command-line surface.

Subcommands: critical, potential, barrier, aubry, subsolution, verify,
plotdata.  Instances come from ``--in FILE`` or ``--gen SPEC`` where SPEC is
``constant:n:k``, ``random:n:seed:lo:hi`` or ``fk:m:lambda:potential``
(potential: ``zero``, ``well``, ``well@i``, or a comma list of values).

Exit codes: 0 success, 1 internal failure, 2 input problem, 3 verification
failure.  Output is deterministic given (instance bytes, flags, seed);
rationals serialize as "p/q".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Optional

from .barrier import aubry, peierls_barrier, weak_kam_neg
from .core import CostInstance, PotentialTable, _instance, from_grid, make_instance
from .critical import critical_value
from .models import gen_constant, gen_fk, gen_random, fk_potential_well, load
from .numbers import InputError, Mode, format_value, parse_value, value_str
from .oracle import verify_all
from .potential import jump_F, jump_f, mane_potential, phi_n
from .subsolution import max_strict_subsolution, strict_pairs, uniform_subsolution_mix

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    src = common.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", metavar="PATH", help="instance JSON file")
    src.add_argument("--gen", dest="genspec", metavar="SPEC", help="generator spec")
    common.add_argument("--out", dest="outfile", metavar="PATH", default=None)
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    common.add_argument("--mode", choices=("exact", "float"), default=None)
    common.add_argument("--tol", type=float, default=None, help="float-mode tolerance")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--horizon", type=int, default=None, metavar="N")
    p = argparse.ArgumentParser(prog="wkam", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("critical", "critical constant, witness cycle, reduced matrix"),
        ("potential", "Mane potential, tail potential, jump functions"),
        ("barrier", "Peierls barrier and convergence data"),
        ("aubry", "projected Aubry set, Aubry edges, jump values"),
        ("subsolution", "maximally strict critical sub-solution"),
        ("verify", "run the full brute-force property harness"),
        ("plotdata", "per-point table for plotting (metric instances)"),
    ]:
        q = sub.add_parser(name, help=helptext, parents=[common])
        if name == "subsolution":
            q.add_argument("--check", action="store_true", help="verify the strict pattern")
    return p


def _parse_gen(spec: str, mode: Mode) -> CostInstance:
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "constant":
            if len(parts) != 3:
                raise InputError("constant spec is constant:n:k")
            return gen_constant(int(parts[1]), parse_value(parts[2], mode), mode=mode)
        if kind == "random":
            if len(parts) != 5:
                raise InputError("random spec is random:n:seed:lo:hi")
            return gen_random(
                int(parts[1]),
                int(parts[2]),
                parse_value(parts[3], mode),
                parse_value(parts[4], mode),
                mode=mode,
            )
        if kind == "fk":
            if len(parts) != 4:
                raise InputError("fk spec is fk:m:lambda:potential")
            m = int(parts[1])
            if m < 1:
                raise InputError("need m >= 1")
            lam = parse_value(parts[2], mode)
            pspec = parts[3]
            if pspec == "zero":
                pot = [0] * m
            elif pspec == "well":
                pot = fk_potential_well(m, 0)
            elif pspec.startswith("well@"):
                pot = fk_potential_well(m, int(pspec[5:]) % m)
            else:
                pot = [parse_value(s, mode) for s in pspec.split(",")]
            return gen_fk(m, lam, pot, mode=mode)
    except ValueError as exc:
        raise InputError(f"bad generator spec {spec!r}: {exc}") from exc
    raise InputError(f"unknown generator {kind!r}")


def _with_mode(inst: CostInstance, mode: Mode) -> CostInstance:
    """The instance in another mode, built from the grids it holds: float
    to exact coerces every value; to float maps each exact grid entry k to
    k / D, which rounds correctly, as float(Fraction(k, D)) does."""
    if mode == inst.mode:
        return inst
    if mode.exact:
        metric = None if inst.metric_grid is None else inst.metric_grid.grid
        return make_instance(inst.cost_grid.grid, inst.labels, mode, metric)

    def retable(t: PotentialTable) -> PotentialTable:
        if not t.mode.exact:
            return PotentialTable(t.grid, 1, mode)
        try:
            return PotentialTable(tuple(tuple(k / t.scale for k in row) for row in t.grid), 1, mode)
        except OverflowError as exc:
            raise InputError("value beyond float range") from exc

    metric = None if inst.metric_grid is None else retable(inst.metric_grid)
    return _instance(retable(inst.cost_grid), inst.labels, metric)


def _load_instance(args) -> CostInstance:
    override: Optional[Mode] = None
    if args.mode is not None or args.tol is not None:
        kind = args.mode or "float"
        tol = args.tol if args.tol is not None else 1e-9
        override = Mode(kind, tol) if kind == "float" else Mode("exact")
    if args.infile:
        inst = load(args.infile)
    else:
        inst = _parse_gen(args.genspec, override or Mode("exact"))
    if override is not None:
        inst = _with_mode(inst, override)
    return inst


def _emit(args, text: str) -> None:
    if args.outfile:
        Path(args.outfile).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _fmt_matrix(mat) -> list:
    return [[format_value(v) for v in row] for row in mat]


def _long_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("field", "source", "target", "value"))
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def cmd_critical(args) -> int:
    inst = _load_instance(args)
    crit = critical_value(inst)
    cycle = [inst.labels[i] for i in crit.witness_cycle]
    if args.fmt == "json":
        doc = {
            "alpha0": format_value(crit.alpha0),
            "witness_cycle": cycle,
            "reduced": _fmt_matrix(crit.reduced),
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        rows.append(("witness_cycle", "", "", "->".join(cycle)))
        for x in range(inst.n):
            for y in range(inst.n):
                rows.append(
                    ("reduced", inst.labels[x], inst.labels[y], value_str(crit.reduced[x][y]))
                )
        _emit(args, _long_csv(rows))
    return EXIT_OK


def cmd_potential(args) -> int:
    inst = _load_instance(args)
    crit = critical_value(inst)
    phi = mane_potential(inst, crit)
    phi1 = phi_n(inst, crit, 1)
    F = jump_F(inst, crit, phi=phi)
    f = jump_f(inst, crit, phi=phi)
    if args.fmt == "json":
        doc = {
            "alpha0": format_value(crit.alpha0),
            "phi": _fmt_matrix(phi.entries),
            "phi1": _fmt_matrix(phi1.entries),
            "F": [format_value(v) for v in F.values],
            "f": [format_value(v) for v in f.values],
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        for tag, mat in (("phi", phi.entries), ("phi1", phi1.entries)):
            for x in range(inst.n):
                for y in range(inst.n):
                    rows.append((tag, inst.labels[x], inst.labels[y], value_str(mat[x][y])))
        for tag, fn in (("F", F), ("f", f)):
            for x in range(inst.n):
                rows.append((tag, inst.labels[x], "", value_str(fn.values[x])))
        _emit(args, _long_csv(rows))
    return EXIT_OK


def cmd_barrier(args) -> int:
    inst = _load_instance(args)
    crit = critical_value(inst)
    bar = peierls_barrier(inst, crit)
    if args.fmt == "json":
        doc = {
            "alpha0": format_value(crit.alpha0),
            "h": _fmt_matrix(bar.h.entries),
            "finite": True,
            "iterations_to_fix": bar.iterations_to_fix,
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        rows.append(("iterations_to_fix", "", "", str(bar.iterations_to_fix)))
        for x in range(inst.n):
            for y in range(inst.n):
                rows.append(("h", inst.labels[x], inst.labels[y], value_str(bar.h.entries[x][y])))
        _emit(args, _long_csv(rows))
    return EXIT_OK


def cmd_aubry(args) -> int:
    inst = _load_instance(args)
    crit = critical_value(inst)
    bar = peierls_barrier(inst, crit)
    aub = aubry(inst, crit, bar)
    if args.fmt == "json":
        doc = {
            "alpha0": format_value(crit.alpha0),
            "vertices": [inst.labels[v] for v in aub.vertices],
            "edges": [[inst.labels[a], inst.labels[b]] for a, b in aub.edges],
            "F": [format_value(v) for v in aub.jumps.values],
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        for v in aub.vertices:
            rows.append(("vertex", inst.labels[v], "", ""))
        for a, b in aub.edges:
            rows.append(("edge", inst.labels[a], inst.labels[b], ""))
        for x in range(inst.n):
            rows.append(("F", inst.labels[x], "", value_str(aub.jumps.values[x])))
        _emit(args, _long_csv(rows))
    return EXIT_OK


def cmd_subsolution(args) -> int:
    inst = _load_instance(args)
    crit = critical_value(inst)
    mix = uniform_subsolution_mix(inst, crit)
    u1 = max_strict_subsolution(inst, crit)
    pairs = strict_pairs(inst, crit, u1)
    doc = {
        "alpha0": format_value(crit.alpha0),
        "u_star": [format_value(v) for v in mix.values],
        "u1": [format_value(v) for v in u1.values],
        "strict_pairs": [[inst.labels[a], inst.labels[b]] for a, b in pairs],
    }
    if args.check:
        bar = peierls_barrier(inst, crit)
        aub = aubry(inst, crit, bar)
        edges = set(aub.edges)
        expected = {
            (x, y) for x in range(inst.n) for y in range(inst.n) if (x, y) not in edges
        }
        doc["strict_matches_aubry_complement"] = set(pairs) == expected
    if args.fmt == "json":
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        for tag, vals in (("u_star", mix.values), ("u1", u1.values)):
            for x in range(inst.n):
                rows.append((tag, inst.labels[x], "", value_str(vals[x])))
        for a, b in pairs:
            rows.append(("strict", inst.labels[a], inst.labels[b], ""))
        if args.check:
            rows.append(
                ("strict_matches_aubry_complement", "", "", str(doc["strict_matches_aubry_complement"]))
            )
        _emit(args, _long_csv(rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args)
    report = verify_all(inst, seed=args.seed, horizon=args.horizon)
    if args.fmt == "json":
        doc = {
            "summary": report.summary,
            "ok": report.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in report.checks
            ],
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("name", "passed", "witness"))
        for c in report.checks:
            w.writerow((c.name, "pass" if c.passed else "fail", c.witness))
        _emit(args, buf.getvalue())
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_plotdata(args) -> int:
    inst = _load_instance(args)
    if inst.metric_grid is None:
        raise InputError("plotdata needs a metric instance (e.g. --gen fk:...)")
    crit = critical_value(inst)
    phi = mane_potential(inst, crit)
    F = jump_F(inst, crit, phi=phi)
    f = jump_f(inst, crit, phi=phi)
    bar = peierls_barrier(inst, crit)
    aub = aubry(inst, crit, bar, phi=phi)
    h0 = weak_kam_neg(bar, 0)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("point", "V", "F", "f", "h_xx", "in_aubry", "h_row0"))
    verts = set(aub.vertices)
    t = inst.cost_grid
    V = from_grid(inst.mode, [row[x] for x, row in enumerate(t.grid)], t.scale)
    for x in range(inst.n):
        w.writerow(
            (
                inst.labels[x],
                value_str(V[x]),
                value_str(F.values[x]),
                value_str(f.values[x]),
                value_str(bar.h.entries[x][x]),
                1 if x in verts else 0,
                value_str(h0.values[x]),
            )
        )
    _emit(args, buf.getvalue())
    return EXIT_OK


_COMMANDS = {
    "critical": cmd_critical,
    "potential": cmd_potential,
    "barrier": cmd_barrier,
    "aubry": cmd_aubry,
    "subsolution": cmd_subsolution,
    "verify": cmd_verify,
    "plotdata": cmd_plotdata,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
