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
import sys
from functools import cache
from itertools import chain
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Optional

from .barrier import aubry, peierls_barrier, weak_kam_neg
from .core import (
    CostInstance,
    PotentialTable,
    ValueFunction,
    _instance,
    format_grid,
    from_grid,
    grid_table,
)
from .critical import critical_value
from .models import gen_constant, gen_fk, gen_random, fk_potential_well, load
from .numbers import InputError, Mode, format_value, formatted_str, parse_value, value_str
from .oracle import verify_all
from .potential import jump_F, jump_f, mane_potential, phi_n
from .subsolution import max_strict_subsolution, strict_pairs, uniform_subsolution_mix

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it as it is."""
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
    """The instance in another mode, re-gridded from the grids it holds: a
    float instance's dyadic grid is exact already, and to float each exact
    value is rounded to the nearest double, read off the grid as k / D."""
    if mode == inst.mode:
        return inst

    def regrid(t: PotentialTable) -> PotentialTable:
        if mode.exact or not t.mode.exact:
            return PotentialTable(t.grid, t.scale, mode)
        return grid_table(mode, [from_grid(mode, row, t.scale) for row in t.grid])

    metric = None if inst.metric_grid is None else regrid(inst.metric_grid)
    return _instance(regrid(inst.cost_grid), inst.labels, metric)


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


def json_text(v, level: int = 0) -> str:
    """``json.dumps(v, indent=2)``, the same text, for v laid out at nesting
    ``level``: dicts with string keys and nested lists are laid out here,
    and each list of scalars, list of such lists, or scalar goes whole to
    the C encoder of CPython's ``_json``, whose item separator carries the
    newline and the indent.  json's own indent makes it use its
    pure-Python encoder; this relies on ``_json`` and has no other path."""
    pad = "\n" + "  " * (level + 1)
    if isinstance(v, (list, tuple)) and v:
        types = set(map(type, v))
        if types <= _SCALARS:
            return "[" + pad + "".join(_encoder(level + 1)(v, 0))[1:-1] + pad[:-2] + "]"
        if types <= _LISTS and all(v) and set(map(type, chain.from_iterable(v))) <= _SCALARS:
            # rows of scalars in one call: "]" + separator + "[" occurs only
            # between rows, as no scalar's text starts with "[" or ends
            # with "]" and none holds a newline
            inner = pad + "  "
            rows = "".join(_encoder(level + 2)(v, 0))[2:-2]
            rows = rows.replace("]," + inner + "[", pad + "]," + pad + "[" + inner)
            return "[" + pad + "[" + inner + rows + pad + "]" + pad[:-2] + "]"
        return "[" + pad + ("," + pad).join([json_text(x, level + 1) for x in v]) + pad[:-2] + "]"
    if isinstance(v, dict) and v:
        items = [f"{encode_basestring_ascii(k)}: {json_text(x, level + 1)}" for k, x in v.items()]
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    return "".join(_encoder(level)(v, 0))


# What the C encoder takes whole: lists of these scalars, and lists of
# non-empty lists of them; other types, subclasses too, go item by item.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_LISTS = frozenset((list, tuple))


@cache
def _encoder(level: int):
    """The C encoder whose lists put each item on its own line at ``level``."""
    sep = ",\n" + "  " * level
    default = JSONEncoder().default
    return c_make_encoder(None, default, encode_basestring_ascii, None, ": ", sep, False, False, True)


def _fmt_matrix(t: PotentialTable) -> list:
    return [format_grid(t.mode, row, t.scale) for row in t.grid]


def _fmt_vector(u: ValueFunction) -> list:
    return format_grid(u.mode, u.grid, u.scale)


def _fmt_diag(t: PotentialTable) -> list:
    return format_grid(t.mode, [row[x] for x, row in enumerate(t.grid)], t.scale)


def _matrix_rows(tag: str, labels: tuple, mat: list) -> list[tuple]:
    """Long-CSV rows of a formatted matrix, row by row."""
    return [
        (tag, labels[x], labels[y], formatted_str(v))
        for x, row in enumerate(mat)
        for y, v in enumerate(row)
    ]


def _vector_rows(tag: str, labels: tuple, vec: list) -> list[tuple]:
    return [(tag, labels[x], "", formatted_str(v)) for x, v in enumerate(vec)]


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
    reduced = _fmt_matrix(crit.kernel)
    if args.fmt == "json":
        doc = {"alpha0": format_value(crit.alpha0), "witness_cycle": cycle, "reduced": reduced}
        _emit(args, json_text(doc) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        rows.append(("witness_cycle", "", "", "->".join(cycle)))
        rows += _matrix_rows("reduced", inst.labels, reduced)
        _emit(args, _long_csv(rows))
    return EXIT_OK


def cmd_potential(args) -> int:
    inst = _load_instance(args)
    crit = critical_value(inst)
    phi = mane_potential(inst, crit)
    phi1 = phi_n(inst, crit, 1)
    F = jump_F(inst, crit)
    f = jump_f(inst, crit)
    mats = {"phi": _fmt_matrix(phi), "phi1": _fmt_matrix(phi1)}
    vecs = {"F": _fmt_vector(F), "f": _fmt_vector(f)}
    if args.fmt == "json":
        doc = {"alpha0": format_value(crit.alpha0), **mats, **vecs}
        _emit(args, json_text(doc) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        for tag, mat in mats.items():
            rows += _matrix_rows(tag, inst.labels, mat)
        for tag, vec in vecs.items():
            rows += _vector_rows(tag, inst.labels, vec)
        _emit(args, _long_csv(rows))
    return EXIT_OK


def cmd_barrier(args) -> int:
    inst = _load_instance(args)
    crit = critical_value(inst)
    bar = peierls_barrier(inst, crit)
    h = _fmt_matrix(bar.h)
    if args.fmt == "json":
        doc = {
            "alpha0": format_value(crit.alpha0),
            "h": h,
            "finite": True,
            "iterations_to_fix": bar.iterations_to_fix,
        }
        _emit(args, json_text(doc) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        rows.append(("iterations_to_fix", "", "", str(bar.iterations_to_fix)))
        rows += _matrix_rows("h", inst.labels, h)
        _emit(args, _long_csv(rows))
    return EXIT_OK


def cmd_aubry(args) -> int:
    inst = _load_instance(args)
    crit = critical_value(inst)
    bar = peierls_barrier(inst, crit)
    aub = aubry(inst, crit, bar)
    F = _fmt_vector(aub.jumps)
    if args.fmt == "json":
        doc = {
            "alpha0": format_value(crit.alpha0),
            "vertices": [inst.labels[v] for v in aub.vertices],
            "edges": [[inst.labels[a], inst.labels[b]] for a, b in aub.edges],
            "F": F,
        }
        _emit(args, json_text(doc) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        for v in aub.vertices:
            rows.append(("vertex", inst.labels[v], "", ""))
        for a, b in aub.edges:
            rows.append(("edge", inst.labels[a], inst.labels[b], ""))
        rows += _vector_rows("F", inst.labels, F)
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
        "u_star": _fmt_vector(mix),
        "u1": _fmt_vector(u1),
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
        _emit(args, json_text(doc) + "\n")
    else:
        rows = [("alpha0", "", "", value_str(crit.alpha0))]
        for tag in ("u_star", "u1"):
            rows += _vector_rows(tag, inst.labels, doc[tag])
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
        _emit(args, json_text(doc) + "\n")
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
    F = jump_F(inst, crit)
    f = jump_f(inst, crit)
    bar = peierls_barrier(inst, crit)
    aub = aubry(inst, crit, bar)
    h0 = weak_kam_neg(bar, 0)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("point", "V", "F", "f", "h_xx", "in_aubry", "h_row0"))
    verts = set(aub.vertices)
    cols = [_fmt_diag(inst.cost_grid), _fmt_vector(F), _fmt_vector(f), _fmt_diag(bar.h)]
    h_row0 = _fmt_vector(h0)
    for x in range(inst.n):
        w.writerow(
            (
                inst.labels[x],
                *(formatted_str(col[x]) for col in cols),
                1 if x in verts else 0,
                formatted_str(h_row0[x]),
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
