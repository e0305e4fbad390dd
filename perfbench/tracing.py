"""Span tracing of wkam's public functions from outside the package.

``install`` replaces each traced function with a wrapper wherever a wkam
module (or the ``wkam`` package namespace, or a dispatch dict such as
``wkam.cli._COMMANDS``) binds it, so calls made inside the package are
caught too.  Each wrapper records one span: name, start, end, parent span
and op id.  Spans stay in memory in flat arrays; ``layer_metrics`` turns
them into self times (duration minus the time covered by child spans) and
call counts, and ``dump`` writes them out when the run ends.

Counts that the functions return (iterations, orbit lengths, cycles, ...)
are summed by small hooks on the return values.  ``core.minplus_ops`` is
computed from the argument sizes, n^3 per product and n^2 per apply.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Layers are the modules of src/wkam; ``numbers`` has no boundary cheap
# enough to time, so its cost shows up as self time of its callers.
TRACED = {
    "core": (
        "minplus_product",
        "minplus_apply",
        "lax_oleinik_neg",
        "lax_oleinik_pos",
        "reverse_cost",
        "make_instance",
    ),
    "critical": ("critical_value", "solve_subsolution", "is_dominated"),
    "potential": (
        "reduced_power_prefix_min",
        "phi_n",
        "mane_potential",
        "jump_F",
        "jump_f",
    ),
    "barrier": (
        "peierls_barrier",
        "aubry",
        "orbit_neg",
        "orbit_pos",
        "conjugate_check",
        "representation_check",
    ),
    "subsolution": (
        "uniform_subsolution_mix",
        "aubry_of",
        "strict_subsolution",
        "max_strict_subsolution",
    ),
    "models": ("gen_random", "gen_fk"),
    "oracle": ("verify_all", "cycle_scan", "liminf_barrier_bounded", "subsolution_sampler"),
    "cli": (
        "main",
        "cmd_critical",
        "cmd_potential",
        "cmd_barrier",
        "cmd_aubry",
        "cmd_subsolution",
        "cmd_verify",
        "cmd_plotdata",
    ),
}

COUNTS = (
    "barrier.iterations_to_fix",
    "barrier.orbit_steps",
    "barrier.aubry_vertices",
    "critical.witness_len",
    "oracle.cycles",
    "oracle.liminf_powers",
    "oracle.checks_failed",
    "core.minplus_ops",
)


def _hooks(counts: Counter) -> dict:
    def add(key, amount):
        counts[key] += amount

    return {
        "core.minplus_product": lambda a, out: add("core.minplus_ops", len(a[0]) ** 3),
        "core.minplus_apply": lambda a, out: add("core.minplus_ops", len(a[0]) ** 2),
        "critical.critical_value": lambda a, out: add(
            "critical.witness_len", len(out.witness_cycle)
        ),
        "barrier.peierls_barrier": lambda a, out: add(
            "barrier.iterations_to_fix", out.iterations_to_fix
        ),
        "barrier.orbit_neg": lambda a, out: add("barrier.orbit_steps", len(out) - 1),
        "barrier.orbit_pos": lambda a, out: add("barrier.orbit_steps", len(out) - 1),
        "barrier.aubry": lambda a, out: add("barrier.aubry_vertices", len(out.vertices)),
        "oracle.cycle_scan": lambda a, out: add("oracle.cycles", out.cycle_count),
        "oracle.liminf_barrier_bounded": lambda a, out: add(
            "oracle.liminf_powers", out.powers_used
        ),
        "oracle.verify_all": lambda a, out: add("oracle.checks_failed", len(out.failures())),
    }


class Recorder:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, hook=None):
        idx = self._name_index(name)
        rec = self

        def traced(*args, **kwargs):
            sid = len(rec.start)
            rec.name.append(idx)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.op.append(rec.op_id)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec.stack.pop()
                rec.start[sid] = t0
                rec.end[sid] = t1
            if hook is not None:
                hook(args, out)
            return out

        return traced

    def span(self, name: str):
        """Context manager for a benchmark-side span (an op, or set-up)."""
        return _Span(self, self._name_index(name))

    def install(self):
        """Wrap every function in TRACED wherever wkam binds it."""
        hooks = _hooks(self.counts)
        modules = [m for k, m in sorted(sys.modules.items()) if k == "wkam" or k.startswith("wkam.")]
        for layer, fns in TRACED.items():
            mod = sys.modules.get(f"wkam.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                orig = getattr(mod, fn_name, None) if mod is not None else None
                if not callable(orig):
                    self.missing.append(name)
                    continue
                wrapped = self.wrap(name, orig, hooks.get(name))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                        elif isinstance(val, dict):
                            for key, item in list(val.items()):
                                if item is orig:
                                    val[key] = wrapped

    def self_times(self, excluded=()):
        """Per-span self time: duration minus the duration of direct children
        and of the ``(parent span, seconds)`` intervals in ``excluded``."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        for p, seconds in excluded:
            if p >= 0:
                child[p] += seconds
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def layer_metrics(self, op_names, excluded=()):
        """Self seconds and calls per traced function and per layer.

        Spans named in ``op_names`` are the benchmark's own; their self time
        is reported as ``bench.self_s``.  ``excluded`` is passed on to
        ``self_times``.
        """
        selfs = self.self_times(excluded)
        self_by: Counter = Counter()
        calls: Counter = Counter()
        incl: Counter = Counter()
        for i, s in enumerate(selfs):
            nm = self.names[self.name[i]]
            self_by[nm] += s
            calls[nm] += 1
            incl[nm] += self.end[i] - self.start[i]
        out = {}
        for layer, fns in TRACED.items():
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_by.items() if k.startswith(layer + ".")
            )
            for fn_name in fns:
                key = f"{layer}.{fn_name}"
                out[f"{key}.self_s"] = self_by.get(key, 0.0)
                out[f"{key}.calls"] = calls.get(key, 0)
        out["bench.self_s"] = sum(self_by.get(k, 0.0) for k in op_names)
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        scan_s = incl.get("oracle.cycle_scan", 0.0)
        out["oracle.cycles_per_s"] = out["oracle.cycles"] / scan_s if scan_s > 0 else 0.0
        return out

    def dump(self, path):
        """Write every span as [name, start, end, parent, op] rows, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"columns": ["name", "start", "end", "parent", "op"], "names": ')
            fh.write(json.dumps(self.names))
            fh.write(', "missing": ')
            fh.write(json.dumps(self.missing))
            fh.write(', "spans": [')
            for i in range(len(self.start)):
                if i:
                    fh.write(",")
                fh.write(
                    f"[{self.name[i]},{self.start[i]:.7f},{self.end[i]:.7f},"
                    f"{self.parent[i]},{self.op[i]}]"
                )
            fh.write("]}\n")


class _Span:
    def __init__(self, rec: Recorder, idx: int):
        self.rec = rec
        self.idx = idx

    def __enter__(self):
        rec = self.rec
        self.sid = len(rec.start)
        rec.name.append(self.idx)
        rec.parent.append(rec.stack[-1] if rec.stack else -1)
        rec.op.append(rec.op_id)
        rec.start.append(perf_counter())
        rec.end.append(0.0)
        rec.stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.stack.pop()
        rec.end[self.sid] = perf_counter()
        return False
