"""wkam benchmark: time to an exact answer end to end, and per module.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: exact-random, float-random, cli-fk, verify-desk (see
workloads.py).  Every pass runs in a fresh single-threaded interpreter
(worker.py) that imports wkam from ./src of this checkout.

--trace 0 prints the end-to-end metrics, measured with no wrappers:
  setup_s      fresh interpreter to first op ready (import wkam, build the
               run's instances); median of several set-ups.
  wall_s       seconds for the run's fixed batch of ops (median over rounds).
  op_s_p50     median seconds per op.
  peak_rss_mb  ru_maxrss of the measuring worker.
Times are seconds at a fixed reference interpreter speed: a speed probe in
the worker (worker.SpeedProbe) scales each measured time by how fast the
host ran around it.  The report also gives op_s_tail (when a run has >= 20
ops), failed_share, and a ``detail`` JSON line that puts the unscaled
times and the probe means next to the scaled ones, so that a probe whose
speed followed wkam's own state would show.

--trace 1 runs the batch untraced once more, then twice with span wrappers
on wkam's public functions, and prints the per-layer metrics of the first
traced pass: self seconds and calls per function and per layer, counts read
from return values, and trace.overhead (traced over untraced wall_s).  Every
count must repeat exactly in the second traced pass, and the self times
(layers plus bench.self_s) must add up to the traced wall_s plus the
set-up span within ACCOUNT_TOL, or the run fails.

Each op's output is checked against refcheck.py; a mismatch makes the run
incorrect and counts as a failed op, as does an op that raises.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
attempted and failed count one batch, whatever the number of rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import COUNTS
from worker import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "wkam"
OUT = HERE / "out"
SETUP_PROBES = 10
RUN_LIMIT_S = 170
# Largest share by which the summed self times may differ from the traced
# wall_s plus the set-up span.
ACCOUNT_TOL = 0.02

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def fail(msg: str) -> None:
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(1)


class Workers:
    """Spawns worker passes and keeps every one within the run's time limit."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, mode: str, spans: Path | None = None) -> dict:
        a = self.args
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--pass", mode,
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        # A fixed hash seed keeps set and dict orders, and so every count,
        # the same in every pass.
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            fail(f"{mode} pass exceeded the {RUN_LIMIT_S} s run limit")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"{mode} pass exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            fail(f"{mode} pass printed no result")
        result = json.loads(lines[-1])
        result["setup_s"] = (result["ready"] - t0) * SpeedProbe.REFERENCE_S / result["setup_probe_s"]
        return result


def tail(op_times: list[float]):
    """Seconds per op at the highest percentile with >= 10 ops beyond it."""
    n = len(op_times)
    if n < 20:
        return None
    ordered = sorted(op_times)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def metadata(args) -> list[str]:
    lines = []
    head = ROOT / ".git" / "HEAD"
    sha = "none (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                sha = target.read_text().strip()
    files = sorted(SRC.glob("*.py"))
    digest = hashlib.sha256()
    counts = {}
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        counts[f.stem] = data.count(b"\n")
    lines.append(f"git sha: {sha}")
    lines.append(f"src/wkam sha256: {digest.hexdigest()[:16]}")
    lines.append(f"python: {platform.python_version()} ({platform.python_implementation()})")
    lines.append(f"nproc: {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})")
    lines.append(f"workload seed: {args.seed}  seconds: {args.seconds}")
    lines.append(
        "ops per batch: "
        + ", ".join(f"{w}={workloads.op_count(w, args.seconds)}" for w in workloads.WORKLOADS)
    )
    lines.append(
        f"lines in src/wkam: {sum(counts.values())} ("
        + ", ".join(f"{k} {v}" for k, v in counts.items())
        + ")"
    )
    return lines


def untraced(workers: Workers) -> tuple[dict, dict, list[str]]:
    passes = [workers.run("setup") for _ in range(SETUP_PROBES)]
    res = workers.run("untraced")
    passes.append(res)
    setups = [r["setup_s"] for r in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["ref_round_walls"]),
        "op_s_p50": statistics.median(res["ref_op_times"]),
        "peak_rss_mb": res["rss_mb"],
    }
    n = res["attempted"]
    notes = [f"rounds: {len(res['round_walls'])}  ops per batch: {n}"]
    t = tail(res["ref_op_times"])
    if t is None:
        notes.append(f"op_s_tail: not reported ({n} ops < 20)")
    else:
        notes.append(f"op_s_tail = {t[0]:.6f} s (p{t[1]:.1f} of {t[2]} ops, 10 beyond)")
    notes += [
        f"failed_share = {res['failed'] / n:.6f} ({res['failed']}/{n})",
        f"unscaled: {statistics.median(res['round_walls']):.6f} s summed op time per round, "
        f"{statistics.median(res['op_times']):.6f} s median op",
        f"speed probe: {res['probe_samples']} samples, mean {res['probe_mean_s'] * 1e3:.6f} ms "
        f"(reference {1e3 * SpeedProbe.REFERENCE_S:.4f} ms)",
        "detail "
        + json.dumps({
            "wall_s": metrics["wall_s"],
            "wall_s_unscaled": statistics.median(res["round_walls"]),
            "op_s_p50": metrics["op_s_p50"],
            "op_s_p50_unscaled": statistics.median(res["op_times"]),
            "probe_mean_s": res["probe_mean_s"],
            "setup_probe_s": statistics.median(r["setup_probe_s"] for r in passes),
            "reference_probe_s": SpeedProbe.REFERENCE_S,
        }),
    ]
    return res, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer_unit(key: str) -> str:
    if key.endswith(".self_s"):
        return "s"
    if key == "oracle.cycles_per_s":
        return "1/s"
    if key == "core.minplus_ops":
        return "ops_computed"
    if key == "trace.overhead":
        return "ratio"
    return "count"


def traced(workers: Workers, args) -> tuple[dict, dict, list[str]]:
    base = workers.run("untraced")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    first = workers.run("traced", spans)
    second = workers.run("traced")
    deterministic = [k for k in first["layers"] if k.endswith(".calls")] + list(COUNTS)
    diff = [k for k in deterministic if first["layers"][k] != second["layers"][k]]
    if first["failed"] != second["failed"]:
        diff.append("failed")
    share = [r["failed"] / r["attempted"] for r in (base, first)]
    if share[0] != share[1]:
        diff.append("failed_share (untraced vs traced)")
    if diff:
        fail(f"counts differ between two runs with seed {args.seed}: {', '.join(diff)}")
    layers = dict(first["layers"])
    wall_traced = first["round_walls"][0]
    wall_untraced = statistics.median(base["round_walls"])
    layers["trace.overhead"] = first["ref_round_walls"][0] / statistics.median(
        base["ref_round_walls"]
    )
    metrics = {k: (v, per_layer_unit(k)) for k, v in layers.items()}
    attributed = sum(v for k, v in layers.items() if k.endswith(".self_s") and k.count(".") == 1)
    accounted = wall_traced + first["trace_setup_s"]
    if abs(attributed - accounted) > ACCOUNT_TOL * accounted:
        fail(
            f"self times add up to {attributed:.6f} s, not to the traced wall_s plus "
            f"set-up span {accounted:.6f} s"
        )
    notes = [
        f"measured (unscaled) wall_s: traced {wall_traced:.6f} s, untraced {wall_untraced:.6f} s",
        f"traced set-up span = {first['trace_setup_s']:.6f} s, spans recorded: {first['spans']}",
        f"layer self_s + bench.self_s = {attributed:.6f} s "
        f"(traced wall_s + set-up span = {accounted:.6f} s)",
        f"spans written to {spans.relative_to(ROOT)}",
        f"failed_share = {first['failed'] / first['attempted']:.6f} "
        f"({first['failed']}/{first['attempted']})",
    ]
    if first["missing"]:
        notes.append(f"not present in this wkam (reported as 0): {', '.join(first['missing'])}")
    first["wrong"] = base["wrong"] + first["wrong"] + second["wrong"]
    return first, metrics, notes


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (SRC / "__init__.py").is_file():
        fail(f"no wkam sources at {SRC.relative_to(ROOT)}; run from a wkam checkout")

    for line in metadata(args):
        print(line)
    workers = Workers(args)
    if args.trace:
        res, metrics, notes = traced(workers, args)
    else:
        res, metrics, notes = untraced(workers)
    print(f"workload: {args.workload}  trace: {args.trace}")
    for line in notes:
        print(line)
    for msg in res["failures"]:
        print(f"failed op: {msg}")
    for k, (v, unit) in metrics.items():
        print(f"{k} = {v:.6g} {unit}")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
