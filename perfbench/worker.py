"""One pass of one workload in a fresh single-threaded interpreter.

    python3 perfbench/worker.py --workload W --seed S --seconds R --pass P

Passes:
  setup     import wkam, build the run's instances, report when ready.
  untraced  also run the batch in rounds until --seconds is used up (at
            least one round), checking every output.
  traced    install the span wrappers first, run the batch exactly once,
            and report per-layer metrics and counts; spans go to --spans.
Both timed passes run the speed probe.

The result is one JSON object on the last line of stdout.  ``ready`` is a
CLOCK_MONOTONIC reading, comparable with the parent's clock.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_wkam():
    """Import wkam from this checkout's src/, never from elsewhere."""
    if not (SRC / "wkam" / "__init__.py").is_file():
        raise SystemExit(f"no wkam package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wkam
    import wkam.cli
    import wkam.models

    if Path(wkam.__file__).resolve().parent != (SRC / "wkam").resolve():
        raise SystemExit(f"imported wkam from {wkam.__file__}, not from {SRC}")
    return wkam


_PROBE_FRACTIONS = [Fraction(i * 7 % 13 - 6, 4) for i in range(24)]
_PROBE_FLOATS = [float(i % 5) - 2.5 for i in range(24)]


def _probe_kernel():
    """Fixed pure-Python work shaped like wkam's: min over sums, Fraction
    and float.  Because it allocates like wkam does, it slows down with
    the host the way wkam does; the price is that its speed also depends,
    by up to about 8 %, on the wkam work around it (probe_check.py).  A
    small-int kernel that allocates nothing halved that dependence but
    tracked the host so much worse that the run-to-run spread of wall_s
    nearly doubled."""
    a = min(x + y for x in _PROBE_FRACTIONS[:12] for y in _PROBE_FRACTIONS[12:])
    b = min(x + y for x in _PROBE_FLOATS for y in _PROBE_FLOATS)
    return a, b


def timed_probe() -> float:
    """Seconds for one ``_probe_kernel`` with the garbage collector off, so
    that a collection of wkam's heap never lands inside the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe_kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


# Probe runs right after set-up; its speed scales the set-up time.
SETUP_PROBE_RUNS = 50


class SpeedProbe:
    """Samples the interpreter's speed while ops run.

    On a shared host the CPU speed seen by one process drifts by tens of
    percent within seconds, far more than run-to-run differences worth
    measuring.  Every PERIOD_S a SIGALRM handler times ``_probe_kernel`` in
    this same thread.  An op's time, less the handler time spent inside it,
    is scaled by REFERENCE_S over the mean probe time around the op: the
    op's seconds at a fixed reference speed.  In a traced pass each sample
    also notes the innermost open span, whose self time then excludes it.
    """

    PERIOD_S = 0.025
    # Mean probe time on the machine the benchmark was written on
    # (2 vCPU Xeon VM, Python 3.11); it only sets the unit.
    REFERENCE_S = 0.0006
    NEAREST = 6

    def __init__(self, rec=None):
        self.rec = rec
        self.at: list[float] = []
        self.took: list[float] = []
        self.parents: list[int] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.at.append(t0)
        self.took.append(timed_probe())
        if self.rec is not None:
            self.parents.append(self.rec.stack[-1] if self.rec.stack else -1)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean probe time in [t0, t1], widened to
        the NEAREST samples around it when the op was too short."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        if j - i < self.NEAREST:
            i = max(0, (i + j - self.NEAREST) // 2)
            j = min(len(self.at), i + self.NEAREST)
        if i >= j:
            return 1.0
        return self.REFERENCE_S / statistics.fmean(self.took[i:j])


def run_round(groups, rec, probe, result):
    """Time every op of every group once; check outputs outside the timing.

    The round's attempted and failed ops are recorded per round: the batch
    is the same in every round, so they must be too."""
    wall = 0.0
    op_id = 0
    attempted = failed = 0
    for g in groups:
        outputs = []
        for name, fn in g.ops:
            if rec is not None:
                rec.op_id = op_id
            span = rec.span("bench.op") if rec is not None else contextlib.nullcontext()
            error = None
            with span:
                spent = probe.spent
                t0 = time.perf_counter()
                try:
                    out = fn()
                except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                    out, error = None, exc
                t1 = time.perf_counter()
                dt = t1 - t0 - (probe.spent - spent)
            wall += dt
            result["op_times"].append(dt)
            result["op_spans"].append((t0, t1))
            attempted += 1
            outputs.append(out)
            if error is not None:
                # Only the workload's expected exceptions (NonConvergenceError
                # on float-random) are failed ops of a correct program; any
                # other exception makes the run incorrect.
                failed += 1
                expected = isinstance(error, g.expected)
                if not expected:
                    result["wrong"] += 1
                result["failures"].append(
                    f"{g.label} {name}: {'' if expected else 'unexpected '}"
                    f"{type(error).__name__}: {error}"
                )
            op_id += 1
        if rec is not None:
            rec.op_id = -1
        for (name, _), errs in zip(g.ops, g.check(outputs)):
            if errs:
                failed += 1
                result["wrong"] += 1
                result["failures"].append(f"{g.label} {name}: wrong output: {errs[0]}")
        if not result["controlled"]:
            result["controlled"] = g.control(outputs)
    result["round_walls"].append(wall)
    result["round_attempted"].append(attempted)
    result["round_failed"].append(failed)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--pass", dest="mode", required=True, choices=("setup", "untraced", "traced"))
    p.add_argument("--spans", default=None, help="where the traced pass writes its spans")
    args = p.parse_args()

    wkam = import_wkam()
    rec = None
    if args.mode == "traced":
        from tracing import Recorder

        rec = Recorder()
        rec.install()
    descriptors = workloads.plan(args.workload, args.seed, args.seconds)
    with rec.span("bench.setup") if rec is not None else contextlib.nullcontext():
        groups = workloads.prepare(wkam, args.workload, descriptors)
    result = {"ready": time.monotonic()}
    result["setup_probe_s"] = statistics.fmean(timed_probe() for _ in range(SETUP_PROBE_RUNS))
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    result.update(
        op_times=[], op_spans=[], round_walls=[], round_attempted=[], round_failed=[],
        wrong=0, failures=[], controlled=False,
    )
    probe = SpeedProbe(rec)
    t_start = time.perf_counter()
    with probe:
        while True:
            run_round(groups, rec, probe, result)
            elapsed = time.perf_counter() - t_start
            if rec is not None or elapsed + statistics.median(result["round_walls"]) > args.seconds:
                break
    # attempted and failed describe one batch, however many rounds the
    # host's speed allowed, so that they depend on the seed alone.
    result["attempted"] = result["round_attempted"][0]
    result["failed"] = result["round_failed"][0]
    if len(set(result["round_failed"])) > 1:
        result["wrong"] += 1
        result["failures"].append(
            f"failed ops differ between rounds of the same batch: {result['round_failed']}"
        )
    if not result["controlled"]:
        result["wrong"] += 1
        result["failures"].append("negative control never applied: no output to corrupt")
    scaled = [
        dt * probe.scale(t0, t1)
        for dt, (t0, t1) in zip(result["op_times"], result["op_spans"])
    ]
    result["ref_op_times"] = scaled
    per_round = len(scaled) // len(result["round_walls"])
    result["ref_round_walls"] = [
        sum(scaled[k : k + per_round]) for k in range(0, len(scaled), per_round)
    ]
    result["probe_samples"] = len(probe.took)
    result["probe_mean_s"] = statistics.fmean(probe.took) if probe.took else 0.0
    del result["op_spans"]
    result["failures"] = result["failures"][:20]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        result["layers"] = rec.layer_metrics(
            ("bench.op", "bench.setup"), zip(probe.parents, probe.took)
        )
        result["spans"] = len(rec.start)
        result["missing"] = rec.missing
        result["trace_setup_s"] = sum(
            rec.end[i] - rec.start[i]
            for i in range(len(rec.start))
            if rec.names[rec.name[i]] == "bench.setup"
        )
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
