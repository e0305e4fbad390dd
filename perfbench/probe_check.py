"""Check that the speed probe does not follow what wkam is doing.

    python3 perfbench/probe_check.py [--rounds 16]

Run from the root of a wkam checkout.  In one process, it alternates one
second chunks of different work, in a shuffled order each round, with the
speed probe running as in a measuring worker: no wkam work, exact
``mane_potential`` at n = 32, the float pipeline at n = 2..8, and
``cycle_scan`` at n = 10.  For each kind it prints the mean probe time
divided by the round's mean over all kinds.  Host drift is common to a
round and cancels; a ratio far from 1 means that the probe's speed depends
on wkam's state, which would bias the scaled times of worker.py.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

import worker


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--rounds", type=int, default=16)
    p.add_argument("--chunk", type=float, default=1.0, help="seconds per chunk")
    args = p.parse_args()

    wkam = worker.import_wkam()
    float_mode = wkam.Mode("float", 1e-9)
    exact = wkam.gen_random(32, 1, -2, 2)
    exact_crit = wkam.critical_value(exact)
    floats = [wkam.gen_random(n, s, -2, 2, mode=float_mode) for s in range(20) for n in range(2, 9)]
    desk = wkam.gen_random(10, 3, -2, 2)
    keep = []

    def idle():
        s = 0
        for i in range(200_000):
            s += i * i % 7

    def exact_potential():
        keep.append(wkam.mane_potential(exact, exact_crit))

    def float_pipeline():
        for inst in floats:
            try:
                crit = wkam.critical_value(inst)
                keep.append(wkam.max_strict_subsolution(inst, crit))
            except wkam.NonConvergenceError:
                pass

    def cycle_scan():
        keep.append(wkam.oracle.cycle_scan(desk))

    kinds = {
        "no wkam work": idle,
        "exact mane_potential": exact_potential,
        "float pipeline": float_pipeline,
        "cycle_scan": cycle_scan,
    }
    rng = random.Random(0)
    ratios = {k: [] for k in kinds}
    for _ in range(args.rounds):
        order = list(kinds)
        rng.shuffle(order)
        means = {}
        for k in order:
            probe = worker.SpeedProbe()
            with probe:
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < args.chunk:
                    kinds[k]()
                    del keep[:-2]
            means[k] = statistics.fmean(probe.took)
        base = statistics.fmean(means.values())
        for k, v in means.items():
            ratios[k].append(v / base)
    for k, r in ratios.items():
        se = statistics.stdev(r) / len(r) ** 0.5 if len(r) > 1 else float("nan")
        print(f"{k:22s} probe time / round mean: {statistics.fmean(r):.3f} +- {se:.3f} (s.e.)")


if __name__ == "__main__":
    main()
