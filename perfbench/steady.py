"""Steadiness check: two sets of runs of one checkout, compared.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]

Runs ``run.py`` ``--runs`` times per workload in each of two sets, with
seeds 1..runs in the first set and runs+1..2*runs in the second
(workloads interleaved, so slow spells of the machine fall on all of
them).  For every end-to-end metric and workload it reports each set's
median and spread (quartile distance as a share of the median), and
whether both spreads and the shift of the second median from the first,
in either direction, stay within the metric's bound.  The share of
failed operations must be identical in both sets.  Exit code 0 when
everything agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOAD_NAMES)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: ([], []) for w in workloads}
    started = time.time()
    for s in range(2):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for workload in workloads:
                out = one_run(workload, seed, spec["run_seconds"])
                results[workload][s].append(out)
                print(f"set {s + 1} seed {seed} {workload}: correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']} "
                      f"elapsed={time.time() - started:.0f}s", file=sys.stderr)

    ok = True
    report = {}
    print(f"{'workload':<16} {'metric':<18} {'bound':>6} {'median1':>12} {'spread1':>8} "
          f"{'median2':>12} {'spread2':>8} {'shift':>7}  verdict")
    for workload in workloads:
        first, second = results[workload]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (first, second)]
        correct = all(r["correct"] for r in first + second)
        ok = ok and correct and shares[0] == shares[1]
        report[workload] = {"failed_share": shares, "correct": correct, "metrics": {}}
        for name in first[0]["metrics"]:
            bound = bounds[name]["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in (first, second)]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            shift = (medians[1] - medians[0]) / medians[0]
            good = abs(shift) <= bound and max(spreads) <= bound
            ok = ok and good
            report[workload]["metrics"][name] = {
                "bound": bound, "medians": medians, "spreads": spreads,
                "shift": shift, "ok": good, "values": values,
            }
            print(f"{workload:<16} {name:<18} {bound:>6.2f} {medians[0]:>12.5g} "
                  f"{spreads[0]:>8.3f} {medians[1]:>12.5g} {spreads[1]:>8.3f} "
                  f"{shift:>+7.3f}  {'ok' if good else 'OUT OF BOUND'}")
        print(f"{workload:<16} failed share {shares} correct={correct}")
    common.write_json(common.WORK / f"steady-{int(started)}.json", report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
