"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``BENCHMARK.json`` and ``README.md``) from the
root of a source checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1`` (0 for a layer the workload does not reach).  A full
record of the run (machine, operations by kind, per-round figures,
problems) goes to ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOAD_NAMES = ("pipeline-quick", "model-paper", "serve-keepalive")


def _declared(trace: bool):
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        common.bootstrap()
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import prepare

    prepared_now = False
    if not prepare.is_prepared():
        # In a child, so this process's peak RSS is the workload's alone.
        print("perfbench: filling the prepared cache (untimed)", file=sys.stderr)
        subprocess.run([sys.executable, str(common.ROOT / "perfbench" / "prepare.py")],
                       cwd=common.ROOT, check=True, stdout=sys.stderr, timeout=850)
        prepared_now = True

    import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)

    declared = _declared(run.trace)
    for name, (_, unit) in run.metrics.items():
        if declared.get(name) != unit:
            raise RuntimeError(f"metric {name} [{unit}] is not declared in BENCHMARK.json")
    missing = [name for name in declared if name not in run.metrics]
    if run.trace:
        # A layer this workload never calls reads 0; the record names them.
        run.record["layers_not_reached"] = missing
        for name in missing:
            run.put(name, 0.0, declared[name])
    elif missing:
        raise RuntimeError(f"end-to-end metrics not measured: {', '.join(missing)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "wall_s": time.perf_counter() - started,
        "prepared_in_this_run": prepared_now,
        "machine": common.machine_record(str(run.record.pop("cache_state", "n/a"))),
        "operations": run.ops.kinds,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
        **run.record,
    }
    common.write_json(
        common.RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    for problem in run.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in sorted(run.metrics.items()):
        print(f"{name:<44} {value:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
