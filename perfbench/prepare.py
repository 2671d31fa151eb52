"""Fill the benchmark-owned artifact cache.

    python3 perfbench/prepare.py

Collects the paper preset (15 400 sections) and the quick preset (1 320
sections) with the program's own cold collection, on up to two worker
processes, into ``.perfbench/cache`` and records the cold paper-preset
collection time in ``.perfbench/prepare.json``.  model-paper reads the paper dataset
back and serve-keepalive trains on the quick one; ``run.py`` calls this
itself when the cache is missing, outside every timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

RECORD = common.WORK / "prepare.json"
JOBS = min(2, os.cpu_count() or 1)


def _presets():
    from repro.experiments.config import ExperimentConfig

    return {"paper": ExperimentConfig.paper(), "quick": ExperimentConfig.quick()}


def is_prepared() -> bool:
    from repro.experiments.data import artifact_cache, experiment_fingerprint

    cache = artifact_cache(common.PREPARED_CACHE)
    return all(
        cache.has("dataset", experiment_fingerprint(cfg))
        for cfg in _presets().values()
    )


def prepare() -> Dict[str, object]:
    """Collect whatever preset is missing; returns the prepare record."""
    from repro.experiments import data
    from repro.experiments.data import artifact_cache, experiment_fingerprint

    cache = artifact_cache(common.PREPARED_CACHE)
    timings = {}
    for name, cfg in _presets().items():
        if cache.has("dataset", experiment_fingerprint(cfg)):
            continue
        data._MEMORY_CACHE.clear()
        started = time.perf_counter()
        dataset = data.suite_dataset(cfg, cache_dir=common.PREPARED_CACHE, n_jobs=JOBS)
        timings[name] = {
            "cold_collect_s": time.perf_counter() - started,
            "sections": dataset.n_instances,
            "jobs": JOBS,
        }
    record = json.loads(RECORD.read_text()) if RECORD.is_file() else {}
    record.setdefault("presets", {}).update(timings)
    if timings:
        record["machine"] = common.machine_record(cache_state="cold")
    common.write_json(RECORD, record)
    return record


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    try:
        common.bootstrap()
    except common.SourceMissing as exc:
        print(f"prepare: {exc}", file=sys.stderr)
        return 2
    record = prepare()
    print(json.dumps(record.get("presets", {}), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
