"""Paths, environment, machine record and result helpers for the bench.

The benchmark runs from the root of a source checkout: it imports the
program from ``src/`` and keeps everything it writes under ``.perfbench/``
in that checkout, so a run never touches the user's own caches.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: Artifact cache filled by ``prepare.py`` (the paper and quick presets).
PREPARED_CACHE = WORK / "cache"
RECORDS = WORK / "records"
TRACES = WORK / "traces"

#: Environment the program sees in this process and in every child.
#: Serial everywhere; no fault injection; the program's default cache
#: directory is redirected into the checkout.
BENCH_ENV = {
    "REPRO_JOBS": "1",
    "REPRO_CACHE_DIR": str(WORK / "home-cache"),
}
_DROPPED_ENV = ("REPRO_FAULTS", "REPRO_EXECUTOR")


class SourceMissing(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def bootstrap() -> None:
    """Make ``import repro`` load this checkout's sources, serially."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(
            f"no program sources under {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in _DROPPED_ENV:
        os.environ.pop(name, None)
    os.environ.update(BENCH_ENV)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters running the program."""
    env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
    env.update(BENCH_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` (identifies a non-git checkout)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_record(cache_state: str) -> Dict[str, object]:
    """What ran the benchmark: host, interpreter, numpy, code, cache."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_digest": source_digest(),
        "cache_state": cache_state,
    }


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in ``[0, 100]``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def tail_percentile(n: int) -> float:
    """The tail percentile a sample of ``n`` supports.

    p99 needs at least 1000 samples (10 beyond it); below that, the
    highest percentile that still has at least ten samples beyond it.
    """
    if n >= 1000:
        return 99.0
    return max(0.0, 100.0 * (1.0 - 10.0 / n))


def write_json(path: Path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(document, indent=1, sort_keys=True))
    tmp.replace(path)


class Ops:
    """Operations attempted and failed, by kind."""

    def __init__(self) -> None:
        self.kinds: Dict[str, Dict[str, int]] = {}

    def add(self, kind: str, attempted: int, failed: int = 0) -> None:
        entry = self.kinds.setdefault(kind, {"attempted": 0, "failed": 0})
        entry["attempted"] += int(attempted)
        entry["failed"] += int(failed)

    @property
    def attempted(self) -> int:
        return sum(e["attempted"] for e in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(e["failed"] for e in self.kinds.values())
