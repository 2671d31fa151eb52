"""In-memory spans around calls into the program's layers.

The program itself carries no instrumentation.  :meth:`Tracer.wrap`
replaces a public function or method at the name its callers look it
up by (a module global or a class attribute) with a timing wrapper and
:meth:`Tracer.restore` puts the original back.  Spans are kept in
parallel lists and written out once, when the run ends.  Single-threaded
use only: the span stack is not shared between threads.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Clock granularity slack when comparing child and parent durations.
_NESTING_SLACK_S = 1e-6
#: Calls per measurement and measurements behind :func:`span_cost_s`.
_COST_CALLS = 20000
_COST_REPEATS = 5


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Host seconds spent in ``before``/``after`` hooks.
        self.hook_s = 0.0
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack corrupted closing {self.names[index]}")

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``before(args)`` runs just before the call and its return value
        is handed to ``after(args, result, token)``, which runs just
        after; neither is inside the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                started = time.perf_counter()
                token = before(args)
                tracer.hook_s += time.perf_counter() - started
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                started = time.perf_counter()
                after(args, result, token)
                tracer.hook_s += time.perf_counter() - started
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def overhead_s(self) -> float:
        """Estimated host time tracing added: spans recorded times the
        measured cost of one wrapped call, plus the time in hooks."""
        return len(self.names) * span_cost_s() + self.hook_s

    # -- summaries ------------------------------------------------------
    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (seconds, calls)`` over every closed span."""
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for index, name in enumerate(self.names):
            seconds[name] += self.duration(index)
            calls[name] += 1
        return {name: (seconds[name], calls[name]) for name in seconds}

    def children_of(self, parent_name: str, child_name: str) -> List[int]:
        """Spans called ``child_name`` whose direct parent is ``parent_name``."""
        return [
            i for i, name in enumerate(self.names)
            if name == child_name and self.parents[i] >= 0
            and self.names[self.parents[i]] == parent_name
        ]

    def nesting_violations(self) -> List[str]:
        """Spans whose direct children together outlast them."""
        child_time: Dict[int, float] = defaultdict(float)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.duration(index)
        problems = []
        for parent, total in child_time.items():
            own = self.duration(parent)
            if total > own + _NESTING_SLACK_S:
                problems.append(
                    f"children of {self.names[parent]} take {total:.6f}s "
                    f"> its {own:.6f}s"
                )
        return problems

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.starts) if self.starts else 0.0
        document = {
            "spans": [
                {
                    "name": name,
                    "start_s": self.starts[i] - origin,
                    "end_s": self.ends[i] - origin,
                    "parent": self.parents[i],
                }
                for i, name in enumerate(self.names)
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(document))


def _noop() -> None:
    return None


def span_cost_s() -> float:
    """Median cost of one span: a no-op called through a :meth:`Tracer.wrap`
    wrapper minus the same no-op called directly, per call."""
    costs = []
    for _ in range(_COST_REPEATS):
        owner = types.SimpleNamespace(call=_noop)
        started = time.perf_counter()
        for _ in range(_COST_CALLS):
            owner.call()
        bare = time.perf_counter() - started
        Tracer().wrap(owner, "call", "noop")
        started = time.perf_counter()
        for _ in range(_COST_CALLS):
            owner.call()
        costs.append((time.perf_counter() - started - bare) / _COST_CALLS)
    return statistics.median(costs)
