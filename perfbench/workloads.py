"""The benchmark's three workloads.

Each workload function takes a :class:`Run`, does whole rounds of the
same operations for ``run.seconds`` (always at least one round), checks
every output with :mod:`checks`, and fills ``run.metrics``.  With
tracing on it does exactly two rounds: an untraced one that pays the
process's first-use costs, then a traced one; it reports per-layer
metrics from the traced round and the tracing overhead as the spans it
recorded times the measured cost of one span, plus the time spent in
hooks (:meth:`Tracer.overhead_s`).  End-to-end metrics come only from
runs with tracing off.

Seeds: model-paper takes the fold assignment and the bootstrap draws
from ``--seed``; serve-keepalive takes the request rows and their order
from it.  pipeline-quick runs the quick preset exactly as ``repro
experiments --preset quick`` does (suite and folds from the preset's
seed 2007) whatever ``--seed`` says: its pooled CV MAE spreads by about a
quarter of its median across suite seeds (0.160-0.239 CPI over seeds
1-6) and by an eighth across fold seeds, wider than any useful bound,
while the simulated work (1 320 x 2 048 instructions) is the same for
every seed.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import checks
import common
from tracer import Tracer

from repro.baselines.bagging import BaggedM5
from repro.core.analysis import PerformanceAnalyzer, split_impacts
from repro.core.tree import builder as tree_builder
from repro.core.tree import m5 as tree_m5
from repro.core.tree.m5 import M5Prime
from repro.counters import events as ev
from repro.evaluation.crossval import cross_validate
from repro.experiments import data as experiment_data
from repro.experiments.config import ExperimentConfig
from repro.parallel.cache import ArtifactCache
from repro.serve.compiled import compile_tree
from repro.serve.refine import RefinedForest
from repro.serve.registry import ModelRegistry
from repro.simulator.core import SimulatedCore
from repro.workloads import suite as suite_module

N_FOLDS = 10
QUICK_MIN_LEAF = 25
PAPER_MIN_LEAF = 430
N_TREES = 10
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
#: Serving: the forest's own bootstrap seed (part of the served model,
#: not of the request inputs) and the batch request size.
SERVE_FOREST_SEED = 2007
SERVE_BATCH_ROWS = 256
SERVE_CONNECTIONS = 2
#: Requests per round on every connection, by kind.  A synthetic mix:
#: no record of real client traffic exists to derive it from (see
#: README.md for the reason behind each count).
SERVE_MIX = {"tree-1": 10, "tree-256": 2, "forest-1": 4, "explain": 4}
#: Each connection cycles through this many rounds of that mix with
#: different rows.  Their 256-row batches (2 x 3 x 2 x 256 = 3 072 rows)
#: cover the 1 320 quick rows more than twice over, so the served error
#: (``model_mae``) hardly depends on the seed: over seeds 1-20 it spread
#: by 0.8 % this way, against 2.7 % with one round per connection.
SERVE_ROUND_VARIANTS = 3
SERVE_READY_TIMEOUT_S = 60.0
SERVE_SETTLE_TIMEOUT_S = 5.0

COMPONENTS = ("L1I", "L1D", "L2", "DTLB-L0", "DTLB-L1", "ITLB", "branch")
TREE_FUNCTIONS = (
    (tree_builder, "find_best_split"),
    (tree_builder, "select_uncorrelated"),
    (tree_builder, "fit_linear_model"),
    (tree_builder, "simplify_model"),
    (tree_builder, "resolve_opposed_pairs"),
    (tree_m5, "prune_tree"),
)


class Run:
    """One benchmark invocation: arguments, outcome and its record."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ops = common.Ops()
        self.problems: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.record: Dict[str, object] = {}
        self.tracer: Optional[Tracer] = None
        self.tmp = common.WORK / "tmp" / str(os.getpid())

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def rounds(self, body: Callable[[int], Dict[str, float]], ops_per_round: Dict[str, int]):
        """Run whole rounds; a round that raises counts all its operations
        as failed.  Returns the per-round results of rounds that finished."""
        finished = []
        plan = [False, True] if self.trace else None
        started = time.perf_counter()
        index = 0
        while True:
            if plan is not None:
                if index == len(plan):
                    break
                if plan[index]:
                    self.tracer = Tracer()
                    install_layer_spans(self.tracer)
            elif index > 0 and time.perf_counter() - started >= self.seconds:
                break
            try:
                result = body(index)
            except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                for kind, count in ops_per_round.items():
                    self.ops.add(kind, count, count)
            else:
                finished.append(result)
                for kind, count in ops_per_round.items():
                    self.ops.add(kind, count)
            finally:
                if self.tracer is not None:
                    self.tracer.restore()
            index += 1
        return finished


# ---------------------------------------------------------------------------
# Layer spans (traced runs only)
# ---------------------------------------------------------------------------
def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the names callers use."""
    for name in ("synthesize_block", "perturbed", "prewarm"):
        tracer.wrap(suite_module, name, f"workloads.{name}")
    tracer.wrap(suite_module, "sections_to_dataset", "counters.sections_to_dataset")

    def stats_before(args):
        return args[0].statistics()

    def stats_after(args, result, before):
        after = args[0].statistics()
        for component in COMPONENTS:
            tracer.count(
                f"simulator.{component}.accesses",
                after[component].accesses - before[component].accesses,
            )
            tracer.count(
                f"simulator.{component}.misses",
                after[component].misses - before[component].misses,
            )
        counts = result.counts
        for event in (ev.INST_RETIRED_ANY, ev.BR_INST_RETIRED_ANY,
                      ev.BR_INST_RETIRED_MISPRED, ev.ITLB_MISS_RETIRED):
            tracer.count(f"raw.{event.name}", counts[event.name])

    tracer.wrap(SimulatedCore, "run_block", "simulator.run_block",
                before=stats_before, after=stats_after)

    def stored(args, path, token):
        tracer.count("parallel.cache.store_dataset.bytes", Path(path).stat().st_size)

    tracer.wrap(ArtifactCache, "store_dataset", "parallel.cache.store_dataset",
                after=stored)
    tracer.wrap(ArtifactCache, "load_dataset", "parallel.cache.load_dataset")
    tracer.wrap(M5Prime, "fit", "tree.fit")
    for module, name in TREE_FUNCTIONS:
        tracer.wrap(module, name, f"tree.{name}")
    tracer.wrap(PerformanceAnalyzer, "analyze_section", "analysis.analyze_section")


def layer_metrics(run: Run, names: List[str]) -> None:
    """Per-layer ``.s``/``.calls`` for each span name in ``names``."""
    totals = run.tracer.totals()
    for name in names:
        seconds, calls = totals.get(name, (0.0, 0))
        run.put(f"{name}.s", seconds, "s")
        run.put(f"{name}.calls", calls, "count")


def tree_and_cv_layers(run: Run, model: M5Prime) -> None:
    tracer = run.tracer
    layer_metrics(run, ["tree.fit"] + [f"tree.{name}" for _, name in TREE_FUNCTIONS])
    run.put("tree.leaves", model.n_leaves, "count")
    totals = tracer.totals()
    cv_s = totals["evaluation.cross_validate"][0]
    fold_fits = tracer.children_of("evaluation.cross_validate", "tree.fit")
    fold_s = sum(tracer.duration(i) for i in fold_fits)
    run.put("evaluation.cross_validate.s", cv_s, "s")
    run.put("evaluation.fold_fit.s", fold_s, "s")
    run.put("evaluation.fold_fit.calls", len(fold_fits), "count")
    run.put("evaluation.fold_overhead.s", cv_s - fold_s, "s")
    if len(fold_fits) != N_FOLDS:
        run.problems.append(f"trace: {len(fold_fits)} fold fits, expected {N_FOLDS}")
    run.put("analysis.analyze_dataset.s", totals["analysis.analyze_dataset"][0], "s")
    run.put("analysis.analyze_section.calls", totals["analysis.analyze_section"][1], "count")
    run.put("analysis.split_impacts.s", totals["analysis.split_impacts"][0], "s")


def finish_trace(run: Run) -> None:
    """Validate the spans, report tracing overhead, write the spans out."""
    run.problems.extend(f"trace: {p}" for p in run.tracer.nesting_violations())
    run.put("trace.overhead_s", run.tracer.overhead_s(), "s")
    run.tracer.dump(common.TRACES / f"{run.workload}-seed{run.seed}.json")


# ---------------------------------------------------------------------------
# Shared model checks
# ---------------------------------------------------------------------------
class FoldRecorder:
    """CV factory whose trees remember each fold's training size and test
    rows, so coverage can be checked without the program's fold code."""

    def __init__(self, min_instances: int) -> None:
        self.min_instances = min_instances
        self.folds: List[Tuple[int, np.ndarray]] = []

    def __call__(self) -> M5Prime:
        return _RecordingTree(self)


class _RecordingTree(M5Prime):
    def __init__(self, recorder: FoldRecorder) -> None:
        super().__init__(min_instances=recorder.min_instances)
        self._recorder = recorder
        self._n_train = 0

    def fit(self, data, y=None, attribute_names=None):
        self._n_train = int(data.n_instances)
        return super().fit(data, y, attribute_names)

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        self._recorder.folds.append((self._n_train, X.copy()))
        return super().predict(X)


def check_tree_outputs(run: Run, dataset, model, cv, recorder, grouped, impacts) -> None:
    X = dataset.X
    run.problems.extend(checks.table1_relations(dataset))
    run.problems.extend(checks.cv_reports_match(cv, dataset))
    if len(recorder.folds) != N_FOLDS or cv.n_folds != N_FOLDS:
        run.problems.append(f"cv: {len(recorder.folds)} folds ran, expected {N_FOLDS}")
    run.problems.extend(checks.predicted_once_out_of_fold(recorder.folds, X))
    run.problems.extend(checks.contributions_sum(model.root_, X, grouped))
    if len(impacts) != len(model.splits()):
        run.problems.append(
            f"analysis: {len(impacts)} split impacts for {len(model.splits())} splits"
        )


def load_prepared(preset: str):
    """A prepared preset's dataset, read through the program's cache path."""
    cfg = getattr(ExperimentConfig, preset)()
    cache = experiment_data.artifact_cache(common.PREPARED_CACHE)
    if not cache.has("dataset", experiment_data.experiment_fingerprint(cfg)):
        raise RuntimeError(f"prepared {preset} dataset missing; run prepare.py")
    experiment_data._MEMORY_CACHE.clear()
    return experiment_data.suite_dataset(cfg, cache_dir=common.PREPARED_CACHE, n_jobs=1)


# ---------------------------------------------------------------------------
# pipeline-quick
# ---------------------------------------------------------------------------
_IMPORT_PIPELINE = (
    "import repro.experiments.data, repro.core.tree.m5, "
    "repro.evaluation.crossval, repro.core.analysis"
)


def pipeline_quick(run: Run) -> None:
    """Cold quick preset: simulate into an empty cache, fit, CV, analyze.

    Set-up is a fresh interpreter importing the pipeline's modules, the
    only work a cold run has before it starts simulating.
    """
    cfg = ExperimentConfig.quick()
    n_workloads = len(suite_module.spec_like_suite())
    n_sections = n_workloads * cfg.sections_per_workload
    instructions = n_sections * cfg.instructions_per_section
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", _IMPORT_PIPELINE], env=common.child_env(),
                       cwd=common.ROOT, check=True, timeout=120)
        setups.append(time.perf_counter() - started)

    def body(index: int) -> Dict[str, float]:
        cache_dir = run.tmp / f"cold-{index}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        experiment_data._MEMORY_CACHE.clear()
        started = time.perf_counter()
        with run.span("pipeline"):
            dataset = experiment_data.suite_dataset(cfg, cache_dir=cache_dir, n_jobs=1)
            simulated = time.perf_counter()
            model = M5Prime(min_instances=QUICK_MIN_LEAF).fit(dataset)
            recorder = FoldRecorder(QUICK_MIN_LEAF)
            with run.span("evaluation.cross_validate"):
                cv = cross_validate(recorder, dataset, n_folds=N_FOLDS,
                                    rng=cfg.seed, n_jobs=1)
            with run.span("analysis.analyze_dataset"):
                grouped = PerformanceAnalyzer(model).analyze_dataset(dataset)
            with run.span("analysis.split_impacts"):
                impacts = split_impacts(model, dataset)
        finished = time.perf_counter()
        if dataset.n_instances != n_sections:
            raise RuntimeError(f"{dataset.n_instances} sections, expected {n_sections}")
        run.problems.extend(checks.compiled_matches_walk(
            model.root_, dataset.X, model.predict(dataset.X),
            model.leaf_ids(dataset.X), "tree"))
        check_tree_outputs(run, dataset, model, cv, recorder, grouped, impacts)
        if run.tracer is not None:
            trace_pipeline_quick(run, model, n_sections)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return {
            "round_s": finished - started,
            "sim_s": simulated - started,
            "cv_mae": cv.pooled.mae,
        }

    rounds = run.rounds(body, {
        "workload_units": n_workloads, "folds": N_FOLDS, "sections_analyzed": n_sections,
    })
    run.record["cache_state"] = "cold"
    run.record["rounds"] = rounds
    if run.trace:
        finish_trace(run)
        return
    run.record["sim_minstr_per_s"] = [instructions / r["sim_s"] / 1e6 for r in rounds]
    run.put("setup_s", common.median(setups), "s")
    run.put("round_s", common.median([r["round_s"] for r in rounds]), "s")
    run.put("model_mae", common.median([r["cv_mae"] for r in rounds]), "CPI")
    run.put("peak_rss_mb", common.peak_rss_mb_self(), "MB")


def trace_pipeline_quick(run: Run, model, n_sections: int) -> None:
    tracer = run.tracer
    layer_metrics(run, ["workloads.synthesize_block", "workloads.perturbed",
                        "workloads.prewarm", "simulator.run_block"])
    totals = tracer.totals()
    c = tracer.counts
    instructions = c[f"raw.{ev.INST_RETIRED_ANY.name}"]
    run.put("simulator.instructions", instructions, "count")
    run.put("simulator.ns_per_instruction",
            totals["simulator.run_block"][0] / instructions * 1e9, "ns")
    for component in COMPONENTS:
        for kind in ("accesses", "misses"):
            name = f"simulator.{component}.{kind}"
            run.put(name, c[name], "count")
    run.put("counters.sections_to_dataset.s", totals["counters.sections_to_dataset"][0], "s")
    run.put("parallel.cache.store_dataset.s", totals["parallel.cache.store_dataset"][0], "s")
    run.put("parallel.cache.store_dataset.bytes", c["parallel.cache.store_dataset.bytes"], "B")
    tree_and_cv_layers(run, model)
    # The spans' own counts must agree with the program's Table I counts.
    if totals["simulator.run_block"][1] != n_sections:
        run.problems.append(
            f"trace: {totals['simulator.run_block'][1]} run_block calls "
            f"for {n_sections} sections")
    for component, accesses, misses in (
        ("branch", ev.BR_INST_RETIRED_ANY, ev.BR_INST_RETIRED_MISPRED),
        ("ITLB", ev.INST_RETIRED_ANY, ev.ITLB_MISS_RETIRED),
    ):
        for kind, event in (("accesses", accesses), ("misses", misses)):
            if c[f"simulator.{component}.{kind}"] != c[f"raw.{event.name}"]:
                run.problems.append(
                    f"trace: {component} {kind} {c[f'simulator.{component}.{kind}']:g}"
                    f" != {event.name} {c[f'raw.{event.name}']:g}")


# ---------------------------------------------------------------------------
# model-paper
# ---------------------------------------------------------------------------
def model_paper(run: Run) -> None:
    """Paper regime from the prepared cache: fit, CV, compile, predict,
    analyze, bag, refine.  Set-up is reading the dataset back."""
    setups = []
    dataset = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        dataset = load_prepared("paper")
        setups.append(time.perf_counter() - started)
    X, y = dataset.X, dataset.y
    n = dataset.n_instances

    def body(index: int) -> Dict[str, float]:
        if run.tracer is not None:
            load_prepared("paper")
        started = time.perf_counter()
        with run.span("pipeline"):
            model = M5Prime(min_instances=PAPER_MIN_LEAF).fit(dataset)
            recorder = FoldRecorder(PAPER_MIN_LEAF)
            with run.span("evaluation.cross_validate"):
                cv = cross_validate(recorder, dataset, n_folds=N_FOLDS,
                                    rng=run.seed, n_jobs=1)
            with run.span("serve.compile_tree"):
                compiled = compile_tree(model.root_, len(model.attributes_))
            with run.span("serve.tree_predict"):
                predicted = compiled.predict(X)
            leaf_ids = compiled.leaf_ids(X)
            with run.span("analysis.analyze_dataset"):
                grouped = PerformanceAnalyzer(model).analyze_dataset(dataset)
            with run.span("analysis.split_impacts"):
                impacts = split_impacts(model, dataset)
            with run.span("baselines.bagged_fit"):
                forest = BaggedM5(n_estimators=N_TREES, min_instances=PAPER_MIN_LEAF,
                                  seed=run.seed, n_jobs=1).fit(dataset)
            with run.span("serve.compile_forest"):
                compiled_forest = forest.compiled_
            with run.span("serve.forest_predict"):
                uniform = compiled_forest.predict(X)
            with run.span("serve.refine_fit"):
                RefinedForest(forest).fit(dataset)
            refined = forest.predict(X)
        finished = time.perf_counter()
        run.problems.extend(checks.compiled_matches_walk(
            model.root_, X, predicted, leaf_ids, "compiled tree"))
        check_tree_outputs(run, dataset, model, cv, recorder, grouped, impacts)
        if len(forest) != N_TREES:
            run.problems.append(f"forest: {len(forest)} members, expected {N_TREES}")
        problems, walked_mean = checks.forest_mean_of_walks(forest, X, uniform)
        run.problems.extend(problems)
        run.problems.extend(checks.refined_no_worse(refined, walked_mean, y))
        if run.tracer is not None:
            trace_model_paper(run, model, n)
        return {"round_s": finished - started, "cv_mae": cv.pooled.mae}

    rounds = run.rounds(body, {
        "fits": 1 + N_TREES, "folds": N_FOLDS, "sections_analyzed": n,
        "rows_predicted": 3 * n,
    })
    run.record["cache_state"] = "warm"
    run.record["rounds"] = rounds
    if run.trace:
        finish_trace(run)
        return
    run.put("setup_s", common.median(setups), "s")
    run.put("round_s", common.median([r["round_s"] for r in rounds]), "s")
    run.put("model_mae", common.median([r["cv_mae"] for r in rounds]), "CPI")
    run.put("peak_rss_mb", common.peak_rss_mb_self(), "MB")


def trace_model_paper(run: Run, model, n: int) -> None:
    totals = run.tracer.totals()
    run.put("parallel.cache.load_dataset.s", totals["parallel.cache.load_dataset"][0], "s")
    tree_and_cv_layers(run, model)
    for name in ("serve.compile_tree", "baselines.bagged_fit", "serve.refine_fit",
                 "serve.compile_forest"):
        run.put(f"{name}.s", totals[name][0], "s")
    for name in ("serve.tree_predict", "serve.forest_predict"):
        run.put(f"{name}.rows_per_s", n / totals[name][0], "rows/s")


# ---------------------------------------------------------------------------
# serve-keepalive
# ---------------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` as a child process on an ephemeral port."""

    def __init__(self, registry_dir: Path, log: Path) -> None:
        self.log = log
        with open(log, "wb") as sink:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--registry", str(registry_dir),
                 "--model", "tree@latest"],
                stdout=sink, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=common.child_env(), cwd=common.ROOT,
            )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.perf_counter() + SERVE_READY_TIMEOUT_S
        pattern = re.compile(rb"listening on http://127\.0\.0\.1:(\d+)")
        while time.perf_counter() < deadline:
            found = pattern.search(self.log.read_bytes())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)


def _scrape(port: int) -> Dict[Tuple[str, str], float]:
    """``/metrics`` as ``(family, labels) -> value``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        text = response.read().decode("utf-8")
        if response.status != 200:
            raise RuntimeError(f"/metrics answered {response.status}")
    finally:
        conn.close()
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        name, _, labels = series.partition("{")
        samples[(name, labels.rstrip("}"))] = float(value)
    return samples


def _scrape_settled(port: int, expected: int) -> Dict[Tuple[str, str], float]:
    """``/metrics`` once the server has counted ``expected`` requests to
    ``/predict`` and ``/explain``, or as it stands after
    ``SERVE_SETTLE_TIMEOUT_S``.  The server counts a request only after
    writing its response, so a scrape taken right after the client has
    read the last response can miss that request."""
    deadline = time.perf_counter() + SERVE_SETTLE_TIMEOUT_S
    while True:
        samples = _scrape(port)
        counted = sum(samples.get(("repro_request_seconds_count", f'endpoint="{endpoint}"'), 0.0)
                      for endpoint in ("/predict", "/explain"))
        if counted >= expected or time.perf_counter() >= deadline:
            return samples
        time.sleep(0.01)


def _delta(before, after, name: str, labels: str = "") -> float:
    return after.get((name, labels), 0.0) - before.get((name, labels), 0.0)


def _family_delta(before, after, name: str) -> float:
    keys = {k for k in after if k[0] == name}
    return sum(after[k] - before.get(k, 0.0) for k in keys)


BATCH_DEPENDENT = "batch-dependent"


class Request:
    def __init__(self, kind: str, path: str, payload: dict, expected: dict,
                 actual: np.ndarray) -> None:
        self.kind = kind
        self.path = path
        self.body = json.dumps(payload).encode("utf-8")
        self.expected = expected
        #: Simulated CPI of the rows the request carries.
        self.actual = actual


def served_predictions(request: Request, body: bytes) -> List[float]:
    document = json.loads(body)
    if request.kind == "explain":
        return [document["prediction"]]
    return document["predictions"]


def build_mix(dataset, tree, forest,
              rng: np.random.Generator) -> List[List[List[Request]]]:
    """``SERVE_ROUND_VARIANTS`` rounds of requests per connection: rows
    and order from ``rng``, expected answers from the in-process models
    on the same rows.

    The 256-row batches take consecutive slices of one permutation of
    the dataset, wrapping around, so together they cover every row.

    A forest row has two in-process answers: ``forest.predict`` on the
    row alone and on the row inside a batch of two or more.  They can
    differ in the last bits (see CHANGES.md), and the server answers
    with whichever matches the batch its queue formed, so a served
    forest answer must equal one of the two exactly.
    """
    X, y = dataset.X, dataset.y
    order = rng.permutation(X.shape[0])
    batches = 0
    intercepts = {leaf: float(m.intercept) for leaf, m in checks.leaf_models(tree.root_).items()}
    mix = []
    for _ in range(SERVE_CONNECTIONS * SERVE_ROUND_VARIANTS):
        kinds = [kind for kind, count in SERVE_MIX.items() for _ in range(count)]
        rng.shuffle(kinds)
        requests = []
        for kind in kinds:
            if kind == "tree-256":
                index = np.take(order, range(batches * SERVE_BATCH_ROWS,
                                             (batches + 1) * SERVE_BATCH_ROWS), mode="wrap")
                batches += 1
                rows = X[index]
                payload = {"model": "tree@latest", "sections": rows.tolist()}
            else:
                index = rng.integers(0, X.shape[0], 1)
                rows = X[index]
                model = "forest@latest" if kind == "forest-1" else "tree@latest"
                payload = {"model": model, "section": rows[0].tolist()}
            if kind == "forest-1":
                expected = {"predictions": forest.predict(rows).tolist(),
                            "batched": forest.predict(np.vstack([rows, rows]))[:1].tolist()}
            else:
                expected = {"predictions": tree.predict(rows).tolist(),
                            "leaf_ids": tree.leaf_ids(rows).tolist()}
            if kind == "explain":
                leaf = expected["leaf_ids"][0]
                expected = {"leaf": leaf, "prediction": expected["predictions"][0],
                            "intercept": intercepts[leaf]}
            path = "/explain" if kind == "explain" else "/predict"
            requests.append(Request(kind, path, payload, expected, y[index]))
        mix.append(requests)
    return [mix[c::SERVE_CONNECTIONS] for c in range(SERVE_CONNECTIONS)]


def check_response(request: Request, status: int, body: bytes) -> Optional[str]:
    """A problem with one response, ``"batch-dependent"`` for a forest
    answer that equals the row's in-batch answer but not its 1-row one,
    or None when it equals in-process predict on the row alone."""
    if status != 200:
        return f"{request.kind}: HTTP {status}"
    document = json.loads(body)
    expected = request.expected
    if request.kind == "forest-1" and document["predictions"] != expected["predictions"]:
        if document["predictions"] == expected["batched"]:
            return BATCH_DEPENDENT
        return "forest-1: prediction differs from in-process predict alone and in a batch"
    if request.kind == "explain":
        if document["leaf"] != expected["leaf"] or document["prediction"] != expected["prediction"]:
            return "explain: leaf or prediction differs from in-process predict"
        total = expected["intercept"] + sum(c["cycles"] for c in document["contributions"])
        if document["contributions"] and abs(total - document["prediction"]) > \
                checks.RTOL * max(abs(total), 1.0):
            return "explain: contributions + intercept != prediction"
        return None
    if document["predictions"] != expected["predictions"]:
        return f"{request.kind}: predictions differ from in-process predict"
    if "leaf_ids" in expected and document.get("leaf_ids") != expected["leaf_ids"]:
        return f"{request.kind}: leaf ids differ from in-process leaf_ids"
    return None


def _client(port: int, rounds: List[List[Request]], deadline_at: List[float],
            barrier: threading.Barrier, log: list, round_times: list) -> None:
    """Closed loop on one keep-alive connection, whole rounds only,
    cycling through ``rounds``."""
    headers = {"Content-Type": "application/json"}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    barrier.wait()
    done = 0
    try:
        while time.perf_counter() < deadline_at[0]:
            round_started = time.perf_counter()
            for request in rounds[done % len(rounds)]:
                started = time.perf_counter()
                try:
                    conn.request("POST", request.path, body=request.body, headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    log.append((request, None, repr(exc).encode(), time.perf_counter() - started))
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                    continue
                log.append((request, response.status, body, time.perf_counter() - started))
            round_times.append(time.perf_counter() - round_started)
            done += 1
    finally:
        conn.close()


def serve_keepalive(run: Run) -> None:
    """A tree and a forest behind ``repro serve``; two keep-alive clients.

    Set-up is starting the server process until both models answer.
    """
    dataset = load_prepared("quick")
    tree = M5Prime(min_instances=QUICK_MIN_LEAF).fit(dataset)
    forest = BaggedM5(n_estimators=N_TREES, min_instances=QUICK_MIN_LEAF,
                      seed=SERVE_FOREST_SEED, n_jobs=1).fit(dataset)
    registry_dir = run.tmp / "registry"
    registry = ModelRegistry(registry_dir)
    registry.publish("tree", tree)
    registry.publish("forest", forest)
    mix = build_mix(dataset, tree, forest, np.random.default_rng(run.seed))
    warmup = {r.kind: r for rounds in mix for requests in rounds for r in requests}

    setups = []
    server = None
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        server = ServerProcess(registry_dir, run.tmp / f"serve-{attempt}.log")
        try:
            for request in warmup.values():
                conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
                try:
                    conn.request("POST", request.path, body=request.body,
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    problem = check_response(request, response.status, response.read())
                finally:
                    conn.close()
                if problem:
                    run.problems.append(f"warm-up: {problem}")
        except BaseException:
            server.stop()
            raise
        setups.append(time.perf_counter() - started)
        if attempt < SETUP_REPEATS - 1:
            server.stop()

    try:
        before = _scrape_settled(server.port, len(warmup))
        logs: List[list] = [[] for _ in mix]
        round_times: List[float] = []
        barrier = threading.Barrier(SERVE_CONNECTIONS + 1)
        deadline_at = [float("inf")]
        threads = [
            threading.Thread(target=_client, args=(server.port, rounds, deadline_at,
                                                   barrier, log, round_times), daemon=True)
            for rounds, log in zip(mix, logs)
        ]
        for thread in threads:
            thread.start()
        deadline_at[0] = time.perf_counter() + run.seconds
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join(timeout=run.seconds + 120)
            if thread.is_alive():
                raise RuntimeError("client thread did not finish")
        wall = time.perf_counter() - started
        answered = sum(1 for log in logs for entry in log if entry[1] is not None)
        after = _scrape_settled(server.port, len(warmup) + answered)
        peak_rss = common.peak_rss_mb_of(server.proc.pid)
    finally:
        server.stop()

    entries = [entry for log in logs for entry in log]
    statuses: Dict[str, int] = {}
    latencies = []
    transport_errors = 0
    batch_dependent = 0
    abs_error = 0.0
    rows_served = 0
    for request, status, body, latency in entries:
        key = "transport-error" if status is None else str(status)
        statuses[key] = statuses.get(key, 0) + 1
        if status is None:
            transport_errors += 1
            continue
        problem = check_response(request, status, body)
        if status == 200:
            latencies.append(latency)
            if problem == BATCH_DEPENDENT:
                batch_dependent += 1
            elif problem:
                run.problems.append(problem)
            served = np.asarray(served_predictions(request, body))
            abs_error += float(np.abs(served - request.actual).sum())
            rows_served += served.size
    failed = len(entries) - len(latencies)
    run.ops.add("http_requests", len(entries), failed)
    run.record["http_status"] = statuses
    run.record["transport_errors"] = transport_errors
    run.record["cache_state"] = "warm"
    run.record["requests"] = len(entries)
    run.record["forest_batch_dependent"] = batch_dependent
    run.record["rounds"] = len(round_times)
    run.record["rows_served"] = rows_served

    # The server's own request counts must match what the clients sent.
    for endpoint in ("/predict", "/explain"):
        sent = sum(1 for r, s, _, _ in entries if r.path == endpoint and s is not None)
        counted = _delta(before, after, "repro_request_seconds_count",
                         f'endpoint="{endpoint}"')
        served = sum(
            after[k] - before.get(k, 0.0) for k in after
            if k[0] == "repro_requests_total" and f'endpoint="{endpoint}"' in k[1]
        )
        if not (sent == counted == served):
            run.problems.append(
                f"metrics: {endpoint} sent {sent}, histogram {counted:g}, total {served:g}")
    if not latencies:
        raise RuntimeError("no request succeeded")

    if run.trace:
        server_s = 0.0
        for endpoint in ("predict", "explain"):
            labels = f'endpoint="/{endpoint}"'
            seconds = _delta(before, after, "repro_request_seconds_sum", labels)
            count = _delta(before, after, "repro_request_seconds_count", labels)
            server_s += seconds
            run.put(f"serve.server_request_ms.{endpoint}", seconds / count * 1e3, "ms")
        run.put("serve.transport_ms", (sum(latencies) - server_s) / len(latencies) * 1e3, "ms")
        run.put("serve.batch_rows.mean",
                _delta(before, after, "repro_batch_rows_sum")
                / _delta(before, after, "repro_batch_rows_count"), "rows")
        run.put("serve.shed", _family_delta(before, after, "repro_shed_total"), "count")
        run.put("serve.forest_batch_dependent", batch_dependent, "count")
        latencies_ms = [latency * 1e3 for latency in latencies]
        tail = common.tail_percentile(len(latencies_ms))
        run.record["serve_tail_percentile"] = tail
        run.put("serve.client_rps", len(latencies) / wall, "1/s")
        run.put("serve.client_p50_ms", common.percentile(latencies_ms, 50.0), "ms")
        run.put("serve.client_p99_ms", common.percentile(latencies_ms, tail), "ms")
        return
    run.put("setup_s", common.median(setups), "s")
    run.put("round_s", common.median(round_times), "s")
    run.put("model_mae", abs_error / rows_served, "CPI")
    run.put("peak_rss_mb", peak_rss, "MB")


WORKLOADS = {
    "pipeline-quick": pipeline_quick,
    "model-paper": model_paper,
    "serve-keepalive": serve_keepalive,
}
