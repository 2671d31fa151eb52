"""Output checks that do not call the code under test.

Each check recomputes a result from the program's plain data (the linked
tree's nodes, the dataset's columns, raw CV predictions) with the
benchmark's own arithmetic and returns a list of problems; an empty list
means the check passed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Relative tolerance for sums whose evaluation order may differ.
RTOL = 1e-9


def walk_tree(root, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Route every row by the split tests, then evaluate the leaf model.

    Returns ``(prediction, leaf_id)`` per row.  The leaf model is applied
    as ``intercept`` then ``+= coef * x`` term by term (no smoothing).
    """
    X = np.asarray(X, dtype=np.float64)
    prediction = np.empty(X.shape[0])
    leaf_id = np.zeros(X.shape[0], dtype=np.int64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            model = node.model
            value = np.full(rows.size, float(model.intercept))
            for index, coefficient in zip(model.indices, model.coefficients):
                value += coefficient * X[rows, index]
            prediction[rows] = value
            leaf_id[rows] = node.leaf_id
            continue
        left = X[rows, node.attribute_index] <= node.threshold
        stack.append((node.left, rows[left]))
        stack.append((node.right, rows[~left]))
    return prediction, leaf_id


def leaf_models(root) -> Dict[int, object]:
    """``leaf_id -> LinearModel`` of a linked tree."""
    found = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            found[node.leaf_id] = node.model
        else:
            stack.extend((node.left, node.right))
    return found


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def compiled_matches_walk(
    root, X: np.ndarray, predicted: np.ndarray, leaf_ids: np.ndarray, label: str
) -> List[str]:
    walked, walked_leaves = walk_tree(root, X)
    problems = []
    if not np.array_equal(walked_leaves, np.asarray(leaf_ids)):
        bad = int(np.count_nonzero(walked_leaves != np.asarray(leaf_ids)))
        problems.append(f"{label}: {bad} rows land in another leaf than the walk")
    if not np.array_equal(walked, np.asarray(predicted)):
        gap = float(np.max(np.abs(walked - np.asarray(predicted))))
        problems.append(f"{label}: predictions differ from the walk (max {gap:g})")
    return problems


def pooled_metrics(predictions: np.ndarray, actuals: np.ndarray) -> Tuple[float, float]:
    """``(mae, pearson correlation)`` by explicit sums."""
    p = np.asarray(predictions, dtype=np.float64)
    a = np.asarray(actuals, dtype=np.float64)
    n = p.size
    mae = float(np.sum(np.abs(p - a)) / n)
    dp = p - np.sum(p) / n
    da = a - np.sum(a) / n
    corr = float(np.sum(dp * da) / np.sqrt(np.sum(dp * dp) * np.sum(da * da)))
    return mae, corr


def cv_reports_match(cv, dataset) -> List[str]:
    problems = []
    if not np.array_equal(cv.actuals, dataset.y):
        problems.append("cv: actuals are not the dataset targets")
    if not np.all(np.isfinite(cv.predictions)):
        problems.append("cv: some rows have no out-of-fold prediction")
        return problems
    mae, corr = pooled_metrics(cv.predictions, cv.actuals)
    if not _close(mae, cv.pooled.mae):
        problems.append(f"cv: pooled MAE {cv.pooled.mae!r} != recomputed {mae!r}")
    if not _close(corr, cv.pooled.correlation):
        problems.append(
            f"cv: pooled correlation {cv.pooled.correlation!r} != recomputed {corr!r}"
        )
    return problems


def _sorted_rows(X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    order = np.lexsort(X.T[::-1])
    return X[order]


def predicted_once_out_of_fold(folds: Sequence[Tuple[int, np.ndarray]], X) -> List[str]:
    """Each fold trained on ``n - |test|`` rows and the test rows, pooled,
    are the dataset's rows exactly once (compared as multisets)."""
    n = X.shape[0]
    problems = []
    for n_train, test in folds:
        if n_train + test.shape[0] != n:
            problems.append(
                f"cv: a fold trained on {n_train} rows and tested {test.shape[0]}"
                f" of {n}"
            )
    pooled = np.concatenate([test for _, test in folds])
    if pooled.shape[0] != n or not np.array_equal(_sorted_rows(pooled), _sorted_rows(X)):
        problems.append(
            f"cv: {pooled.shape[0]} out-of-fold predictions do not cover the "
            f"{n} rows exactly once"
        )
    return problems


def table1_relations(dataset) -> List[str]:
    """Subset relations between Table I events, plus positive CPI."""
    column = {name: dataset.X[:, i] for i, name in enumerate(dataset.attributes)}
    problems = []
    if np.any(dataset.X < 0):
        problems.append("table1: negative event ratio")
    eps = 1e-12
    for small, large in (
        ("L2M", "L1DM"), ("L1DM", "InstLd"),
        ("DtlbLdReM", "DtlbLdM"), ("DtlbLdM", "Dtlb"),
    ):
        bad = int(np.count_nonzero(column[small] > column[large] + eps))
        if bad:
            problems.append(f"table1: {small} > {large} on {bad} sections")
    if not np.all(dataset.y > 0):
        problems.append("table1: non-positive CPI")
    return problems


def contributions_sum(root, X: np.ndarray, grouped) -> List[str]:
    """Every analyzed section: terms + leaf intercept = predicted CPI,
    and leaf and prediction agree with the benchmark's walk."""
    walked, walked_leaves = walk_tree(root, X)
    models = leaf_models(root)
    analyses = [a for group in grouped.values() for a in group]
    problems = []
    if len(analyses) != X.shape[0]:
        return [f"analysis: {len(analyses)} analyses for {X.shape[0]} sections"]
    by_leaf: Dict[int, List[float]] = {}
    for leaf, value in zip(walked_leaves, walked):
        by_leaf.setdefault(int(leaf), []).append(float(value))
    for leaf, group in grouped.items():
        expected = by_leaf.get(int(leaf), [])
        if sorted(a.predicted for a in group) != sorted(expected):
            problems.append(f"analysis: LM{leaf} predictions differ from the walk")
        intercept = float(models[int(leaf)].intercept)
        for analysis in group:
            if analysis.extrapolated:
                continue
            total = intercept + sum(c.cycles for c in analysis.contributions)
            if not _close(total, analysis.predicted):
                problems.append(
                    f"analysis: LM{leaf} terms sum to {total!r}, "
                    f"predicted {analysis.predicted!r}"
                )
                break
    return problems


def forest_mean_of_walks(members, X: np.ndarray, predicted: np.ndarray) -> Tuple[List[str], np.ndarray]:
    walks = np.stack([walk_tree(member.root_, X)[0] for member in members])
    mean = walks.sum(axis=0) / len(members)
    problems = []
    if not np.allclose(predicted, mean, rtol=1e-12, atol=0.0):
        gap = float(np.max(np.abs(predicted - mean)))
        problems.append(f"forest: compiled predictions != mean of walks (max {gap:g})")
    return problems, mean


def refined_no_worse(refined_pred, uniform_pred, y) -> List[str]:
    refined_mae = float(np.mean(np.abs(np.asarray(refined_pred) - y)))
    uniform_mae = float(np.mean(np.abs(np.asarray(uniform_pred) - y)))
    if refined_mae > uniform_mae * (1 + RTOL):
        return [f"refine: training MAE {refined_mae!r} > uniform {uniform_mae!r}"]
    return []
