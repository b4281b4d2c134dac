"""STS evaluation: dataset loading, pair scoring, correlation reports.

One scorer serves a model, a model+flow and a full ensemble: per task,
`score_pairs` embeds each unique sentence once and scores every pair
with `similarity` (cosine or negative Euclidean distance, with or
without a flow); `score_suite` builds the `CorrelationReport`.

Correlations are computed from scratch (sample Pearson; Spearman as
Pearson over fractional average ranks) and reported in the conventional
x100 format. Constant or non-finite inputs raise instead of returning a
number, so a collapsed model is visible in the report rather than
hidden by it.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import METRICS
from .encoder import EncoderModel, PoolingSpec, encode_many
from .errors import ConstantInputError, DataError, ShapeMismatchError
from .flow import flow_forward

_zero_norm_count = 0


def zero_norm_count() -> int:
    """How many cosine calls hit a zero-norm vector since the last reset."""
    return _zero_norm_count


def reset_zero_norm_count() -> None:
    global _zero_norm_count
    _zero_norm_count = 0


@dataclass(frozen=True)
class ScoredPair:
    sentence_1: str
    sentence_2: str
    gold: float

    def __post_init__(self):
        if not (0.0 <= self.gold <= 5.0):
            raise DataError(f"gold score {self.gold} outside [0, 5]")


@dataclass(frozen=True)
class StsTask:
    name: str
    pairs: tuple[ScoredPair, ...]
    split: str = "test"

    def __post_init__(self):
        if len(self.pairs) == 0:
            raise DataError(f"task {self.name!r} has no pairs")
        if self.split not in ("train", "dev", "test"):
            raise DataError(f"unknown split {self.split!r}")


@dataclass
class TaskResult:
    pearson_x100: float
    spearman_x100: float
    n_pairs: int


@dataclass
class CorrelationReport:
    """Per-task correlations, their unweighted mean, and run metadata.

    `failed` maps task names to error messages; a non-empty dict marks
    the report partial. Raw (unrounded) values live here; rounding to
    two decimals happens only when writing CSV.
    """

    per_task: dict[str, TaskResult]
    average_pearson_x100: float
    average_spearman_x100: float
    metadata: dict = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return len(self.failed) > 0


def cosine(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ShapeMismatchError(f"cosine shapes {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        global _zero_norm_count
        _zero_norm_count += 1
        warnings.warn("zero-norm vector in cosine; returning 0")
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def similarity(u, v, metric: str = "cosine") -> float:
    """Cosine (in [-1, 1]) or negative Euclidean distance of two vectors."""
    if metric == "cosine":
        return cosine(u, v)
    if metric == "neg_euclidean":
        return -float(np.linalg.norm(np.subtract(u, v, dtype=np.float64)))
    raise DataError(f"unknown similarity metric: {metric!r}")


def _check_pair(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ShapeMismatchError(f"correlation shapes {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise DataError("correlation needs at least 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DataError("correlation undefined for non-finite input")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise ConstantInputError("correlation undefined for constant input")
    return xs, ys


def pearson(xs, ys) -> float:
    xs, ys = _check_pair(xs, ys)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    denom = np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
    return float(np.sum(dx * dy) / denom)


def fractional_ranks(xs) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(xs.size, dtype=np.float64)
    i = 0
    while i < xs.size:
        j = i
        while j + 1 < xs.size and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        # positions i..j (0-based) share rank mean(i+1 .. j+1)
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    xs, ys = _check_pair(xs, ys)
    return pearson(fractional_ranks(xs), fractional_ranks(ys))


def score_pairs(embed, task: StsTask, metric: str = "cosine") -> np.ndarray:
    """Similarity per pair, in task order. `embed` maps sentences to an
    (n, D) array and sees each unique sentence once, in first-seen order;
    encoding is batch-invariant, so deduplication changes no embedding."""
    unique = dict.fromkeys(s for p in task.pairs
                           for s in (p.sentence_1, p.sentence_2))
    index = {s: i for i, s in enumerate(unique)}
    embs = embed(list(unique))
    return np.array([
        similarity(embs[index[p.sentence_1]], embs[index[p.sentence_2]],
                   metric)
        for p in task.pairs
    ])


def predict_scores(model: EncoderModel, task: StsTask, pool: PoolingSpec,
                   flow=None, metric: str = "cosine") -> np.ndarray:
    """Predicted similarity per pair, in task order; with a flow, scored
    in its latent space after one pass over all unique embeddings."""
    def embed(sentences):
        embs = encode_many(model, sentences, pool)
        return embs if flow is None else flow_forward(flow, embs)[0]

    return score_pairs(embed, task, metric)


def _correlate(task: StsTask, preds) -> tuple[float, float]:
    golds = np.array([p.gold for p in task.pairs])
    try:
        return 100.0 * pearson(preds, golds), 100.0 * spearman(preds, golds)
    except (ConstantInputError, DataError) as exc:
        raise type(exc)(f"task {task.name!r}: {exc}") from exc


def evaluate_task(model: EncoderModel, task: StsTask, pool: PoolingSpec,
                  flow=None, metric: str = "cosine") -> tuple[float, float]:
    """(pearson_x100, spearman_x100) of predictions against gold."""
    return _correlate(task, predict_scores(model, task, pool, flow, metric))


def score_suite(tasks: list[StsTask], predict,
                metadata: dict | None = None) -> CorrelationReport:
    """Correlate `predict(task)` with gold per task; failures are recorded,
    not fatal. The average is the unweighted mean over the tasks that
    evaluated successfully."""
    if len(tasks) == 0:
        raise DataError("suite needs at least one task")
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise DataError("task names must be unique within a suite")
    per_task: dict[str, TaskResult] = {}
    failed: dict[str, str] = {}
    for task in tasks:
        try:
            p, s = _correlate(task, predict(task))
            per_task[task.name] = TaskResult(p, s, len(task.pairs))
        except (ConstantInputError, DataError) as exc:
            failed[task.name] = str(exc)
    if per_task:
        avg_p = float(np.mean([r.pearson_x100 for r in per_task.values()]))
        avg_s = float(np.mean([r.spearman_x100 for r in per_task.values()]))
    else:
        avg_p = avg_s = float("nan")
    return CorrelationReport(per_task, avg_p, avg_s,
                             metadata=dict(metadata or {}), failed=failed)


def evaluate_suite(model: EncoderModel, tasks: list[StsTask],
                   pool: PoolingSpec, flow=None, metric: str = "cosine",
                   metadata: dict | None = None) -> CorrelationReport:
    """Evaluate every task with `model` (and `flow`); see `score_suite`.
    An unknown `metric` raises before any sentence is embedded."""
    if metric not in METRICS:
        raise DataError(f"unknown similarity metric: {metric!r}")
    meta = {"pool_k": pool.k, "flow": flow is not None, **(metadata or {})}
    return score_suite(
        tasks, lambda t: predict_scores(model, t, pool, flow, metric), meta)


def load_sts_tsv(path) -> StsTask:
    """Parse sentence1 TAB sentence2 TAB gold lines into a task.

    Lines starting with '#' and blank lines are skipped. Malformed or
    out-of-range lines are collected and reported in the raised error
    only when no line at all is usable; otherwise they are attached to
    the returned task via the module-level `last_load_errors` list.
    """
    path = str(path)
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    pairs: list[ScoredPair] = []
    bad: list[str] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split("\t")
        if len(cells) != 3:
            bad.append(f"line {lineno}: expected 3 tab-separated fields")
            continue
        s1, s2, g = cells
        try:
            gold = float(g)
        except ValueError:
            bad.append(f"line {lineno}: gold {g!r} is not a number")
            continue
        if not (0.0 <= gold <= 5.0):
            bad.append(f"line {lineno}: gold {gold} outside [0, 5]")
            continue
        pairs.append(ScoredPair(s1, s2, gold))
    global last_load_errors
    last_load_errors = bad
    if not pairs:
        detail = "; ".join(bad) if bad else "file is empty"
        raise DataError(f"no valid lines in {path}: {detail}")
    import os
    name = os.path.splitext(os.path.basename(path))[0]
    return StsTask(name=name, pairs=tuple(pairs))


last_load_errors: list[str] = []


def write_report_csv(report: CorrelationReport, path) -> None:
    """CSV with task, pearson_x100, spearman_x100 rows plus an Avg. row.

    Values are rounded to 2 decimals here and only here. A JSON sidecar
    at `path` + ".meta.json" carries the metadata and failure list.
    """
    path = str(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "pearson_x100", "spearman_x100"])
        for name, res in report.per_task.items():
            writer.writerow([name, f"{res.pearson_x100:.2f}",
                             f"{res.spearman_x100:.2f}"])
        writer.writerow(["Avg.", f"{report.average_pearson_x100:.2f}",
                         f"{report.average_spearman_x100:.2f}"])
    sidecar = {
        "metadata": report.metadata,
        "failed": report.failed,
        "partial": report.partial,
        "n_tasks": len(report.per_task),
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
