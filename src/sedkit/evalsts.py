"""STS evaluation: dataset loading, pair scoring, correlation reports.

One scorer serves a model, a model+flow and a full ensemble: per task,
`score_pairs` embeds both sides of every pair in one call, in which the
encoder runs each distinct sentence once, and scores every pair by
cosine (in the flow's latent space when there is one); `score_suite`
builds the `CorrelationReport`. A report holds only what was measured;
what was scored, and with which checkpoints, is recorded by the caller's
manifest.

Correlations are computed from scratch (sample Pearson; Spearman as
Pearson over fractional average ranks) and reported in the conventional
x100 format. Constant or non-finite inputs raise instead of returning a
number, so a collapsed model is visible in the report rather than
hidden by it.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .checkpoint import csv_text, read_tsv
from .encoder import EncoderModel, PoolingSpec, encode_many
from .errors import ConstantInputError, DataError, ShapeMismatchError
from .flow import flow_forward

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

    def __post_init__(self):
        if len(self.pairs) == 0:
            raise DataError(f"task {self.name!r} has no pairs")


@dataclass
class TaskResult:
    pearson_x100: float
    spearman_x100: float


@dataclass
class CorrelationReport:
    """Per-task correlations and their unweighted mean.

    `failed` maps task names to error messages; a non-empty dict marks
    the report partial. Raw (unrounded) values live here; rounding to
    two decimals happens only when writing CSV.
    """

    per_task: dict[str, TaskResult]
    average_pearson_x100: float
    average_spearman_x100: float
    failed: dict[str, str]


def cosine(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ShapeMismatchError(f"cosine shapes {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        warnings.warn("zero-norm vector in cosine; returning 0")
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


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
    _, inverse, counts = np.unique(xs, return_inverse=True,
                                   return_counts=True)
    # a value filling sorted positions i..j (0-based) has j + 1 = ends
    # and j - i + 1 = counts, so it shares rank mean(i+1 .. j+1)
    ends = np.cumsum(counts)
    return (0.5 * (2 * ends - counts - 1) + 1.0)[inverse]


def spearman(xs, ys) -> float:
    xs, ys = _check_pair(xs, ys)
    return pearson(fractional_ranks(xs), fractional_ranks(ys))


def score_pairs(embed, task: StsTask) -> np.ndarray:
    """Cosine similarity per pair, in task order. `embed` maps sentences
    to an (n, D) array; it is given both sides of every pair in pair
    order, so a task is one call and a repeated sentence is encoded once
    within it (see `encoder.encode_batch`)."""
    embs = embed([s for p in task.pairs
                  for s in (p.sentence_1, p.sentence_2)])
    return np.array([cosine(u, v) for u, v in zip(embs[0::2], embs[1::2])])


def predict_scores(model: EncoderModel, task: StsTask, pool: PoolingSpec,
                   flow=None) -> np.ndarray:
    """Predicted cosine similarity per pair, in task order; with a flow,
    scored in its latent space after one pass over the task's embeddings."""
    def embed(sentences):
        embs = encode_many(model, sentences, pool)
        return embs if flow is None else flow_forward(flow, embs)[0]

    return score_pairs(embed, task)


def _correlate(task: StsTask, preds) -> tuple[float, float]:
    golds = np.array([p.gold for p in task.pairs])
    try:
        return 100.0 * pearson(preds, golds), 100.0 * spearman(preds, golds)
    except (ConstantInputError, DataError) as exc:
        raise type(exc)(f"task {task.name!r}: {exc}") from exc


def evaluate_task(model: EncoderModel, task: StsTask,
                  pool: PoolingSpec) -> tuple[float, float]:
    """(pearson_x100, spearman_x100) of `model`'s cosine scores against
    gold; `evaluate_suite` also scores with a flow."""
    return _correlate(task, predict_scores(model, task, pool))


def score_suite(tasks: list[StsTask], predict) -> CorrelationReport:
    """Correlate `predict(task)` with gold per task; failures are recorded,
    not fatal unless no task evaluates (`DataError` naming each failure).
    The average is the unweighted mean over the tasks that evaluated
    successfully."""
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
            per_task[task.name] = TaskResult(p, s)
        except (ConstantInputError, DataError) as exc:
            failed[task.name] = str(exc)
    if not per_task:
        raise DataError("no task evaluated: " + "; ".join(failed.values()))
    avg_p = float(np.mean([r.pearson_x100 for r in per_task.values()]))
    avg_s = float(np.mean([r.spearman_x100 for r in per_task.values()]))
    return CorrelationReport(per_task, avg_p, avg_s, failed)


def evaluate_suite(model: EncoderModel, tasks: list[StsTask],
                   pool: PoolingSpec, flow=None) -> CorrelationReport:
    """Evaluate every task with `model` (and `flow`); see `score_suite`."""
    return score_suite(tasks, lambda t: predict_scores(model, t, pool, flow))


def load_sts_tsv(path) -> StsTask:
    """The task in a sentence1 TAB sentence2 TAB gold file, named after
    the file's stem. Blank and '#' lines are skipped; the first line that
    is not 3 fields with a gold number in [0, 5] raises `DataError`
    naming the path and the line (see `checkpoint.read_tsv`)."""
    pairs = read_tsv(path, lambda s1, s2, g: ScoredPair(s1, s2, float(g)))
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return StsTask(name=name, pairs=tuple(pairs))


def report_files(report: CorrelationReport) -> dict[str, str]:
    """`report.csv` (task, pearson_x100, spearman_x100 rows plus an Avg.
    row) and its sidecar `report.csv.meta.json`, which carries the
    failed tasks' messages, as file name -> text. Values are rounded to
    2 decimals here and only here."""
    rows = [[name, f"{res.pearson_x100:.2f}", f"{res.spearman_x100:.2f}"]
            for name, res in report.per_task.items()]
    return {"report.csv": csv_text(
                [["task", "pearson_x100", "spearman_x100"], *rows,
                 ["Avg.", f"{report.average_pearson_x100:.2f}",
                  f"{report.average_spearman_x100:.2f}"]]),
            "report.csv.meta.json": json.dumps(
                {"failed": report.failed}, indent=2, sort_keys=True) + "\n"}
