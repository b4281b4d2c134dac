"""Experiment orchestration: pipelines, distillation, stability, search.

`run_pipeline(cfg, bundle)` runs the config's `[run] stages`, an ordered
list over {pretrain, nli, ct, sed, flow} that starts with pretrain
(`RunSection` checks the order), so the config alone describes a run.
The base encoder is shared; ensemble members differ only in the seed of
their objective stage (data order plus any stage-specific init). Every
trainer, distillation targets included, pools the final layer
(`TRAIN_POOL`, k=1) while evaluation pools `[eval] pool_k` layers. The
teachers are frozen, so `train_sed` computes their targets once per call.

Every run derives its stage seeds from one master seed through
SeedSequence spawn keys, and emits a manifest (config text, seeds, input
and checkpoint hashes) sufficient to reproduce it bit-identically. Text
inputs are hashed as read, the same in `run_pipeline` and the CLI: the
corpus by its lines (`_hash_lines`), an STS task by its name and pairs
(`_hash_task`), NLI pairs by their fields (`_hash_nli`). Checkpoint
inputs are hashed by their file bytes. `run_pipeline` saves each
checkpoint once, as its stage completes, and writes one manifest when
the run ends, a failed run (`failed_stage`, `error`) included.

Each stage has one function (`pretrain_stage`, `member_stage`,
`distill_stage`, `flow_stage`, `supervised_stage`) that derives its
seeds from `cfg.run.seed`, trains from its config section without
touching its inputs, and returns the artifact with the seeds a manifest
records; `run_pipeline`, the CLI and `stability_study` all use them.
The first two train on the same `[data] corpus_size` corpus sample.

Runs that share nothing but their inputs (grid cells, the members of
one stage, stability members and students) go through `_run_each`,
which spreads them over one forked worker process per usable CPU and
returns what running them in turn would.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .checkpoint import (checkpoint_hash, csv_text, save_checkpoint,
                         write_atomic)
from .config import RunConfig, render_config
from .encoder import (TRAIN_POOL, EncoderModel, PoolingSpec, encode_batch,
                      encode_many, pretrain_base)
from .errors import (ConstantInputError, DataError, DivergenceError,
                     ShapeMismatchError)
from .evalsts import (CorrelationReport, StsTask, evaluate_suite,
                      evaluate_task, score_pairs, score_suite)
from .flow import CouplingFlow, fit_flow
from .objectives import (EnsembleSpec, NliHead, RegressionTargetMap,
                         ensemble_mean_embeddings, nli_siamese_loss,
                         sample_ct_batches, sed_loss, ct_loss,
                         sts_regression_loss)

_ROLE_IDS = {
    "pretrain": 0,
    "nli": 1,
    "ct": 2,
    "sed": 3,
    "flow": 4,
    "supervised": 5,
    "grid": 6,
}


def derive_seed(master: int, role: str, index: int) -> int:
    """Stable per-(role, index) seed; independent streams per stage."""
    ss = np.random.SeedSequence(master, spawn_key=(_ROLE_IDS[role], index))
    return int(ss.generate_state(1)[0])


def _recorded(fn, job: tuple):
    """`fn(*job)` and the warnings it raised, to be issued again."""
    with warnings.catch_warnings(record=True) as caught:
        result = fn(*job)
    return result, [(w.message, w.category, w.filename, w.lineno)
                    for w in caught]


def _reissued(result, caught: list):
    """`result`, after issuing again the warnings its job raised."""
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno)
    return result


def _run_each(fn, jobs: list[tuple], seeds: list[int]) -> list:
    """`[fn(*job) for job in jobs]`, run in one worker process per usable
    CPU (`os.sched_getaffinity`), at most one per job.

    The workers are forked, so they start from this process's state and
    hash seed; with seeds derived by the caller, each result is the one
    the job gives in this process. With one worker, or where the usable
    CPUs are unknown or processes cannot fork, the jobs run here in
    turn. Either way the warnings a job raises are issued here after the
    job, in job order. A job's exception reaches the caller with its own
    type; a worker that dies is a `ChildProcessError` naming the first
    unfinished job and its seed.
    """
    usable = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
              else ())
    workers = min(len(jobs), len(usable))
    if workers > 1:
        # imported here, not at the top, so importing sedkit stays fast
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            return _run_forked(fn, jobs, seeds,
                               multiprocessing.get_context("fork"), workers)
    return [_reissued(*_recorded(fn, job)) for job in jobs]


def _run_forked(fn, jobs: list[tuple], seeds: list[int], context,
                workers: int) -> list:
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # a worker flushes the stdio buffers it was forked with as it exits;
    # multiprocessing empties them before forking too, but privately
    sys.stdout.flush()
    sys.stderr.flush()
    results = []
    with ProcessPoolExecutor(workers, context) as pool:
        futures = [pool.submit(_recorded, fn, job) for job in jobs]
        try:
            for future in futures:
                results.append(_reissued(*future.result()))
        except BrokenProcessPool:
            i = len(results)
            raise ChildProcessError(
                f"a worker process died before job {i} of {len(jobs)} "
                f"(seed {seeds[i]}) finished") from None
        finally:
            for future in futures:
                future.cancel()
    return results


@dataclass
class DataBundle:
    corpus: list[str]
    tasks: list[StsTask]
    nli: list | None = None

    def __post_init__(self):
        if not self.corpus:
            raise DataError("empty corpus")
        if not self.tasks:
            raise DataError("no evaluation tasks")


@dataclass
class PipelineResult:
    models: dict
    report: CorrelationReport
    manifest: dict


def _hash_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _hash_task(task: StsTask) -> str:
    return _hash_lines([task.name] + [f"{p.sentence_1}\t{p.sentence_2}\t"
                                      f"{p.gold!r}" for p in task.pairs])


def _hash_nli(pairs) -> str:
    return _hash_lines([f"{p.premise}\t{p.hypothesis}\t{p.label}"
                        for p in pairs])


def train_ct(base: EncoderModel, corpus: list[str], cfg, seed: int) -> EncoderModel:
    """Contrastive tension from a shared init; the second model is kept.

    Two clones of `base` encode the two sides of each pair; RMSProp with
    a linearly decaying learning rate drives the dot-product logits. The
    kept model is copied out of the optimizer's buffers, which also hold
    the discarded model and both gradients.
    """
    model_a = base.clone()
    model_b = base.clone()
    batches = sample_ct_batches(corpus, cfg.negatives_per_positive,
                                cfg.batch, seed)
    dc.train(dc.RMSProp(model_a.parameters() + model_b.parameters()),
             itertools.islice(batches, cfg.steps),
             lambda b: ct_loss(model_a, model_b, b),
             dc.LinearDecay(cfg.start_lr, cfg.end_lr, cfg.steps).lr)
    return model_b.clone()


def train_nli(base: EncoderModel, pairs, cfg, seed: int) -> EncoderModel:
    """Siamese three-way NLI fine-tuning; the classifier head is dropped."""
    if not pairs:
        raise DataError("no NLI pairs")
    model = base.clone()
    head_seed, data_seed = derive_seed(seed, "nli", 0), derive_seed(seed, "nli", 1)
    head = NliHead.init(model.arch.hidden, head_seed)
    opt = dc.Adam(model.parameters() + head.parameters())
    sched = dc.WarmupThenConstant(cfg.peak_lr, cfg.steps, cfg.warmup_fraction)
    rng = np.random.default_rng(data_seed)
    dc.train(opt, dc.sample_batches(rng, len(pairs), cfg.batch, cfg.steps),
             lambda idx: nli_siamese_loss(model, head,
                                          [pairs[i] for i in idx]),
             sched.lr)
    return model


def train_sed(ensemble: EnsembleSpec, corpus: list[str], cfg, seed: int,
              student: EncoderModel) -> EncoderModel:
    """Distill the frozen ensemble mean into `student` by MSE.

    Targets are the k=1 pooled mean embeddings of the members, computed
    once per call for the whole corpus and indexed per batch (a row
    depends on its sentence alone, so this equals computing them per
    batch); Adam with linear warm-up over the first tenth of the step
    budget. Zero epochs leave the student bit-identical to its
    initialization.
    """
    if student.arch != ensemble.members[0].arch:
        raise ShapeMismatchError(
            f"student arch {student.arch} does not match teacher arch "
            f"{ensemble.members[0].arch}"
        )
    if not corpus:
        raise DataError("empty distillation corpus")
    total_steps = dc.finite_step_count(len(corpus), cfg.batch, cfg.epochs)
    sched = dc.WarmupThenConstant(cfg.peak_lr, total_steps, cfg.warmup_fraction)
    targets = ensemble_mean_embeddings(ensemble, corpus, TRAIN_POOL)
    dc.train(dc.Adam(student.parameters()),
             dc.epoch_batches(np.random.default_rng(seed), len(corpus),
                              cfg.batch, cfg.epochs),
             lambda idx: sed_loss(targets[idx],
                                  encode_batch(student,
                                               [corpus[i] for i in idx],
                                               TRAIN_POOL)),
             sched.lr)
    return student


def full_ensemble_predict(ensemble: EnsembleSpec, tasks: list[StsTask],
                          pool: PoolingSpec) -> CorrelationReport:
    """Score pairs with the mean embedding of all members under `pool`."""
    embed = functools.partial(ensemble_mean_embeddings, ensemble, pool=pool)
    return score_suite(tasks, lambda t: score_pairs(embed, t))


def pretrain_stage(cfg: RunConfig, corpus: list[str]) -> tuple[EncoderModel, int]:
    """Stage `pretrain`: a base encoder of the configured arch."""
    seed = derive_seed(cfg.run.seed, "pretrain", 0)
    return pretrain_base(corpus, cfg.arch, cfg.pretrain, seed), seed


def member_stage(kind: str, cfg: RunConfig, base: EncoderModel, data,
                 index: int) -> tuple[EncoderModel, int]:
    """Stage `ct` (data: a corpus) or `nli` (data: NLI pairs): ensemble
    member `index`, fine-tuned from `base`."""
    seed = derive_seed(cfg.run.seed, kind, index)
    if kind == "ct":
        return train_ct(base, data, cfg.ct, seed), seed
    return train_nli(base, data, cfg.nli, seed), seed


def distill_stage(cfg: RunConfig, teachers: list[EncoderModel],
                  corpus: list[str], init: EncoderModel,
                  index: int = 0) -> tuple[EncoderModel, int]:
    """Stage `sed`: a student started from a copy of `init`, distilled
    from the mean of `teachers`; `index` numbers repeated runs."""
    seed = derive_seed(cfg.run.seed, "sed", index)
    return train_sed(EnsembleSpec(teachers), corpus, cfg.sed, seed,
                     init.clone()), seed


def flow_stage(cfg: RunConfig, model: EncoderModel,
               corpus: list[str]) -> tuple[CouplingFlow, list[int]]:
    """Stage `flow`: a flow fitted to the evaluation-pooled embeddings
    of `corpus` under `model`."""
    seeds = [derive_seed(cfg.run.seed, "flow", 0),
             derive_seed(cfg.run.seed, "flow", 1)]
    embs = encode_many(model, corpus, PoolingSpec(cfg.eval.pool_k))
    return fit_flow(embs, cfg.flow, seeds[0], seeds[1]), seeds


def sample_corpus(lines: list[str], count: int, seed: int) -> list[str]:
    """A uniform sample of `count` distinct lines of `lines` (no line
    drawn twice), drawn by `seed`. Sentence text is kept exactly."""
    if count <= 0:
        raise DataError("sample count must be positive")
    if count > len(lines):
        raise DataError(
            f"asked for {count} of {len(lines)} lines without replacement")
    idx = np.random.default_rng(seed).choice(len(lines), size=count,
                                              replace=False)
    return [lines[int(i)] for i in idx]


def _sized_corpus(cfg: RunConfig, lines: list[str]) -> list[str]:
    """A `[data] corpus_size` sample of `lines` drawn by `run.seed`, or
    all of them when that size is 0 or not below their number."""
    size = cfg.data.corpus_size
    if size and size < len(lines):
        return sample_corpus(lines, size, cfg.run.seed)
    return lines


def run_pipeline(cfg: RunConfig, bundle: DataBundle,
                 out_dir=None) -> PipelineResult:
    """Execute `cfg.run.stages` in order and evaluate the final model:
    the student if there is one, else member 0, else the base.

    With `out_dir`, the directory is made before the first stage, each
    artifact is saved as `{name}.ckpt` as its stage completes, and
    `manifest.json` is written when the run ends, however it ends. A
    run that raises (a stage, or the final evaluation as stage
    `evaluate`) records `failed_stage` and `error` in it and raises the
    same exception; its `checkpoints` name exactly the files saved.
    """
    master, stages = cfg.run.seed, cfg.run.stages
    corpus = _sized_corpus(cfg, bundle.corpus)
    n_members = cfg.sed.members if "sed" in stages else 1
    seeds: dict = {}
    checkpoints: dict = {}
    manifest: dict = {
        "stages": list(stages),
        "config_text": render_config(cfg),
        "master_seed": master,
        "derived_seeds": seeds,
        "input_hashes": {
            "corpus": _hash_lines(bundle.corpus),
            "tasks": {t.name: _hash_task(t) for t in bundle.tasks},
        },
        "checkpoints": checkpoints,
        "completed_stages": [],
    }
    models: dict = {}
    members: list[EncoderModel] = []
    final = flow_model = current = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    def keep(key: str, model) -> None:
        models[key] = model
        checkpoints[key] = (
            checkpoint_hash(model) if out_dir is None else
            save_checkpoint(model, os.path.join(out_dir, f"{key}.ckpt")))

    try:
        for current in stages:
            if current == "pretrain":
                base, seeds["pretrain"] = pretrain_stage(cfg, corpus)
                keep("base", base)
                final = base
            elif current in ("nli", "ct"):
                if current == "nli":
                    if bundle.nli is None:
                        raise DataError(
                            "nli stage needs NLI pairs in the bundle")
                    manifest["input_hashes"]["nli"] = _hash_nli(bundle.nli)
                data = corpus if current == "ct" else bundle.nli
                sources = members if members else [base] * n_members
                trained = _run_each(
                    member_stage,
                    [(current, cfg, src, data, i)
                     for i, src in enumerate(sources)],
                    [derive_seed(master, current, i)
                     for i in range(len(sources))])
                members = [m for m, _ in trained]
                seeds[current] = [s for _, s in trained]
                for i, m in enumerate(members):
                    keep(f"member_{i}", m)
                final = members[0]
            elif current == "sed":
                init = cfg.sed.student_init
                source = (base if init == "base"
                          else members[int(init.split(":", 1)[1])])
                final, seeds["sed"] = distill_stage(cfg, members, corpus,
                                                    source)
                keep("student", final)
            elif current == "flow":
                flow_model, seeds["flow"] = flow_stage(cfg, final, corpus)
                keep("flow", flow_model)
            manifest["completed_stages"].append(current)
        current = "evaluate"
        report = evaluate_suite(final, bundle.tasks,
                                PoolingSpec(cfg.eval.pool_k), flow=flow_model)
        manifest["report"] = {
            "average_pearson_x100": report.average_pearson_x100,
            "average_spearman_x100": report.average_spearman_x100,
            "per_task": {name: dataclasses.asdict(r)
                         for name, r in report.per_task.items()},
        }
    except BaseException as exc:
        manifest["failed_stage"] = current
        manifest["error"] = str(exc) or type(exc).__name__
        raise
    finally:
        if out_dir is not None:
            write_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    models["final"] = final
    return PipelineResult(models, report, manifest)


def write_manifest(manifest: dict, path) -> None:
    """`manifest` as sorted JSON; a non-finite number is a `ValueError`,
    so no manifest holds one."""
    text = json.dumps(manifest, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    write_atomic(path, text.encode("utf-8"))


@dataclass(frozen=True)
class StabilityReport:
    """Spread statistics for one group of per-run average Spearmans.

    `std` is the population standard deviation (divide by n); the
    estimator choice is restated in the CSV header.
    """

    name: str
    values: tuple[float, ...]
    count: int
    max: float
    mean: float
    std: float

    @classmethod
    def from_values(cls, name: str, values) -> "StabilityReport":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise DataError(f"stability group {name!r} has no completed runs")
        arr = np.array(vals)
        return cls(name, vals, len(vals), float(arr.max()),
                   float(arr.mean()), float(arr.std()))


def stability_study(base: EncoderModel, corpus: list[str],
                    tasks: list[StsTask], cfg: RunConfig
                    ) -> tuple[dict[str, StabilityReport], dict]:
    """Members vs full ensemble vs repeated distillation runs.

    Trains `sed.members` contrastive members from `base`, then
    `stability.runs` distillation students over fresh seeds from one
    master seed. Failed runs are excluded with a warning; statistics
    cover the completed runs only. Returns the three groups keyed by
    name, and the derived seeds (`ct` per member, `sed` per run, failed
    runs included).
    """
    ct_seeds = [derive_seed(cfg.run.seed, "ct", i)
                for i in range(cfg.sed.members)]
    scored = _run_each(_scored_member,
                       [(cfg, base, corpus, tasks, i)
                        for i in range(cfg.sed.members)], ct_seeds)
    members = [m for m, _ in scored]
    ensemble_score = _average_spearman(full_ensemble_predict(
        EnsembleSpec(members), tasks, PoolingSpec(cfg.eval.pool_k)))
    sed_seeds = [derive_seed(cfg.run.seed, "sed", r)
                 for r in range(cfg.stability.runs)]
    student_scores = _run_each(_scored_student,
                               [(cfg, members, corpus, base, tasks, r)
                                for r in range(cfg.stability.runs)],
                               sed_seeds)
    return {
        "members": StabilityReport.from_values(
            "members", [score for _, score in scored]),
        "full_ensemble": StabilityReport.from_values("full_ensemble",
                                                     [ensemble_score]),
        "students": StabilityReport.from_values(
            "students", [v for v in student_scores if v is not None]),
    }, {"ct": ct_seeds, "sed": sed_seeds}


def _average_spearman(report: CorrelationReport) -> float:
    if report.failed:
        raise ConstantInputError("; ".join(report.failed.values()))
    return report.average_spearman_x100


def _scored_member(cfg: RunConfig, base: EncoderModel, corpus: list[str],
                   tasks: list[StsTask],
                   index: int) -> tuple[EncoderModel, float]:
    """Stability member `index` and its average Spearman."""
    member, _ = member_stage("ct", cfg, base, corpus, index)
    return member, _average_spearman(
        evaluate_suite(member, tasks, PoolingSpec(cfg.eval.pool_k)))


def _scored_student(cfg: RunConfig, members: list[EncoderModel],
                    corpus: list[str], base: EncoderModel,
                    tasks: list[StsTask], run: int) -> float | None:
    """The average Spearman of stability run `run`'s student, or None,
    with a warning, when the run failed."""
    try:
        student, _ = distill_stage(cfg, members, corpus, base, run)
        return _average_spearman(
            evaluate_suite(student, tasks, PoolingSpec(cfg.eval.pool_k)))
    except (DataError, ConstantInputError, DivergenceError) as exc:
        warnings.warn(f"stability run {run} failed and was excluded: {exc}")
        return None


def stability_csv(reports: dict[str, StabilityReport]) -> str:
    return csv_text(
        [["group", "runs", "max", "mean", "std", "values"]] + [
            [name, rep.count, f"{rep.max:.2f}", f"{rep.mean:.2f}",
             f"{rep.std:.2f}", ";".join(f"{v:.2f}" for v in rep.values)]
            for name, rep in reports.items()],
        "std is the population standard deviation (divide by n)")


@dataclass(frozen=True)
class GridSearchResult:
    bounds: tuple[float, ...]
    scores_by_bound: dict  # bound -> tuple of dev spearman x100 per seed
    mean_by_bound: dict  # bound -> mean over completed cells
    selected_bound: float
    seeds: tuple[int, ...]  # one per cell, bound-major, failed cells too


def _train_regression(model: EncoderModel, pairs, target_map, cfg,
                      seed: int) -> EncoderModel:
    """`model` after `cfg.steps` Adam steps of STS regression on random
    batches of `cfg.batch` pairs at `cfg.lr`; `cfg` is a `[grid]`
    section."""
    dc.train(dc.Adam(model.parameters()),
             dc.sample_batches(np.random.default_rng(seed), len(pairs),
                               cfg.batch, cfg.steps),
             lambda idx: sts_regression_loss(model, [pairs[i] for i in idx],
                                             target_map),
             cfg.lr)
    return model


def grid_search_lower_bound(base: EncoderModel, train_pairs, dev_task: StsTask,
                            bounds, seeds_per_bound: int, cfg,
                            master_seed: int) -> GridSearchResult:
    """Sweep regression target lower bounds against dev Spearman.

    Per bound, `seeds_per_bound` models are fine-tuned from `base` and
    scored on the dev task, both with `TRAIN_POOL`; the bound with the
    highest mean wins, ties going to the smaller bound. Failed cells are
    excluded; a bound with no completed cells drops out of the selection;
    an out-of-range or repeated bound fails before any cell trains.
    """
    # the section rebuilt with the pair checks each bound as it checks
    # `[grid] bounds`: in range, at least one, none repeated
    cfg = dataclasses.replace(cfg, bounds=tuple(bounds),
                              seeds_per_bound=seeds_per_bound)
    bounds, seeds_per_bound = cfg.bounds, cfg.seeds_per_bound
    target_maps = [RegressionTargetMap(b) for b in bounds]
    if not train_pairs:
        raise DataError("no training pairs")
    seeds = [derive_seed(master_seed, "grid", i)
             for i in range(len(bounds) * seeds_per_bound)]
    dev_scores = _run_each(
        _grid_cell,
        [(base, train_pairs, target_map, cfg, dev_task, s,
          seeds[bi * seeds_per_bound + s])
         for bi, target_map in enumerate(target_maps)
         for s in range(seeds_per_bound)], seeds)
    scores: dict[float, tuple] = {}
    means: dict[float, float] = {}
    for bi, bound in enumerate(bounds):
        cells = dev_scores[bi * seeds_per_bound:(bi + 1) * seeds_per_bound]
        scores[bound] = tuple(v for v in cells if v is not None)
        if scores[bound]:
            means[bound] = float(np.mean(scores[bound]))
    if not means:
        raise DataError("every grid cell failed")
    return GridSearchResult(bounds, scores, means, select_bound(means),
                            tuple(seeds))


def _grid_cell(base: EncoderModel, train_pairs, target_map, cfg,
               dev_task: StsTask, s: int, seed: int) -> float | None:
    """The dev Spearman of seed `s` of one bound, or None, with a
    warning, when the cell failed."""
    try:
        model = _train_regression(base.clone(), train_pairs, target_map, cfg,
                                  seed)
        _, dev_s = evaluate_task(model, dev_task, TRAIN_POOL)
        return dev_s
    except (DataError, ConstantInputError, DivergenceError) as exc:
        warnings.warn(f"grid cell bound={target_map.lower_bound} seed#{s} "
                      f"failed: {exc}")
        return None


def select_bound(means: dict) -> float:
    """Bound with the highest mean dev score, ties to the smaller bound."""
    return max(sorted(means), key=means.__getitem__)


def grid_csv(result: GridSearchResult) -> str:
    rows = [["bound", "mean_dev_spearman", "values"]]
    for bound in result.bounds:
        cells = result.scores_by_bound.get(bound, ())
        mean = result.mean_by_bound.get(bound)
        rows.append([bound, "" if mean is None else f"{mean:.2f}",
                     ";".join(f"{v:.2f}" for v in cells)])
    rows.append(["selected", result.selected_bound, ""])
    return csv_text(rows, "selection rule: max mean dev spearman, ties to "
                    "the smaller bound")


def train_supervised_with_early_stopping(
    model: EncoderModel, train_pairs, dev_task: StsTask, cfg, seed: int,
) -> tuple[EncoderModel, list[float]]:
    """Epoch-wise regression toward gold mapped onto a `[supervised]`
    section's [lower_bound, 1], with dev-Spearman early stopping; training
    and the dev score both pool with `TRAIN_POOL`.

    Epochs run through `diffcore.train_best` scored by the dev Spearman,
    which stops after `patience` epochs in a row without improvement and
    restores the best-dev parameters: the returned model matches the
    maximum of the returned trajectory, the per-epoch dev scores.
    """
    if not train_pairs:
        raise DataError("no training pairs")
    train_texts = {(p.sentence_1, p.sentence_2) for p in train_pairs}
    train_texts |= {(b, a) for a, b in train_texts}
    overlap = [
        p for p in dev_task.pairs
        if (p.sentence_1, p.sentence_2) in train_texts
    ]
    if overlap:
        raise DataError(
            f"dev task shares {len(overlap)} pairs with the training set"
        )
    target_map = RegressionTargetMap(cfg.lower_bound)
    rng = np.random.default_rng(seed)
    return model, dc.train_best(
        dc.Adam(model.parameters()), cfg.max_epochs,
        lambda: dc.epoch_batches(rng, len(train_pairs), cfg.batch),
        lambda idx: sts_regression_loss(
            model, [train_pairs[i] for i in idx], target_map),
        cfg.lr, lambda: evaluate_task(model, dev_task, TRAIN_POOL)[1],
        -np.inf, cfg.patience)


def supervised_stage(cfg: RunConfig, model: EncoderModel, train_pairs,
                     dev_task: StsTask
                     ) -> tuple[EncoderModel, list[float], int]:
    """Regression fine-tuning of a copy of `model` with dev early
    stopping; returns the model, its dev trajectory and its seed."""
    seed = derive_seed(cfg.run.seed, "supervised", 0)
    trained, trajectory = train_supervised_with_early_stopping(
        model.clone(), train_pairs, dev_task, cfg.supervised, seed)
    return trained, trajectory, seed


def pooling_ablation(models: dict[str, EncoderModel],
                     tasks: list[StsTask]) -> dict[str, dict[int, float]]:
    """Average Spearman x100 per model under k in {1, 2, 3}."""
    table: dict[str, dict[int, float]] = {}
    for name, model in models.items():
        if model.arch.layers < 2:
            raise DataError(
                f"model {name!r} is too shallow for k=3 pooling"
            )
        table[name] = {k: _average_spearman(
            evaluate_suite(model, tasks, PoolingSpec(k))) for k in (1, 2, 3)}
    return table


def ablation_csv(table: dict[str, dict[int, float]]) -> str:
    """The table as CSV; a model name holding a comma or quote is quoted."""
    return csv_text([["model", "k1", "k2", "k3"]] + [
        [name] + [f"{row[k]:.2f}" for k in (1, 2, 3)]
        for name, row in table.items()])
