"""Experiment orchestration: pipelines, distillation, stability, search.

A pipeline is an ordered stage list over {pretrain, nli, ct, sed, flow}.
The base encoder is shared; ensemble members differ only in the seed of
their objective stage (data order plus any stage-specific init). Target
generation for distillation pools the final layer (k=1) while evaluation
defaults to pooling the final two layers (k=2).

Every run derives its stage seeds from one master seed through
SeedSequence spawn keys, and emits a manifest (config text, seeds, input
and checkpoint hashes) sufficient to reproduce it bit-identically.

Each stage has one function (`pretrain_stage`, `member_stage`,
`distill_stage`, `flow_stage`, `supervised_stage`) that derives its
seeds from `cfg.run.seed`, builds its runtime configs, trains without
touching its inputs, and returns the artifact with the seeds a manifest
records; `run_pipeline`, the CLI and `stability_study` all use them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .checkpoint import checkpoint_hash, save_checkpoint
from .config import STAGE_NAMES, RunConfig, render_config, validate_config
from .encoder import (EncoderArch, EncoderModel, PoolingSpec, PretrainConfig,
                      encode_batch, encode_many, pretrain_base)
from .errors import ConfigError, ConstantInputError, DataError, ShapeMismatchError
from .evalsts import (CorrelationReport, StsTask, evaluate_suite,
                      evaluate_task, score_pairs, score_suite)
from .flow import CouplingFlow, FlowFitConfig, fit_flow
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
    "stability": 7,
}

TRAIN_POOL = PoolingSpec(1)


def derive_seed(master: int, role: str, index: int = 0) -> int:
    """Stable per-(role, index) seed; independent streams per stage."""
    ss = np.random.SeedSequence(master, spawn_key=(_ROLE_IDS[role], index))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class PipelineSpec:
    stages: tuple[str, ...]
    config: RunConfig

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("pipeline needs at least one stage")
        for s in self.stages:
            if s not in STAGE_NAMES:
                raise ConfigError(f"unknown stage {s!r}")
        if len(set(self.stages)) != len(self.stages):
            raise ConfigError("duplicate pipeline stages")
        if "flow" in self.stages and self.stages[-1] != "flow":
            raise ConfigError("flow must be the last stage")
        if "pretrain" in self.stages and self.stages[0] != "pretrain":
            raise ConfigError("pretrain must come first")
        if "sed" in self.stages:
            before = self.stages[: self.stages.index("sed")]
            if not any(s in ("nli", "ct") for s in before):
                raise ConfigError(
                    "sed needs an ensemble from a preceding nli or ct stage"
                )
        validate_config(self.config)

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "PipelineSpec":
        return cls(tuple(cfg.run.stages), cfg)


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


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hash_task(task: StsTask) -> str:
    lines = [f"{p.sentence_1}\t{p.sentence_2}\t{p.gold!r}" for p in task.pairs]
    return _hash_text(task.name + "\n" + "\n".join(lines))


def train_ct(base: EncoderModel, corpus: list[str], cfg, seed: int) -> EncoderModel:
    """Contrastive tension from a shared init; the second model is kept.

    Two clones of `base` encode the two sides of each pair; RMSProp with
    a linearly decaying learning rate drives the dot-product logits.
    """
    model_a = base.clone()
    model_b = base.clone()
    opt = dc.RMSProp(model_a.parameters() + model_b.parameters())
    sched = dc.LinearDecay(cfg.start_lr, cfg.end_lr, cfg.steps)
    batches = sample_ct_batches(corpus, cfg.negatives_per_positive,
                                cfg.batch, seed=seed)
    for step in range(cfg.steps):
        loss = ct_loss(model_a, model_b, next(batches), pool=TRAIN_POOL)
        opt.zero_grad()
        loss.backward()
        opt.step(sched.lr(step))
    return model_b


def train_nli(base: EncoderModel, pairs, cfg, seed: int) -> EncoderModel:
    """Siamese three-way NLI fine-tuning; the classifier head is dropped."""
    if not pairs:
        raise DataError("no NLI pairs")
    model = base.clone()
    head_seed, data_seed = derive_seed(seed, "nli", 0), derive_seed(seed, "nli", 1)
    head = NliHead.init(model.arch.hidden, head_seed)
    opt = dc.Adam(model.parameters() + [head.weight, head.bias])
    sched = dc.WarmupThenConstant(cfg.peak_lr, cfg.steps, cfg.warmup_fraction)
    rng = np.random.default_rng(data_seed)
    for step in range(cfg.steps):
        take = min(cfg.batch, len(pairs))
        idx = rng.choice(len(pairs), size=take, replace=False)
        batch = [pairs[i] for i in idx]
        loss = nli_siamese_loss(model, head, batch, pool=TRAIN_POOL)
        opt.zero_grad()
        loss.backward()
        opt.step(sched.lr(step))
    return model


def train_sed(ensemble: EnsembleSpec, corpus: list[str], cfg, seed: int,
              student: EncoderModel) -> EncoderModel:
    """Distill the frozen ensemble mean into `student` by MSE.

    Targets are the k=1 pooled mean embeddings of the members; Adam with
    linear warm-up over the first tenth of the step budget. Zero epochs
    leave the student bit-identical to its initialization.
    """
    if student.arch != ensemble.members[0].arch:
        raise ShapeMismatchError(
            f"student arch {student.arch} does not match teacher arch "
            f"{ensemble.members[0].arch}"
        )
    if not corpus:
        raise DataError("empty distillation corpus")
    if cfg.epochs == 0:
        return student
    steps_per_epoch = math.ceil(len(corpus) / cfg.batch)
    total_steps = cfg.epochs * steps_per_epoch
    opt = dc.Adam(student.parameters())
    sched = dc.WarmupThenConstant(cfg.peak_lr, total_steps, cfg.warmup_fraction)
    rng = np.random.default_rng(seed)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(corpus))
        for start in range(0, len(corpus), cfg.batch):
            sents = [corpus[i] for i in order[start : start + cfg.batch]]
            targets = ensemble_mean_embeddings(ensemble, sents)
            out = encode_batch(student, sents, ensemble.target_pool)
            loss = sed_loss(targets, out)
            opt.zero_grad()
            loss.backward()
            opt.step(sched.lr(step))
            step += 1
    return student


def full_ensemble_predict(ensemble: EnsembleSpec, tasks: list[StsTask],
                          pool: PoolingSpec,
                          metadata: dict | None = None) -> CorrelationReport:
    """Score pairs with the mean embedding of all members."""
    spec = EnsembleSpec(ensemble.members, target_pool=pool)
    meta = {"model": "full-ensemble", "n_members": len(ensemble.members),
            "pool_k": pool.k, **(metadata or {})}
    embed = functools.partial(ensemble_mean_embeddings, spec)
    return score_suite(tasks, lambda t: score_pairs(embed, t), meta)


def pretrain_stage(cfg: RunConfig, corpus: list[str]) -> tuple[EncoderModel, int]:
    """Stage `pretrain`: a base encoder of the configured arch."""
    seed = derive_seed(cfg.run.seed, "pretrain", 0)
    a, p = cfg.arch, cfg.pretrain
    model = pretrain_base(corpus,
                          EncoderArch(a.layers, a.hidden, a.heads, a.ff,
                                      a.max_len),
                          PretrainConfig(p.steps, p.batch, p.lr, p.mask_prob,
                                         seed))
    return model, seed


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
    flow = CouplingFlow(model.arch.hidden, cfg.flow.layers, seed=seeds[0])
    fit_flow(flow, embs, FlowFitConfig(cfg.flow.lr, cfg.flow.epochs,
                                       cfg.flow.batch, seeds[1]))
    return flow, seeds


def run_pipeline(spec: PipelineSpec, bundle: DataBundle,
                 out_dir=None) -> PipelineResult:
    """Execute the stages in order and evaluate the final model.

    On a stage failure the manifest of completed stages is still written
    (when `out_dir` is given) before the error propagates.
    """
    cfg = spec.config
    master = cfg.run.seed
    n_members = cfg.sed.members if "sed" in spec.stages else 1
    seeds: dict = {}
    checkpoints: dict = {}
    manifest: dict = {
        "stages": list(spec.stages),
        "config_text": render_config(cfg),
        "master_seed": master,
        "derived_seeds": seeds,
        "input_hashes": {
            "corpus": _hash_text("\n".join(bundle.corpus)),
            "tasks": {t.name: _hash_task(t) for t in bundle.tasks},
        },
        "checkpoints": checkpoints,
        "completed_stages": [],
    }
    models: dict = {"base": None}
    base = None
    members: list[EncoderModel] = []
    student = None
    flow_model = None
    current = None

    def keep(key: str, model) -> None:
        models[key] = model
        checkpoints[key] = checkpoint_hash(model)

    try:
        for current in spec.stages:
            if current == "pretrain":
                base, seeds["pretrain"] = pretrain_stage(cfg, bundle.corpus)
                keep("base", base)
            elif current in ("nli", "ct"):
                if base is None and not members:
                    raise ConfigError(f"{current} stage needs a base model")
                if current == "nli" and bundle.nli is None:
                    raise DataError("nli stage needs NLI pairs in the bundle")
                data = bundle.corpus if current == "ct" else bundle.nli
                sources = members if members else [base] * n_members
                trained = [member_stage(current, cfg, src, data, i)
                           for i, src in enumerate(sources)]
                members = [m for m, _ in trained]
                seeds[current] = [s for _, s in trained]
                for i, m in enumerate(members):
                    keep(f"member_{i}", m)
            elif current == "sed":
                init = cfg.sed.student_init
                if init == "base":
                    if base is None:
                        raise ConfigError("student_init 'base' without pretrain")
                    source = base
                else:
                    source = members[int(init.split(":", 1)[1])]
                student, seeds["sed"] = distill_stage(cfg, members,
                                                      bundle.corpus, source)
                keep("student", student)
            elif current == "flow":
                target = student or (members[0] if members else base)
                if target is None:
                    raise ConfigError("flow stage has no model to calibrate")
                flow_model, seeds["flow"] = flow_stage(cfg, target,
                                                       bundle.corpus)
                keep("flow", flow_model)
            manifest["completed_stages"].append(current)
    except Exception as exc:
        manifest["failed_stage"] = current
        manifest["error"] = str(exc)
        if out_dir is not None:
            write_manifest(manifest, _manifest_path(out_dir))
        raise
    final = student or (members[0] if members else base)
    report = evaluate_suite(
        final, bundle.tasks, PoolingSpec(cfg.eval.pool_k), flow=flow_model,
        metric=cfg.eval.metric,
        metadata={"stages": "-".join(spec.stages), "seed": master},
    )
    manifest["report"] = {
        "average_pearson_x100": report.average_pearson_x100,
        "average_spearman_x100": report.average_spearman_x100,
        "per_task": {
            name: {"pearson_x100": r.pearson_x100,
                   "spearman_x100": r.spearman_x100}
            for name, r in report.per_task.items()
        },
    }
    models["final"] = final
    if out_dir is not None:
        os.makedirs(str(out_dir), exist_ok=True)
        for name in checkpoints:
            save_checkpoint(models[name],
                            os.path.join(str(out_dir), f"{name}.ckpt"))
        write_manifest(manifest, _manifest_path(out_dir))
    return PipelineResult(models, report, manifest)


def _manifest_path(out_dir) -> str:
    return os.path.join(str(out_dir), "manifest.json")


def write_manifest(manifest: dict, path) -> None:
    with open(str(path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
                    tasks: list[StsTask], cfg: RunConfig,
                    runs: int | None = None) -> dict[str, StabilityReport]:
    """Members vs full ensemble vs repeated distillation runs.

    Trains the configured number of contrastive members from `base`,
    then `runs` distillation students over fresh seeds from one master
    seed. Failed runs are excluded with a warning; statistics cover the
    completed runs only. Returns the three groups keyed by name.
    """
    runs = cfg.stability.runs if runs is None else runs
    if runs < 2:
        raise ConfigError("stability study needs at least 2 runs")
    pool = PoolingSpec(cfg.eval.pool_k)

    def avg_spearman(report: CorrelationReport) -> float:
        if report.failed:
            raise ConstantInputError(
                "; ".join(report.failed.values())
            )
        return report.average_spearman_x100

    members = []
    member_scores = []
    for i in range(cfg.sed.members):
        m, _ = member_stage("ct", cfg, base, corpus, i)
        members.append(m)
        member_scores.append(avg_spearman(evaluate_suite(m, tasks, pool)))
    ensemble_score = avg_spearman(
        full_ensemble_predict(EnsembleSpec(members), tasks, pool))
    student_scores = []
    for r in range(runs):
        try:
            student, _ = distill_stage(cfg, members, corpus, base, r)
            student_scores.append(avg_spearman(evaluate_suite(student, tasks, pool)))
        except (DataError, ConstantInputError) as exc:
            warnings.warn(f"stability run {r} failed and was excluded: {exc}")
    return {
        "members": StabilityReport.from_values("members", member_scores),
        "full_ensemble": StabilityReport.from_values("full_ensemble",
                                                     [ensemble_score]),
        "students": StabilityReport.from_values("students", student_scores),
    }


def stability_csv(reports: dict[str, StabilityReport]) -> str:
    lines = ["# std is the population standard deviation (divide by n)",
             "group,runs,max,mean,std,values"]
    for name, rep in reports.items():
        values = ";".join(f"{v:.2f}" for v in rep.values)
        lines.append(f"{name},{rep.count},{rep.max:.2f},{rep.mean:.2f},"
                     f"{rep.std:.2f},{values}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GridSearchResult:
    bounds: tuple[float, ...]
    scores_by_bound: dict  # bound -> tuple of dev spearman x100 per seed
    mean_by_bound: dict  # bound -> mean over completed cells
    selected_bound: float
    selection_rule: str = "max mean dev spearman, ties to the smaller bound"


def _train_regression(model: EncoderModel, pairs, target_map, steps: int,
                      batch: int, lr: float, seed: int,
                      pool: PoolingSpec = TRAIN_POOL) -> EncoderModel:
    opt = dc.Adam(model.parameters())
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        take = min(batch, len(pairs))
        idx = rng.choice(len(pairs), size=take, replace=False)
        loss = sts_regression_loss(model, [pairs[i] for i in idx],
                                   target_map, pool=pool)
        opt.zero_grad()
        loss.backward()
        opt.step(lr)
    return model


def grid_search_lower_bound(base: EncoderModel, train_pairs, dev_task: StsTask,
                            bounds, seeds_per_bound: int,
                            cfg=None, master_seed: int = 0,
                            pool: PoolingSpec = TRAIN_POOL) -> GridSearchResult:
    """Sweep regression target lower bounds against dev Spearman.

    Per bound, `seeds_per_bound` models are fine-tuned from `base` and
    scored on the dev task; the bound with the highest mean wins, ties
    going to the smaller bound. Failed cells are excluded; a bound with
    no completed cells drops out of the selection.
    """
    from .config import GridSection
    cfg = cfg or GridSection()
    bounds = tuple(bounds)
    if not bounds:
        raise ConfigError("no candidate bounds")
    for b in bounds:
        if not (0.0 <= b < 1.0):
            raise ConfigError(f"bound {b} outside [0, 1)")
    if not train_pairs:
        raise DataError("no training pairs")
    scores: dict[float, tuple] = {}
    means: dict[float, float] = {}
    for bi, bound in enumerate(bounds):
        cell_scores = []
        for s in range(seeds_per_bound):
            seed = derive_seed(master_seed, "grid", bi * seeds_per_bound + s)
            try:
                model = _train_regression(
                    base.clone(), train_pairs, RegressionTargetMap(bound),
                    cfg.steps, cfg.batch, cfg.lr, seed, pool=pool,
                )
                _, dev_s = evaluate_task(model, dev_task, pool)
                cell_scores.append(dev_s)
            except (DataError, ConstantInputError) as exc:
                warnings.warn(
                    f"grid cell bound={bound} seed#{s} failed: {exc}"
                )
        scores[bound] = tuple(cell_scores)
        if cell_scores:
            means[bound] = float(np.mean(cell_scores))
    if not means:
        raise DataError("every grid cell failed")
    return GridSearchResult(bounds, scores, means, select_bound(means))


def select_bound(means: dict) -> float:
    """Bound with the highest mean dev score, ties to the smaller bound."""
    selected = None
    for bound in sorted(means):
        if selected is None or means[bound] > means[selected]:
            selected = bound
    return selected


def grid_csv(result: GridSearchResult) -> str:
    lines = [f"# selection rule: {result.selection_rule}",
             "bound,mean_dev_spearman,values"]
    for bound in result.bounds:
        cells = result.scores_by_bound.get(bound, ())
        mean = result.mean_by_bound.get(bound)
        mean_text = f"{mean:.2f}" if mean is not None else ""
        values = ";".join(f"{v:.2f}" for v in cells)
        lines.append(f"{bound},{mean_text},{values}")
    lines.append(f"selected,{result.selected_bound},")
    return "\n".join(lines) + "\n"


def train_supervised_with_early_stopping(
    model: EncoderModel, train_pairs, dev_task: StsTask,
    target_map: RegressionTargetMap, cfg, seed: int = 0,
    pool: PoolingSpec = TRAIN_POOL,
) -> tuple[EncoderModel, list[float]]:
    """Epoch-wise regression with dev-Spearman early stopping.

    Stops once the dev score has failed to improve for `patience`
    consecutive epochs and restores the best-dev parameters, so the
    returned model matches the maximum of the returned trajectory.
    """
    if cfg.max_epochs == 0:
        raise ConfigError("max_epochs must be positive")
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
    opt = dc.Adam(model.parameters())
    rng = np.random.default_rng(seed)
    trajectory: list[float] = []
    best_score = -np.inf
    best_state = [p.data.copy() for p in model.parameters()]
    bad_epochs = 0
    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(train_pairs))
        for start in range(0, len(train_pairs), cfg.batch):
            batch = [train_pairs[i] for i in order[start : start + cfg.batch]]
            loss = sts_regression_loss(model, batch, target_map, pool=pool)
            opt.zero_grad()
            loss.backward()
            opt.step(cfg.lr)
        _, dev_s = evaluate_task(model, dev_task, pool)
        trajectory.append(dev_s)
        if dev_s > best_score:
            best_score = dev_s
            best_state = [p.data.copy() for p in model.parameters()]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    for p, data in zip(model.parameters(), best_state):
        p.data = data
    return model, trajectory


def supervised_stage(cfg: RunConfig, model: EncoderModel, train_pairs,
                     dev_task: StsTask, lower_bound: float
                     ) -> tuple[EncoderModel, list[float], int]:
    """Regression fine-tuning of a copy of `model` with dev early
    stopping; returns the model, its dev trajectory and its seed."""
    seed = derive_seed(cfg.run.seed, "supervised", 0)
    trained, trajectory = train_supervised_with_early_stopping(
        model.clone(), train_pairs, dev_task, RegressionTargetMap(lower_bound),
        cfg.supervised, seed=seed)
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
        row = {}
        for k in (1, 2, 3):
            report = evaluate_suite(model, tasks, PoolingSpec(k))
            if report.failed:
                raise ConstantInputError("; ".join(report.failed.values()))
            row[k] = report.average_spearman_x100
        table[name] = row
    return table


def ablation_csv(table: dict[str, dict[int, float]]) -> str:
    lines = ["model,k1,k2,k3"]
    for name, row in table.items():
        lines.append(f"{name},{row[1]:.2f},{row[2]:.2f},{row[3]:.2f}")
    return "\n".join(lines) + "\n"
