"""Command-line entry point.

One subcommand per experimental operation. Exit codes: 0 on success, 1
on data or configuration errors (with a structured message on stderr),
2 on usage errors (argparse). The default output directory comes from
--out, falling back to the SEDKIT_OUT_DIR environment variable, then to
the configured run.out_dir; `main` loads the config and creates that
directory before it dispatches to the subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, default_config, load_config, render_config
from .encoder import EncoderModel, PoolingSpec
from .errors import DataError
from .evalsts import evaluate_suite, load_sts_tsv, write_report_csv
from .experiments import (ablation_csv, distill_stage, flow_stage, grid_csv,
                          grid_search_lower_bound, member_stage,
                          pooling_ablation, pretrain_stage, stability_csv,
                          stability_study, supervised_stage, write_manifest)
# Not called here: perfbench/test_perfbench.py checks that the tracer
# rebinds and restores this module's `train_ct` binding.
from .experiments import train_ct  # noqa: F401
from .flow import CouplingFlow
from .synthetic import SyntheticWorldSpec, gen_synthetic_world, load_nli_tsv


def read_corpus(path) -> list[str]:
    """Non-empty lines of a UTF-8 text file, order preserved."""
    with open(str(path), "rb") as fh:
        text = fh.read().decode("utf-8")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise DataError(f"no sentences in {path}")
    return lines


def sample_corpus(path, count: int, seed: int,
                  with_replacement: bool = False) -> list[str]:
    """Uniform sentence sample; without replacement unless asked.

    Sentence text is preserved exactly as it appears in the file.
    """
    lines = read_corpus(path)
    if count <= 0:
        raise DataError("sample count must be positive")
    rng = np.random.default_rng(seed)
    if with_replacement:
        idx = rng.integers(0, len(lines), size=count)
    else:
        if count > len(lines):
            raise DataError(
                f"asked for {count} of {len(lines)} lines without replacement"
            )
        idx = rng.choice(len(lines), size=count, replace=False)
    return [lines[int(i)] for i in idx]


def _resolve_corpus(args, cfg: RunConfig) -> list[str]:
    lines = read_corpus(args.corpus)
    size = cfg.data.corpus_size
    if size and size < len(lines):
        return sample_corpus(args.corpus, size, cfg.run.seed)
    return lines


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        import dataclasses
        cfg = dataclasses.replace(
            cfg, run=dataclasses.replace(cfg.run, seed=args.seed)
        )
    return cfg


def _out_dir(args, cfg: RunConfig) -> str:
    out = args.out or os.environ.get("SEDKIT_OUT_DIR") or cfg.run.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _load_tasks(args) -> list:
    paths = []
    if getattr(args, "tasks", None):
        entries = sorted(os.listdir(args.tasks))
        paths = [os.path.join(args.tasks, e) for e in entries
                 if e.endswith(".tsv")]
        if not paths:
            raise DataError(f"no .tsv task files in {args.tasks}")
    if getattr(args, "task", None):
        paths.extend(args.task)
    if not paths:
        raise DataError("no tasks given (use --tasks DIR or --task FILE)")
    return [load_sts_tsv(p) for p in paths]


def _require_encoder(path) -> EncoderModel:
    model = load_checkpoint(path)
    if not isinstance(model, EncoderModel):
        raise DataError(f"{path} does not contain an encoder checkpoint")
    return model


def _save_stage(out: str, name: str, cfg: RunConfig, seeds: dict,
                inputs: dict, key: str, artifact) -> str:
    """Save `artifact` as `{key}.ckpt` beside `{name}_manifest.json`,
    which records its digest; returns the checkpoint path."""
    path = os.path.join(out, f"{key}.ckpt")
    digest = save_checkpoint(artifact, path)
    write_manifest(
        {
            "stage": name,
            "config_text": render_config(cfg),
            "derived_seeds": seeds,
            "input_hashes": inputs,
            "checkpoints": {key: digest},
        },
        os.path.join(out, f"{name}_manifest.json"),
    )
    return path


def _hash_file(path) -> str:
    import hashlib
    with open(str(path), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cmd_pretrain(args, cfg: RunConfig, out: str) -> None:
    model, seed = pretrain_stage(cfg, _resolve_corpus(args, cfg))
    path = _save_stage(out, "pretrain", cfg, {"pretrain": seed},
                       {"corpus": _hash_file(args.corpus)}, "base", model)
    print(f"wrote {path}")


def _cmd_train_ct(args, cfg: RunConfig, out: str) -> None:
    base = _require_encoder(args.base)
    corpus = _resolve_corpus(args, cfg)
    model, seed = member_stage("ct", cfg, base, corpus, args.member)
    name = f"ct_{args.member}"
    path = _save_stage(out, name, cfg, {"ct": seed},
                       {"corpus": _hash_file(args.corpus),
                        "base": _hash_file(args.base)}, name, model)
    print(f"wrote {path}")


def _cmd_train_nli(args, cfg: RunConfig, out: str) -> None:
    base = _require_encoder(args.base)
    pairs = load_nli_tsv(args.nli)
    model, seed = member_stage("nli", cfg, base, pairs, args.member)
    name = f"nli_{args.member}"
    path = _save_stage(out, name, cfg, {"nli": seed},
                       {"nli": _hash_file(args.nli),
                        "base": _hash_file(args.base)}, name, model)
    print(f"wrote {path}")


def _cmd_train_sed(args, cfg: RunConfig, out: str) -> None:
    teachers = [_require_encoder(p) for p in args.teachers]
    init = _require_encoder(args.student_init)
    corpus = _resolve_corpus(args, cfg)
    model, seed = distill_stage(cfg, teachers, corpus, init)
    path = _save_stage(out, "sed", cfg, {"sed": seed},
                       {"corpus": _hash_file(args.corpus),
                        "teachers": [_hash_file(p) for p in args.teachers]},
                       "student", model)
    print(f"wrote {path}")


def _cmd_fit_flow(args, cfg: RunConfig, out: str) -> None:
    model = _require_encoder(args.model)
    flow, seeds = flow_stage(cfg, model, _resolve_corpus(args, cfg))
    path = _save_stage(out, "flow", cfg, {"flow": seeds},
                       {"corpus": _hash_file(args.corpus),
                        "model": _hash_file(args.model)}, "flow", flow)
    print(f"wrote {path}")


def _cmd_train_supervised(args, cfg: RunConfig, out: str) -> None:
    model = _require_encoder(args.model)
    train_task = load_sts_tsv(args.train_pairs)
    dev_task = load_sts_tsv(args.dev_task)
    bound = (cfg.supervised.lower_bound if args.lower_bound is None
             else args.lower_bound)
    trained, trajectory, seed = supervised_stage(
        cfg, model, list(train_task.pairs), dev_task, bound)
    with open(os.path.join(out, "dev_trajectory.json"), "w") as fh:
        json.dump({"lower_bound": bound, "dev_spearman_x100": trajectory},
                  fh, indent=2)
        fh.write("\n")
    path = _save_stage(out, "supervised", cfg, {"supervised": seed},
                       {"train_pairs": _hash_file(args.train_pairs),
                        "dev_task": _hash_file(args.dev_task),
                        "model": _hash_file(args.model)},
                       "supervised", trained)
    print(f"wrote {path} (best dev spearman x100: {max(trajectory):.2f})")


def _cmd_grid_search(args, cfg: RunConfig, out: str) -> None:
    model = _require_encoder(args.model)
    train_task = load_sts_tsv(args.train_pairs)
    dev_task = load_sts_tsv(args.dev_task)
    bounds = (tuple(float(b) for b in args.bounds.split(","))
              if args.bounds else cfg.grid.bounds)
    result = grid_search_lower_bound(
        model, list(train_task.pairs), dev_task, bounds,
        args.seeds_per_bound or cfg.grid.seeds_per_bound,
        cfg=cfg.grid, master_seed=cfg.run.seed,
    )
    path = os.path.join(out, "grid_search.csv")
    with open(path, "w") as fh:
        fh.write(grid_csv(result))
    print(f"selected lower bound: {result.selected_bound}")
    print(f"wrote {path}")


def _cmd_evaluate(args, cfg: RunConfig, out: str) -> None:
    model = _require_encoder(args.model)
    tasks = _load_tasks(args)
    flow = None
    if args.flow:
        flow = load_checkpoint(args.flow)
        if not isinstance(flow, CouplingFlow):
            raise DataError(f"{args.flow} does not contain a flow checkpoint")
    pool = PoolingSpec(args.pool if args.pool else cfg.eval.pool_k)
    report = evaluate_suite(model, tasks, pool, flow=flow,
                            metric=cfg.eval.metric,
                            metadata={"model": str(args.model),
                                      "seed": cfg.run.seed})
    path = os.path.join(out, "report.csv")
    write_report_csv(report, path)
    for name, res in report.per_task.items():
        print(f"{name}: pearson {res.pearson_x100:.2f} "
              f"spearman {res.spearman_x100:.2f}")
    print(f"Avg.: pearson {report.average_pearson_x100:.2f} "
          f"spearman {report.average_spearman_x100:.2f}")
    if report.partial:
        print(f"partial report; failed tasks: {sorted(report.failed)}",
              file=sys.stderr)
    print(f"wrote {path}")


def _cmd_stability(args, cfg: RunConfig, out: str) -> None:
    base = _require_encoder(args.base)
    corpus = _resolve_corpus(args, cfg)
    tasks = _load_tasks(args)
    reports = stability_study(base, corpus, tasks, cfg, runs=args.runs)
    path = os.path.join(out, "stability.csv")
    with open(path, "w") as fh:
        fh.write(stability_csv(reports))
    for name, rep in reports.items():
        print(f"{name}: max {rep.max:.2f} mean {rep.mean:.2f} "
              f"std {rep.std:.2f} over {rep.count} runs")
    print(f"wrote {path}")


def _cmd_ablate_pooling(args, cfg: RunConfig, out: str) -> None:
    models = {}
    for entry in args.model:
        if "=" in entry:
            name, path = entry.split("=", 1)
        else:
            name, path = os.path.basename(entry), entry
        models[name] = _require_encoder(path)
    tasks = _load_tasks(args)
    table = pooling_ablation(models, tasks)
    path = os.path.join(out, "pooling_ablation.csv")
    with open(path, "w") as fh:
        fh.write(ablation_csv(table))
    print(ablation_csv(table), end="")
    print(f"wrote {path}")


def _cmd_gen_synthetic(args, cfg: RunConfig, out: str) -> None:
    spec = SyntheticWorldSpec(
        clusters=args.clusters, sentences_per_cluster=args.sentences_per_cluster,
        vocab_size=args.vocab_size, sts_pairs=args.sts_pairs,
        nli_pairs=args.nli_pairs, seed=args.seed if args.seed is not None else 0,
    )
    gen_synthetic_world(spec, out)
    print(f"wrote synthetic world to {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedkit",
        description="Sentence embedding training and evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--config", help="INI run configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="master seed override")
        return p

    p = add("pretrain", _cmd_pretrain, help="masked-token pretraining")
    p.add_argument("--corpus", required=True)

    p = add("train-ct", _cmd_train_ct, help="contrastive tension member")
    p.add_argument("--base", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--member", type=int, default=0,
                   help="member index (seeds differ per member)")

    p = add("train-nli", _cmd_train_nli, help="siamese NLI member")
    p.add_argument("--base", required=True)
    p.add_argument("--nli", required=True, help="premise/hypothesis/label TSV")
    p.add_argument("--member", type=int, default=0)

    p = add("train-sed", _cmd_train_sed, help="distill an ensemble")
    p.add_argument("--teachers", nargs="+", required=True)
    p.add_argument("--student-init", required=True)
    p.add_argument("--corpus", required=True)

    p = add("fit-flow", _cmd_fit_flow, help="fit a calibration flow")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)

    p = add("train-supervised", _cmd_train_supervised,
            help="regression fine-tuning with early stopping")
    p.add_argument("--model", required=True)
    p.add_argument("--train-pairs", required=True)
    p.add_argument("--dev-task", required=True)
    p.add_argument("--lower-bound", type=float)

    p = add("grid-search", _cmd_grid_search, help="lower-bound sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--train-pairs", required=True)
    p.add_argument("--dev-task", required=True)
    p.add_argument("--bounds", help="comma-separated candidate bounds")
    p.add_argument("--seeds-per-bound", type=int)

    p = add("evaluate", _cmd_evaluate, help="STS correlation report")
    p.add_argument("--model", required=True)
    p.add_argument("--tasks", help="directory of task .tsv files")
    p.add_argument("--task", action="append", help="one task file")
    p.add_argument("--pool", type=int, choices=(1, 2, 3))
    p.add_argument("--flow", help="flow checkpoint for latent scoring")

    p = add("stability", _cmd_stability, help="member/ensemble/student spread")
    p.add_argument("--base", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--tasks", help="directory of task .tsv files")
    p.add_argument("--task", action="append")
    p.add_argument("--runs", type=int)

    p = add("ablate-pooling", _cmd_ablate_pooling, help="k in {1,2,3} grid")
    p.add_argument("--model", action="append", required=True,
                   help="name=path, repeatable")
    p.add_argument("--tasks", help="directory of task .tsv files")
    p.add_argument("--task", action="append")

    p = add("gen-synthetic", _cmd_gen_synthetic, help="generate a toy world")
    p.add_argument("--clusters", type=int, default=6)
    p.add_argument("--sentences-per-cluster", type=int, default=30)
    p.add_argument("--vocab-size", type=int, default=120)
    p.add_argument("--sts-pairs", type=int, default=60)
    p.add_argument("--nli-pairs", type=int, default=120)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _load_cfg(args)
        args.func(args, cfg, _out_dir(args, cfg))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
