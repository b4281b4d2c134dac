"""Command-line entry point.

One subcommand per experimental operation. Exit codes: 0 on success, 1
on data or configuration errors (with a structured message on stderr),
2 on usage errors (argparse). Every subcommand writes into --out
(default `runs`); `main` loads the config and creates that directory
before it dispatches to the subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .checkpoint import (read_checkpoint, read_lines, save_checkpoint,
                         write_atomic)
from .config import RunConfig, _parse_value, load_config, render_config
from .encoder import EncoderModel, PoolingSpec
from .errors import DataError
from .evalsts import evaluate_suite, load_sts_tsv, write_report_csv
from .experiments import (_hash_lines, _hash_nli, _hash_task, _sized_corpus,
                          ablation_csv, distill_stage,
                          flow_stage, grid_csv, grid_search_lower_bound,
                          member_stage, pooling_ablation, pretrain_stage,
                          stability_csv, stability_study, supervised_stage,
                          write_manifest)
# Not called here: perfbench/test_perfbench.py checks that the tracer
# rebinds and restores this module's `train_ct` binding.
from .experiments import train_ct  # noqa: F401
from .flow import CouplingFlow
from .synthetic import SyntheticWorldSpec, gen_synthetic_world, load_nli_tsv


def read_corpus(path) -> list[str]:
    """Non-blank lines of a UTF-8 text file, exactly as written and in
    order; '#' is not special (see `checkpoint.read_lines`)."""
    lines = [line for _, line in read_lines(path)]
    if not lines:
        raise DataError(f"no sentences in {path}")
    return lines


def _resolve_corpus(args, cfg: RunConfig) -> tuple[list[str], str]:
    """The `[data] corpus_size` sample of --corpus, and the hash of all
    its lines as `run_pipeline` records it."""
    lines = read_corpus(args.corpus)
    return _sized_corpus(cfg, lines), _hash_lines(lines)


# Each setting flag's argparse dest is the key it overrides in a section.
_SETTING_FLAGS = {"seed": "run", "bounds": "grid", "seeds_per_bound": "grid",
                  "lower_bound": "supervised", "runs": "stability",
                  "pool_k": "eval"}


def _load_cfg(args) -> RunConfig:
    """The --config file (or the defaults) with each given setting flag
    parsed as its key's INI value and put in its place; the rebuilt
    section checks the value as it checks the key."""
    cfg = load_config(args.config) if args.config else RunConfig()
    for key, name in _SETTING_FLAGS.items():
        text = getattr(args, key, None)
        if text is not None:
            section = getattr(cfg, name)
            kind = type(section).__annotations__[key]
            section = dataclasses.replace(
                section, **{key: _parse_value(text, kind, name, key)})
            cfg = dataclasses.replace(cfg, **{name: section})
    return cfg


def _load_tasks(args) -> list:
    if not args.task:
        raise DataError("no tasks given (use --task FILE ...)")
    return [load_sts_tsv(p) for p in args.task]


def _load(path, cls) -> tuple:
    """The checkpoint at `path`, which must hold a `cls`, and the digest
    of the bytes it was loaded from, which a manifest records."""
    artifact, digest = read_checkpoint(path)
    if not isinstance(artifact, cls):
        raise DataError(f"checkpoint {path} holds "
                        f"{type(artifact).__name__}, expected {cls.__name__}")
    return artifact, digest


def _write_manifest(out: str, name: str, cfg: RunConfig, seeds: dict,
                    inputs: dict, checkpoints: dict) -> None:
    """`{name}_manifest.json`: what the subcommand ran with and wrote."""
    write_manifest({"stage": name, "config_text": render_config(cfg),
                    "derived_seeds": seeds, "input_hashes": inputs,
                    "checkpoints": checkpoints},
                   os.path.join(out, f"{name}_manifest.json"))


def _save_stage(out: str, name: str, cfg: RunConfig, seeds: dict,
                inputs: dict, key: str, artifact) -> str:
    """Save `artifact` as `{key}.ckpt` beside `{name}_manifest.json`,
    which records its digest; returns the checkpoint path."""
    path = os.path.join(out, f"{key}.ckpt")
    _write_manifest(out, name, cfg, seeds, inputs,
                    {key: save_checkpoint(artifact, path)})
    return path


def _cmd_pretrain(args, cfg: RunConfig, out: str) -> None:
    corpus, corpus_hash = _resolve_corpus(args, cfg)
    model, seed = pretrain_stage(cfg, corpus)
    path = _save_stage(out, "pretrain", cfg, {"pretrain": seed},
                       {"corpus": corpus_hash}, "base", model)
    print(f"wrote {path}")


def _cmd_train_ct(args, cfg: RunConfig, out: str) -> None:
    base, base_hash = _load(args.base, EncoderModel)
    corpus, corpus_hash = _resolve_corpus(args, cfg)
    model, seed = member_stage("ct", cfg, base, corpus, args.member)
    name = f"ct_{args.member}"
    path = _save_stage(out, name, cfg, {"ct": seed},
                       {"corpus": corpus_hash, "base": base_hash}, name,
                       model)
    print(f"wrote {path}")


def _cmd_train_nli(args, cfg: RunConfig, out: str) -> None:
    base, base_hash = _load(args.base, EncoderModel)
    pairs = load_nli_tsv(args.nli)
    model, seed = member_stage("nli", cfg, base, pairs, args.member)
    name = f"nli_{args.member}"
    path = _save_stage(out, name, cfg, {"nli": seed},
                       {"nli": _hash_nli(pairs), "base": base_hash}, name,
                       model)
    print(f"wrote {path}")


def _cmd_train_sed(args, cfg: RunConfig, out: str) -> None:
    teachers, teacher_hashes = zip(*(_load(p, EncoderModel)
                                     for p in args.teachers))
    init, init_hash = _load(args.student_init, EncoderModel)
    corpus, corpus_hash = _resolve_corpus(args, cfg)
    model, seed = distill_stage(cfg, list(teachers), corpus, init)
    path = _save_stage(out, "sed", cfg, {"sed": seed},
                       {"corpus": corpus_hash,
                        "teachers": list(teacher_hashes),
                        "student_init": init_hash},
                       "student", model)
    print(f"wrote {path}")


def _cmd_fit_flow(args, cfg: RunConfig, out: str) -> None:
    model, model_hash = _load(args.model, EncoderModel)
    corpus, corpus_hash = _resolve_corpus(args, cfg)
    flow, seeds = flow_stage(cfg, model, corpus)
    path = _save_stage(out, "flow", cfg, {"flow": seeds},
                       {"corpus": corpus_hash, "model": model_hash}, "flow",
                       flow)
    print(f"wrote {path}")


def _cmd_train_supervised(args, cfg: RunConfig, out: str) -> None:
    model, model_hash = _load(args.model, EncoderModel)
    train_task = load_sts_tsv(args.train_pairs)
    dev_task = load_sts_tsv(args.dev_task)
    trained, trajectory, seed = supervised_stage(
        cfg, model, list(train_task.pairs), dev_task)
    text = json.dumps({"lower_bound": cfg.supervised.lower_bound,
                       "dev_spearman_x100": trajectory}, indent=2) + "\n"
    write_atomic(os.path.join(out, "dev_trajectory.json"), text.encode("utf-8"))
    path = _save_stage(out, "supervised", cfg, {"supervised": seed},
                       {"train_pairs": _hash_task(train_task),
                        "dev_task": _hash_task(dev_task),
                        "model": model_hash},
                       "supervised", trained)
    print(f"wrote {path} (best dev spearman x100: {max(trajectory):.2f})")


def _cmd_grid_search(args, cfg: RunConfig, out: str) -> None:
    model, model_hash = _load(args.model, EncoderModel)
    train_task = load_sts_tsv(args.train_pairs)
    dev_task = load_sts_tsv(args.dev_task)
    result = grid_search_lower_bound(
        model, list(train_task.pairs), dev_task, cfg.grid.bounds,
        cfg.grid.seeds_per_bound, cfg=cfg.grid, master_seed=cfg.run.seed,
    )
    path = os.path.join(out, "grid_search.csv")
    write_atomic(path, grid_csv(result).encode("utf-8"))
    _write_manifest(out, "grid_search", cfg, {"grid": list(result.seeds)},
                    {"train_pairs": _hash_task(train_task),
                     "dev_task": _hash_task(dev_task),
                     "model": model_hash}, {})
    print(f"selected lower bound: {result.selected_bound}")
    print(f"wrote {path}")


def _cmd_evaluate(args, cfg: RunConfig, out: str) -> None:
    model, model_hash = _load(args.model, EncoderModel)
    tasks = _load_tasks(args)
    flow, flow_hash = (_load(args.flow, CouplingFlow) if args.flow
                       else (None, None))
    report = evaluate_suite(model, tasks, PoolingSpec(cfg.eval.pool_k),
                            flow=flow)
    path = os.path.join(out, "report.csv")
    write_report_csv(report, path)
    inputs = {"model": model_hash,
              "tasks": {t.name: _hash_task(t) for t in tasks}}
    if args.flow:
        inputs["flow"] = flow_hash
    _write_manifest(out, "evaluate", cfg, {}, inputs, {})
    for name, res in report.per_task.items():
        print(f"{name}: pearson {res.pearson_x100:.2f} "
              f"spearman {res.spearman_x100:.2f}")
    print(f"Avg.: pearson {report.average_pearson_x100:.2f} "
          f"spearman {report.average_spearman_x100:.2f}")
    if report.failed:
        print(f"partial report; failed tasks: {sorted(report.failed)}",
              file=sys.stderr)
    print(f"wrote {path}")


def _cmd_stability(args, cfg: RunConfig, out: str) -> None:
    base, base_hash = _load(args.base, EncoderModel)
    corpus, corpus_hash = _resolve_corpus(args, cfg)
    tasks = _load_tasks(args)
    reports, seeds = stability_study(base, corpus, tasks, cfg)
    path = os.path.join(out, "stability.csv")
    write_atomic(path, stability_csv(reports).encode("utf-8"))
    _write_manifest(out, "stability", cfg, seeds,
                    {"corpus": corpus_hash, "base": base_hash,
                     "tasks": {t.name: _hash_task(t) for t in tasks}}, {})
    for name, rep in reports.items():
        print(f"{name}: max {rep.max:.2f} mean {rep.mean:.2f} "
              f"std {rep.std:.2f} over {rep.count} runs")
    print(f"wrote {path}")


def _cmd_ablate_pooling(args, cfg: RunConfig, out: str) -> None:
    paths = {}
    for entry in args.model:
        if "=" in entry:
            name, path = entry.split("=", 1)
        else:
            name, path = os.path.basename(entry), entry
        if name in paths:
            raise DataError(f"two --model entries are named {name!r}; "
                            "give each a distinct name=path")
        paths[name] = path
    loaded = {name: _load(path, EncoderModel) for name, path in paths.items()}
    models = {name: model for name, (model, _) in loaded.items()}
    tasks = _load_tasks(args)
    text = ablation_csv(pooling_ablation(models, tasks))
    path = os.path.join(out, "pooling_ablation.csv")
    write_atomic(path, text.encode("utf-8"))
    _write_manifest(out, "ablate_pooling", cfg, {},
                    {"models": {name: digest
                                for name, (_, digest) in loaded.items()},
                     "tasks": {t.name: _hash_task(t) for t in tasks}}, {})
    print(text, end="")
    print(f"wrote {path}")


_WORLD_FLAGS = ("clusters", "sentences_per_cluster", "vocab_size",
                "sts_pairs", "nli_pairs")


def _cmd_gen_synthetic(args, cfg: RunConfig, out: str) -> None:
    given = {key: getattr(args, key) for key in _WORLD_FLAGS
             if getattr(args, key) is not None}
    gen_synthetic_world(SyntheticWorldSpec(seed=cfg.run.seed, **given), out)
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
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--seed", help="[run] seed")
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
    p.add_argument("--lower-bound", help="[supervised] lower_bound")

    p = add("grid-search", _cmd_grid_search, help="lower-bound sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--train-pairs", required=True)
    p.add_argument("--dev-task", required=True)
    p.add_argument("--bounds", help="[grid] bounds, comma-separated")
    p.add_argument("--seeds-per-bound", help="[grid] seeds_per_bound")

    p = add("evaluate", _cmd_evaluate, help="STS correlation report")
    p.add_argument("--model", required=True)
    p.add_argument("--task", nargs="+", action="extend",
                   help="STS task files")
    p.add_argument("--pool", dest="pool_k", help="[eval] pool_k")
    p.add_argument("--flow", help="flow checkpoint for latent scoring")

    p = add("stability", _cmd_stability, help="member/ensemble/student spread")
    p.add_argument("--base", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", nargs="+", action="extend",
                   help="STS task files")
    p.add_argument("--runs", help="[stability] runs")

    p = add("ablate-pooling", _cmd_ablate_pooling, help="k in {1,2,3} grid")
    p.add_argument("--model", action="append", required=True,
                   help="name=path, repeatable")
    p.add_argument("--task", nargs="+", action="extend",
                   help="STS task files")

    p = add("gen-synthetic", _cmd_gen_synthetic, help="generate a toy world")
    for key in _WORLD_FLAGS:
        p.add_argument("--" + key.replace("_", "-"), type=int,
                       help=f"SyntheticWorldSpec.{key}")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _load_cfg(args)
        os.makedirs(args.out, exist_ok=True)
        args.func(args, cfg, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
