"""Command-line entry point.

One subcommand per experimental operation. Exit codes: 0 on success, 1
on data or configuration errors (with a structured message on stderr),
2 on usage errors (argparse). Every subcommand writes into --out
(default `runs`); `main` loads the config and creates that directory
before it dispatches to the subcommand.

One input table, `_INPUTS`, gives each input its flag and a reader of
its value and digest. One writer, `_run`, reads a subcommand's inputs,
each file once, runs it (it only computes) and writes what it returns
in one order: tables, then checkpoints, then `{stage}_manifest.json`.
`gen-synthetic`, which writes no manifest, keeps its own path.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .checkpoint import (read_checkpoint, read_lines, save_checkpoint,
                         write_atomic)
from .config import RunConfig, _parse_value, load_config, render_config
from .encoder import EncoderModel, PoolingSpec
from .errors import ConfigError, DataError
from .evalsts import evaluate_suite, load_sts_tsv, report_files
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


# Setting flags: argparse dest (the key overridden) -> flag, keywords, section.
_SETTINGS = {
    "seed": ("--seed", {"help": "[run] seed"}, "run"),
    "bounds": ("--bounds", {"help": "[grid] bounds, comma-separated"},
               "grid"),
    "seeds_per_bound": ("--seeds-per-bound",
                        {"help": "[grid] seeds_per_bound"}, "grid"),
    "lower_bound": ("--lower-bound", {"help": "[supervised] lower_bound"},
                    "supervised"),
    "runs": ("--runs", {"help": "[stability] runs"}, "stability"),
    "pool_k": ("--pool", {"help": "[eval] pool_k"}, "eval"),
}


def _load_cfg(args) -> RunConfig:
    """The --config file (or the defaults) with each given setting flag
    parsed as its key's INI value and put in its place; the rebuilt
    section checks the value as it checks the key."""
    cfg = load_config(args.config) if args.config else RunConfig()
    for key, (_, _, name) in _SETTINGS.items():
        text = getattr(args, key, None)
        if text is not None:
            section = getattr(cfg, name)
            kind = type(section).__annotations__[key]
            section = dataclasses.replace(
                section, **{key: _parse_value(text, kind, name, key)})
            cfg = dataclasses.replace(cfg, **{name: section})
    return cfg


def _checkpoint(path, cfg, cls=EncoderModel) -> tuple:
    artifact, digest = read_checkpoint(path)
    if not isinstance(artifact, cls):
        raise DataError(f"checkpoint {path} holds "
                        f"{type(artifact).__name__}, expected {cls.__name__}")
    return artifact, digest


def _checkpoints(paths, cfg) -> tuple:
    loaded = [_checkpoint(path, cfg) for path in paths]
    return [m for m, _ in loaded], [digest for _, digest in loaded]


def _models(entries, cfg) -> tuple:
    """`ablate-pooling`'s `name=path` (or bare path) entries, every name
    checked before any checkpoint is read."""
    paths = {}
    for entry in entries:
        name, path = (entry.split("=", 1) if "=" in entry
                      else (os.path.basename(entry), entry))
        if not name:
            raise DataError(f"--model {entry!r} gives no name; "
                            "give name=path")
        if name in paths:
            raise DataError(f"two --model entries are named {name!r}; "
                            "give each a distinct name=path")
        paths[name] = path
    models, digests = _checkpoints(paths.values(), cfg)
    return dict(zip(paths, models)), dict(zip(paths, digests))


def _corpus(path, cfg) -> tuple:
    """The `[data] corpus_size` sample, and the hash of all the lines."""
    lines = read_corpus(path)
    return _sized_corpus(cfg, lines), _hash_lines(lines)


def _nli(path, cfg) -> tuple:
    pairs = load_nli_tsv(path)
    return pairs, _hash_nli(pairs)


def _task(path, cfg) -> tuple:
    task = load_sts_tsv(path)
    return task, _hash_task(task)


def _tasks(paths, cfg) -> tuple:
    if not paths:
        raise DataError("no tasks given (use --task FILE ...)")
    loaded = [_task(path, cfg) for path in paths]
    return [t for t, _ in loaded], {t.name: digest for t, digest in loaded}


# Each input's argparse dest, also its key in a manifest's `input_hashes`:
# its flag, argparse keywords and reader, which returns the value and its
# digest (of a checkpoint's bytes, of a text input as read; see
# `experiments`). Only --flow may be left out: it is None, with no digest.
_INPUTS = {
    "base": ("--base", {"required": True}, _checkpoint),
    "model": ("--model", {"required": True}, _checkpoint),
    "models": ("--model", {"action": "append", "required": True,
                           "metavar": "MODEL",
                           "help": "name=path, repeatable"}, _models),
    "teachers": ("--teachers", {"nargs": "+", "required": True}, _checkpoints),
    "student_init": ("--student-init", {"required": True}, _checkpoint),
    "corpus": ("--corpus", {"required": True}, _corpus),
    "nli": ("--nli", {"required": True,
                      "help": "premise/hypothesis/label TSV"}, _nli),
    "train_pairs": ("--train-pairs", {"required": True}, _task),
    "dev_task": ("--dev-task", {"required": True}, _task),
    "tasks": ("--task", {"nargs": "+", "action": "extend", "default": [],
                         "metavar": "TASK", "help": "STS task files"},
              _tasks),
    "flow": ("--flow", {"help": "flow checkpoint for latent scoring"},
             lambda path, cfg: _checkpoint(path, cfg, CouplingFlow)),
}


def _run(command, inputs, args, cfg: RunConfig) -> None:
    """Read `inputs` in order, call `command(args, cfg, **values)` for
    `(stage, seeds, checkpoints, tables, summary)`, write the tables (file
    name -> text), each checkpoint as `{key}.ckpt`, then the manifest, and
    print the summary and the first checkpoint, else the first table."""
    values, hashes = {}, {}
    for dest in inputs:
        values[dest] = getattr(args, dest)
        if values[dest] is not None:
            values[dest], hashes[dest] = _INPUTS[dest][2](values[dest], cfg)
    stage, seeds, checkpoints, tables, summary = command(args, cfg, **values)
    for name, text in tables.items():
        write_atomic(os.path.join(args.out, name), text.encode("utf-8"))
    written = {key: save_checkpoint(artifact,
                                    os.path.join(args.out, f"{key}.ckpt"))
               for key, artifact in checkpoints.items()}
    write_manifest({"stage": stage, "config_text": render_config(cfg),
                    "derived_seeds": seeds, "input_hashes": hashes,
                    "checkpoints": written},
                   os.path.join(args.out, f"{stage}_manifest.json"))
    names = [f"{key}.ckpt" for key in checkpoints] + list(tables)
    print(f"{summary}wrote {os.path.join(args.out, names[0])}")


def _cmd_pretrain(args, cfg: RunConfig, corpus) -> tuple:
    model, seed = pretrain_stage(cfg, corpus)
    return "pretrain", {"pretrain": seed}, {"base": model}, {}, ""


def _cmd_member(args, cfg: RunConfig, base, **data) -> tuple:
    """`train-ct` (data: --corpus) or `train-nli` (data: --nli)."""
    kind = "ct" if "corpus" in data else "nli"
    (data,) = data.values()
    model, seed = member_stage(kind, cfg, base, data, args.member)
    name = f"{kind}_{args.member}"
    return name, {kind: seed}, {name: model}, {}, ""


def _cmd_train_sed(args, cfg: RunConfig, teachers, student_init,
                   corpus) -> tuple:
    if cfg.sed.student_init != "base":
        raise ConfigError(f"sed.student_init = {cfg.sed.student_init!r}, "
                          "but train-sed starts the student from "
                          "--student-init; set it to 'base'")
    model, seed = distill_stage(cfg, teachers, corpus, student_init)
    return "sed", {"sed": seed}, {"student": model}, {}, ""


def _cmd_fit_flow(args, cfg: RunConfig, model, corpus) -> tuple:
    flow, seeds = flow_stage(cfg, model, corpus)
    return "flow", {"flow": seeds}, {"flow": flow}, {}, ""


def _cmd_train_supervised(args, cfg: RunConfig, model, train_pairs,
                          dev_task) -> tuple:
    trained, trajectory, seed = supervised_stage(
        cfg, model, list(train_pairs.pairs), dev_task)
    text = json.dumps({"lower_bound": cfg.supervised.lower_bound,
                       "dev_spearman_x100": trajectory}, indent=2) + "\n"
    return ("supervised", {"supervised": seed}, {"supervised": trained},
            {"dev_trajectory.json": text},
            f"best dev spearman x100: {max(trajectory):.2f}\n")


def _cmd_grid_search(args, cfg: RunConfig, model, train_pairs,
                     dev_task) -> tuple:
    result = grid_search_lower_bound(
        model, list(train_pairs.pairs), dev_task, cfg.grid.bounds,
        cfg.grid.seeds_per_bound, cfg=cfg.grid, master_seed=cfg.run.seed)
    return ("grid_search", {"grid": list(result.seeds)}, {},
            {"grid_search.csv": grid_csv(result)},
            f"selected lower bound: {result.selected_bound}\n")


def _cmd_evaluate(args, cfg: RunConfig, model, tasks, flow) -> tuple:
    report = evaluate_suite(model, tasks, PoolingSpec(cfg.eval.pool_k),
                            flow=flow)
    if report.failed:
        print(f"partial report; failed tasks: {sorted(report.failed)}",
              file=sys.stderr)
    rows = [*((name, r.pearson_x100, r.spearman_x100)
              for name, r in report.per_task.items()),
            ("Avg.", report.average_pearson_x100,
             report.average_spearman_x100)]
    return "evaluate", {}, {}, report_files(report), "".join(
        f"{name}: pearson {p:.2f} spearman {s:.2f}\n" for name, p, s in rows)


def _cmd_stability(args, cfg: RunConfig, base, corpus, tasks) -> tuple:
    reports, seeds = stability_study(base, corpus, tasks, cfg)
    return ("stability", seeds, {}, {"stability.csv": stability_csv(reports)},
            "".join(f"{name}: max {rep.max:.2f} mean {rep.mean:.2f} "
                    f"std {rep.std:.2f} over {rep.count} runs\n"
                    for name, rep in reports.items()))


def _cmd_ablate_pooling(args, cfg: RunConfig, models, tasks) -> tuple:
    text = ablation_csv(pooling_ablation(models, tasks))
    return "ablate_pooling", {}, {}, {"pooling_ablation.csv": text}, text


_WORLD_FLAGS = ("clusters", "sentences_per_cluster", "vocab_size",
                "sts_pairs", "nli_pairs")


def _gen_synthetic(args, cfg: RunConfig) -> None:
    given = {key: getattr(args, key) for key in _WORLD_FLAGS
             if getattr(args, key) is not None}
    gen_synthetic_world(SyntheticWorldSpec(seed=cfg.run.seed, **given),
                        args.out)
    print(f"wrote synthetic world to {args.out}")


def _member_index(text: str) -> int:
    """A --member value: decimal digits, so an integer >= 0."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedkit",
        description="Sentence embedding training and evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, command, flags, **kwargs):
        """Subcommand `name`: --config, --out, --seed, then `flags` (input
        and setting dests); it runs `command` on its inputs through `_run`."""
        p = sub.add_parser(name, **kwargs)
        inputs = [dest for dest in flags if dest in _INPUTS]
        p.set_defaults(func=functools.partial(_run, command, inputs))
        p.add_argument("--config", help="INI run configuration")
        p.add_argument("--out", default="runs", help="output directory")
        for dest in ("seed", *flags):
            flag, keywords, _ = _INPUTS.get(dest) or _SETTINGS[dest]
            p.add_argument(flag, dest=dest, **keywords)
        return p

    add("pretrain", _cmd_pretrain, ("corpus",),
        help="masked-token pretraining")
    p = add("train-ct", _cmd_member, ("base", "corpus"),
            help="contrastive tension member")
    p.add_argument("--member", type=_member_index, default=0,
                   help="member index (seeds differ per member)")
    p = add("train-nli", _cmd_member, ("base", "nli"),
            help="siamese NLI member")
    p.add_argument("--member", type=_member_index, default=0)
    add("train-sed", _cmd_train_sed, ("teachers", "student_init", "corpus"),
        help="distill an ensemble")
    add("fit-flow", _cmd_fit_flow, ("model", "corpus"),
        help="fit a calibration flow")
    add("train-supervised", _cmd_train_supervised,
        ("model", "train_pairs", "dev_task", "lower_bound"),
        help="regression fine-tuning with early stopping")
    add("grid-search", _cmd_grid_search,
        ("model", "train_pairs", "dev_task", "bounds", "seeds_per_bound"),
        help="lower-bound sweep")
    add("evaluate", _cmd_evaluate, ("model", "tasks", "pool_k", "flow"),
        help="STS correlation report")
    add("stability", _cmd_stability, ("base", "corpus", "tasks", "runs"),
        help="member/ensemble/student spread")
    add("ablate-pooling", _cmd_ablate_pooling, ("models", "tasks"),
        help="k in {1,2,3} grid")
    p = add("gen-synthetic", None, (), help="generate a toy world")
    p.set_defaults(func=_gen_synthetic)
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
        args.func(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
