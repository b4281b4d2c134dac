"""Command-line entry point.

One subcommand per experimental operation. Exit codes: 0 on success, 1
on data or configuration errors (with a structured message on stderr),
2 on usage errors (argparse). Every subcommand writes into --out
(default `runs`); `main` loads the config and creates that directory
before it dispatches to the subcommand.

Each subcommand but `gen-synthetic` (no manifest, its own path) runs a
stage of `experiments.STAGES` as `run_pipeline` does: `_run` reads the
stage's inputs through `_INPUTS`, each file once, calls its function,
records the result with `experiments.record_stage` and prints a summary.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checkpoint import read_checkpoint, read_lines
from .config import RunConfig, load_config, override_config
from .encoder import EncoderModel
from .errors import ConfigError, DataError
from .evalsts import load_sts_tsv
from .experiments import (STAGES, corpus_input, hash_nli, hash_task,
                          record_stage)
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


def _member_index(text: str) -> int:
    """A --member value: decimal digits, so an integer >= 0."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return int(text)


_WORLD_FLAGS = ("clusters", "sentences_per_cluster", "vocab_size",
                "sts_pairs", "nli_pairs")

# Flags besides the inputs: argparse dest -> flag, keywords, and the INI
# section whose key of that name the flag overrides (None: no setting).
_FLAGS = {
    "seed": ("--seed", {"help": "[run] seed"}, "run"),
    "bounds": ("--bounds", {"help": "[grid] bounds, comma-separated"},
               "grid"),
    "seeds_per_bound": ("--seeds-per-bound",
                        {"help": "[grid] seeds_per_bound"}, "grid"),
    "lower_bound": ("--lower-bound", {"help": "[supervised] lower_bound"},
                    "supervised"),
    "runs": ("--runs", {"help": "[stability] runs"}, "stability"),
    "pool_k": ("--pool", {"help": "[eval] pool_k"}, "eval"),
    "member": ("--member", {"type": _member_index, "default": 0,
                            "help": "member index (seeds differ per member)"},
               None),
    **{key: ("--" + key.replace("_", "-"),
             {"type": int, "help": f"SyntheticWorldSpec.{key}"}, None)
       for key in _WORLD_FLAGS},
}


def _load_cfg(args) -> RunConfig:
    """The --config file (or the defaults), each given setting in place."""
    texts: dict = {}
    for key, (_, _, section) in _FLAGS.items():
        if section and getattr(args, key, None) is not None:
            texts.setdefault(section, {})[key] = getattr(args, key)
    cfg = load_config(args.config) if args.config else RunConfig()
    return override_config(cfg, texts)


def _checkpoint(path, cfg, cls=EncoderModel) -> tuple:
    artifact, digest = read_checkpoint(path)
    if not isinstance(artifact, cls):
        raise DataError(f"checkpoint {path} holds "
                        f"{type(artifact).__name__}, expected {cls.__name__}")
    return artifact, digest


def _checkpoints(paths, cfg) -> tuple:
    loaded = [_checkpoint(path, cfg) for path in paths]
    return [m for m, _ in loaded], [digest for _, digest in loaded]


def _student_init(path, cfg) -> tuple:
    """--student-init, refused unless `[sed] student_init` says base too."""
    if cfg.sed.student_init != "base":
        raise ConfigError(f"sed.student_init = {cfg.sed.student_init!r}, "
                          "but train-sed starts the student from "
                          "--student-init; set it to 'base'")
    return _checkpoint(path, cfg)


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
    return corpus_input(cfg, read_corpus(path))


def _nli(path, cfg) -> tuple:
    pairs = load_nli_tsv(path)
    return pairs, hash_nli(pairs)


def _task(path, cfg) -> tuple:
    task = load_sts_tsv(path)
    return task, hash_task(task)


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
    "student_init": ("--student-init", {"required": True}, _student_init),
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


def _run(args, cfg: RunConfig) -> None:
    """Run the subcommand's stage on its inputs (and --member) and print
    its summary and its first checkpoint, else its first table."""
    inputs, run = STAGES[_COMMANDS[args.command][0]]
    values, hashes = [], {}
    for dest in inputs:
        value = getattr(args, dest)
        if value is not None:
            value, hashes[dest] = _INPUTS[dest][2](value, cfg)
        values.append(value)
    if "member" in args:
        values.append(args.member)
    result = run(cfg, *values)
    record_stage(result, cfg, hashes, args.out)
    _, _, checkpoints, tables, summary = result
    names = [f"{key}.ckpt" for key in checkpoints] + list(tables)
    print(f"{summary}wrote {os.path.join(args.out, names[0])}")


def _gen_synthetic(args, cfg: RunConfig) -> None:
    given = {key: getattr(args, key) for key in _WORLD_FLAGS
             if getattr(args, key) is not None}
    gen_synthetic_world(SyntheticWorldSpec(seed=cfg.run.seed, **given),
                        args.out)
    print(f"wrote synthetic world to {args.out}")


# Subcommand -> its stage (None for gen-synthetic), its flags besides
# --config, --out, --seed and the stage's inputs, and its help.
_COMMANDS = {
    "pretrain": ("pretrain", (), "masked-token pretraining"),
    "train-ct": ("ct", ("member",), "contrastive tension member"),
    "train-nli": ("nli", ("member",), "siamese NLI member"),
    "train-sed": ("sed", (), "distill an ensemble"),
    "fit-flow": ("flow", (), "fit a calibration flow"),
    "train-supervised": ("supervised", ("lower_bound",),
                         "regression fine-tuning with early stopping"),
    "grid-search": ("grid_search", ("bounds", "seeds_per_bound"),
                    "lower-bound sweep"),
    "evaluate": ("evaluate", ("pool_k",), "STS correlation report"),
    "stability": ("stability", ("runs",), "member/ensemble/student spread"),
    "ablate-pooling": ("ablate_pooling", (), "k in {1,2,3} grid"),
    "gen-synthetic": (None, _WORLD_FLAGS, "generate a toy world"),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of `argv`: with only the subcommand `argv[0]` names, if
    any, else with all; its usage line lists them all either way."""
    parser = argparse.ArgumentParser(
        prog="sedkit",
        description="Sentence embedding training and evaluation toolkit",
    )
    names = argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None)
    for name in names:
        stage, flags, help_text = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI run configuration")
        p.add_argument("--out", default="runs", help="output directory")
        for dest in ("seed", *(STAGES[stage][0] if stage else ()), *flags):
            flag, keywords, _ = _INPUTS.get(dest) or _FLAGS[dest]
            p.add_argument(flag, dest=dest, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _load_cfg(args)
        os.makedirs(args.out, exist_ok=True)
        (_run if _COMMANDS[args.command][0] else _gen_synthetic)(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
