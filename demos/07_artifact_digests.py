"""The sha256 of every file a fixed small seed-7 run writes.

Runs, into the directory given, the CLI chain `gen-synthetic`, `pretrain`,
two `train-ct` members, `train-nli`, `train-sed`, `fit-flow`, `evaluate
--flow`, `train-supervised`, `grid-search` and `stability` (in `cli/`,
on the world in `world/`), then `run_pipeline` with the stages
`pretrain,ct,sed,flow` (in `pipeline_ct/`) and `pretrain,nli,sed` (in
`pipeline_nli/`). Prints one `sha256  relative/path` line per file
written, sorted by path; the commands' own output goes to stderr.

Both drivers run and record every stage through the same code, so a
pipeline directory names its files as the CLI does (`ct_{i}.ckpt`,
`nli_{i}.ckpt`, one `{stage}_manifest.json` per stage). `run.ini`
renders the config `pipeline_ct/` runs, `[run] stages` included, so
its `pretrain`, `ct_0`, `ct_1`, `sed` and `flow` stage manifests are
byte-identical to those in `cli/`.

A change that should keep every trained byte runs this at both commits
and diffs the two listings, with one usable CPU (`taskset -c 0`) and with
several. About 7 s on one core of a shared 2-vCPU host.

    python demos/07_artifact_digests.py /tmp/digests > after.txt
"""

import contextlib
import dataclasses
import hashlib
import os
import sys

from sedkit.cli import main, read_corpus
from sedkit.config import (CtSection, DataSection, EvalSection, FlowSection,
                           GridSection, NliSection, PretrainSection,
                           RunConfig, RunSection, SedSection,
                           StabilitySection, SupervisedSection,
                           render_config)
from sedkit.encoder import EncoderArch
from sedkit.evalsts import load_sts_tsv
from sedkit.experiments import DataBundle, run_pipeline
from sedkit.synthetic import load_nli_tsv

CONFIG = RunConfig(
    run=RunSection(stages=("pretrain", "ct", "sed", "flow"), seed=7),
    arch=EncoderArch(layers=2, hidden=32, heads=2, ff=64, max_len=32),
    data=DataSection(corpus_size=0),
    pretrain=PretrainSection(steps=100, batch=16, lr=1e-3, mask_prob=0.15),
    nli=NliSection(steps=30, batch=16, peak_lr=2e-4, warmup_fraction=0.1),
    ct=CtSection(steps=30, batch=16, start_lr=1e-4, end_lr=1e-5,
                 negatives_per_positive=7),
    sed=SedSection(members=2, epochs=2, batch=16, peak_lr=1e-3,
                   warmup_fraction=0.1),
    flow=FlowSection(layers=2, lr=1e-3, epochs=3, batch=16),
    supervised=SupervisedSection(max_epochs=4, batch=8, lr=1e-3, patience=1,
                                 lower_bound=0.5),
    grid=GridSection(bounds=(0.0, 0.3), seeds_per_bound=2, steps=20, batch=8,
                     lr=1e-3),
    stability=StabilitySection(runs=2),
    eval=EvalSection(pool_k=2),
)
WORLD_ARGS = ["--clusters", "6", "--sentences-per-cluster", "30",
              "--vocab-size", "60", "--sts-pairs", "60", "--nli-pairs", "120",
              "--seed", "7"]


def run_cli(argv) -> None:
    if main(argv) != 0:
        raise SystemExit(f"sedkit {argv[0]} failed")


def write_all(out: str) -> None:
    world, cli = os.path.join(out, "world"), os.path.join(out, "cli")
    ini = os.path.join(out, "run.ini")
    os.makedirs(out, exist_ok=True)
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(render_config(CONFIG))
    corpus = os.path.join(world, "corpus.txt")
    train, dev, test = (os.path.join(world, f"sts_{split}.tsv")
                        for split in ("train", "dev", "test"))

    def ckpt(name):
        return os.path.join(cli, f"{name}.ckpt")

    run_cli(["gen-synthetic", "--out", world] + WORLD_ARGS)
    for argv in (
            ["pretrain", "--corpus", corpus],
            ["train-ct", "--base", ckpt("base"), "--corpus", corpus,
             "--member", "0"],
            ["train-ct", "--base", ckpt("base"), "--corpus", corpus,
             "--member", "1"],
            ["train-nli", "--base", ckpt("base"),
             "--nli", os.path.join(world, "nli.tsv")],
            ["train-sed", "--teachers", ckpt("ct_0"), ckpt("ct_1"),
             "--student-init", ckpt("base"), "--corpus", corpus],
            ["fit-flow", "--model", ckpt("student"), "--corpus", corpus],
            ["evaluate", "--model", ckpt("student"), "--flow", ckpt("flow"),
             "--task", test],
            ["train-supervised", "--model", ckpt("base"),
             "--train-pairs", train, "--dev-task", dev],
            ["grid-search", "--model", ckpt("base"), "--train-pairs", train,
             "--dev-task", dev],
            ["stability", "--base", ckpt("base"), "--corpus", corpus,
             "--task", test]):
        run_cli(argv + ["--config", ini, "--out", cli])

    bundle = DataBundle(read_corpus(corpus), [load_sts_tsv(test)],
                        nli=load_nli_tsv(os.path.join(world, "nli.tsv")))
    for name, stages in (("pipeline_ct", ("pretrain", "ct", "sed", "flow")),
                         ("pipeline_nli", ("pretrain", "nli", "sed"))):
        cfg = dataclasses.replace(
            CONFIG, run=dataclasses.replace(CONFIG.run, stages=stages))
        run_pipeline(cfg, bundle, os.path.join(out, name))


def digests(out: str) -> list[str]:
    lines = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, out)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


if len(sys.argv) != 2:
    raise SystemExit("usage: python demos/07_artifact_digests.py OUT_DIR")
out_dir = sys.argv[1]
if os.path.isdir(out_dir) and os.listdir(out_dir):
    raise SystemExit(f"{out_dir} is not empty")
with contextlib.redirect_stdout(sys.stderr):
    write_all(out_dir)
print("\n".join(digests(out_dir)))
