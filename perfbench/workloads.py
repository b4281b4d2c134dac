"""The three benchmark workloads: inputs, operations and output checks.

Each workload builds its inputs from the seed during set-up, then runs
passes of operations in one process and one thread:

- `distill`: the README quick start through `sedkit.cli.main` on the
  default synthetic world (pretrain, four contrastive members,
  distillation, flow fit, evaluate, evaluate --flow). The training write
  path; sentences of 4-8 tokens padded to max_len 32.
- `grid`: `sedkit grid-search` over sts_train/sts_dev from a base
  pretrained in set-up. STS regression only: no teachers, no flow.
- `score`: a closed loop with one client cycling through plain
  evaluate, evaluate --flow and `full_ensemble_predict` on sts_test and
  sts_dev. Sentences of 24-32 tokens, so little padding; no backward
  pass and no optimizer. The models are built in set-up.

Operations are timed; their outputs are checked after the pass, outside
the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# Training sizes are cut from the library defaults so that a pass takes
# a few seconds and many fit into one run; per-step costs, and so the
# shares of each stage, are those of the defaults.
FULL_INI = """\
[pretrain]
steps = 40
[ct]
steps = 20
[sed]
members = 4
epochs = 3
[grid]
steps = 25
"""

# Models for the score workload: trained only to be scored.
FULL_SCORE_INI = """\
[pretrain]
steps = 40
[ct]
steps = 15
[sed]
members = 4
epochs = 1
"""

TINY_INI = """\
[arch]
hidden = 8
ff = 16
max_len = 8
[pretrain]
steps = 4
batch = 8
[ct]
steps = 2
batch = 8
negatives_per_positive = 3
[sed]
members = 2
epochs = 1
batch = 8
[flow]
batch = 4
[grid]
steps = 2
batch = 8
"""


@dataclass(frozen=True)
class Size:
    world: dict  # SyntheticWorldSpec fields for distill and grid
    score_world: dict  # the same for score: lengths close to max_len
    ini: str
    score_ini: str
    bounds: str  # grid-search candidate lower bounds
    seeds_per_bound: int
    setup_repeats: int


SIZES = {
    "full": Size(world={}, score_world={"min_len": 24, "max_len": 32},
                 ini=FULL_INI, score_ini=FULL_SCORE_INI,
                 bounds="0.0,0.3,0.6,0.9", seeds_per_bound=1,
                 setup_repeats=5),
    "tiny": Size(world={"clusters": 3, "sentences_per_cluster": 10,
                        "vocab_size": 30, "sts_pairs": 12, "nli_pairs": 24},
                 score_world={"clusters": 3, "sentences_per_cluster": 10,
                              "vocab_size": 30, "sts_pairs": 12,
                              "nli_pairs": 24, "min_len": 6, "max_len": 8},
                 ini=TINY_INI, score_ini=TINY_INI, bounds="0.0,0.5",
                 seeds_per_bound=1, setup_repeats=2),
}


@dataclass
class Op:
    """One timed operation and the untimed check of its output.

    `check(result)` returns (failure messages, facts); facts are values
    that must repeat exactly across passes of one seed.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list, dict]]
    pairs: int = 0  # STS pairs scored, for throughput
    cells: int = 0  # grid cells attempted


@dataclass
class Ctx:
    seed: int
    size: Size


@dataclass
class CliOutcome:
    code: int
    output: str


def cli_op(kind: str, argv: list, check=None, **kw) -> Op:
    """Operation running `sedkit.cli.main(argv)` with output captured."""
    from sedkit import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main([str(a) for a in argv])
        return CliOutcome(code, buf.getvalue())

    def checked(outcome):
        if outcome.code != 0:
            return [f"{kind}: exit {outcome.code}: {outcome.output.strip()}"], {}
        return check(outcome) if check else ([], {})

    return Op(kind, run, checked, **kw)


# -- output checks --------------------------------------------------------


def check_manifest(out: str, stage: str):
    """Every checkpoint in a stage manifest reloads and re-hashes to the
    digest the manifest records; returns the digests as facts."""
    from sedkit import checkpoint

    def check(_outcome):
        failures, facts = [], {}
        path = os.path.join(out, f"{stage}_manifest.json")
        try:
            with open(path, encoding="utf-8") as fh:
                digests = json.load(fh)["checkpoints"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"{stage}: manifest unreadable: {exc}"], {}
        for key, digest in digests.items():
            ckpt = os.path.join(out, f"{key}.ckpt")
            try:
                with open(ckpt, "rb") as fh:
                    file_digest = hashlib.sha256(fh.read()).hexdigest()
                rehash = checkpoint.checkpoint_hash(
                    checkpoint.load_checkpoint(ckpt))
            except (OSError, ValueError) as exc:
                failures.append(f"{key}: does not reload: {exc}")
                continue
            if not file_digest == rehash == digest:
                failures.append(f"{key}: digest differs from its manifest")
            facts[f"{key}.digest"] = digest
        return failures, facts

    return check


def check_report(out: str, label: str):
    """`report.csv` has no failed task and only finite values."""

    def check(_outcome):
        path = os.path.join(out, "report.csv")
        try:
            with open(path + ".meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
        except (OSError, ValueError) as exc:
            return [f"{label}: report unreadable: {exc}"], {}
        return report_failures(label, meta["failed"], rows)

    return check


def report_failures(label: str, failed: dict, rows: list):
    """Failures and facts of one report given as (task, pearson,
    spearman) rows, the last being the average."""
    failures = [f"{label}: task failed: {msg}" for msg in failed.values()]
    values = [float(v) for row in rows for v in row[1:]]
    if not rows or not all(math.isfinite(v) for v in values):
        failures.append(f"{label}: missing or non-finite values {rows}")
        return failures, {}
    return failures, {f"{label}.spearman_x100": float(rows[-1][2])}


# -- workloads ------------------------------------------------------------


def gen_world(dest: str, seed: int, fields: dict) -> dict:
    from sedkit import synthetic
    spec = synthetic.SyntheticWorldSpec(seed=seed, **fields)
    synthetic.gen_synthetic_world(spec, dest)
    return {name: os.path.join(dest, name) for name in
            ("corpus.txt", "sts_train.tsv", "sts_dev.tsv", "sts_test.tsv")}


def write_ini(dest: str, text: str) -> str:
    os.makedirs(dest, exist_ok=True)
    path = os.path.join(dest, "run.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def members_of(ini: str) -> int:
    from sedkit import config
    return config.load_config(ini).sed.members


def training_ops(ctx: Ctx, world: dict, ini: str, out: str) -> list[Op]:
    """pretrain, one train-ct per member, train-sed and fit-flow."""
    common = ["--config", ini, "--seed", ctx.seed, "--out", out]
    corpus = world["corpus.txt"]
    base = os.path.join(out, "base.ckpt")
    members = [os.path.join(out, f"ct_{m}.ckpt")
               for m in range(members_of(ini))]
    student = os.path.join(out, "student.ckpt")
    ops = [cli_op("pretrain", ["pretrain", "--corpus", corpus, *common],
                  check_manifest(out, "pretrain"))]
    for m in range(len(members)):
        ops.append(cli_op("ct", ["train-ct", "--base", base, "--corpus",
                                 corpus, "--member", m, *common],
                          check_manifest(out, f"ct_{m}")))
    ops.append(cli_op("sed", ["train-sed", "--teachers", *members,
                              "--student-init", base, "--corpus", corpus,
                              *common], check_manifest(out, "sed")))
    ops.append(cli_op("flow", ["fit-flow", "--model", student, "--corpus",
                               corpus, *common], check_manifest(out, "flow")))
    return ops


def eval_op(kind: str, ctx: Ctx, ini: str, model: str, tasks: list,
            out: str, flow: str | None = None, pairs: int = 0) -> Op:
    argv = ["evaluate", "--model", model, "--config", ini, "--seed",
            ctx.seed, "--out", out]
    for task in tasks:
        argv += ["--task", task]
    if flow:
        argv += ["--flow", flow]
    return cli_op(kind, argv, check_report(out, kind), pairs=pairs)


def count_pairs(paths: list) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


class Distill:
    name = "distill"
    quality_fact = "eval.spearman_x100"

    def setup(self, ctx: Ctx, dest: str):
        world = gen_world(os.path.join(dest, "world"), ctx.seed,
                          ctx.size.world)
        return {"world": world, "ini": write_ini(dest, ctx.size.ini)}, []

    def ops(self, ctx: Ctx, state: dict, out: str) -> list[Op]:
        world, ini = state["world"], state["ini"]
        student = os.path.join(out, "student.ckpt")
        test = [world["sts_test.tsv"]]
        pairs = count_pairs(test)
        return training_ops(ctx, world, ini, out) + [
            eval_op("eval", ctx, ini, student, test,
                    os.path.join(out, "eval"), pairs=pairs),
            eval_op("eval_flow", ctx, ini, student, test,
                    os.path.join(out, "eval_flow"),
                    flow=os.path.join(out, "flow.ckpt"), pairs=pairs),
        ]


class Grid:
    name = "grid"
    quality_fact = "grid.spearman_x100"

    def setup(self, ctx: Ctx, dest: str):
        world = gen_world(os.path.join(dest, "world"), ctx.seed,
                          ctx.size.world)
        ini = write_ini(dest, ctx.size.ini)
        op = cli_op("pretrain", ["pretrain", "--corpus", world["corpus.txt"],
                                 "--config", ini, "--seed", ctx.seed,
                                 "--out", dest],
                    check_manifest(dest, "pretrain"))
        state = {"world": world, "ini": ini,
                 "base": os.path.join(dest, "base.ckpt")}
        return state, [(op, call(op))]

    def ops(self, ctx: Ctx, state: dict, out: str) -> list[Op]:
        world = state["world"]
        bounds = ctx.size.bounds.split(",")
        cells = len(bounds) * ctx.size.seeds_per_bound

        def check(_outcome):
            return grid_failures(os.path.join(out, "grid_search.csv"), cells)

        argv = ["grid-search", "--model", state["base"],
                "--train-pairs", world["sts_train.tsv"],
                "--dev-task", world["sts_dev.tsv"],
                "--bounds", ctx.size.bounds,
                "--seeds-per-bound", ctx.size.seeds_per_bound,
                "--config", state["ini"], "--seed", ctx.seed, "--out", out]
        return [cli_op("grid", argv, check, cells=cells)]


def grid_failures(path: str, cells: int):
    """Every cell completed with a finite dev score; the selected bound's
    mean dev Spearman is the quality fact. A missing cell counts as one
    failure (reported through the `cells_failed` fact)."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except OSError as exc:
        return [f"grid: csv unreadable: {exc}"], {"cells_failed": cells}
    means = {r[0]: r[1] for r in rows[1:-1]}
    scores = [float(v) for r in rows[1:-1] if r[2] for v in r[2].split(";")]
    selected = rows[-1][1] if rows and rows[-1][0] == "selected" else None
    failures = []
    if len(scores) != cells:
        failures.append(f"grid: {len(scores)} of {cells} cells completed")
    if not all(math.isfinite(v) for v in scores) or selected not in means:
        failures.append(f"grid: bad csv rows {rows}")
        return failures, {"cells_failed": cells - len(scores)}
    return failures, {"cells_failed": cells - len(scores),
                      "grid.spearman_x100": float(means[selected])}


class Score:
    name = "score"
    quality_fact = "eval.spearman_x100"

    def setup(self, ctx: Ctx, dest: str):
        from sedkit import checkpoint, evalsts
        world = gen_world(os.path.join(dest, "world"), ctx.seed,
                          ctx.size.score_world)
        ini = write_ini(dest, ctx.size.score_ini)
        models = os.path.join(dest, "models")
        pending = [(op, call(op))
                   for op in training_ops(ctx, world, ini, models)]
        task_paths = [world["sts_test.tsv"], world["sts_dev.tsv"]]
        state = {
            "world": world, "ini": ini, "tasks": task_paths,
            "pairs": count_pairs(task_paths),
            "student": os.path.join(models, "student.ckpt"),
            "flow": os.path.join(models, "flow.ckpt"),
            "members": [checkpoint.load_checkpoint(
                os.path.join(models, f"ct_{m}.ckpt"))
                for m in range(members_of(ini))],
            "task_objs": [evalsts.load_sts_tsv(p) for p in task_paths],
        }
        return state, pending

    def ops(self, ctx: Ctx, state: dict, out: str) -> list[Op]:
        from sedkit import config, encoder, experiments, objectives
        ini, pairs = state["ini"], state["pairs"]
        pool_k = config.load_config(ini).eval.pool_k

        def ensemble():
            spec = objectives.EnsembleSpec(state["members"])
            return experiments.full_ensemble_predict(
                spec, state["task_objs"], encoder.PoolingSpec(pool_k))

        def check_ensemble(report):
            rows = [(n, r.pearson_x100, r.spearman_x100)
                    for n, r in report.per_task.items()]
            rows.append(("Avg.", report.average_pearson_x100,
                         report.average_spearman_x100))
            return report_failures("eval_ensemble", report.failed, rows)

        return [
            eval_op("eval", ctx, ini, state["student"], state["tasks"],
                    os.path.join(out, "eval"), pairs=pairs),
            eval_op("eval_flow", ctx, ini, state["student"], state["tasks"],
                    os.path.join(out, "eval_flow"), flow=state["flow"],
                    pairs=pairs),
            Op("eval_ensemble", ensemble, check_ensemble, pairs=pairs),
        ]


WORKLOADS = {w.name: w for w in (Distill(), Grid(), Score())}


def call(op: Op):
    """The operation's result, or the exception it raised."""
    try:
        return op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def check_outcome(op: Op, result) -> tuple[bool, list, dict]:
    """(whether the call itself failed, failure messages, facts)."""
    if isinstance(result, Exception):
        return True, [f"{op.kind}: raised {type(result).__name__}: {result}"], {}
    failures, facts = op.check(result)
    return isinstance(result, CliOutcome) and result.code != 0, failures, facts
