"""Criteria 5 and 6 margins across synthetic worlds.

Runs the library's stability cohort once per world seed (world seed =
master seed): `pretrain_stage` trains a desk-scale base for 300 steps
at batch 32, and `stability_study` trains 4 contrastive-tension
teachers with `CtSection()`, distills 3 students with `SedSection()`
and scores them on the test split at k = 2. Prints one markdown row
per seed: the base, the teachers' mean and population sd, the full
ensemble and its margin over that mean (criterion 6), and the students'
mean and sd and their margin over the teachers (criterion 5).

A change that moves trained bytes reruns this before and after, so the
shift it causes can be read against the spread between worlds. About
7.5 s per seed on one core of a shared 2-vCPU host; the teachers and
students train in one worker process per usable CPU.

    python demos/06_margin_table.py 7 3
"""

import sys

from sedkit.config import PretrainSection, RunConfig, RunSection
from sedkit.encoder import PoolingSpec
from sedkit.evalsts import evaluate_suite
from sedkit.experiments import pretrain_stage, stability_study
from sedkit.synthetic import SyntheticWorldSpec, build_synthetic_world


def margin_row(seed: int) -> str:
    cfg = RunConfig(run=RunSection(seed=seed),
                    pretrain=PretrainSection(batch=32))
    world = build_synthetic_world(SyntheticWorldSpec(seed=seed))
    tasks = [world.sts["test"]]
    base, _ = pretrain_stage(cfg, world.corpus)
    reports, _ = stability_study(base, world.corpus, tasks, cfg)
    t, s = reports["members"], reports["students"]
    ensemble = reports["full_ensemble"].mean
    base_score = evaluate_suite(base, tasks, PoolingSpec(cfg.eval.pool_k))
    return (f"| {seed} | {base_score.average_spearman_x100:.2f} "
            f"| {t.mean:.2f} ± {t.std:.2f} | {ensemble:.2f} "
            f"| {ensemble - t.mean:+.2f} | {s.mean:.2f} ± {s.std:.2f} "
            f"| {s.mean - t.mean:+.2f} |").replace("-", "−")


print("| seed | base | teachers (mean ± sd) | ensemble | ens − mean "
      "| students (mean ± sd) | stud − teach |")
print("|---|---|---|---|---|---|---|")
for arg in sys.argv[1:] or ["7"]:
    print(margin_row(int(arg)), flush=True)
