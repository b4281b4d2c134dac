"""Criteria 5 and 6 margins across synthetic worlds.

Runs the acceptance cohort recipe of tests/test_acceptance.py once per
world seed (world seed = master seed): pretrain a desk-scale base for
300 steps at batch 32, train 4 contrastive-tension teachers with
`CtSection()` and distill 3 students with `SedSection()`, then score
everything on the test split at k = 2. Prints one markdown row per seed:
the base, the teachers' mean and population sd, the full ensemble and
its margin over that mean (criterion 6), and the students' mean and sd
and their margin over the teachers (criterion 5).

A change that moves trained bytes reruns this before and after, so the
shift it causes can be read against the spread between worlds. About
17 s per seed on one core of a shared 2-vCPU host.

    python demos/06_margin_table.py 7 3
"""

import sys

import numpy as np

from sedkit.config import CtSection, PretrainSection, SedSection
from sedkit.encoder import EncoderArch, PoolingSpec, pretrain_base
from sedkit.evalsts import evaluate_suite
from sedkit.experiments import (derive_seed, full_ensemble_predict, train_ct,
                                train_sed)
from sedkit.objectives import EnsembleSpec
from sedkit.synthetic import SyntheticWorldSpec, build_synthetic_world

DESK_ARCH = EncoderArch(layers=2, hidden=32, heads=2, ff=64, max_len=32)
EVAL_POOL = PoolingSpec(2)


def margin_row(seed: int) -> str:
    world = build_synthetic_world(SyntheticWorldSpec(seed=seed))
    corpus, tasks = world.corpus, [world.sts["test"]]
    base = pretrain_base(
        corpus, DESK_ARCH,
        PretrainSection(steps=300, batch=32, lr=1e-3, mask_prob=0.15),
        derive_seed(seed, "pretrain", 0))
    teachers = [train_ct(base, corpus, CtSection(), derive_seed(seed, "ct", i))
                for i in range(4)]
    ens = EnsembleSpec(teachers)
    students = [train_sed(ens, corpus, SedSection(),
                          derive_seed(seed, "sed", r), base.clone())
                for r in range(3)]

    def score(model):
        return evaluate_suite(model, tasks, EVAL_POOL).average_spearman_x100

    t = np.array([score(m) for m in teachers])
    s = np.array([score(m) for m in students])
    ensemble = full_ensemble_predict(ens, tasks,
                                     EVAL_POOL).average_spearman_x100
    return (f"| {seed} | {score(base):.2f} | {t.mean():.2f} ± {t.std():.2f} "
            f"| {ensemble:.2f} | {ensemble - t.mean():+.2f} "
            f"| {s.mean():.2f} ± {s.std():.2f} | {s.mean() - t.mean():+.2f} |"
            ).replace("-", "−")


print("| seed | base | teachers (mean ± sd) | ensemble | ens − mean "
      "| students (mean ± sd) | stud − teach |")
print("|---|---|---|---|---|---|---|")
for arg in sys.argv[1:] or ["7"]:
    print(margin_row(int(arg)), flush=True)
