"""End to end at desk scale: generate a world, run pretrain -> CT
ensemble -> distillation -> flow through the orchestrator, then compare
teachers, the full ensemble, and the student on the held-out test split.

Takes a minute or two on one core.
"""

import dataclasses

import numpy as np

from sedkit.config import RunConfig, RunSection
from sedkit.encoder import PoolingSpec
from sedkit.evalsts import evaluate_suite
from sedkit.experiments import (DataBundle, full_ensemble_predict,
                                run_pipeline)
from sedkit.objectives import EnsembleSpec
from sedkit.synthetic import SyntheticWorldSpec, build_synthetic_world

world = build_synthetic_world(SyntheticWorldSpec(seed=7))
tasks = [world.sts["test"]]

cfg = RunConfig()
cfg = dataclasses.replace(
    cfg, run=RunSection(stages=("pretrain", "ct", "sed", "flow"), seed=7))
# The config is the whole description of the run, its stage list included.
result = run_pipeline(cfg, DataBundle(world.corpus, tasks, nli=world.nli))

print("completed stages:", result.manifest["completed_stages"])
print("checkpoints:", sorted(result.manifest["checkpoints"]))

pool = PoolingSpec(cfg.eval.pool_k)
teachers = [result.models[f"member_{i}"] for i in range(cfg.sed.members)]
scores = [evaluate_suite(t, tasks, pool).average_spearman_x100
          for t in teachers]
print(f"teacher spearman x100: {[f'{s:.2f}' for s in scores]}"
      f"  mean {np.mean(scores):.2f}  std {np.std(scores):.3f}")

ens = full_ensemble_predict(EnsembleSpec(teachers), tasks, pool)
print(f"full ensemble:         {ens.average_spearman_x100:.2f}")

student = evaluate_suite(result.models["student"], tasks, pool)
print(f"distilled student:     {student.average_spearman_x100:.2f}")
print(f"pipeline report (with flow scoring): "
      f"{result.report.average_spearman_x100:.2f}")
