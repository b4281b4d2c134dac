"""The four training objectives on one tiny model: contrastive tension
batches, the ensemble distillation target, the siamese NLI head, and
regression toward remapped gold scores. Every objective pools the final
layer alone (`TRAIN_POOL`, k = 1)."""

import numpy as np

from sedkit.config import PretrainSection
from sedkit.encoder import TRAIN_POOL, EncoderArch, pretrain_base
from sedkit.evalsts import ScoredPair
from sedkit.objectives import (EnsembleSpec, NliHead, RegressionTargetMap,
                               ct_loss, ensemble_mean_embeddings,
                               nli_siamese_loss, sample_ct_batches, sed_loss,
                               sts_regression_loss)
from sedkit.synthetic import SyntheticWorldSpec, build_synthetic_world
from sedkit.diffcore import Tensor

world = build_synthetic_world(
    SyntheticWorldSpec(clusters=4, sentences_per_cluster=12, vocab_size=40,
                       sts_pairs=20, nli_pairs=30, seed=2))
arch = EncoderArch(layers=2, hidden=16, heads=2, ff=32, max_len=16)
model = pretrain_base(world.corpus, arch,
                      PretrainSection(steps=80, batch=16, lr=1e-3,
                                      mask_prob=0.15), seed=0)

# contrastive tension: blocks of one identical pair and 7 negatives
batch = next(sample_ct_batches(world.corpus, 7, 16, seed=0))
labels = [p.label for p in batch]
print("ct batch labels:", labels)
model_b = model.clone()
print(f"ct loss (a vs fresh copy b): {float(ct_loss(model, model_b, batch).data):.4f}")

# distillation: the target is the ensemble mean at the pool it is given
# (training pools the final layer alone), and a one-model ensemble's
# target is that model's own embedding, exactly
ens = EnsembleSpec([model, model_b])
targets = ensemble_mean_embeddings(ens, world.corpus[:8], TRAIN_POOL)
student_out = Tensor(targets.copy())
print(f"sed loss at the target itself: {float(sed_loss(targets, student_out).data)}")
solo = ensemble_mean_embeddings(EnsembleSpec([model]), world.corpus[:8],
                                TRAIN_POOL)
import sedkit.diffcore as dc
from sedkit.encoder import encode_batch
with dc.no_grad():
    own = encode_batch(model, world.corpus[:8], TRAIN_POOL).data
print("single-member target == own embedding:", bool(np.array_equal(solo, own)))

# siamese NLI with a zero-initialized head starts at ln 3
head = NliHead(Tensor(np.zeros((3 * arch.hidden, 3)), requires_grad=True),
               Tensor(np.zeros(3), requires_grad=True))
nli_batch = world.nli[:9]
loss = nli_siamese_loss(model, head, nli_batch)
print(f"nli loss at zero head: {float(loss.data):.6f} (ln 3 = {np.log(3):.6f})")

# regression: gold 0..5 maps onto [lower_bound, 1]
tmap = RegressionTargetMap(0.5)
print("targets for gold 0/2.5/5:",
      [round(tmap.target(g), 3) for g in (0.0, 2.5, 5.0)])
pairs = [ScoredPair(world.corpus[0], world.corpus[0], 5.0)]
print(f"regression loss on an identical pair with gold 5: "
      f"{float(sts_regression_loss(model, pairs, tmap).data):.2e}")
