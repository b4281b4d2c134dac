"""Pretrain a toy encoder on a generated corpus and look at the pooling
grids: k pools the token-mean vectors of the final k hidden states."""

import numpy as np

from sedkit.config import PretrainSection
from sedkit.encoder import (EncoderArch, PoolingSpec, encode_batch,
                            encode_many, pretrain_base)
from sedkit.synthetic import SyntheticWorldSpec, build_synthetic_world
import sedkit.diffcore as dc

world = build_synthetic_world(
    SyntheticWorldSpec(clusters=4, sentences_per_cluster=12, vocab_size=40,
                       sts_pairs=20, nli_pairs=30, seed=1))
print(f"corpus: {len(world.corpus)} sentences, e.g. {world.corpus[0]!r}")

arch = EncoderArch(layers=2, hidden=32, heads=2, ff=64, max_len=32)
model = pretrain_base(world.corpus, arch,
                      PretrainSection(steps=120, batch=16, lr=1e-3,
                                      mask_prob=0.15), seed=0)

s = world.corpus[0]
for k in (1, 2, 3):
    e = encode_many(model, [s], PoolingSpec(k))[0]
    print(f"pool k={k}: ||e|| = {np.linalg.norm(e):.4f}")

# each sentence is padded to the bucket of its own length (8, 16, 32),
# so batch composition cannot change anyone's embedding
with dc.no_grad():
    alone = encode_batch(model, [s], PoolingSpec(2)).data[0]
    crowd = encode_batch(model, [world.corpus[5], s, world.corpus[9]],
                         PoolingSpec(2)).data[1]
print("batch invariance (bitwise):", bool(np.array_equal(alone, crowd)))

spread = np.std(encode_many(model, world.corpus[:20], PoolingSpec(2)),
               axis=0).mean()
print(f"mean per-coordinate spread over 20 sentences: {spread:.4f}")
