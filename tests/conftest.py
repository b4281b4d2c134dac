"""Shared fixtures.

Everything here is desk scale: a tiny synthetic world and a lightly
pretrained encoder that the unit tests share so the suite stays fast.
The acceptance tests build their own larger fixtures in
test_acceptance.py.
"""

import numpy as np
import pytest

from sedkit.config import PretrainSection
from sedkit.encoder import (EncoderArch, EncoderModel, PoolingSpec,
                            Vocabulary, pretrain_base)
from sedkit.synthetic import SyntheticWorldSpec, build_synthetic_world

TINY_ARCH = EncoderArch(layers=2, hidden=8, heads=2, ff=16, max_len=8)


@pytest.fixture(scope="session")
def tiny_world():
    spec = SyntheticWorldSpec(
        clusters=3,
        sentences_per_cluster=10,
        vocab_size=30,
        sts_pairs=12,
        nli_pairs=24,
        seed=11,
    )
    return build_synthetic_world(spec)


@pytest.fixture(scope="session")
def tiny_corpus(tiny_world):
    return tiny_world.corpus


@pytest.fixture(scope="session")
def tiny_vocab(tiny_corpus):
    return Vocabulary.build(tiny_corpus)


@pytest.fixture(scope="session")
def tiny_model(tiny_corpus) -> EncoderModel:
    cfg = PretrainSection(steps=40, batch=8, lr=1e-3, mask_prob=0.15)
    return pretrain_base(tiny_corpus, TINY_ARCH, cfg, 5)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def max_rel_err(analytic: float, numeric: float, floor: float = 1e-3) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


@pytest.fixture(scope="session")
def train_pool():
    return PoolingSpec(1)


@pytest.fixture(scope="session")
def eval_pool():
    return PoolingSpec(2)
