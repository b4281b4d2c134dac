"""Synthetic world: disjoint splits, the planted gold rule recomputed from
the emitted mapping file, byte-identical regeneration, and NLI labels."""

import hashlib
import json
import os
import re
import time

import numpy as np
import pytest

from sedkit.errors import DataError
from sedkit.objectives import LabeledNliPair
from sedkit.synthetic import (GOLD_MIN_TARGET, SyntheticWorldSpec,
                              build_synthetic_world, gen_synthetic_world,
                              load_nli_tsv, quantize_gold)

SPEC = SyntheticWorldSpec(clusters=4, sentences_per_cluster=10,
                          vocab_size=40, sts_pairs=15, nli_pairs=30, seed=3)


def tree_hashes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_spec_validation():
    with pytest.raises(DataError):
        SyntheticWorldSpec(clusters=1)
    with pytest.raises(DataError):
        SyntheticWorldSpec(clusters=6, vocab_size=11)
    with pytest.raises(DataError):
        SyntheticWorldSpec(min_len=1)
    with pytest.raises(DataError):
        SyntheticWorldSpec(sentences_per_cluster=2)  # cannot fill 3 splits


@pytest.mark.parametrize("field, value", [
    ("latent_dim", 0), ("sts_pairs", 0), ("nli_pairs", 0), ("nli_pairs", -3),
    ("temperature", 0.0), ("temperature", -1.0), ("temperature", float("nan")),
    ("temperature", float("inf"))])
def test_spec_rejects_out_of_range_fields(field, value):
    """A world with no latent axis (every gold 5.0), no pairs, or a
    temperature that makes no sampling distribution is refused when the
    spec is built, naming the field."""
    with pytest.raises(DataError, match=f"^{field} must be "):
        SyntheticWorldSpec(**{field: value})


def test_sts_pairs_bounded_by_the_smallest_split():
    """3 clusters of 12 sentences leave dev and test 6 sentences each,
    15 distinct pairs: one more is rejected, not drawn for ever."""
    fields = dict(clusters=3, sentences_per_cluster=12, vocab_size=40,
                  nli_pairs=24)
    with pytest.raises(DataError, match="sts_pairs = 16 exceeds the 15 "
                       "distinct pairs of the dev split's 6 sentences"):
        SyntheticWorldSpec(sts_pairs=16, **fields)
    world = build_synthetic_world(SyntheticWorldSpec(sts_pairs=15, **fields))
    for task in world.sts.values():
        assert len({frozenset((p.sentence_1, p.sentence_2))
                    for p in task.pairs}) == 15


def test_sentence_count_bounded_by_the_distinct_sentences():
    """2 clusters of 30 sentences need 60 distinct ones, and 4 words make
    only 16 of length 2: the spec is rejected, not drawn for ever. A spec
    within that bound whose clusters put all their weight on one word
    stops with a `DataError` after a run of repeated draws."""
    start = time.monotonic()
    with pytest.raises(DataError, match="need 60 distinct sentences, but 4 "
                       r"words at lengths 2\.\.2 make only 16"):
        build_synthetic_world(SyntheticWorldSpec(
            clusters=2, vocab_size=4, min_len=2, max_len=2,
            sentences_per_cluster=30, sts_pairs=10, nli_pairs=4))
    SyntheticWorldSpec(clusters=2, vocab_size=4, min_len=2, max_len=2,
                       sentences_per_cluster=8, sts_pairs=1, nli_pairs=4)
    with pytest.raises(DataError, match="repeated sentences in a row"):
        build_synthetic_world(SyntheticWorldSpec(
            clusters=2, vocab_size=40, temperature=1e-6, min_len=2,
            max_len=2, sentences_per_cluster=10, sts_pairs=4, nli_pairs=4))
    assert time.monotonic() - start < 5.0


def test_quantize_gold():
    assert quantize_gold(3.14159) == 3.1
    assert quantize_gold(0.85) == 0.8  # numpy round-half-to-even
    assert quantize_gold(5.0) == 5.0


def test_splits_disjoint_and_sized(tiny_world):
    spec = tiny_world.spec
    train = set(tiny_world.sentences["train"])
    dev = set(tiny_world.sentences["dev"])
    test = set(tiny_world.sentences["test"])
    assert not (train & dev) and not (train & test) and not (dev & test)
    per = spec.sentences_per_cluster
    assert len(train) == spec.clusters * round(0.6 * per)
    assert len(dev) == spec.clusters * round(0.2 * per)
    total = spec.clusters * per
    assert len(train) + len(dev) + len(test) == total
    assert len(tiny_world.corpus) == total
    # all sentences distinct across the whole world
    assert len(set(tiny_world.corpus)) == total


def test_every_sentence_has_a_cluster(tiny_world):
    for sent in tiny_world.corpus:
        assert sent in tiny_world.cluster_of
        assert 0 <= tiny_world.cluster_of[sent] < tiny_world.spec.clusters


def test_gold_rule_and_range():
    world = build_synthetic_world(SPEC)
    # same cluster: distance 0, gold exactly 5
    assert world.gold_between(2, 2) == 5.0
    golds = []
    for a in range(SPEC.clusters):
        for b in range(a + 1, SPEC.clusters):
            g = world.gold_between(a, b)
            golds.append(g)
            d = np.linalg.norm(world.centers[a] - world.centers[b])
            assert g == quantize_gold(5.0 * np.exp(-d))
            assert 0.0 <= g <= 5.0
    # scaling pins the most distant pair at the configured floor
    assert min(golds) == quantize_gold(GOLD_MIN_TARGET)


def test_task_pairs_follow_gold_rule():
    world = build_synthetic_world(SPEC)
    for split in ("train", "dev", "test"):
        task = world.sts[split]
        assert task.name == f"sts_{split}"
        assert len(task.pairs) == SPEC.sts_pairs
        pool = set(world.sentences[split])
        for p in task.pairs:
            assert p.sentence_1 in pool and p.sentence_2 in pool
            ca = world.cluster_of[p.sentence_1]
            cb = world.cluster_of[p.sentence_2]
            assert p.gold == world.gold_between(ca, cb)
        # quantization leaves one decimal place
        for p in task.pairs:
            assert abs(p.gold * 10 - round(p.gold * 10)) < 1e-9


def test_gold_distribution_has_ties():
    world = build_synthetic_world(SPEC)
    golds = [p.gold for p in world.sts["test"].pairs]
    assert len(set(golds)) < len(golds)


def test_nli_labels_follow_geometry():
    world = build_synthetic_world(SPEC)
    assert len(world.nli) == SPEC.nli_pairs
    train = set(world.sentences["train"])
    for p in world.nli:
        assert p.premise in train and p.hypothesis in train
        ca = world.cluster_of[p.premise]
        cb = world.cluster_of[p.hypothesis]
        if ca == cb:
            assert p.label == "entailment"
        else:
            d = np.linalg.norm(world.centers[ca] - world.centers[cb])
            expected = ("neutral" if d <= world.neutral_threshold
                        else "contradiction")
            assert p.label == expected


def test_nli_all_labels_present():
    world = build_synthetic_world(SyntheticWorldSpec(seed=7))
    labels = {p.label for p in world.nli}
    assert labels == {"entailment", "neutral", "contradiction"}


def test_regeneration_byte_identical(tmp_path):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    gen_synthetic_world(SPEC, d1)
    gen_synthetic_world(SPEC, d2)
    h1, h2 = tree_hashes(d1), tree_hashes(d2)
    assert set(h1) == {"corpus.txt", "sts_train.tsv", "sts_dev.tsv",
                       "sts_test.tsv", "nli.tsv", "world.json"}
    assert h1 == h2


def test_different_seed_differs(tmp_path):
    import dataclasses
    gen_synthetic_world(SPEC, tmp_path / "a")
    gen_synthetic_world(dataclasses.replace(SPEC, seed=4), tmp_path / "b")
    assert (tree_hashes(tmp_path / "a")["corpus.txt"]
            != tree_hashes(tmp_path / "b")["corpus.txt"])


def test_world_json_recomputes_golds(tmp_path):
    """The mapping file must carry enough to re-derive every gold score
    in the emitted TSVs from the planted rule alone."""
    gen_synthetic_world(SPEC, tmp_path)
    mapping = json.loads((tmp_path / "world.json").read_text())
    centers = np.array(mapping["centers"])
    cluster_of = mapping["cluster_of"]
    for split in ("train", "dev", "test"):
        for line in (tmp_path / f"sts_{split}.tsv").read_text().splitlines():
            s1, s2, g = line.split("\t")
            ca, cb = cluster_of[s1], cluster_of[s2]
            d = np.linalg.norm(centers[ca] - centers[cb])
            assert float(g) == quantize_gold(5.0 * np.exp(-d))


def test_emitted_files_parse_back(tmp_path):
    from sedkit.evalsts import load_sts_tsv
    world = gen_synthetic_world(SPEC, tmp_path)
    task = load_sts_tsv(tmp_path / "sts_dev.tsv")
    assert len(task.pairs) == SPEC.sts_pairs
    assert [p.gold for p in task.pairs] == [p.gold
                                            for p in world.sts["dev"].pairs]
    nli = load_nli_tsv(tmp_path / "nli.tsv")
    assert nli == world.nli
    corpus = (tmp_path / "corpus.txt").read_text().splitlines()
    assert corpus == world.corpus


def test_load_nli_tsv_guards(tmp_path):
    path = tmp_path / "nli.tsv"
    for text, message in (
            ("just one field\n",
             "line 1: expected 3 tab-separated fields, found 1"),
            ("a\tb\tneutral\na\tb\tmaybe\n",
             "line 2: unknown NLI label: 'maybe'"),
            ("\n\n", "no data lines"),
            ("# premise\thypothesis\tlabel\n", "no data lines")):
        path.write_text(text)
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(path))}: {message}$"):
            load_nli_tsv(path)
    path.write_text("# premise\thypothesis\tlabel\n\na\tb\tentailment\n")
    assert load_nli_tsv(path) == [LabeledNliPair("a", "b", "entailment")]


def test_lexical_signal_present():
    """Word overlap should correlate with gold: the mechanism the encoders
    are supposed to pick up. Jaccard vs gold Spearman, loose threshold."""
    from sedkit.evalsts import spearman
    world = build_synthetic_world(SyntheticWorldSpec(seed=7))
    pairs = world.sts["train"].pairs
    jac, golds = [], []
    for p in pairs:
        a, b = set(p.sentence_1.split()), set(p.sentence_2.split())
        jac.append(len(a & b) / len(a | b))
        golds.append(p.gold)
    rho = spearman(jac, golds)
    assert rho > 0.3, f"lexical signal too weak: {rho:.3f}"
