"""Acceptance gate.

Ten numbered criteria, one test each, in order. Every assertion states
its tolerance inline; criteria with a runtime budget assert wall-clock
time against it. The heavier fixtures (a seeded synthetic world, a
pretrained base encoder, four contrastively trained teachers and three
distilled students) are shared across criteria 3, 5, 6, 7, 8, 9 and 10.

Run with `pytest tests/test_acceptance.py -v` for one line per criterion.
"""

import math
import time

import numpy as np
import pytest

import sedkit.diffcore as dc
from sedkit.config import (CtSection, EvalSection, FlowSection, GridSection,
                           PretrainSection, RunConfig, RunSection, SedSection)
from sedkit.diffcore import Tensor
from sedkit.encoder import (EncoderArch, PoolingSpec, Vocabulary,
                            encode_batch, encode_many, init_encoder,
                            pretrain_base)
from sedkit.evalsts import ScoredPair, StsTask, evaluate_suite, pearson, spearman
from sedkit.experiments import (TRAIN_POOL, DataBundle, _run_each,
                                derive_seed, distill_stage,
                                full_ensemble_predict,
                                grid_search_lower_bound, member_stage,
                                pooling_ablation, run_pipeline)
from sedkit.flow import (CouplingFlow, fit_flow, flow_forward, flow_nll,
                         flow_nll_value)
from sedkit.objectives import (CtPair, EnsembleSpec, LabeledNliPair, NliHead,
                               RegressionTargetMap, ct_loss,
                               ensemble_mean_embeddings, nli_siamese_loss,
                               sample_ct_batches, sed_loss,
                               sts_regression_loss)
from sedkit.synthetic import SyntheticWorldSpec, build_synthetic_world

MASTER_SEED = 7
DESK_ARCH = EncoderArch(layers=2, hidden=32, heads=2, ff=64, max_len=32)
FD_ARCH = EncoderArch(layers=2, hidden=8, heads=2, ff=16, max_len=8)
EVAL_POOL = PoolingSpec(2)


@pytest.fixture(scope="module")
def world():
    return build_synthetic_world(SyntheticWorldSpec(seed=MASTER_SEED))


@pytest.fixture(scope="module")
def base(world):
    t0 = time.monotonic()
    model = pretrain_base(
        world.corpus, DESK_ARCH,
        PretrainSection(steps=300, batch=32, lr=1e-3, mask_prob=0.15),
        derive_seed(MASTER_SEED, "pretrain", 0))
    return {"model": model, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def cohort(world, base):
    """Four CT teachers, three SED students, and their test-suite scores.
    Each group trains through the stage runner, fanned out like the
    stability study's; stage seeds come from `MASTER_SEED`, and the
    `[ct]` and `[sed]` sections are the defaults."""
    t0 = time.monotonic()
    corpus = world.corpus
    cfg = RunConfig(run=RunSection(seed=MASTER_SEED))
    teachers = [m for m, _ in _run_each(
        member_stage, [("ct", cfg, base["model"], corpus, i)
                       for i in range(4)],
        [derive_seed(MASTER_SEED, "ct", i) for i in range(4)])]
    students = [m for m, _ in _run_each(
        distill_stage, [(cfg, teachers, corpus, base["model"], r)
                        for r in range(3)],
        [derive_seed(MASTER_SEED, "sed", r) for r in range(3)])]
    tasks = [world.sts["test"]]
    t_scores = [evaluate_suite(m, tasks, EVAL_POOL).average_spearman_x100
                for m in teachers]
    s_scores = [evaluate_suite(m, tasks, EVAL_POOL).average_spearman_x100
                for m in students]
    return {"teachers": teachers, "students": students, "tasks": tasks,
            "teacher_scores": t_scores, "student_scores": s_scores,
            "elapsed": time.monotonic() - t0}


# -- criterion 1: gradient suite ------------------------------------------

def fd_worst_rel_err(loss_fn, params, rng, n_coords=12, h=1e-6):
    """Max relative error of reverse-mode grads against central FD over
    randomly sampled parameter coordinates."""
    for p in params:
        p.zero_grad()
    loss_fn().backward()
    grads = [p.grad.copy() for p in params]
    worst = 0.0
    for _ in range(n_coords):
        pi = int(rng.integers(len(params)))
        p = params[pi]
        idx = np.unravel_index(int(rng.integers(p.data.size)), p.data.shape)
        orig = p.data[idx]
        with dc.no_grad():
            p.data[idx] = orig + h
            f_plus = float(loss_fn().data)
            p.data[idx] = orig - h
            f_minus = float(loss_fn().data)
        p.data[idx] = orig
        fd = (f_plus - f_minus) / (2.0 * h)
        ad = float(grads[pi][idx])
        worst = max(worst, abs(ad - fd) / max(abs(ad), abs(fd), 1e-3))
    return worst


def test_criterion_01_gradient_suite():
    """Every objective's gradients match central finite differences with
    max relative error < 1e-4, over 20 random seeds each; < 2 min."""
    t0 = time.monotonic()
    words = [f"w{i}" for i in range(20)]
    setup_rng = np.random.default_rng(0)
    sents = [" ".join(setup_rng.choice(words,
                                       size=int(setup_rng.integers(3, 7))))
             for _ in range(12)]
    vocab = Vocabulary.build(sents)
    pool = PoolingSpec(1)
    nli_labels = ("entailment", "neutral", "contradiction")
    worst = {name: 0.0 for name in
             ("sed_loss", "ct_loss", "nli_siamese_loss",
              "sts_regression_loss", "flow_nll")}
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        model = init_encoder(FD_ARCH, vocab, seed=seed)

        target = rng.normal(size=(3, FD_ARCH.hidden))
        batch3 = [sents[int(rng.integers(len(sents)))] for _ in range(3)]
        worst["sed_loss"] = max(worst["sed_loss"], fd_worst_rel_err(
            lambda: sed_loss(target, encode_batch(model, batch3, pool)),
            model.parameters(), rng))

        model_b = init_encoder(FD_ARCH, vocab, seed=seed + 100)
        anchor = sents[seed % len(sents)]
        others = [s for s in sents if s != anchor]
        ct_batch = [CtPair(anchor, anchor, 1)] + [
            CtPair(anchor, others[(seed + k) % len(others)], 0)
            for k in range(3)]
        worst["ct_loss"] = max(worst["ct_loss"], fd_worst_rel_err(
            lambda: ct_loss(model, model_b, ct_batch),
            model.parameters() + model_b.parameters(), rng))

        head = NliHead.init(FD_ARCH.hidden, seed=seed)
        nli_batch = [LabeledNliPair(sents[k], sents[k + 4],
                                    nli_labels[k % 3]) for k in range(4)]
        worst["nli_siamese_loss"] = max(
            worst["nli_siamese_loss"], fd_worst_rel_err(
                lambda: nli_siamese_loss(model, head, nli_batch),
                model.parameters() + head.parameters(), rng))

        sts_batch = [ScoredPair(sents[k], sents[k + 3],
                                float(rng.uniform(0.0, 5.0)))
                     for k in range(3)]
        tmap = RegressionTargetMap(0.5)
        worst["sts_regression_loss"] = max(
            worst["sts_regression_loss"], fd_worst_rel_err(
                lambda: sts_regression_loss(model, sts_batch, tmap),
                model.parameters(), rng))

        flow = CouplingFlow(6, 2, seed=seed)
        for p in flow.parameters():
            p.data = p.data + rng.normal(0.0, 0.05, size=p.data.shape)
        X = rng.normal(size=(4, 6))
        worst["flow_nll"] = max(worst["flow_nll"], fd_worst_rel_err(
            lambda: flow_nll(flow, X), flow.parameters(), rng))

    elapsed = time.monotonic() - t0
    for name, err in worst.items():
        assert err < 1e-4, f"{name}: max relative error {err:.3e}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# -- criterion 2: correlation oracle --------------------------------------

def oracle_ranks(values):
    return [1.0 + sum(1 for b in values if b < a)
            + 0.5 * sum(1 for k, b in enumerate(values)
                        if b == a and k != i)
            for i, a in enumerate(values)]


def oracle_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def oracle_spearman(x, y):
    return oracle_pearson(oracle_ranks(x), oracle_ranks(y))


def test_criterion_02_correlation_oracle():
    """pearson/spearman agree with a brute-force oracle within 1e-12 on
    1000 random instances with >= 30% tied data; hand cases exact; < 30s."""
    t0 = time.monotonic()
    assert pearson(np.array([1.0, 2.0, 3.0]),
                   np.array([1.0, 3.0, 2.0])) == 0.5
    # tie-rank case: ranks [1, 2.5, 2.5, 4] vs [1, 2, 3.5, 3.5] give 5/6
    tied = spearman(np.array([1.0, 2.0, 2.0, 3.0]),
                    np.array([1.0, 2.0, 3.0, 3.0]))
    assert abs(tied - 5.0 / 6.0) < 1e-15

    rng = np.random.default_rng(2024)
    tied_instances = 0
    for case in range(1000):
        n = int(rng.integers(3, 61))
        while True:
            if case % 2 == 0:
                x = rng.integers(0, 6, size=n).astype(float)
                y = rng.integers(0, 6, size=n).astype(float)
            else:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            if len(set(x)) > 1 and len(set(y)) > 1:
                break
        if len(set(x)) < n or len(set(y)) < n:
            tied_instances += 1
        assert abs(pearson(x, y) - oracle_pearson(list(x), list(y))) < 1e-12
        assert abs(spearman(x, y)
                   - oracle_spearman(list(x), list(y))) < 1e-12
    elapsed = time.monotonic() - t0
    assert tied_instances >= 300, f"only {tied_instances} tied instances"
    assert elapsed < 30.0, f"correlation oracle took {elapsed:.1f}s"


# -- criterion 3: distillation fixed points -------------------------------

def test_criterion_03_ensemble_fixed_points(world, base, cohort):
    """N=1 ensemble mean equals the member embedding exactly; sed_loss is
    0 iff student output equals the target; member gradients are exactly
    zero."""
    member = cohort["teachers"][0]
    solo = EnsembleSpec([member])
    for sentence in world.corpus[:5]:
        with dc.no_grad():
            ref = encode_batch(member, [sentence], TRAIN_POOL).data[0]
        assert np.array_equal(
            ensemble_mean_embeddings(solo, [sentence], TRAIN_POOL)[0], ref)

    ens = EnsembleSpec(cohort["teachers"])
    target = ensemble_mean_embeddings(ens, world.corpus[:6], TRAIN_POOL)
    assert float(sed_loss(target, Tensor(target.copy())).data) == 0.0
    nudged = target.copy()
    nudged[0, 0] += 1e-9
    assert float(sed_loss(target, Tensor(nudged)).data) > 0.0

    student = base["model"].clone()
    all_params = [p for m in cohort["teachers"] for p in m.parameters()]
    for p in all_params + student.parameters():
        p.zero_grad()
    loss = sed_loss(target, encode_batch(student, world.corpus[:6],
                                         TRAIN_POOL))
    loss.backward()
    for p in all_params:
        assert not np.any(p.grad)
    assert any(np.any(p.grad) for p in student.parameters())


# -- criterion 4: flow suite ----------------------------------------------

def test_criterion_04_flow_suite():
    """Round-trip inversion < 1e-9; analytic log-det vs brute-force
    Jacobian < 1e-5 at D <= 8; fitting on N(5,1) data strictly reduces
    NLL vs the identity flow; < 2 min."""
    t0 = time.monotonic()
    for dim, layers, scale in ((8, 3, 0.3), (32, 4, 0.1)):
        rng = np.random.default_rng(5)
        flow = CouplingFlow(dim, layers, seed=1)
        for p in flow.parameters():
            p.data = p.data + rng.normal(0.0, scale, size=p.data.shape)
        X = rng.normal(size=(16, dim))
        z, _ = flow_forward(flow, X)
        err = float(np.max(np.abs(flow.inverse(z) - X)))
        assert err < 1e-9, f"round trip at D={dim}: {err:.3e}"

    h = 1e-5
    for dim in (4, 6, 8):
        rng = np.random.default_rng(dim)
        flow = CouplingFlow(dim, 3, seed=dim)
        for p in flow.parameters():
            p.data = p.data + rng.normal(0.0, 0.2, size=p.data.shape)
        x = rng.normal(size=(1, dim))
        _, analytic = flow_forward(flow, x)
        J = np.empty((dim, dim))
        for j in range(dim):
            e = np.zeros((1, dim))
            e[0, j] = h
            zp, _ = flow_forward(flow, x + e)
            zm, _ = flow_forward(flow, x - e)
            J[:, j] = (zp[0] - zm[0]) / (2.0 * h)
        sign, logdet = np.linalg.slogdet(J)
        assert sign > 0
        assert abs(logdet - analytic[0]) < 1e-5, f"log-det at D={dim}"

    rng = np.random.default_rng(3)
    X = rng.normal(5.0, 1.0, size=(256, 8))
    nll_identity = flow_nll_value(CouplingFlow(8, 3, seed=0), X)
    flow = fit_flow(X, FlowSection(layers=3, lr=5e-3, epochs=40, batch=64),
                    0, 0)
    nll_fitted = flow_nll_value(flow, X)
    assert nll_fitted < nll_identity, (
        f"NLL {nll_identity:.4f} -> {nll_fitted:.4f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"flow suite took {elapsed:.1f}s"


# -- criteria 5 and 6: desk-scale relational claims -----------------------

def test_criterion_05_sed_run_stability(base, cohort):
    """Mean student score >= mean teacher score - 1.0 and student spread
    <= teacher spread, fixed seeds; < 15 min including model training."""
    t_scores = np.array(cohort["teacher_scores"])
    s_scores = np.array(cohort["student_scores"])
    assert s_scores.mean() >= t_scores.mean() - 1.0, (
        f"students {s_scores.mean():.2f} vs teachers {t_scores.mean():.2f}")
    assert s_scores.std() <= t_scores.std(), (
        f"student std {s_scores.std():.3f} vs teacher std "
        f"{t_scores.std():.3f}")
    total = base["elapsed"] + cohort["elapsed"]
    assert total < 900.0, f"training chain took {total:.0f}s"


def test_criterion_06_full_ensemble_beats_member_mean(cohort):
    """Ensemble-mean prediction >= mean of member scores on the suite."""
    ens_score = full_ensemble_predict(
        EnsembleSpec(cohort["teachers"]), cohort["tasks"],
        EVAL_POOL).average_spearman_x100
    member_mean = float(np.mean(cohort["teacher_scores"]))
    assert ens_score >= member_mean, (
        f"ensemble {ens_score:.2f} vs member mean {member_mean:.2f}")


# -- criterion 7: grid search ---------------------------------------------

def test_criterion_07_grid_search_recovers_planted_bound(world, base):
    """A construction whose regression targets at bound 0.5 equal the
    model's own cosines is planted; the 20-bound sweep must select 0.5,
    and a single-candidate sweep selects trivially; < 10 min.

    Pair golds are 10c - 5 for cosine c, so at bound 0.5 the mapped
    target is 0.5 + (g / 5) * 0.5 = c exactly: training at 0.5 is a
    fixed point and every other bound pulls the model away from the
    planted dev ranking.
    """
    t0 = time.monotonic()
    model = base["model"]
    corpus = world.corpus
    embs = encode_many(model, corpus, TRAIN_POOL)
    norms = np.linalg.norm(embs, axis=1)
    rng = np.random.default_rng(99)
    low, high, seen = [], [], []
    for _ in range(20000):
        i, j = (int(v) for v in rng.choice(len(corpus), size=2,
                                           replace=False))
        c = float(embs[i] @ embs[j] / (norms[i] * norms[j]))
        if not 0.502 <= c <= 0.99:
            continue
        if any(abs(c - s) < 1e-6 for s in seen):
            continue
        bucket = low if c <= 0.65 else high
        if len(bucket) < 35:
            bucket.append((corpus[i], corpus[j], c))
            seen.append(c)
        if len(low) == 35 and len(high) == 35:
            break
    assert len(low) == 35 and len(high) == 35
    ordered = low[:20] + high[:20] + low[20:] + high[20:]
    train = [ScoredPair(a, b, 10.0 * c - 5.0) for a, b, c in ordered[:40]]
    dev = StsTask("planted_dev",
                  tuple(ScoredPair(a, b, 10.0 * c - 5.0)
                        for a, b, c in ordered[40:]))

    cfg = GridSection()
    result = grid_search_lower_bound(model, train, dev, cfg.bounds,
                                     cfg.seeds_per_bound, cfg=cfg,
                                     master_seed=MASTER_SEED)
    assert result.selected_bound == 0.5, (
        f"selected {result.selected_bound}, "
        f"means {sorted(result.mean_by_bound.items())}")

    trivial_cfg = GridSection(bounds=(0.3,), seeds_per_bound=1, steps=2,
                              batch=16, lr=1e-4)
    trivial = grid_search_lower_bound(model, train, dev, (0.3,), 1,
                                      cfg=trivial_cfg,
                                      master_seed=MASTER_SEED)
    assert trivial.selected_bound == 0.3
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"grid search took {elapsed:.1f}s"


# -- criterion 8: pipeline determinism ------------------------------------

def test_criterion_08_pipeline_determinism(world, tmp_path):
    """[pretrain, ct, sed, flow] run twice with one config produces
    bit-identical checkpoints and identical correlation reports."""
    cfg = RunConfig(
        run=RunSection(stages=("pretrain", "ct", "sed", "flow"), seed=21),
        arch=EncoderArch(layers=2, hidden=8, heads=2, ff=16, max_len=8),
        pretrain=PretrainSection(steps=60, batch=8, lr=1e-3,
                                 mask_prob=0.15),
        ct=CtSection(steps=30, batch=8, start_lr=1e-4, end_lr=1e-5,
                     negatives_per_positive=7),
        sed=SedSection(members=2, epochs=3, batch=16, peak_lr=1e-3,
                       warmup_fraction=0.1),
        flow=FlowSection(layers=2, lr=1e-3, epochs=2, batch=16),
        eval=EvalSection(pool_k=2),
    )
    bundle = DataBundle(world.corpus, [world.sts["test"]])
    out = [tmp_path / "r1", tmp_path / "r2"]
    results = [run_pipeline(cfg, bundle, out_dir=d) for d in out]
    r1, r2 = results
    assert r1.manifest == r2.manifest
    assert r1.manifest["checkpoints"] == r2.manifest["checkpoints"]
    for name in r1.manifest["checkpoints"]:
        b1 = (out[0] / f"{name}.ckpt").read_bytes()
        b2 = (out[1] / f"{name}.ckpt").read_bytes()
        assert b1 == b2, f"{name}.ckpt differs between runs"
    assert (r1.report.average_pearson_x100
            == r2.report.average_pearson_x100)
    assert (r1.report.average_spearman_x100
            == r2.report.average_spearman_x100)
    for name in r1.report.per_task:
        assert (r1.report.per_task[name].spearman_x100
                == r2.report.per_task[name].spearman_x100)


# -- criterion 9: pooling ablation ----------------------------------------

def test_criterion_09_pooling_ablation_consistency(base, cohort):
    """Each cell of the k in {1,2,3} grid equals a standalone
    evaluate_suite call with that PoolingSpec."""
    models = {"base": base["model"], "teacher_0": cohort["teachers"][0]}
    table = pooling_ablation(models, cohort["tasks"])
    for name, model in models.items():
        for k in (1, 2, 3):
            standalone = evaluate_suite(model, cohort["tasks"],
                                        PoolingSpec(k))
            assert table[name][k] == standalone.average_spearman_x100, (
                f"{name} at k={k}")


# -- criterion 10: CT batch composition -----------------------------------

def test_criterion_10_ct_batch_composition(world):
    """With 7 negatives per positive at batch size 16, every one of 1000
    sampled batches holds exactly 2 positives and 14 negatives, in
    anchor-led blocks."""
    stream = sample_ct_batches(world.corpus, 7, 16, seed=123)
    expected_labels = ([1] + [0] * 7) * 2
    for _ in range(1000):
        batch = next(stream)
        assert len(batch) == 16
        assert [p.label for p in batch] == expected_labels
        for start in (0, 8):
            block = batch[start : start + 8]
            anchor = block[0].sentence_a
            assert block[0].sentence_b == anchor
            negatives = [p.sentence_b for p in block[1:]]
            assert all(p.sentence_a == anchor for p in block[1:])
            assert anchor not in negatives
            assert len(set(negatives)) == 7
