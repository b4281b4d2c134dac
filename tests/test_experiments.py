"""Orchestration: seed derivation, stage validation, distillation training
properties, pipeline determinism and manifests, stability statistics
against hand loops, grid search selection, and early stopping."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import sedkit.diffcore as dc
from sedkit.config import (ArchSection, CtSection, EvalSection, FlowSection,
                           GridSection, NliSection, PretrainSection,
                           RunConfig, RunSection, SedSection,
                           StabilitySection, SupervisedSection, parse_config)
from sedkit.encoder import (PoolingSpec, encode, encode_batch, encode_many,
                            init_encoder)
from sedkit.errors import (ConfigError, ConstantInputError, DataError,
                           ShapeMismatchError)
from sedkit.evalsts import ScoredPair, StsTask, cosine, evaluate_suite, evaluate_task
from sedkit.experiments import (TRAIN_POOL, DataBundle, GridSearchResult,
                                PipelineSpec, StabilityReport,
                                ablation_csv, derive_seed,
                                full_ensemble_predict, grid_csv,
                                grid_search_lower_bound, pooling_ablation,
                                run_pipeline, select_bound, stability_csv,
                                stability_study, train_ct, train_nli,
                                train_sed, train_supervised_with_early_stopping,
                                write_manifest)
from sedkit.objectives import EnsembleSpec, RegressionTargetMap

from conftest import TINY_ARCH

TINY_CT = CtSection(steps=6, batch=8, start_lr=1e-4, end_lr=1e-5,
                    negatives_per_positive=7)
TINY_SED = SedSection(members=2, epochs=2, batch=8, peak_lr=1e-3,
                      warmup_fraction=0.1)


def tiny_run_config(stages):
    return RunConfig(
        run=RunSection(stages=tuple(stages), seed=13, out_dir="runs"),
        arch=ArchSection(layers=2, hidden=8, heads=2, ff=16, max_len=8),
        pretrain=PretrainSection(steps=30, batch=8, lr=1e-3, mask_prob=0.15),
        nli=NliSection(steps=6, batch=8, peak_lr=2e-4, warmup_fraction=0.1),
        ct=TINY_CT,
        sed=TINY_SED,
        flow=FlowSection(layers=2, lr=1e-3, epochs=1, batch=8),
        eval=EvalSection(pool_k=2),
    )


# -- seed derivation ------------------------------------------------------

def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "ct", 2) == derive_seed(7, "ct", 2)
    seen = set()
    for role in ("pretrain", "nli", "ct", "sed", "flow", "supervised",
                 "grid", "stability"):
        for idx in range(4):
            seen.add(derive_seed(7, role, idx))
    assert len(seen) == 32
    assert derive_seed(7, "ct", 0) != derive_seed(8, "ct", 0)


def test_derive_seed_unknown_role():
    with pytest.raises(KeyError):
        derive_seed(0, "finetune", 0)


# -- pipeline spec validation ---------------------------------------------

def test_pipeline_spec_orderings():
    cfg = tiny_run_config(("pretrain", "ct", "sed"))
    PipelineSpec(("pretrain", "ct", "sed", "flow"), cfg)
    PipelineSpec(("pretrain",), cfg)
    PipelineSpec(("pretrain", "nli", "sed"), cfg)
    with pytest.raises(ConfigError, match="flow must be the last"):
        PipelineSpec(("pretrain", "flow", "ct"), cfg)
    with pytest.raises(ConfigError, match="pretrain must come first"):
        PipelineSpec(("ct", "pretrain"), cfg)
    with pytest.raises(ConfigError, match="duplicate"):
        PipelineSpec(("pretrain", "ct", "ct"), cfg)
    with pytest.raises(ConfigError, match="unknown stage"):
        PipelineSpec(("pretrain", "distill"), cfg)
    with pytest.raises(ConfigError, match="at least one"):
        PipelineSpec((), cfg)
    with pytest.raises(ConfigError, match="sed needs an ensemble"):
        PipelineSpec(("pretrain", "sed"), cfg)
    # a config built in code is validated too, so a bad member index
    # fails here rather than as an IndexError mid-run
    bad = dataclasses.replace(
        cfg, sed=dataclasses.replace(TINY_SED, student_init="member:99"))
    with pytest.raises(ConfigError, match="student_init"):
        PipelineSpec(("pretrain", "ct", "sed"), bad)


def test_pipeline_spec_from_config():
    cfg = tiny_run_config(("pretrain", "ct"))
    spec = PipelineSpec.from_config(cfg)
    assert spec.stages == ("pretrain", "ct")
    assert spec.config == cfg


def test_data_bundle_validation(tiny_world):
    with pytest.raises(DataError):
        DataBundle([], [tiny_world.sts["test"]])
    with pytest.raises(DataError):
        DataBundle(tiny_world.corpus, [])


# -- stage trainers -------------------------------------------------------

def test_train_ct_deterministic_and_nonmutating(tiny_model, tiny_corpus):
    before = [p.data.copy() for p in tiny_model.parameters()]
    m1 = train_ct(tiny_model, tiny_corpus, TINY_CT, seed=4)
    m2 = train_ct(tiny_model, tiny_corpus, TINY_CT, seed=4)
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)
    for p, snap in zip(tiny_model.parameters(), before):
        assert np.array_equal(p.data, snap)
    m3 = train_ct(tiny_model, tiny_corpus, TINY_CT, seed=5)
    assert any(not np.array_equal(a.data, b.data)
               for a, b in zip(m1.parameters(), m3.parameters()))


def test_train_nli_returns_model_only(tiny_model, tiny_world):
    cfg = NliSection(steps=4, batch=8, peak_lr=2e-4, warmup_fraction=0.1)
    out = train_nli(tiny_model, tiny_world.nli, cfg, seed=2)
    assert out.arch == tiny_model.arch  # an encoder, no head attached
    assert set(out.params) == set(tiny_model.params)
    again = train_nli(tiny_model, tiny_world.nli, cfg, seed=2)
    for a, b in zip(out.parameters(), again.parameters()):
        assert np.array_equal(a.data, b.data)
    with pytest.raises(DataError):
        train_nli(tiny_model, [], cfg, seed=2)


def test_train_sed_zero_epochs_identity(tiny_model, tiny_corpus):
    ens = EnsembleSpec([tiny_model.clone(), tiny_model.clone()])
    student = tiny_model.clone()
    snap = [p.data.copy() for p in student.parameters()]
    out = train_sed(ens, tiny_corpus, dataclasses.replace(TINY_SED, epochs=0),
                    seed=0, student=student)
    assert out is student
    for p, s in zip(out.parameters(), snap):
        assert np.array_equal(p.data, s)


def test_train_sed_arch_mismatch_names_both(tiny_model, tiny_vocab):
    from sedkit.encoder import EncoderArch
    other_arch = EncoderArch(layers=2, hidden=16, heads=2, ff=16, max_len=8)
    student = init_encoder(other_arch, tiny_vocab, seed=0)
    ens = EnsembleSpec([tiny_model])
    with pytest.raises(ShapeMismatchError) as err:
        train_sed(ens, ["a b c d"], TINY_SED, seed=0, student=student)
    assert "hidden=16" in str(err.value) and "hidden=8" in str(err.value)


def test_train_sed_empty_corpus(tiny_model):
    ens = EnsembleSpec([tiny_model])
    with pytest.raises(DataError):
        train_sed(ens, [], TINY_SED, seed=0, student=tiny_model.clone())


def test_distillation_moves_student_to_copied_teacher(tiny_model,
                                                      tiny_corpus):
    """An ensemble of two copies of one teacher has the teacher itself as
    its mean; distillation must pull the student toward it, measured as
    held-out embedding MSE."""
    rng = np.random.default_rng(0)
    teacher = tiny_model.clone()
    for p in teacher.parameters():
        p.data = p.data + rng.normal(0.0, 0.05, size=p.data.shape)
    ens = EnsembleSpec([teacher, teacher])
    train, held = tiny_corpus[:24], tiny_corpus[24:]
    student = tiny_model.clone()
    t_held = encode_many(teacher, held, TRAIN_POOL)
    mse0 = float(np.mean((encode_many(student, held, TRAIN_POOL)
                          - t_held) ** 2))
    student = train_sed(ens, train,
                        dataclasses.replace(TINY_SED, epochs=30),
                        seed=3, student=student)
    mse1 = float(np.mean((encode_many(student, held, TRAIN_POOL)
                          - t_held) ** 2))
    assert mse1 < 0.1 * mse0, f"held-out MSE {mse0:.4f} -> {mse1:.4f}"


def test_sed_training_invariant_to_member_order(tiny_model, tiny_vocab,
                                                tiny_corpus):
    members = [train_ct(tiny_model, tiny_corpus, TINY_CT, seed=i)
               for i in range(3)]
    cfg = dataclasses.replace(TINY_SED, epochs=1)
    s1 = train_sed(EnsembleSpec(members), tiny_corpus[:16], cfg, seed=8,
                   student=tiny_model.clone())
    s2 = train_sed(EnsembleSpec([members[2], members[0], members[1]]),
                   tiny_corpus[:16], cfg, seed=8,
                   student=tiny_model.clone())
    for a, b in zip(s1.parameters(), s2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_precomputed_targets_match_batched_targets(tiny_model, tiny_corpus):
    """Computing all distillation targets in one pass and slicing must be
    bitwise identical to recomputing them per batch; padding to a fixed
    length makes encoding batch-size invariant."""
    from sedkit.objectives import ensemble_mean_embeddings
    members = [tiny_model.clone(), tiny_model.clone()]
    members[1].params["tok_emb"].data *= 0.95
    ens = EnsembleSpec(members)
    sents = list(tiny_corpus[:20])
    all_at_once = ensemble_mean_embeddings(ens, sents)
    for start in range(0, 20, 7):
        chunk = sents[start : start + 7]
        assert np.array_equal(ensemble_mean_embeddings(ens, chunk),
                              all_at_once[start : start + 7])


def test_encode_many_matches_single_batch(tiny_model, tiny_corpus):
    sents = list(tiny_corpus[:13])
    chunked = encode_many(tiny_model, sents, TRAIN_POOL, batch=4)
    with dc.no_grad():
        whole = encode_batch(tiny_model, sents, TRAIN_POOL).data
    assert np.array_equal(chunked, whole)


# -- ensembles ------------------------------------------------------------

def test_full_ensemble_single_member_equals_plain_eval(tiny_model,
                                                       tiny_world):
    tasks = [tiny_world.sts["test"]]
    pool = PoolingSpec(2)
    ens_report = full_ensemble_predict(EnsembleSpec([tiny_model]), tasks,
                                       pool)
    plain = evaluate_suite(tiny_model, tasks, pool)
    for name in ens_report.per_task:
        assert (ens_report.per_task[name].spearman_x100
                == plain.per_task[name].spearman_x100)
        assert (ens_report.per_task[name].pearson_x100
                == plain.per_task[name].pearson_x100)
    assert ens_report.metadata["n_members"] == 1


# -- pipelines ------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_bundle(tiny_world):
    return DataBundle(tiny_world.corpus,
                      [tiny_world.sts["test"]],
                      nli=tiny_world.nli)


def test_pipeline_deterministic(pipeline_bundle):
    cfg = tiny_run_config(("pretrain", "ct", "sed", "flow"))
    spec = PipelineSpec.from_config(cfg)
    r1 = run_pipeline(spec, pipeline_bundle)
    r2 = run_pipeline(spec, pipeline_bundle)
    assert r1.manifest == r2.manifest
    assert r1.manifest["checkpoints"] == r2.manifest["checkpoints"]
    assert (r1.report.average_spearman_x100
            == r2.report.average_spearman_x100)
    assert set(r1.manifest["checkpoints"]) == {
        "base", "member_0", "member_1", "student", "flow"}
    assert r1.manifest["completed_stages"] == ["pretrain", "ct", "sed",
                                               "flow"]


def test_pipeline_manifest_config_round_trips(pipeline_bundle):
    cfg = tiny_run_config(("pretrain", "ct"))
    result = run_pipeline(PipelineSpec.from_config(cfg), pipeline_bundle)
    assert parse_config(result.manifest["config_text"]) == cfg
    hashes = result.manifest["input_hashes"]
    assert set(hashes["tasks"]) == {"sts_test"}
    assert len(hashes["corpus"]) == 64


def test_pipeline_writes_artifacts(pipeline_bundle, tmp_path):
    from sedkit.checkpoint import load_checkpoint
    cfg = tiny_run_config(("pretrain", "ct"))
    result = run_pipeline(PipelineSpec.from_config(cfg), pipeline_bundle,
                          out_dir=tmp_path)
    names = sorted(os.listdir(tmp_path))
    assert names == ["base.ckpt", "manifest.json", "member_0.ckpt"]
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == result.manifest
    loaded = load_checkpoint(tmp_path / "member_0.ckpt")
    for a, b in zip(loaded.parameters(),
                    result.models["member_0"].parameters()):
        assert np.array_equal(a.data, b.data)


def test_pipeline_student_init_from_member(pipeline_bundle):
    cfg = tiny_run_config(("pretrain", "ct", "sed"))
    cfg = dataclasses.replace(
        cfg, sed=dataclasses.replace(TINY_SED, epochs=0,
                                     student_init="member:0"))
    result = run_pipeline(PipelineSpec.from_config(cfg), pipeline_bundle)
    # zero distillation epochs: the student is exactly its init, member 0
    assert (result.manifest["checkpoints"]["student"]
            == result.manifest["checkpoints"]["member_0"])


def test_pipeline_failure_preserves_manifest(pipeline_bundle, tmp_path):
    cfg = tiny_run_config(("pretrain", "nli"))
    bundle = DataBundle(pipeline_bundle.corpus, pipeline_bundle.tasks,
                        nli=None)
    with pytest.raises(DataError, match="NLI pairs"):
        run_pipeline(PipelineSpec.from_config(cfg), bundle,
                     out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failed_stage"] == "nli"
    assert manifest["completed_stages"] == ["pretrain"]
    assert "NLI pairs" in manifest["error"]


def test_pipeline_ct_without_base_fails(pipeline_bundle):
    cfg = tiny_run_config(("ct",))
    with pytest.raises(ConfigError, match="needs a base model"):
        run_pipeline(PipelineSpec.from_config(cfg), pipeline_bundle)


def test_write_manifest_round_trip(tmp_path):
    manifest = {"b": [1, 2], "a": {"x": 0.5}}
    path = tmp_path / "m.json"
    write_manifest(manifest, path)
    assert json.loads(path.read_text()) == manifest
    # sorted keys for byte-stable output
    assert path.read_text().index('"a"') < path.read_text().index('"b"')


# -- stability ------------------------------------------------------------

def test_stability_report_from_values_oracle():
    rep = StabilityReport.from_values("g", (1.0, 2.0, 3.0, 4.0))
    assert rep.count == 4
    assert rep.max == 4.0
    assert rep.mean == 2.5
    assert abs(rep.std - math.sqrt(1.25)) < 1e-15  # population: divide by n
    with pytest.raises(DataError):
        StabilityReport.from_values("empty", ())


def test_stability_study_statistics(tiny_model, tiny_world):
    cfg = tiny_run_config(("pretrain", "ct", "sed"))
    cfg = dataclasses.replace(cfg, stability=StabilitySection(runs=2))
    tasks = [tiny_world.sts["test"]]
    groups = stability_study(tiny_model, tiny_world.corpus, tasks, cfg)
    assert set(groups) == {"members", "full_ensemble", "students"}
    assert groups["members"].count == cfg.sed.members
    assert groups["full_ensemble"].count == 1
    assert groups["full_ensemble"].std == 0.0
    assert groups["students"].count == 2
    for rep in groups.values():
        vals = np.array(rep.values)
        assert rep.max == vals.max()
        assert abs(rep.mean - sum(rep.values) / len(rep.values)) < 1e-12
        hand_std = math.sqrt(sum((v - rep.mean) ** 2 for v in rep.values)
                             / len(rep.values))
        assert abs(rep.std - hand_std) < 1e-12
        assert rep.max >= rep.mean


def test_stability_study_needs_two_runs(tiny_model, tiny_world):
    cfg = tiny_run_config(("pretrain", "ct", "sed"))
    with pytest.raises(ConfigError):
        stability_study(tiny_model, tiny_world.corpus,
                        [tiny_world.sts["test"]], cfg, runs=1)


def test_stability_csv_states_estimator():
    reports = {"g": StabilityReport.from_values("g", (50.0, 52.0))}
    text = stability_csv(reports)
    assert "population standard deviation" in text.splitlines()[0]
    assert "g,2,52.00,51.00,1.00,50.00;52.00" in text


# -- grid search ----------------------------------------------------------

def test_select_bound_rules():
    assert select_bound({0.5: 90.0, 0.3: 95.0}) == 0.3
    # exact tie goes to the smaller bound
    assert select_bound({0.6: 50.0, 0.2: 50.0, 0.4: 49.0}) == 0.2
    assert select_bound({0.0: 1.0}) == 0.0


def test_grid_single_candidate_trivial(tiny_model, tiny_world):
    cfg = GridSection(bounds=(0.3,), seeds_per_bound=1, steps=2, batch=4,
                      lr=1e-3)
    result = grid_search_lower_bound(
        tiny_model, list(tiny_world.sts["train"].pairs),
        tiny_world.sts["dev"], (0.3,), seeds_per_bound=1, cfg=cfg,
        master_seed=0)
    assert result.selected_bound == 0.3
    assert len(result.scores_by_bound[0.3]) == 1
    assert result.mean_by_bound[0.3] == result.scores_by_bound[0.3][0]
    text = grid_csv(result)
    assert "# selection rule" in text
    assert "ties to the smaller bound" in text
    assert "selected,0.3" in text


def test_grid_argument_guards(tiny_model, tiny_world):
    dev = tiny_world.sts["dev"]
    pairs = list(tiny_world.sts["train"].pairs)
    with pytest.raises(ConfigError):
        grid_search_lower_bound(tiny_model, pairs, dev, (), 1)
    with pytest.raises(ConfigError):
        grid_search_lower_bound(tiny_model, pairs, dev, (1.0,), 1)
    with pytest.raises(DataError):
        grid_search_lower_bound(tiny_model, [], dev, (0.1,), 1)


# -- supervised with early stopping ---------------------------------------

def planted_pairs(model, corpus, index_pairs, flip=False):
    out, seen = [], set()
    for i, j in index_pairs:
        a, b = corpus[i], corpus[j]
        c = cosine(encode(model, a, TRAIN_POOL), encode(model, b, TRAIN_POOL))
        if c in seen:
            continue
        seen.add(c)
        g = 2.5 + 2.49 * math.tanh(3.0 * c)
        out.append(ScoredPair(a, b, (5.0 - g) if flip else g))
    return out


def test_early_stopping_on_degrading_dev(tiny_model, tiny_corpus):
    """Dev golds planted to match the initial model; training toward
    flipped golds degrades dev, so patience 1 stops the run early and the
    best (first-epoch) parameters come back."""
    dev = StsTask("dev_planted", tuple(
        planted_pairs(tiny_model, tiny_corpus,
                      [(i, i + 15) for i in range(10)])), split="dev")
    train = planted_pairs(tiny_model, tiny_corpus,
                          [(i, i + 7) for i in range(10)], flip=True)
    cfg = SupervisedSection(max_epochs=8, batch=4, lr=1e-3, patience=1,
                            lower_bound=0.0)
    model, traj = train_supervised_with_early_stopping(
        tiny_model.clone(), train, dev, RegressionTargetMap(0.0), cfg,
        seed=2)
    assert len(traj) < cfg.max_epochs
    _, dev_s = evaluate_task(model, dev, TRAIN_POOL)
    assert dev_s == max(traj)
    assert traj.index(max(traj)) == 0


def test_returned_model_matches_trajectory_max(tiny_model, tiny_world):
    cfg = SupervisedSection(max_epochs=4, batch=4, lr=1e-3, patience=2,
                            lower_bound=0.5)
    model, traj = train_supervised_with_early_stopping(
        tiny_model.clone(), list(tiny_world.sts["train"].pairs),
        tiny_world.sts["dev"], RegressionTargetMap(0.5), cfg, seed=0)
    assert 1 <= len(traj) <= cfg.max_epochs
    _, dev_s = evaluate_task(model, tiny_world.sts["dev"], TRAIN_POOL)
    assert dev_s == max(traj)


def test_supervised_guards(tiny_model, tiny_world):
    cfg = SupervisedSection(max_epochs=0, batch=4, lr=1e-3, patience=1,
                            lower_bound=0.0)
    pairs = list(tiny_world.sts["train"].pairs)
    with pytest.raises(ConfigError):
        train_supervised_with_early_stopping(
            tiny_model.clone(), pairs, tiny_world.sts["dev"],
            RegressionTargetMap(0.0), cfg)
    cfg = dataclasses.replace(cfg, max_epochs=2)
    with pytest.raises(DataError):
        train_supervised_with_early_stopping(
            tiny_model.clone(), [], tiny_world.sts["dev"],
            RegressionTargetMap(0.0), cfg)
    # overlap detection catches reversed sentence order too
    p = pairs[0]
    leaky_dev = StsTask("leaky", (ScoredPair(p.sentence_2, p.sentence_1,
                                             p.gold),) + tuple(pairs[1:3]),
                        split="dev")
    with pytest.raises(DataError, match="shares"):
        train_supervised_with_early_stopping(
            tiny_model.clone(), pairs, leaky_dev,
            RegressionTargetMap(0.0), cfg)


# -- pooling ablation -----------------------------------------------------

def test_ablation_matches_standalone_eval(tiny_model, tiny_world):
    tasks = [tiny_world.sts["test"]]
    other = tiny_model.clone()
    other.params["tok_emb"].data *= 0.9
    table = pooling_ablation({"base": tiny_model, "other": other}, tasks)
    assert set(table) == {"base", "other"}
    for name, model in (("base", tiny_model), ("other", other)):
        for k in (1, 2, 3):
            standalone = evaluate_suite(model, tasks, PoolingSpec(k))
            assert table[name][k] == standalone.average_spearman_x100
    text = ablation_csv(table)
    assert text.splitlines()[0] == "model,k1,k2,k3"
    assert len(text.splitlines()) == 3


def test_ablation_rejects_shallow_model(tiny_vocab, tiny_world):
    from sedkit.encoder import EncoderArch
    shallow = init_encoder(EncoderArch(layers=1, hidden=8, heads=2, ff=16,
                                       max_len=8), tiny_vocab, seed=0)
    with pytest.raises(DataError, match="too shallow"):
        pooling_ablation({"shallow": shallow}, [tiny_world.sts["test"]])
