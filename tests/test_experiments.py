"""Orchestration: seed derivation, stage validation, distillation training
properties, pipeline determinism and manifests, stability statistics
against hand loops, grid search selection, early stopping, and the one
training loop every trainer steps through."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

import sedkit.diffcore as dc
import sedkit.encoder as enc
import sedkit.experiments as ex
from sedkit.config import (CtSection, EvalSection, FlowSection, GridSection,
                           NliSection, PretrainSection, RunConfig,
                           RunSection, SedSection, StabilitySection,
                           SupervisedSection, parse_config)
from sedkit.encoder import (EncoderArch, PoolingSpec, encode_batch,
                            encode_many, init_encoder, pretrain_base)
from sedkit.errors import (ConfigError, ConstantInputError, DataError,
                           DivergenceError, ShapeMismatchError)
from sedkit.evalsts import ScoredPair, StsTask, cosine, evaluate_suite, evaluate_task
from sedkit.experiments import (TRAIN_POOL, DataBundle, GridSearchResult,
                                StabilityReport,
                                ablation_csv, derive_seed,
                                full_ensemble_predict, grid_csv,
                                grid_search_lower_bound, pooling_ablation,
                                run_pipeline, select_bound, stability_csv,
                                stability_study, train_ct, train_nli,
                                train_sed, train_supervised_with_early_stopping,
                                write_manifest)
from sedkit.flow import fit_flow
from sedkit.objectives import EnsembleSpec

from conftest import TINY_ARCH

TINY_CT = CtSection(steps=6, batch=8, start_lr=1e-4, end_lr=1e-5,
                    negatives_per_positive=7)
TINY_SED = SedSection(members=2, epochs=2, batch=8, peak_lr=1e-3,
                      warmup_fraction=0.1)


def tiny_run_config(stages):
    return RunConfig(
        run=RunSection(stages=tuple(stages), seed=13),
        arch=EncoderArch(layers=2, hidden=8, heads=2, ff=16, max_len=8),
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
                 "grid"):
        for idx in range(4):
            seen.add(derive_seed(7, role, idx))
    assert len(seen) == 28
    assert derive_seed(7, "ct", 0) != derive_seed(8, "ct", 0)


def test_derive_seed_unknown_role():
    with pytest.raises(KeyError):
        derive_seed(0, "finetune", 0)


# -- stage list validation ------------------------------------------------

def test_pipeline_spec_orderings():
    tiny_run_config(("pretrain", "ct", "sed", "flow"))
    tiny_run_config(("pretrain",))
    tiny_run_config(("pretrain", "nli", "sed"))
    with pytest.raises(ConfigError, match="flow must be the last"):
        tiny_run_config(("pretrain", "flow", "ct"))
    with pytest.raises(ConfigError, match="start with pretrain"):
        tiny_run_config(("ct", "pretrain"))
    with pytest.raises(ConfigError, match="duplicate"):
        tiny_run_config(("pretrain", "ct", "ct"))
    with pytest.raises(ConfigError, match="unknown stage"):
        tiny_run_config(("pretrain", "distill"))
    with pytest.raises(ConfigError, match="start with pretrain"):
        tiny_run_config(())
    with pytest.raises(ConfigError, match="sed needs an ensemble"):
        tiny_run_config(("pretrain", "sed"))
    # a config built in code is validated too, so a bad member index
    # fails here rather than as an IndexError mid-run
    with pytest.raises(ConfigError, match="student_init"):
        dataclasses.replace(TINY_SED, student_init="member:99")


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


def test_train_ct_member_owns_its_arrays(tiny_model, tiny_corpus):
    """The member keeps no view of the optimizer's buffers, which also
    hold the discarded model and both models' gradients."""
    member = train_ct(tiny_model, tiny_corpus, TINY_CT, seed=4)
    for p in member.parameters():
        for a in (p.data, p.grad):
            assert (a if a.base is None else a.base).size == a.size


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
    all_at_once = ensemble_mean_embeddings(ens, sents, TRAIN_POOL)
    for start in range(0, 20, 7):
        chunk = sents[start : start + 7]
        assert np.array_equal(ensemble_mean_embeddings(ens, chunk, TRAIN_POOL),
                              all_at_once[start : start + 7])


def test_train_sed_computes_targets_once(tiny_model, tiny_corpus,
                                         monkeypatch):
    """`train_sed` encodes its frozen teachers once, for the whole corpus,
    and trains the same student bits as a loop that recomputes the
    targets of each batch."""
    from sedkit.objectives import ensemble_mean_embeddings, sed_loss
    members = [tiny_model.clone(), tiny_model.clone()]
    members[1].params["tok_emb"].data *= 0.95
    ens = EnsembleSpec(members)
    cfg = dataclasses.replace(TINY_SED, epochs=3)
    calls = []

    def counted(ensemble, sentences, pool):
        calls.append(list(sentences))
        return ensemble_mean_embeddings(ensemble, sentences, pool)

    monkeypatch.setattr(ex, "ensemble_mean_embeddings", counted)
    student = train_sed(ens, tiny_corpus, cfg, seed=4,
                        student=tiny_model.clone())
    assert calls == [list(tiny_corpus)]

    reference = tiny_model.clone()
    steps = dc.finite_step_count(len(tiny_corpus), cfg.batch, cfg.epochs)
    sched = dc.WarmupThenConstant(cfg.peak_lr, steps, cfg.warmup_fraction)
    opt = dc.Adam(reference.parameters())
    for idx in dc.epoch_batches(np.random.default_rng(4), len(tiny_corpus),
                                cfg.batch, cfg.epochs):
        sents = [tiny_corpus[i] for i in idx]
        loss = sed_loss(ensemble_mean_embeddings(ens, sents, TRAIN_POOL),
                        encode_batch(reference, sents, TRAIN_POOL))
        opt.zero_grad()
        loss.backward()
        opt.step(sched.lr(opt.step_count))
    assert opt.step_count == steps
    for a, b in zip(student.parameters(), reference.parameters()):
        assert np.array_equal(a.data, b.data)


def test_encode_many_matches_single_batch(tiny_model, tiny_corpus):
    """90 sentences cross the 64-row limit of one forward."""
    sents = list(tiny_corpus) + [" ".join(reversed(s.split()))
                                 for s in tiny_corpus]
    sents += [a + " " + b for a, b in zip(sents[:30], sents[30:60])]
    assert len(sents) > 64
    chunked = encode_many(tiny_model, sents, TRAIN_POOL)
    with dc.no_grad():
        whole = encode_batch(tiny_model, sents, TRAIN_POOL).data
    assert np.array_equal(chunked, whole)
    assert encode_many(tiny_model, [], TRAIN_POOL).shape == (0, 8)


# -- ensembles ------------------------------------------------------------

def test_full_ensemble_single_member_equals_plain_eval(tiny_model,
                                                       tiny_world):
    tasks = [tiny_world.sts["test"]]
    pool = PoolingSpec(2)
    ens_report = full_ensemble_predict(EnsembleSpec([tiny_model]), tasks,
                                       pool)
    plain = evaluate_suite(tiny_model, tasks, pool)
    # every correlation, both averages and the failures, exactly
    assert ens_report == plain


# -- pipelines ------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_bundle(tiny_world):
    return DataBundle(tiny_world.corpus,
                      [tiny_world.sts["test"]],
                      nli=tiny_world.nli)


def test_pipeline_deterministic(pipeline_bundle):
    cfg = tiny_run_config(("pretrain", "ct", "sed", "flow"))
    r1 = run_pipeline(cfg, pipeline_bundle)
    r2 = run_pipeline(cfg, pipeline_bundle)
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
    result = run_pipeline(cfg, pipeline_bundle)
    assert parse_config(result.manifest["config_text"]) == cfg
    hashes = result.manifest["input_hashes"]
    assert set(hashes["tasks"]) == {"sts_test"}
    assert len(hashes["corpus"]) == 64


def test_pipeline_runs_the_config_stages(pipeline_bundle):
    """run_pipeline runs `[run] stages`, and the manifest's config text
    gives back the config that ran, stage list included."""
    cfg = tiny_run_config(("pretrain",))
    result = run_pipeline(cfg, pipeline_bundle)
    assert result.manifest["stages"] == ["pretrain"]
    assert result.manifest["completed_stages"] == ["pretrain"]
    assert set(result.manifest["checkpoints"]) == {"base"}
    back = parse_config(result.manifest["config_text"])
    assert back == cfg
    assert back.run.stages == ("pretrain",)


def test_pipeline_writes_artifacts(pipeline_bundle, tmp_path):
    from sedkit.checkpoint import load_checkpoint
    cfg = tiny_run_config(("pretrain", "ct"))
    result = run_pipeline(cfg, pipeline_bundle,
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
    result = run_pipeline(cfg, pipeline_bundle)
    # zero distillation epochs: the student is exactly its init, member 0
    assert (result.manifest["checkpoints"]["student"]
            == result.manifest["checkpoints"]["member_0"])


def _saved_checkpoints(out_dir) -> dict:
    """{name: sha256} of the `.ckpt` files in `out_dir`."""
    return {path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out_dir.glob("*.ckpt")}


def test_pipeline_failure_preserves_manifest(pipeline_bundle, tmp_path):
    """A failed stage leaves the checkpoints of the completed ones and a
    manifest naming exactly them, in a directory the run makes if it
    does not exist yet."""
    out_dir = tmp_path / "run"
    cfg = tiny_run_config(("pretrain", "nli"))
    bundle = DataBundle(pipeline_bundle.corpus, pipeline_bundle.tasks,
                        nli=None)
    with pytest.raises(DataError, match="NLI pairs"):
        run_pipeline(cfg, bundle, out_dir=out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failed_stage"] == "nli"
    assert manifest["completed_stages"] == ["pretrain"]
    assert "NLI pairs" in manifest["error"]
    assert "report" not in manifest
    assert manifest["checkpoints"] == _saved_checkpoints(out_dir)
    assert set(manifest["checkpoints"]) == {"base"}


def test_pipeline_out_dir_that_is_a_file_fails_before_training(
        pipeline_bundle, tmp_path, monkeypatch):
    trained = []
    monkeypatch.setattr(ex, "pretrain_stage",
                        lambda *args: trained.append(args))
    out_file = tmp_path / "taken"
    out_file.write_text("")
    with pytest.raises(OSError):
        run_pipeline(tiny_run_config(("pretrain",)), pipeline_bundle,
                     out_dir=out_file)
    assert trained == []
    assert out_file.read_text() == ""


def test_pipeline_interrupt_recorded_as_failed_stage(pipeline_bundle,
                                                     tmp_path, monkeypatch):
    """An exception that is not an `Exception` (Ctrl-C) is recorded like
    any failure: no manifest without a report lacks `failed_stage`."""
    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(ex, "distill_stage", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(tiny_run_config(("pretrain", "ct", "sed")),
                     pipeline_bundle, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failed_stage"] == "sed"
    assert manifest["error"] == "KeyboardInterrupt"
    assert manifest["completed_stages"] == ["pretrain", "ct"]
    assert "report" not in manifest
    assert manifest["checkpoints"] == _saved_checkpoints(tmp_path)
    assert set(manifest["checkpoints"]) == {"base", "member_0", "member_1"}


def test_no_task_scoring_is_an_error_not_a_nan(pipeline_bundle, tiny_model,
                                              tmp_path):
    """A task with constant gold has no correlation. Alone in a bundle it
    leaves no average to report: the ensemble scorer and the pipeline
    raise `DataError` naming it. The pipeline keeps its trained stages
    and records the failure as stage `evaluate`, with no report (a
    manifest cannot hold a non-finite number)."""
    constant = StsTask("constant", tuple(
        ScoredPair(p.sentence_1, p.sentence_2, 2.0)
        for p in pipeline_bundle.tasks[0].pairs))
    message = "^no task evaluated: task 'constant': .*constant input"
    with pytest.raises(DataError, match=message):
        full_ensemble_predict(EnsembleSpec([tiny_model]), [constant],
                              PoolingSpec(2))
    bundle = DataBundle(pipeline_bundle.corpus, [constant])
    with pytest.raises(DataError, match=message):
        run_pipeline(tiny_run_config(("pretrain",)), bundle,
                     out_dir=tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["base.ckpt", "manifest.json"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failed_stage"] == "evaluate"
    assert manifest["completed_stages"] == ["pretrain"]
    assert "no task evaluated" in manifest["error"]
    assert "report" not in manifest
    assert manifest["checkpoints"] == _saved_checkpoints(tmp_path)
    before = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_manifest({"report": {"average_spearman_x100": math.nan}},
                       tmp_path / "manifest.json")
    assert sorted(os.listdir(tmp_path)) == ["base.ckpt", "manifest.json"]
    assert (tmp_path / "manifest.json").read_bytes() == before


def test_pipeline_ct_without_base_fails():
    with pytest.raises(ConfigError, match="start with pretrain"):
        tiny_run_config(("ct",))


def test_pipeline_divergence_recorded_as_failed_stage(pipeline_bundle,
                                                     tmp_path, monkeypatch):
    monkeypatch.setattr(ex, "ct_loss",
                        lambda *a, **k: dc.Tensor(np.nan))
    cfg = tiny_run_config(("pretrain", "ct"))
    with pytest.raises(DivergenceError, match="step 1"):
        run_pipeline(cfg, pipeline_bundle,
                     out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["failed_stage"] == "ct"
    assert manifest["completed_stages"] == ["pretrain"]
    assert "nan" in manifest["error"]
    assert manifest["checkpoints"] == _saved_checkpoints(tmp_path)


def test_write_manifest_round_trip(tmp_path):
    manifest = {"b": [1, 2], "a": {"x": 0.5}}
    path = tmp_path / "m.json"
    write_manifest(manifest, path)
    assert json.loads(path.read_text()) == manifest
    # sorted keys for byte-stable output
    assert path.read_text().index('"a"') < path.read_text().index('"b"')


def test_write_manifest_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "m.json"
    write_manifest({"a": 1}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        # fails part-way through serialization, after the key "a"
        write_manifest({"a": 1, "b": object()}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.json"]


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
    groups, seeds = stability_study(tiny_model, tiny_world.corpus, tasks, cfg)
    assert set(groups) == {"members", "full_ensemble", "students"}
    assert seeds == {
        "ct": [derive_seed(cfg.run.seed, "ct", i)
               for i in range(cfg.sed.members)],
        "sed": [derive_seed(cfg.run.seed, "sed", r) for r in range(2)]}
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


def test_stability_study_drops_diverged_run(tiny_model, tiny_world,
                                            monkeypatch):
    real, calls = ex.sed_loss, []

    def first_student_diverges(targets, out):
        calls.append(1)
        loss = real(targets, out)
        return loss * np.nan if len(calls) == 1 else loss

    monkeypatch.setattr(ex, "sed_loss", first_student_diverges)
    # one usable CPU: the runs share `calls`, which a worker would copy
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = tiny_run_config(("pretrain", "ct", "sed"))
    cfg = dataclasses.replace(cfg, stability=StabilitySection(runs=3))
    with pytest.warns(UserWarning, match="stability run 0 failed.*nan"):
        groups, seeds = stability_study(tiny_model, tiny_world.corpus,
                                        [tiny_world.sts["test"]], cfg)
    assert groups["students"].count == 2
    assert len(seeds["sed"]) == 3  # the diverged run's seed is kept
    assert groups["members"].count == cfg.sed.members


def test_stability_study_needs_two_runs():
    with pytest.raises(ConfigError):
        StabilitySection(runs=1)


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


def test_grid_drops_diverged_cell(tiny_model, tiny_world, monkeypatch):
    real = ex.sts_regression_loss

    def diverge_at_bound_03(model, batch, target_map):
        loss = real(model, batch, target_map)
        return loss * np.nan if target_map.lower_bound == 0.3 else loss

    monkeypatch.setattr(ex, "sts_regression_loss", diverge_at_bound_03)
    cfg = GridSection(steps=2, batch=4, lr=1e-3)
    with pytest.warns(UserWarning, match="bound=0.3 seed#0 failed.*nan"):
        result = grid_search_lower_bound(
            tiny_model, list(tiny_world.sts["train"].pairs),
            tiny_world.sts["dev"], (0.0, 0.3), seeds_per_bound=1, cfg=cfg,
            master_seed=0)
    assert result.scores_by_bound[0.3] == ()
    assert len(result.scores_by_bound[0.0]) == 1
    assert result.selected_bound == 0.0


def test_grid_argument_guards(tiny_model, tiny_world, monkeypatch):
    dev = tiny_world.sts["dev"]
    pairs = list(tiny_world.sts["train"].pairs)
    cfg = GridSection(steps=2, batch=4, lr=1e-3)
    trained = []
    monkeypatch.setattr(ex, "_train_regression",
                        lambda *args: trained.append(args))

    def grid(bounds, pairs=pairs):
        return grid_search_lower_bound(tiny_model, pairs, dev, bounds, 1,
                                       cfg, 0)

    with pytest.raises(ConfigError, match="at least one bound"):
        grid(())
    with pytest.raises(ConfigError):
        grid((1.0,))
    with pytest.raises(ConfigError, match="0.97 outside"):
        grid((0.3, 0.97))
    # a repeated bound would train its cells twice and keep one score
    with pytest.raises(ConfigError, match="repeats 0.3"):
        grid((0.3, 0.0, 0.3))
    assert trained == []
    with pytest.raises(DataError):
        grid((0.1,), pairs=[])


# -- supervised with early stopping ---------------------------------------

def planted_pairs(model, corpus, index_pairs, flip=False):
    out, seen = [], set()
    for i, j in index_pairs:
        a, b = corpus[i], corpus[j]
        c = cosine(*encode_many(model, [a, b], TRAIN_POOL))
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
                      [(i, i + 15) for i in range(10)])))
    train = planted_pairs(tiny_model, tiny_corpus,
                          [(i, i + 7) for i in range(10)], flip=True)
    cfg = SupervisedSection(max_epochs=8, batch=4, lr=1e-3, patience=1,
                            lower_bound=0.0)
    model, traj = train_supervised_with_early_stopping(
        tiny_model.clone(), train, dev, cfg, seed=2)
    assert len(traj) < cfg.max_epochs
    _, dev_s = evaluate_task(model, dev, TRAIN_POOL)
    assert dev_s == max(traj)
    assert traj.index(max(traj)) == 0


def test_returned_model_matches_trajectory_max(tiny_model, tiny_world):
    cfg = SupervisedSection(max_epochs=4, batch=4, lr=1e-3, patience=2,
                            lower_bound=0.5)
    model, traj = train_supervised_with_early_stopping(
        tiny_model.clone(), list(tiny_world.sts["train"].pairs),
        tiny_world.sts["dev"], cfg, seed=0)
    assert 1 <= len(traj) <= cfg.max_epochs
    _, dev_s = evaluate_task(model, tiny_world.sts["dev"], TRAIN_POOL)
    assert dev_s == max(traj)


def test_supervised_guards(tiny_model, tiny_world):
    with pytest.raises(ConfigError):
        SupervisedSection(max_epochs=0, batch=4, lr=1e-3, patience=1,
                          lower_bound=0.0)
    cfg = SupervisedSection(max_epochs=2, batch=4, lr=1e-3, patience=1,
                            lower_bound=0.0)
    pairs = list(tiny_world.sts["train"].pairs)
    with pytest.raises(DataError):
        train_supervised_with_early_stopping(
            tiny_model.clone(), [], tiny_world.sts["dev"], cfg, 0)
    # overlap detection catches reversed sentence order too
    p = pairs[0]
    leaky_dev = StsTask("leaky", (ScoredPair(p.sentence_2, p.sentence_1,
                                             p.gold),) + tuple(pairs[1:3]))
    with pytest.raises(DataError, match="shares"):
        train_supervised_with_early_stopping(
            tiny_model.clone(), pairs, leaky_dev, cfg, 0)


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


def test_ablation_csv_reads_back_a_name_with_a_comma():
    table = {"x,y": {1: 49.581, 2: 50.0, 3: 51.239},
             "base": {1: 1.0, 2: 2.0, 3: 3.0}}
    text = ablation_csv(table)
    assert list(csv.reader(io.StringIO(text))) == [
        ["model", "k1", "k2", "k3"], ["x,y", "49.58", "50.00", "51.24"],
        ["base", "1.00", "2.00", "3.00"]]
    assert text.endswith("\nbase,1.00,2.00,3.00\n")


def test_ablation_rejects_shallow_model(tiny_vocab, tiny_world):
    shallow = init_encoder(EncoderArch(layers=1, hidden=8, heads=2, ff=16,
                                       max_len=8), tiny_vocab, seed=0)
    with pytest.raises(DataError, match="too shallow"):
        pooling_ablation({"shallow": shallow}, [tiny_world.sts["test"]])


# -- one training loop ----------------------------------------------------

def test_train_ct_from_nan_base_raises_divergence(tiny_model, tiny_corpus):
    base = tiny_model.clone()
    base.params["l0.wq"].data[:] = np.nan
    with pytest.raises(DivergenceError, match="step 1"):
        train_ct(base, tiny_corpus, TINY_CT, seed=0)


def test_every_trainer_steps_through_diffcore_train(tiny_model, tiny_world,
                                                    monkeypatch):
    """pretrain, CT, NLI, SED, grid regression, supervised training and
    the flow fit take all their optimizer steps inside `diffcore.train`."""
    real, steps = dc.train, []

    def counting(opt, batches, loss_fn, lr):
        before = opt.step_count
        real(opt, batches, loss_fn, lr)
        steps.append(opt.step_count - before)

    monkeypatch.setattr(dc, "train", counting)
    # one usable CPU: a worker would count the grid cells' steps in its copy
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    corpus, train = tiny_world.corpus, list(tiny_world.sts["train"].pairs)
    dev = tiny_world.sts["dev"]
    runs = {
        "pretrain": lambda: pretrain_base(
            corpus, TINY_ARCH, PretrainSection(steps=3, batch=8), 1),
        "ct": lambda: train_ct(tiny_model, corpus, TINY_CT, 0),
        "nli": lambda: train_nli(
            tiny_model, tiny_world.nli,
            NliSection(steps=2, batch=4, peak_lr=2e-4), 0),
        "sed": lambda: train_sed(EnsembleSpec([tiny_model]), corpus,
                                 SedSection(epochs=2, batch=16), 0,
                                 tiny_model.clone()),
        "grid": lambda: grid_search_lower_bound(
            tiny_model, train, dev, (0.3,), 2,
            GridSection(steps=2, batch=4, lr=1e-3), 0),
        "supervised": lambda: train_supervised_with_early_stopping(
            tiny_model.clone(), train, dev,
            SupervisedSection(max_epochs=2, batch=8, patience=5), 0),
        "flow": lambda: fit_flow(
            encode_many(tiny_model, corpus, TRAIN_POOL),
            FlowSection(layers=2, lr=1e-3, epochs=2, batch=8), 0, 0),
    }
    n_sup = math.ceil(len(train) / 8)
    expected = {"pretrain": [3], "ct": [TINY_CT.steps], "nli": [2],
                "sed": [2 * math.ceil(len(corpus) / 16)], "grid": [2, 2],
                "supervised": [n_sup, n_sup],
                "flow": [math.ceil(len(corpus) / 8)] * 2}
    for name, run in runs.items():
        steps.clear()
        run()
        assert steps == expected[name], name


def test_every_trainer_encodes_with_the_training_pool(tiny_model, tiny_world,
                                                      monkeypatch):
    """CT and NLI members, the distilled student (targets included), a grid
    cell and supervised training (their dev scores included) each take one
    step and encode only with k = 1, although `[eval] pool_k` is 2."""
    real, ks = enc.encode_batch, []

    def recording(model, sentences, pool):
        ks.append(pool.k)
        return real(model, sentences, pool)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sedkit" and getattr(
                module, "encode_batch", None) is real:
            monkeypatch.setattr(module, "encode_batch", recording)
    cfg = dataclasses.replace(
        tiny_run_config(("pretrain", "ct", "sed")),
        ct=dataclasses.replace(TINY_CT, steps=1),
        nli=NliSection(steps=1, batch=4, peak_lr=2e-4),
        sed=dataclasses.replace(TINY_SED, epochs=1, batch=16),
        grid=GridSection(bounds=(0.3,), seeds_per_bound=1, steps=1, batch=4,
                         lr=1e-3),
        supervised=SupervisedSection(max_epochs=1, batch=4, lr=1e-3,
                                     patience=1, lower_bound=0.5))
    assert cfg.eval.pool_k == 2
    corpus = tiny_world.corpus[:16]
    train = list(tiny_world.sts["train"].pairs)[:4]
    dev = tiny_world.sts["dev"]
    runs = {
        "ct": lambda: ex.member_stage("ct", cfg, tiny_model, corpus, 0),
        "nli": lambda: ex.member_stage("nli", cfg, tiny_model,
                                       tiny_world.nli, 0),
        "sed": lambda: ex.distill_stage(cfg, [tiny_model, tiny_model],
                                        corpus, tiny_model),
        "grid": lambda: grid_search_lower_bound(
            tiny_model, train, dev, cfg.grid.bounds,
            cfg.grid.seeds_per_bound, cfg=cfg.grid, master_seed=0),
        "supervised": lambda: ex.supervised_stage(cfg, tiny_model, train,
                                                  dev),
    }
    for name, run in runs.items():
        ks.clear()
        run()
        assert ks and set(ks) == {1}, (name, ks)
