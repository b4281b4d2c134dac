"""Config round trips and strict rejection of unknown sections and keys."""

import dataclasses

import pytest

from sedkit.config import (CtSection, DataSection, EvalSection, FlowSection,
                           GridSection, NliSection, PretrainSection,
                           RunConfig, RunSection, SedSection,
                           StabilitySection, SupervisedSection, load_config,
                           parse_config, render_config)
from sedkit.encoder import EncoderArch
from sedkit.errors import ConfigError


def test_render_parse_round_trip():
    cfg = RunConfig()
    assert parse_config(render_config(cfg)) == cfg


def test_render_is_stable_text():
    a = render_config(RunConfig())
    b = render_config(parse_config(a))
    assert a == b


def test_round_trip_preserves_non_defaults():
    cfg = dataclasses.replace(
        RunConfig(),
        run=dataclasses.replace(RunConfig().run, seed=42,
                                stages=("pretrain", "nli", "sed", "flow")),
        grid=GridSection(bounds=(0.0, 0.25, 0.5), seeds_per_bound=3,
                         steps=10, batch=8, lr=5e-4),
    )
    back = parse_config(render_config(cfg))
    assert back == cfg
    assert back.run.stages == ("pretrain", "nli", "sed", "flow")
    assert back.grid.bounds == (0.0, 0.25, 0.5)


def test_float_fields_round_trip_exactly():
    text = render_config(RunConfig())
    cfg = parse_config(text)
    assert cfg.ct.start_lr == 3e-5
    assert cfg.ct.end_lr == 6e-6
    assert cfg.pretrain.lr == 1e-3


def test_default_bounds_grid():
    cfg = RunConfig()
    assert len(cfg.grid.bounds) == 20
    assert cfg.grid.bounds[0] == 0.0
    assert cfg.grid.bounds[-1] == 0.95
    assert cfg.grid.bounds[10] == 0.5


def test_partial_config_uses_defaults():
    cfg = parse_config("[run]\nseed = 9\n")
    assert cfg.run.seed == 9
    assert cfg.run.stages == ("pretrain", "ct", "sed")
    assert cfg.sed.members == 4
    assert cfg.eval.pool_k == 2


def test_empty_text_is_all_defaults():
    assert parse_config("") == RunConfig()


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config("[優化]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config("[training]\nsteps = 5\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[sed]\nmembership = 4\n")
    # keys that nothing reads are not part of the schema
    for text in ("[flow]\nmetric = cosine\n", "[data]\ncorpus = c.txt\n",
                 "[data]\ndev_task = dev.tsv\n", "[eval]\nmetric = cosine\n",
                 "[run]\nout_dir = runs\n"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text)


def test_bad_value_types_rejected():
    with pytest.raises(ConfigError, match="expected int"):
        parse_config("[sed]\nmembers = four\n")
    with pytest.raises(ConfigError, match="expected float"):
        parse_config("[pretrain]\nlr = fast\n")


def test_validation_rules():
    with pytest.raises(ConfigError, match="stage"):
        parse_config("[run]\nstages = pretrain, distill\n")
    with pytest.raises(ConfigError, match="pool_k"):
        parse_config("[eval]\npool_k = 4\n")
    with pytest.raises(ConfigError, match="lower_bound"):
        parse_config("[supervised]\nlower_bound = 0.96\n")
    with pytest.raises(ConfigError, match="bound"):
        parse_config("[grid]\nbounds = 0.0, 1.0\n")
    with pytest.raises(ConfigError, match="members"):
        parse_config("[sed]\nmembers = 0\n")
    with pytest.raises(ConfigError, match="student_init"):
        parse_config("[sed]\nstudent_init = teacher\n")
    for probe, match in (
        ("[run]\nseed = -5\n", "run.seed must be >= 0"),
        ("[ct]\nsteps = -5\n", "ct.steps"),
        ("[pretrain]\nbatch = 0\n", "pretrain.batch"),
        ("[sed]\nbatch = -1\n", "sed.batch"),
        ("[ct]\nbatch = 10\nnegatives_per_positive = 7\n", "divisible"),
        ("[sed]\nstudent_init = member:99\n", "student_init"),
        ("[sed]\nstudent_init = member:x\n", "student_init"),
        ("[stability]\nruns = 1\n", "stability.runs"),
        ("[arch]\nlayers = 0\n", "arch.layers"),
        ("[arch]\nmax_len = 0\n", "arch.max_len"),
        ("[arch]\nheads = 0\n", "arch.heads"),
        ("[arch]\nhidden = 0\n", "arch.hidden"),
        ("[arch]\nff = -1\n", "arch.ff"),
        ("[arch]\nhidden = 30\nheads = 4\n", "divisible by arch.heads"),
        ("[flow]\nlayers = 0\n", "flow.layers"),
        ("[flow]\nlayers = 1\n", "flow.layers"),
        ("[arch]\nlayers = 1\n[eval]\npool_k = 3\n", "pool_k"),
        ("[grid]\nbounds = 0.97\n", "lower_bound 0.97 outside"),
        ("[supervised]\nlower_bound = -0.1\n", "lower_bound -0.1 outside"),
        ("[supervised]\npatience = 0\n", "supervised.patience must be >= 1"),
    ):
        with pytest.raises(ConfigError, match=match):
            parse_config(probe)
    # zero steps and epochs are legal: the stage leaves its input as is
    cfg = parse_config("[ct]\nsteps = 0\n[sed]\nepochs = 0\n")
    assert cfg.ct.steps == 0 and cfg.sed.epochs == 0
    # the smallest legal arch and flow, and pool_k up to layers + 1
    cfg = parse_config("[arch]\nlayers = 1\nhidden = 1\nheads = 1\nff = 1\n"
                       "max_len = 1\n[flow]\nlayers = 2\n[eval]\npool_k = 2\n")
    assert cfg.arch.layers == 1 and cfg.flow.layers == 2
    # member:<i> form is allowed
    cfg = parse_config("[sed]\nstudent_init = member:2\n")
    assert cfg.sed.student_init == "member:2"


def test_stage_list_rules():
    """[run] stages starts with pretrain, names each stage once, puts
    sed after ct or nli and before either, and flow last."""
    for stages, match in (("sed, pretrain", "start with pretrain"),
                          ("ct", "start with pretrain"),
                          ("", "start with pretrain"),
                          ("pretrain, ct, ct", "duplicate pipeline stages"),
                          ("pretrain, flow, ct", "flow must be the last"),
                          ("pretrain, sed, ct", "sed needs an ensemble"),
                          ("pretrain, ct, sed, nli", "before sed"),
                          ("pretrain, nli, sed, ct, flow", "before sed")):
        with pytest.raises(ConfigError, match=match):
            parse_config(f"[run]\nstages = {stages}\n")
    cfg = parse_config("[run]\nstages = pretrain, nli, ct, sed, flow\n")
    assert cfg.run.stages == ("pretrain", "nli", "ct", "sed", "flow")


def test_sections_check_themselves_when_built():
    """A section built in code is checked as a parsed one is."""
    for build, match in (
            (lambda: SupervisedSection(max_epochs=-1),
             "supervised.max_epochs must be >= 1"),
            (lambda: StabilitySection(runs=1), "stability.runs must be >= 2"),
            (lambda: CtSection(batch=10), "ct.batch must be divisible"),
            (lambda: GridSection(bounds=(0.3, 0.97)),
             "lower_bound 0.97 outside"),
            (lambda: EvalSection(pool_k=0), "eval.pool_k must be 1, 2 or 3"),
            (lambda: RunConfig(arch=EncoderArch(layers=1),
                               eval=EvalSection(pool_k=3)),
             "eval.pool_k must be <= arch.layers \\+ 1"),
            (lambda: PretrainSection(mask_prob=1.5),
             "pretrain.mask_prob must be in \\[0, 1\\]"),
            (lambda: PretrainSection(mask_prob=-0.1), "pretrain.mask_prob"),
            (lambda: RunSection(seed=-1), "run.seed must be >= 0"),
            (lambda: DataSection(corpus_size=-5),
             "data.corpus_size must be >= 0"),
            (lambda: PretrainSection(lr=0.0),
             "pretrain.lr must be finite and > 0"),
            (lambda: NliSection(peak_lr=-1e-4), "nli.peak_lr"),
            (lambda: CtSection(start_lr=float("inf")), "ct.start_lr"),
            (lambda: CtSection(end_lr=0.0), "ct.end_lr"),
            (lambda: SedSection(peak_lr=float("nan")), "sed.peak_lr"),
            (lambda: FlowSection(lr=0.0), "flow.lr"),
            (lambda: SupervisedSection(lr=-1.0), "supervised.lr"),
            (lambda: GridSection(lr=0.0), "grid.lr"),
            (lambda: NliSection(warmup_fraction=1.1),
             "nli.warmup_fraction must be in \\[0, 1\\]"),
            (lambda: SedSection(warmup_fraction=-0.5),
             "sed.warmup_fraction")):
        with pytest.raises(ConfigError, match=match):
            build()
    # the checks run again when a valid section is copied with a change
    with pytest.raises(ConfigError, match="stability.runs"):
        dataclasses.replace(StabilitySection(), runs=0)


def test_default_config_is_valid():
    # every section checks its keys when built: the defaults pass
    assert isinstance(RunConfig(), RunConfig)


def test_save_load_file_round_trip(tmp_path):
    cfg = dataclasses.replace(
        RunConfig(),
        run=dataclasses.replace(RunConfig().run, seed=3),
    )
    path = tmp_path / "run.ini"
    path.write_text(render_config(cfg), encoding="utf-8")
    assert load_config(path) == cfg


def test_every_section_and_key_appears_in_render():
    text = render_config(RunConfig())
    for section_name in ("run", "arch", "data", "pretrain", "nli", "ct",
                         "sed", "flow", "supervised", "grid", "stability",
                         "eval"):
        assert f"[{section_name}]" in text
    cfg = RunConfig()
    for section_name in ("run", "arch", "sed", "grid"):
        section = getattr(cfg, section_name)
        for f in dataclasses.fields(section):
            assert f"{f.name} = " in text
