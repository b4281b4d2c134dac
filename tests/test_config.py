"""Config round trips and strict rejection of unknown sections and keys."""

import dataclasses

import pytest

from sedkit.config import (GridSection, RunConfig, default_config,
                           load_config, parse_config, render_config,
                           save_config, validate_config)
from sedkit.errors import ConfigError


def test_render_parse_round_trip():
    cfg = default_config()
    assert parse_config(render_config(cfg)) == cfg


def test_render_is_stable_text():
    a = render_config(default_config())
    b = render_config(parse_config(a))
    assert a == b


def test_round_trip_preserves_non_defaults():
    cfg = dataclasses.replace(
        default_config(),
        run=dataclasses.replace(default_config().run, seed=42,
                                stages=("pretrain", "nli", "sed", "flow")),
        grid=GridSection(bounds=(0.0, 0.25, 0.5), seeds_per_bound=3,
                         steps=10, batch=8, lr=5e-4),
    )
    back = parse_config(render_config(cfg))
    assert back == cfg
    assert back.run.stages == ("pretrain", "nli", "sed", "flow")
    assert back.grid.bounds == (0.0, 0.25, 0.5)


def test_float_fields_round_trip_exactly():
    text = render_config(default_config())
    cfg = parse_config(text)
    assert cfg.ct.start_lr == 3e-5
    assert cfg.ct.end_lr == 6e-6
    assert cfg.pretrain.lr == 1e-3


def test_default_bounds_grid():
    cfg = default_config()
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
    assert parse_config("") == default_config()


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
                 "[data]\ndev_task = dev.tsv\n"):
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
    with pytest.raises(ConfigError, match="eval.metric"):
        parse_config("[eval]\nmetric = manhattan\n")
    with pytest.raises(ConfigError, match="lower_bound"):
        parse_config("[supervised]\nlower_bound = 0.96\n")
    with pytest.raises(ConfigError, match="bound"):
        parse_config("[grid]\nbounds = 0.0, 1.0\n")
    with pytest.raises(ConfigError, match="members"):
        parse_config("[sed]\nmembers = 0\n")
    with pytest.raises(ConfigError, match="student_init"):
        parse_config("[sed]\nstudent_init = teacher\n")
    for probe, match in (
        ("[ct]\nsteps = -5\n", "ct.steps"),
        ("[pretrain]\nbatch = 0\n", "pretrain.batch"),
        ("[sed]\nbatch = -1\n", "sed.batch"),
        ("[ct]\nbatch = 10\nnegatives_per_positive = 7\n", "divisible"),
        ("[sed]\nstudent_init = member:99\n", "student_init"),
        ("[sed]\nstudent_init = member:x\n", "student_init"),
        ("[stability]\nruns = 1\n", "stability.runs"),
    ):
        with pytest.raises(ConfigError, match=match):
            parse_config(probe)
    # zero steps and epochs are legal: the stage leaves its input as is
    cfg = parse_config("[ct]\nsteps = 0\n[sed]\nepochs = 0\n")
    assert cfg.ct.steps == 0 and cfg.sed.epochs == 0
    # member:<i> form is allowed
    cfg = parse_config("[sed]\nstudent_init = member:2\n")
    assert cfg.sed.student_init == "member:2"


def test_validate_config_accepts_defaults():
    validate_config(default_config())


def test_save_load_file_round_trip(tmp_path):
    cfg = dataclasses.replace(
        default_config(),
        run=dataclasses.replace(default_config().run, seed=3, out_dir="out"),
    )
    path = tmp_path / "run.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_every_section_and_key_appears_in_render():
    text = render_config(default_config())
    for section_name in ("run", "arch", "data", "pretrain", "nli", "ct",
                         "sed", "flow", "supervised", "grid", "stability",
                         "eval"):
        assert f"[{section_name}]" in text
    cfg = default_config()
    for section_name in ("run", "arch", "sed", "grid"):
        section = getattr(cfg, section_name)
        for f in dataclasses.fields(section):
            assert f"{f.name} = " in text
