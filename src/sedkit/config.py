"""Run configuration: defaults, INI rendering, and strict parsing.

The on-disk format is flat key-value pairs grouped into one section per
pipeline stage, so a run manifest can embed the resolved text verbatim.
Every key has a default; unknown sections or keys are rejected rather
than silently ignored, and render -> parse is an exact round trip.

A section is what its trainer takes (`[arch]` is the `EncoderArch`).
`EncoderArch` checks the arch sizes, `RegressionTargetMap` the lower
bounds (`supervised.lower_bound`, `grid.bounds`), `validate_config` the rest.

Desk-scale defaults (4 ensemble members, 5 000-sentence corpus, 3
stability runs) keep full pipelines in the minutes range. Reference
values for full-scale runs (10 members, 100k sentences, 10 runs, the
2e-5 learning-rate regime) live in configs/full_scale.ini.
"""

from __future__ import annotations

import dataclasses
from configparser import ConfigParser
from dataclasses import dataclass, field

from .checkpoint import write_atomic
from .encoder import EncoderArch
from .errors import ConfigError
from .objectives import RegressionTargetMap

STAGE_NAMES = ("pretrain", "nli", "ct", "sed", "flow")
METRICS = ("cosine", "neg_euclidean")


@dataclass(frozen=True)
class RunSection:
    stages: tuple[str, ...] = ("pretrain", "ct", "sed")
    seed: int = 0
    out_dir: str = "runs"


@dataclass(frozen=True)
class DataSection:
    corpus_size: int = 5000


@dataclass(frozen=True)
class PretrainSection:
    steps: int = 300
    batch: int = 16
    lr: float = 1e-3
    mask_prob: float = 0.15


@dataclass(frozen=True)
class NliSection:
    steps: int = 200
    batch: int = 16
    peak_lr: float = 2e-4
    warmup_fraction: float = 0.1


@dataclass(frozen=True)
class CtSection:
    steps: int = 400
    batch: int = 16
    start_lr: float = 3e-5
    end_lr: float = 6e-6
    negatives_per_positive: int = 7


@dataclass(frozen=True)
class SedSection:
    members: int = 4
    epochs: int = 30
    batch: int = 32
    peak_lr: float = 1e-3
    warmup_fraction: float = 0.1
    student_init: str = "base"


@dataclass(frozen=True)
class FlowSection:
    layers: int = 4
    lr: float = 1e-3
    epochs: int = 1
    batch: int = 32


@dataclass(frozen=True)
class SupervisedSection:
    max_epochs: int = 20
    batch: int = 16
    lr: float = 1e-3
    patience: int = 2
    lower_bound: float = 0.5


def _default_bounds() -> tuple[float, ...]:
    return tuple(round(0.05 * i, 2) for i in range(20))


@dataclass(frozen=True)
class GridSection:
    bounds: tuple[float, ...] = field(default_factory=_default_bounds)
    seeds_per_bound: int = 2
    steps: int = 300
    batch: int = 16
    lr: float = 1e-4


@dataclass(frozen=True)
class StabilitySection:
    runs: int = 3


@dataclass(frozen=True)
class EvalSection:
    pool_k: int = 2
    metric: str = "cosine"


@dataclass(frozen=True)
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    arch: EncoderArch = field(default_factory=EncoderArch)
    data: DataSection = field(default_factory=DataSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    nli: NliSection = field(default_factory=NliSection)
    ct: CtSection = field(default_factory=CtSection)
    sed: SedSection = field(default_factory=SedSection)
    flow: FlowSection = field(default_factory=FlowSection)
    supervised: SupervisedSection = field(default_factory=SupervisedSection)
    grid: GridSection = field(default_factory=GridSection)
    stability: StabilitySection = field(default_factory=StabilitySection)
    eval: EvalSection = field(default_factory=EvalSection)


_SECTION_TYPES = {
    "run": RunSection,
    "arch": EncoderArch,
    "data": DataSection,
    "pretrain": PretrainSection,
    "nli": NliSection,
    "ct": CtSection,
    "sed": SedSection,
    "flow": FlowSection,
    "supervised": SupervisedSection,
    "grid": GridSection,
    "stability": StabilitySection,
    "eval": EvalSection,
}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(text: str, annotation: str, section: str, key: str):
    text = text.strip()
    try:
        if annotation == "int":
            return int(text)
        if annotation == "float":
            return float(text)
        if annotation == "str":
            return text
        if annotation.startswith("tuple[str"):
            if not text:
                return ()
            return tuple(part.strip() for part in text.split(","))
        if annotation.startswith("tuple[float"):
            if not text:
                return ()
            return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key} = {text!r}: expected {annotation}"
        ) from exc
    raise ConfigError(f"unsupported config field type {annotation!r}")


def render_config(cfg: RunConfig) -> str:
    lines = []
    for section_name in _SECTION_TYPES:
        section = getattr(cfg, section_name)
        lines.append(f"[{section_name}]")
        for f in dataclasses.fields(section):
            lines.append(f"{f.name} = {_format_value(getattr(section, f.name))}")
        lines.append("")
    return "\n".join(lines)


def parse_config(text: str) -> RunConfig:
    parser = ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    sections = {}
    for section_name in parser.sections():
        if section_name not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section [{section_name}]")
        cls = _SECTION_TYPES[section_name]
        known = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in parser.items(section_name):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section_name}]")
            kwargs[key] = _parse_value(raw, known[key].type, section_name, key)
        try:
            sections[section_name] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    cfg = RunConfig(**sections)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    for stage in cfg.run.stages:
        if stage not in STAGE_NAMES:
            raise ConfigError(f"unknown pipeline stage {stage!r}")
    if cfg.eval.pool_k not in (1, 2, 3):
        raise ConfigError("eval.pool_k must be 1, 2 or 3")
    if cfg.eval.metric not in METRICS:
        raise ConfigError(f"eval.metric must be one of {', '.join(METRICS)}")
    for bound in (cfg.supervised.lower_bound, *cfg.grid.bounds):
        RegressionTargetMap(bound)  # raises ConfigError out of range
    minimums = {
        "pretrain.steps": 0, "nli.steps": 0, "ct.steps": 0,
        "ct.negatives_per_positive": 0, "sed.members": 1, "sed.epochs": 0,
        "flow.epochs": 0, "supervised.max_epochs": 1,
        "supervised.patience": 0, "grid.seeds_per_bound": 1,
        "grid.steps": 0, "stability.runs": 2, "flow.layers": 2,
        **{f"{s}.batch": 1 for s in ("pretrain", "nli", "ct", "sed", "flow",
                                     "supervised", "grid")},
    }
    for name, low in minimums.items():
        section, key = name.split(".")
        if getattr(getattr(cfg, section), key) < low:
            raise ConfigError(f"{name} must be >= {low}")
    if cfg.eval.pool_k > cfg.arch.layers + 1:
        raise ConfigError("eval.pool_k must be <= arch.layers + 1")
    block = cfg.ct.negatives_per_positive + 1
    if cfg.ct.batch % block:
        raise ConfigError(f"ct.batch must be divisible by "
                          f"ct.negatives_per_positive + 1 = {block}")
    init = cfg.sed.student_init
    if init != "base":
        kind, _, index = init.partition(":")
        if (kind != "member" or not index.isdecimal()
                or int(index) >= cfg.sed.members):
            raise ConfigError("sed.student_init must be 'base' or "
                              "'member:<i>' with 0 <= i < sed.members")


def load_config(path) -> RunConfig:
    with open(str(path), "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg: RunConfig, path) -> None:
    write_atomic(path, render_config(cfg).encode("utf-8"))


def default_config() -> RunConfig:
    return RunConfig()
