"""Run configuration: defaults, INI rendering, and strict parsing.

The on-disk format is flat key-value pairs grouped into one section per
pipeline stage, so a run manifest can embed the resolved text verbatim.
Every key has a default; unknown sections or keys are rejected rather
than silently ignored, and render -> parse is an exact round trip.

A section is what its trainer takes (`[arch]` is the `EncoderArch`) and
checks its own keys when built, so a config that exists, parsed or built
in code, is valid; `RunConfig` checks `eval.pool_k <= arch.layers + 1`.

Desk-scale defaults (4 ensemble members, 5 000-sentence corpus, 3
stability runs) keep full pipelines in the minutes range. Reference
values for full-scale runs (10 members, 100k sentences, 10 runs, the
2e-5 learning-rate regime) live in configs/full_scale.ini.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing
from dataclasses import dataclass, field

from .checkpoint import read_text
from .encoder import EncoderArch
from .errors import ConfigError
from .objectives import RegressionTargetMap

STAGE_NAMES = ("pretrain", "nli", "ct", "sed", "flow")


def _at_least(section: str, values, **minimums) -> None:
    for key, low in minimums.items():
        if getattr(values, key) < low:
            raise ConfigError(f"{section}.{key} must be >= {low}")


def _positive(section: str, values, *keys) -> None:
    for key in keys:
        value = getattr(values, key)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{section}.{key} must be finite and > 0")


def _fraction(section: str, values, *keys) -> None:
    for key in keys:
        if not 0.0 <= getattr(values, key) <= 1.0:
            raise ConfigError(f"{section}.{key} must be in [0, 1]")


@dataclass(frozen=True)
class RunSection:
    """The pipeline's stage order and master seed. Where a run writes is
    not part of its description: the CLI's `--out`, or `run_pipeline`'s
    `out_dir`, says that."""

    stages: tuple[str, ...] = ("pretrain", "ct", "sed")
    seed: int = 0

    def __post_init__(self):
        _at_least("run", self, seed=0)
        stages = self.stages
        for stage in stages:
            if stage not in STAGE_NAMES:
                raise ConfigError(f"unknown stage {stage!r} in run.stages")
        if not stages or stages[0] != "pretrain":
            raise ConfigError("run.stages must start with pretrain")
        if len(set(stages)) != len(stages):
            raise ConfigError("duplicate pipeline stages")
        if "flow" in stages and stages[-1] != "flow":
            raise ConfigError("flow must be the last stage")
        if "sed" in stages:
            cut = stages.index("sed")
            if not {"nli", "ct"} & set(stages[:cut]):
                raise ConfigError(
                    "sed needs an ensemble from a preceding nli or ct stage")
            # the student is final and flow fits it, so nothing would
            # read members trained after it
            if {"nli", "ct"} & set(stages[cut:]):
                raise ConfigError("nli and ct must come before sed")


@dataclass(frozen=True)
class DataSection:
    corpus_size: int = 5000  # 0 means every line

    def __post_init__(self):
        _at_least("data", self, corpus_size=0)


@dataclass(frozen=True)
class PretrainSection:
    steps: int = 300
    batch: int = 16
    lr: float = 1e-3
    mask_prob: float = 0.15

    def __post_init__(self):
        _at_least("pretrain", self, steps=0, batch=1)
        _positive("pretrain", self, "lr")
        _fraction("pretrain", self, "mask_prob")


@dataclass(frozen=True)
class NliSection:
    steps: int = 200
    batch: int = 16
    peak_lr: float = 2e-4
    warmup_fraction: float = 0.1

    def __post_init__(self):
        _at_least("nli", self, steps=0, batch=1)
        _positive("nli", self, "peak_lr")
        _fraction("nli", self, "warmup_fraction")


@dataclass(frozen=True)
class CtSection:
    steps: int = 400
    batch: int = 16
    start_lr: float = 3e-5
    end_lr: float = 6e-6
    negatives_per_positive: int = 7

    def __post_init__(self):
        _at_least("ct", self, steps=0, batch=1, negatives_per_positive=0)
        _positive("ct", self, "start_lr", "end_lr")
        block = self.negatives_per_positive + 1
        if self.batch % block:
            raise ConfigError(f"ct.batch must be divisible by "
                              f"ct.negatives_per_positive + 1 = {block}")


@dataclass(frozen=True)
class SedSection:
    members: int = 4
    epochs: int = 30
    batch: int = 32
    peak_lr: float = 1e-3
    warmup_fraction: float = 0.1
    student_init: str = "base"

    def __post_init__(self):
        _at_least("sed", self, members=1, epochs=0, batch=1)
        _positive("sed", self, "peak_lr")
        _fraction("sed", self, "warmup_fraction")
        kind, _, index = self.student_init.partition(":")
        if self.student_init != "base" and (
                kind != "member" or not index.isdecimal()
                or int(index) >= self.members):
            raise ConfigError("sed.student_init must be 'base' or "
                              "'member:<i>' with 0 <= i < sed.members")


@dataclass(frozen=True)
class FlowSection:
    layers: int = 4
    lr: float = 1e-3
    epochs: int = 1
    batch: int = 32

    def __post_init__(self):
        _at_least("flow", self, layers=2, epochs=0, batch=1)
        _positive("flow", self, "lr")


@dataclass(frozen=True)
class SupervisedSection:
    max_epochs: int = 20
    batch: int = 16
    lr: float = 1e-3
    patience: int = 2
    lower_bound: float = 0.5

    def __post_init__(self):
        _at_least("supervised", self, max_epochs=1, batch=1, patience=1)
        _positive("supervised", self, "lr")
        RegressionTargetMap(self.lower_bound)  # raises ConfigError out of range


def _default_bounds() -> tuple[float, ...]:
    return tuple(round(0.05 * i, 2) for i in range(20))


@dataclass(frozen=True)
class GridSection:
    bounds: tuple[float, ...] = field(default_factory=_default_bounds)
    seeds_per_bound: int = 2
    steps: int = 300
    batch: int = 16
    lr: float = 1e-4

    def __post_init__(self):
        _at_least("grid", self, seeds_per_bound=1, steps=0, batch=1)
        _positive("grid", self, "lr")
        if not self.bounds:
            raise ConfigError("grid.bounds must name at least one bound")
        for i, bound in enumerate(self.bounds):
            RegressionTargetMap(bound)  # raises ConfigError out of range
            if bound in self.bounds[:i]:
                raise ConfigError(f"grid.bounds repeats {bound}")


@dataclass(frozen=True)
class StabilitySection:
    runs: int = 3

    def __post_init__(self):
        _at_least("stability", self, runs=2)


@dataclass(frozen=True)
class EvalSection:
    pool_k: int = 2

    def __post_init__(self):
        if self.pool_k not in (1, 2, 3):
            raise ConfigError("eval.pool_k must be 1, 2 or 3")


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

    def __post_init__(self):
        if self.eval.pool_k > self.arch.layers + 1:
            raise ConfigError("eval.pool_k must be <= arch.layers + 1")


# Section name -> section type, in INI order.
_SECTION_TYPES = typing.get_type_hints(RunConfig)


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


def _syntax_error(exc: configparser.Error) -> str:
    """One line naming the line and the fault of an INI syntax error."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return (f"line {exc.lineno}: {exc.line.strip()!r} comes before "
                "the first [section] header")
    if isinstance(exc, configparser.DuplicateOptionError):
        return (f"line {exc.lineno}: duplicate key {exc.option!r} in "
                f"[{exc.section}]")
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: duplicate section [{exc.section}]"
    return (f"line {exc.errors[0][0]}: expected a [section] header or "
            "key = value")  # a ParsingError, the one kind left


def parse_config(text: str) -> RunConfig:
    """The `RunConfig` an INI text describes; any fault, in the INI syntax
    or in a value, raises `ConfigError`."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(_syntax_error(exc)) from None
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
    return RunConfig(**sections)


def load_config(path) -> RunConfig:
    """`parse_config` of the file at `path`, decoded by `read_text` like
    every text input; a malformed file raises an error naming `path`."""
    try:
        return parse_config(read_text(path))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

