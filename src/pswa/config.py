"""Run configuration: one JSON file drives every CLI entry point.

Shape:

    {
      "seed": 0,
      "precision": "f64",
      "model":       { geometry and block knobs },
      "pcca":        { channel-allocation schedule },
      "schedule":    { diffusion betas },
      "training":    { optimizer and loop settings },
      "diagnostics": { survey/histogram sizes }
    }

Every key is optional and defaulted, but unknown keys anywhere are a
hard error -- a typo like "f_strat" must not silently run with the
default -- and so is a value of the wrong type or out of range; all of
it is checked at load (see schema.py).  The "model" and "pcca" sections
are the fields of ToyDiTConfig, which owns their defaults and rules.
The fully resolved config (defaults filled in) is echoed as
resolved_config.json next to any output a command writes, so a run
directory always records exactly what produced it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .diffusion import NoiseSchedule, ToyDataset
from .errors import ConfigurationError
from .model import ToyDiTConfig
from .schema import at_least, check_ranges, inside, read_fields, write_fields

# The "model" and "pcca" sections are ToyDiTConfig's fields under their
# JSON keys.  Only pcca.mode is renamed; max_timesteps is no key of its
# own but follows schedule.timesteps.
_PCCA_KEYS = {"f_start": "f_start", "f_end": "f_end", "mode": "schedule_mode", "fractions": "fractions"}
_MODEL_KEYS = {
    f.name: f.name
    for f in dataclasses.fields(ToyDiTConfig)
    if f.name not in {*_PCCA_KEYS.values(), "max_timesteps"}
}


@dataclass
class ScheduleSection:
    timesteps: int = at_least(1, default=100)
    beta_start: float = inside(0.0, 1.0, default=1e-4)
    beta_end: float = inside(0.0, 1.0, default=2e-2)

    __post_init__ = check_ranges


@dataclass
class TrainingSection:
    steps: int = at_least(1, default=500)
    lr: float = inside(0.0, default=1e-4)
    weight_decay: float = at_least(0.0, default=0.0)
    batch_size: int = at_least(1, default=16)
    dataset_size: int = at_least(1, default=256)
    checkpoint_every: int = at_least(0, default=0)
    log_every: int = at_least(0, default=100)

    __post_init__ = check_ranges


@dataclass
class DiagnosticsSection:
    survey_samples: int = at_least(1, default=64)
    distance_buckets: int = at_least(1, default=16)
    sample_count: int = at_least(1, default=4)

    __post_init__ = check_ranges


@dataclass
class RunConfig:
    seed: int = at_least(0, default=0)
    precision: str = "f64"
    model: ToyDiTConfig = field(default_factory=ToyDiTConfig)
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    diagnostics: DiagnosticsSection = field(default_factory=DiagnosticsSection)

    def __post_init__(self):
        check_ranges(self)
        if self.precision not in ("f64", "f32"):
            raise ConfigurationError(f"precision must be 'f64' or 'f32', got {self.precision!r}")
        if min(self.model.image_h, self.model.image_w) < 2:  # ToyDataset draws no image smaller than 2x2
            raise ConfigurationError(
                f"model.image_h and model.image_w must be >= 2, got {self.model.image_h}x{self.model.image_w}"
            )
        if self.model.max_timesteps != self.schedule.timesteps:
            self.model = dataclasses.replace(self.model, max_timesteps=self.schedule.timesteps)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(raw).__name__}")
        raw = dict(raw)  # the model and pcca sections are popped below
        model = {
            **read_fields(ToyDiTConfig, raw.pop("model", {}), "model", _MODEL_KEYS),
            **read_fields(ToyDiTConfig, raw.pop("pcca", {}), "pcca", _PCCA_KEYS),
        }
        return cls(model=ToyDiTConfig(**model), **read_fields(cls, raw, ""))

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
        return cls.from_dict(raw)

    # -- resolution -------------------------------------------------------------

    def resolved(self) -> dict:
        return {
            **write_fields(self),
            "model": write_fields(self.model, _MODEL_KEYS),
            "pcca": write_fields(self.model, _PCCA_KEYS),
        }

    def write_resolved(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "resolved_config.json"
        path.write_text(json.dumps(self.resolved(), indent=2, sort_keys=True) + "\n")
        return path

    # -- builders ---------------------------------------------------------------

    def build_model_config(self) -> ToyDiTConfig:
        return self.model

    def build_noise_schedule(self) -> NoiseSchedule:
        s = self.schedule
        return NoiseSchedule.linear(s.timesteps, s.beta_start, s.beta_end)

    def build_dataset(self, rng) -> ToyDataset:
        m = self.model
        return ToyDataset(
            height=m.image_h,
            width=m.image_w,
            channels=m.image_channels,
            size=self.training.dataset_size,
            rng=rng,
        )
