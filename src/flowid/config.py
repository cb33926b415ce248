"""Run configuration with the published default hyperparameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .augment import AugmentationPipeline, parse_pipeline
from .errors import ConfigError


@dataclass
class TrainConfig:
    """Every knob of the pipeline. Defaults match the reference setting:
    n=40 packets, m=16 payload bytes, K=3 neighbors, extractor output 512,
    hypergraph hidden/projection 128, depth 2, dropout 0.2, Adam lr 0.002
    with weight decay 1e-3. What the model fixes is not a field (see fixed())."""

    epochs: int = 200
    learning_rate: float = 0.002
    weight_decay: float = 1e-3
    omega_n: float = 1.0
    omega_g: float = 1.0
    tau_n: float = 0.5
    tau_g: float = 0.5
    aug1: AugmentationPipeline = field(default_factory=AugmentationPipeline)
    aug2: AugmentationPipeline = field(default_factory=AugmentationPipeline)
    depth: int = 2
    hidden: int = 128
    projection_dim: int = 128
    extractor_dim: int = 512
    n: int = 40
    m: int = 16
    k: int = 3
    dropout: float = 0.2
    seed: int = 0

    # extractor internals (not pinned by the published setting)
    lstm_hidden: int = 64
    cnn_channels: tuple[int, int] = (16, 32)
    conv_kernel: int = 25
    gcn_hidden: int = 32
    fuse_hidden: int = 512
    predict_hidden: int = 128

    # training behavior
    patience: int | None = 30
    cosine_eps: float = 1e-8

    def validate(self) -> "TrainConfig":
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("learning_rate", "weight_decay", "omega_n", "omega_g", "tau_n", "tau_g",
                     "cosine_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("weight_decay", "omega_n", "omega_g"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        for name in ("learning_rate", "tau_n", "tau_g", "cosine_eps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.depth < 0:
            raise ConfigError("depth must be >= 0")
        for name in ("hidden", "projection_dim", "extractor_dim", "n", "m", "k",
                     "lstm_hidden", "gcn_hidden", "fuse_hidden", "predict_hidden",
                     "conv_kernel"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if len(self.cnn_channels) != 2 or min(self.cnn_channels) < 1:
            raise ConfigError(f"cnn_channels must be two ints >= 1, got {self.cnn_channels}")
        if self.patience is not None and self.patience < 1:
            raise ConfigError("patience must be >= 1 or None")
        return self

    @property
    def conv_padding(self) -> int:
        """Each payload conv stage's zero padding; at stride 1 and an odd
        kernel it keeps the stage's length."""
        return self.conv_kernel // 2

    def fixed(self) -> dict:
        """The settings the model fixes rather than any field, as echo()
        writes them: the layer counts, each payload conv stage's stride and
        padding, and the flow's own membership of its hyperedge."""
        return {"lstm_layers": 1, "gcn_layers": 2, "cnn_layers": 2, "conv_stride": 1,
                "conv_padding": self.conv_padding, "include_self": True}

    def echo(self) -> dict:
        """Every field as a JSON value (a pipeline as its spec string, a tuple
        as a list) plus the fixed settings; printed in run headers and
        stored next to checkpoints, and read back by from_echo."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = (value.spec_string() if isinstance(value, AugmentationPipeline)
                           else list(value) if isinstance(value, tuple) else value)
        return {**out, **self.fixed()}

    @classmethod
    def from_echo(cls, echo: dict) -> "TrainConfig":
        """The config that echo() wrote. Every field is required and must have
        its default's JSON type: a float field also takes an int, and patience
        may be null. A missing field is a KeyError, a wrong type a TypeError,
        and a fixed setting present with another value or type a ValueError;
        the values are left for validate()."""
        defaults, values = cls(), {}
        for f in fields(cls):
            value, default = echo[f.name], getattr(defaults, f.name)
            if isinstance(default, AugmentationPipeline) and type(value) is str:
                value = parse_pipeline(value)
            elif isinstance(default, tuple) and type(value) is list:
                value = tuple(value)
            ok = (type(value) is type(default)
                  or type(value) is int and type(default) is float
                  or value is None and f.name == "patience")
            if ok and isinstance(default, tuple):
                ok = len(value) == len(default) and all(type(v) is int for v in value)
            if not ok:
                raise TypeError(f"{f.name}={echo[f.name]!r} does not have the type "
                                f"of {default!r}")
            values[f.name] = value
        cfg = cls(**values)
        for name, value in cfg.fixed().items():
            if name in echo and (type(echo[name]) is not type(value) or echo[name] != value):
                raise ValueError(f"{name}={echo[name]!r}, but the model fixes it at {value!r}")
        return cfg
