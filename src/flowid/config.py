"""Run configuration with the published default hyperparameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .augment import AugmentationPipeline, parse_pipeline
from .contrast import ContrastConfig
from .errors import ConfigError


@dataclass
class TrainConfig:
    """Every knob of the pipeline. Defaults match the reference setting:
    n=40 packets, m=16 payload bytes, K=3 neighbors, extractor output 512,
    hypergraph hidden/projection 128, depth 2, dropout 0.2, Adam lr 0.002
    with weight decay 1e-3."""

    epochs: int = 200
    learning_rate: float = 0.002
    weight_decay: float = 1e-3
    omega_n: float = 1.0
    omega_g: float = 1.0
    contrast: ContrastConfig = field(default_factory=ContrastConfig)
    # identity views by default: under the strict (eps=0) cosine contract and
    # zero-bias initialization, any operator that can strip a node's incoming
    # messages (EW/ED) yields exactly-zero projected rows; stochastic pipelines
    # are opt-in and pair with --cosine-eps
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
    conv_stride: int = 1
    conv_padding: int = 12
    gcn_hidden: int = 32
    fuse_hidden: int = 512
    predict_hidden: int = 128

    # training behavior
    patience: int | None = 30
    include_self: bool = True
    cosine_eps: float = 0.0
    freeze_extractor: bool = False

    def validate(self) -> "TrainConfig":
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("learning_rate", "weight_decay", "omega_n", "omega_g", "cosine_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("learning_rate", "weight_decay", "omega_n", "omega_g"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.learning_rate == 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("depth",):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("hidden", "projection_dim", "extractor_dim", "n", "m", "k",
                     "lstm_hidden", "gcn_hidden", "fuse_hidden", "predict_hidden",
                     "conv_kernel", "conv_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.conv_padding < 0:
            raise ConfigError("conv_padding must be >= 0")
        if len(self.cnn_channels) != 2 or min(self.cnn_channels) < 1:
            raise ConfigError(f"cnn_channels must be two ints >= 1, got {self.cnn_channels}")
        # a longer stride leaves each conv stage one output position over the
        # same padded inputs, so it builds the same model
        longest = self.n * self.m + 2 * self.conv_padding
        if self.conv_stride > longest:
            raise ConfigError(f"conv_stride must be <= n*m + 2*conv_padding = {longest}, "
                              f"got {self.conv_stride}")
        if self.patience is not None and self.patience < 1:
            raise ConfigError("patience must be >= 1 or None")
        return self

    def echo(self) -> dict:
        """Flat summary printed in run headers and stored next to checkpoints."""
        return {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "learning_rate": self.learning_rate,
            "weight_decay": self.weight_decay,
            "extractor_dim": self.extractor_dim,
            "hidden": self.hidden,
            "projection_dim": self.projection_dim,
            "depth": self.depth,
            "dropout": self.dropout,
            "conv_kernel": self.conv_kernel,
            "conv_stride": self.conv_stride,
            "conv_padding": self.conv_padding,
            "lstm_layers": 1,
            "gcn_layers": 2,
            "cnn_layers": 2,
            "epochs": self.epochs,
            "omega_n": self.omega_n,
            "omega_g": self.omega_g,
            "tau_n": self.contrast.tau_n,
            "tau_g": self.contrast.tau_g,
            "aug1": self.aug1.spec_string(),
            "aug2": self.aug2.spec_string(),
            "include_self": self.include_self,
            "seed": self.seed,
        }

    def scaled_down(self, **overrides) -> "TrainConfig":
        """Small-dimension variant for fast desk-scale runs and tests."""
        small = replace(
            self,
            extractor_dim=32,
            hidden=16,
            projection_dim=16,
            lstm_hidden=8,
            cnn_channels=(4, 8),
            conv_kernel=5,
            conv_padding=2,
            gcn_hidden=8,
            fuse_hidden=32,
            predict_hidden=16,
        )
        return replace(small, **overrides)
