"""Deterministic random source used by every stochastic operation.

Streams come from numpy's PCG64 generator seeded through a SeedSequence
built from the root seed plus a path of integer keys, so any substream can
be reproduced from (seed, path) alone. String keys are mapped to integers
via CRC-32 so derivation never depends on Python's per-process hashing.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def _key_to_int(key: int | str) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    return int(key)


class Rng:
    """PCG64 stream addressable by (seed, *path)."""

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.path = tuple(_path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed,) + self.path))
        )

    def child(self, *keys: int | str) -> "Rng":
        """Derive an independent substream; same keys always give the same stream."""
        return Rng(self.seed, self.path + tuple(_key_to_int(k) for k in keys))

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, mean: float, std: float, size=None) -> np.ndarray:
        return self._gen.normal(mean, std, size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        """Uniform integers in the inclusive range [low, high]."""
        return self._gen.integers(low, high, size, endpoint=True)

    def bernoulli(self, p: float, size) -> np.ndarray:
        """Boolean array, each entry True with probability p."""
        return self._gen.random(size) < p

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, path={self.path})"
