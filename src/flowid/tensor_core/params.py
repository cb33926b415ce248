"""Named trainable parameters and their initializers."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..rng import Rng
from .engine import Tensor


def glorot_uniform(shape: tuple[int, ...], rng: Rng) -> np.ndarray:
    """Uniform in +/- sqrt(6/(fan_in+fan_out)); the fans are a matrix's two
    dims, a conv kernel (C_out, C_in, k)'s C_out*k and C_in*k, or a vector's
    length and 1, the fans of the one-column matrix it draws as."""
    rows, cols = (*shape, 1)[:2]
    taps = shape[2] if len(shape) == 3 else 1
    limit = np.sqrt(6.0 / ((rows + cols) * taps))
    return rng.uniform(-limit, limit, shape)


def glorot(*key):
    """An initializer: glorot_uniform drawn from substream `key` of the part's rng."""
    return lambda shape, rng: glorot_uniform(shape, rng.child(*key))


def fill(value: float):
    """An initializer: every entry `value`."""
    return lambda shape, rng: np.full(shape, value)


class ParameterStore:
    """name -> Tensor. Arrays added become trainable tensors, each with a
    same-shape gradient; a Tensor added is kept as it is, so a store of plain
    tensors (a loaded checkpoint) holds no gradient buffers."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else \
            Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def get(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ConfigError(f"unknown parameter: {name}") from None

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def copy(self) -> "ParameterStore":
        """The values only, as plain tensors like a loaded checkpoint's: a
        copy is saved or scored, not trained, so it holds no gradient buffers
        (at the default dimensions, 1.1 M parameters or about 8.8 MB less)."""
        out = ParameterStore()
        for name, t in self._params.items():
            out.add(name, Tensor(t.data.copy()))
        return out
