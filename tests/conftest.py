"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from flowid import extractors, trainer


@pytest.fixture
def extract_calls(monkeypatch) -> list:
    """trainer.extract patched with a counter: one list entry per call."""
    calls = []
    real = trainer.extract
    monkeypatch.setattr(trainer, "extract",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


@pytest.fixture
def float64_arithmetic(monkeypatch) -> None:
    """The extractors' LSTM and payload CNN compute in float64: for finite-
    difference checks, whose step is below float32 resolution."""
    monkeypatch.setattr(extractors, "COMPUTE_DTYPE", np.float64)
