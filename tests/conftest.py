"""Fixtures shared by the test modules."""

import pytest

from flowid import trainer


@pytest.fixture
def extract_calls(monkeypatch) -> list:
    """trainer.extract patched with a counter: one list entry per call."""
    calls = []
    real = trainer.extract
    monkeypatch.setattr(trainer, "extract",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls
