"""Finite-difference verification of analytic gradients (a test helper)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from flowid import tensor_core as tc
from flowid.tensor_core import ParameterStore

# floor of the relative error's denominator: keeps vanishing gradients from
# amplifying finite-difference roundoff
DENOM_FLOOR = 1e-3


class GradCheckFailure(Exception):
    """The objective produced a non-finite value during checking."""


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    per_param: dict[str, float] = field(default_factory=dict)
    coordinates: int = 0

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def worst(self) -> str:
        if not self.per_param:
            return "<empty>"
        name = max(self.per_param, key=self.per_param.get)
        return f"{name}: {self.per_param[name]:.3e}"


def _eval(f, store: ParameterStore) -> float:
    out = f(store.frozen())
    val = out.data.item() if isinstance(out, tc.Tensor) else float(out)
    if not np.isfinite(val):
        raise GradCheckFailure(f"objective returned non-finite value {val}")
    return val


def grad_check(f, store: ParameterStore, h: float = 1e-5, tol: float = 1e-4,
               param_names: list[str] | None = None, grads_fn=None) -> GradCheckReport:
    """Compare analytic gradients of scalar f(store) to central differences.

    Per coordinate: rel = |analytic - numeric| / max(|analytic|, |numeric|,
    DENOM_FLOOR). `grads_fn(store) -> {name: grad}` overrides the
    analytic side (lets callers verify externally supplied gradients).
    """
    names = param_names if param_names is not None else store.names()

    if grads_fn is None:
        store.zero_grad()
        out = f(store)
        if not np.isfinite(out.data.item()):
            raise GradCheckFailure("objective returned non-finite value")
        tc.backward(out)
        analytic = {n: store.get(n).grad.copy() for n in names}
    else:
        analytic = {n: np.asarray(g, dtype=np.float64) for n, g in grads_fn(store).items()
                    if n in set(names)}

    report = GradCheckReport(max_rel_error=0.0, tol=tol)
    for name in names:
        p = store.get(name)
        a = analytic[name]
        worst = 0.0
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = _eval(f, store)
            flat[i] = orig - h
            f_minus = _eval(f, store)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(numeric), DENOM_FLOOR)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
            report.coordinates += 1
        report.per_param[name] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
    return report
