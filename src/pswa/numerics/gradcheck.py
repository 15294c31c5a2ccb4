"""Finite-difference verification of recorded gradients.

`gradcheck` compares every analytic input gradient of a scalar-valued
function against central differences, element by element.  The error
metric is relative with an absolute floor:

    err = |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)

so tiny gradients are compared absolutely and large ones relatively.
Checks must run in float64; the f32 path has nowhere near the headroom
for h = 1e-5 central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import UsageError
from .tensor import Tensor, no_grad

DEFAULT_STEP = 1e-5
_FLOOR = 1e-8


@dataclass
class GradCheckReport:
    max_err: float
    per_input: list[float]
    worst_input: int = -1
    worst_index: tuple = ()
    analytic: float = 0.0
    numeric: float = 0.0
    entries: int = 0

    def ok(self, tol: float) -> bool:
        return self.max_err < tol

    def __str__(self) -> str:
        loc = f"input {self.worst_input} at {self.worst_index}" if self.worst_input >= 0 else "n/a"
        return (
            f"max rel err {self.max_err:.3e} over {self.entries} entries "
            f"(worst: {loc}, analytic {self.analytic:.6e}, numeric {self.numeric:.6e})"
        )


def gradcheck(f: Callable[..., Tensor], inputs: Sequence[Tensor], step: float = DEFAULT_STEP) -> GradCheckReport:
    """Check d f(inputs) / d inputs for a scalar-valued ``f``.

    Every entry of every input with ``requires_grad=True`` is perturbed
    by ±step (central differences).  Inputs are restored afterwards, also
    when ``f`` raises.
    """
    inputs = list(inputs)
    checked = [t for t in inputs if t.requires_grad]
    if not checked:
        raise UsageError("gradcheck needs at least one input with requires_grad=True")
    for t in checked:
        if t.dtype != np.float64:
            raise UsageError("gradcheck requires float64 inputs")
        t.grad = None

    out = f(*inputs)
    if not isinstance(out, Tensor) or out.size != 1:
        raise UsageError("gradcheck target must return a scalar Tensor")
    out.backward()

    analytic = []
    for t in checked:
        analytic.append(np.zeros_like(t.data) if t.grad is None else t.grad.copy())
        t.grad = None

    report = GradCheckReport(max_err=0.0, per_input=[0.0] * len(checked))
    for i, t in enumerate(checked):
        flat = t.data.reshape(-1)
        ana = analytic[i].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            try:
                with no_grad():
                    flat[j] = keep + step
                    up = f(*inputs).item()
                    flat[j] = keep - step
                    down = f(*inputs).item()
            finally:
                flat[j] = keep
            num = (up - down) / (2.0 * step)
            err = abs(ana[j] - num) / max(abs(ana[j]), abs(num), _FLOOR)
            report.entries += 1
            report.per_input[i] = max(report.per_input[i], err)
            if err > report.max_err:
                report.max_err = err
                report.worst_input = i
                report.worst_index = np.unravel_index(j, t.data.shape)
                report.analytic = float(ana[j])
                report.numeric = float(num)
    return report
