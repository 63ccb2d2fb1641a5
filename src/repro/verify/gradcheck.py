"""Finite-difference gradient verification.

Promoted from ``repro.tensor.grad_check`` into the correctness subsystem:
every differentiable op and layer in this code base is validated against
central finite differences both by the unit tests and by the property-based
fuzzer in :mod:`repro.verify.fuzz`. The helpers stay importable from
:mod:`repro.tensor` for backwards compatibility.

Tolerances: forwards run in float32 while the difference quotient is taken
in float64, so the achievable agreement is bounded by float32 rounding of
the function values. ``atol=rtol=1e-2`` with ``eps=1e-3`` is conservative
for well-conditioned ops; tighten per-op only with evidence.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..tensor.tensor import Tensor

__all__ = ["numerical_grad", "check_gradients", "grad_error"]


def numerical_grad(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                   wrt: int, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. one input.

    The inputs are perturbed in float64 to keep the difference quotient
    numerically meaningful. Every perturbed copy keeps the input's memory
    layout (an NCHW view over channels-last memory stays one), so layout-
    dependent kernels are differenced on the layout they were called with.
    """
    target = inputs[wrt]
    layout = target.data
    base = np.ascontiguousarray(layout, dtype=np.float64)
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    grad_flat = grad.reshape(-1)

    def load() -> None:
        data = np.empty_like(layout, dtype=np.float32)
        data[...] = base
        target.data = data

    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        load()
        plus = float(fn(*inputs).data.sum())
        flat[i] = original - eps
        load()
        minus = float(fn(*inputs).data.sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    load()
    return grad


def check_gradients(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
                    atol: float = 1e-2, rtol: float = 1e-2,
                    eps: float = 1e-3) -> None:
    """Assert analytic gradients of ``fn`` match finite differences.

    Parameters
    ----------
    fn:
        Function of the input tensors returning a single tensor; the check
        backpropagates from ``sum(output)``.
    inputs:
        Input tensors; those with ``requires_grad=True`` are checked.

    Raises
    ------
    AssertionError
        When any analytic gradient deviates from the numerical one beyond
        the float32 tolerance.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.sum().backward()
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        assert t.grad is not None, f"input {i} received no gradient"
        num = numerical_grad(fn, inputs, i, eps=eps)
        np.testing.assert_allclose(
            t.grad, num, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch on input {i}",
        )


def grad_error(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
               eps: float = 1e-3) -> float:
    """Worst absolute analytic-vs-numerical gradient deviation over inputs.

    Non-asserting variant of :func:`check_gradients` used by the fuzzer to
    report magnitudes; returns 0.0 when no input requires grad.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    out.sum().backward()
    worst = 0.0
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        if t.grad is None:
            return float("inf")
        num = numerical_grad(fn, inputs, i, eps=eps)
        worst = max(worst, float(np.abs(t.grad - num).max()))
    return worst
