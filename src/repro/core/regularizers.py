"""The modified cost function of the paper (Eq. 1–2).

``L = L_CE + λ1 · L1 + λ2 · L_orth``

* ``L1`` pushes weight matrices towards sparsity so unimportant filters
  collapse to near-zero (few-class) importance;
* ``L_orth`` pushes filters of each convolutional layer towards
  orthogonality so the surviving filters capture diverse features that are
  useful for *many* classes.

Three interchangeable computations of the orthogonality term are provided:

``kernel``
    ``‖Ǩ Ǩᵀ − I‖_F`` on the flattened kernel matrix ``Ǩ ∈ R^{O×Ck²}``.
    O(O²Ck²); the form used by default during training.
``conv``
    Self-convolution form from OrthConv [31]: convolving the filter bank
    with itself must produce a spatial delta for like pairs and zero for
    unlike pairs. Accounts for overlapping sliding positions (stride < k).
``toeplitz``
    The literal ‖KKᵀ − I‖ on the doubly-block-Toeplitz expansion of
    Fig. 2 — exact but quadratic in spatial size; meant for small layers
    and as the reference the efficient forms are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Conv2d, Linear, Module
from ..tensor import Tensor, conv as tconv, ops
from .toeplitz import toeplitz_matrix_tensor

__all__ = ["l1_regularizer", "orthogonality_term", "OrthMode",
           "ModifiedLoss", "LossTerms", "FusedRegularizer"]

OrthMode = str  # "kernel" | "conv" | "toeplitz"

# Identity Tensors used by the Gram-matrix penalties, cached by size:
# these were rebuilt (np.eye allocation + Tensor wrap) on every batch for
# every layer. The cached tensors are constants — never mutated by any op
# and never requiring grad — so sharing one instance across graphs is safe.
_EYE_CACHE: dict[int, Tensor] = {}


def _eye(n: int) -> Tensor:
    cached = _EYE_CACHE.get(n)
    if cached is None:
        cached = _EYE_CACHE[n] = Tensor(np.eye(n, dtype=np.float32))
    return cached


def l1_regularizer(model: Module) -> Tensor:
    """Σ_l ‖W_l‖₁ over all conv and linear weight matrices (Eq. 2, left).

    Biases and batch-norm affine parameters are excluded: the paper
    penalises *weight matrices*, and shrinking BN scales is the mechanism
    of a different method (SSS [27]) implemented as a baseline.
    """
    total: Tensor | None = None
    for module in model.modules():
        if isinstance(module, (Conv2d, Linear)):
            term = ops.sum(ops.abs(module.weight))
            total = term if total is None else ops.add(total, term)
    if total is None:
        raise ValueError("model contains no conv or linear layers")
    return total


def _orth_kernel_rows(weight: Tensor) -> Tensor:
    """‖W Wᵀ − I‖_F treating each output row of a 2-D weight as a filter."""
    o = weight.shape[0]
    gram = ops.matmul(weight, ops.transpose(weight))
    diff = ops.sub(gram, _eye(o))
    return ops.sqrt(ops.sum(ops.mul(diff, diff)) + 1e-12)


def _orth_kernel(weight: Tensor) -> Tensor:
    """‖Ǩ Ǩᵀ − I‖_F for flattened kernels Ǩ (O, C·k²)."""
    o = weight.shape[0]
    flat = ops.reshape(weight, (o, -1))
    return _orth_kernel_rows(flat)


def _orth_conv(weight: Tensor, stride: int = 1) -> Tensor:
    """Self-convolution orthogonality (OrthConv [31]).

    Treat the filter bank ``(O, C, k, k)`` as a batch of O images and
    convolve it with itself. Rows of the Toeplitz expansion are the filters
    shifted by multiples of the stride, so the padding is chosen as the
    largest multiple of the stride not exceeding ``k-1`` — every sampled
    tap then corresponds to an actual pair of sliding positions, with the
    zero-shift (kernel Gram) tap at the centre. Orthogonal expansion K
    requires the result to equal a delta: 1 for the like-pair zero-shift
    tap, 0 elsewhere.
    """
    o, _, k, _ = weight.shape
    pad = (k - 1) // stride * stride
    z = tconv.conv2d(weight, weight, stride=stride, padding=pad)
    target = np.zeros(z.shape, dtype=np.float32)
    centre = pad // stride
    target[np.arange(o), np.arange(o), centre, centre] = 1.0
    diff = ops.sub(z, Tensor(target))
    return ops.sqrt(ops.sum(ops.mul(diff, diff)) + 1e-12)


def _orth_toeplitz(weight: Tensor, input_size: int, stride: int, padding: int) -> Tensor:
    """Literal ‖KKᵀ − I‖_F on the Fig. 2 expansion."""
    matrix = toeplitz_matrix_tensor(weight, input_size, stride=stride,
                                    padding=padding)
    rows = matrix.shape[0]
    gram = ops.matmul(matrix, ops.transpose(matrix))
    diff = ops.sub(gram, _eye(rows))
    return ops.sqrt(ops.sum(ops.mul(diff, diff)) + 1e-12)


def orthogonality_term(model: Module, mode: OrthMode = "kernel",
                       input_sizes: dict[str, int] | None = None) -> Tensor:
    """Σ_l ‖K Kᵀ − I‖ over convolutional layers (Eq. 2, right).

    Parameters
    ----------
    mode:
        One of ``"kernel"``, ``"conv"``, ``"toeplitz"`` (see module doc).
    input_sizes:
        Required for ``"toeplitz"``: spatial input size per conv path.
    """
    total: Tensor | None = None
    for path, module in model.named_modules():
        if mode == "kernel" and isinstance(module, Linear):
            # The class-aware story applies to MLP neurons too (paper
            # Fig. 1); in kernel mode the rows of a linear weight matrix
            # are treated as the "filters" to orthogonalise.
            term = _orth_kernel_rows(module.weight)
            total = term if total is None else ops.add(total, term)
            continue
        if not isinstance(module, Conv2d):
            continue
        if mode == "kernel":
            term = _orth_kernel(module.weight)
        elif mode == "conv":
            term = _orth_conv(module.weight, stride=module.stride)
        elif mode == "toeplitz":
            if input_sizes is None or path not in input_sizes:
                raise ValueError(f"toeplitz mode needs input size for {path!r}")
            term = _orth_toeplitz(module.weight, input_sizes[path],
                                  module.stride, module.padding)
        else:
            raise ValueError(f"unknown orthogonality mode {mode!r}")
        total = term if total is None else ops.add(total, term)
    if total is None:
        raise ValueError("model contains no convolutional layers")
    return total


@dataclass
class LossTerms:
    """Decomposition of one evaluation of the modified cost."""

    total: Tensor
    cross_entropy: float
    l1: float
    orth: float


class ModifiedLoss:
    """The paper's training objective (Eq. 1), ready to backpropagate.

    Parameters
    ----------
    lambda1:
        Coefficient of the L1 term (paper: 1e-4).
    lambda2:
        Coefficient of the orthogonality term (paper: 1e-2).
    orth_mode:
        Orthogonality computation (see :func:`orthogonality_term`).

    With both coefficients zero this reduces to plain cross entropy, which
    is how the "no regularisation" ablation row of Table III is produced.
    """

    def __init__(self, lambda1: float = 1e-4, lambda2: float = 1e-2,
                 orth_mode: OrthMode = "kernel"):
        if lambda1 < 0 or lambda2 < 0:
            raise ValueError("regularisation coefficients must be non-negative")
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.orth_mode = orth_mode

    def __call__(self, model: Module, logits: Tensor,
                 targets: np.ndarray) -> LossTerms:
        from ..nn import cross_entropy
        ce = cross_entropy(logits, targets)
        total = ce
        l1_value = 0.0
        orth_value = 0.0
        if self.lambda1 > 0:
            l1 = l1_regularizer(model)
            l1_value = float(l1.data)
            total = ops.add(total, ops.mul(Tensor(np.float32(self.lambda1)), l1))
        if self.lambda2 > 0:
            orth = orthogonality_term(model, mode=self.orth_mode)
            orth_value = float(orth.data)
            total = ops.add(total, ops.mul(Tensor(np.float32(self.lambda2)), orth))
        return LossTerms(total=total, cross_entropy=float(ce.data),
                         l1=l1_value, orth=orth_value)


class FusedRegularizer:
    """Closed-form gradients of the Eq. 2 penalties, injected into ``.grad``.

    The autograd path rebuilds a full penalty graph over *all* weights on
    every batch; but both penalties have analytic gradients:

    * ``d/dW ‖W‖₁ = sign(W)`` (0 at 0, matching the autograd ``abs``);
    * for the kernel-mode term ``f = sqrt(‖D‖_F² + ε)`` with
      ``D = ŴŴᵀ − I`` (Ŵ the flattened kernels, D symmetric):
      ``df/dŴ = 2 D Ŵ / f``.

    :meth:`accumulate` adds ``λ1·sign(W) + λ2·dforth/dW`` directly into
    each weight's ``.grad`` (call it *after* the cross-entropy backward)
    and returns the penalty values, which fall out of the gradient
    computation for free. Agreement with the autograd path is pinned by
    gradcheck in ``tests/core/test_fused_regularizers.py``.

    :class:`~repro.core.trainer.Trainer` uses it for its default
    objective. Only ``orth_mode="kernel"`` (the training default) has a
    closed form here; ``conv``/``toeplitz`` keep using the autograd path.
    """

    def __init__(self, lambda1: float = 1e-4, lambda2: float = 1e-2,
                 orth_mode: OrthMode = "kernel"):
        if lambda1 < 0 or lambda2 < 0:
            raise ValueError("regularisation coefficients must be non-negative")
        if orth_mode != "kernel" and lambda2 > 0:
            raise ValueError(
                f"FusedRegularizer has closed-form gradients only for "
                f"orth_mode='kernel', not {orth_mode!r}; use the autograd "
                "ModifiedLoss for the conv/toeplitz forms")
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.orth_mode = orth_mode

    def accumulate(self, model: Module) -> tuple[float, float]:
        """Add the scaled penalty gradients to ``model``; return values.

        Returns ``(l1_value, orth_value)`` — the same float32-accumulated
        penalty values the autograd path reports.
        """
        layers = [m for m in model.modules() if isinstance(m, (Conv2d, Linear))]
        if not layers:
            raise ValueError("model contains no conv or linear layers")
        l1_total = orth_total = np.float32(0.0)
        for module in layers:
            weight = module.weight
            data = weight.data
            flat = data.reshape(data.shape[0], -1)
            if self.lambda2 > 0:
                diff = flat @ flat.T
                diff.reshape(-1)[::len(diff) + 1] -= np.float32(1.0)
                value = np.sqrt(np.sum(diff * diff) + np.float32(1e-12))
                orth_total = orth_total + value
                # λ2·2/f folded into the O×O matrix before the second GEMM.
                diff *= np.float32(self.lambda2 * 2.0) / value
                grad = diff @ flat
            else:
                grad = np.zeros_like(flat)
            if self.lambda1 > 0:
                l1_total = l1_total + np.sum(np.abs(data))
                sign = np.sign(flat)
                sign *= np.float32(self.lambda1)
                grad += sign
            grad = grad.reshape(data.shape)
            if weight.grad is None:
                weight.grad = grad
            else:       # one in-place add of the assembled penalty gradient
                np.add(weight.grad, grad, out=weight.grad)
        return float(l1_total), float(orth_total)
