"""Neural-network layers.

Beyond the usual forward/backward behaviour, the convolutional, linear and
batch-norm layers expose *surgery* methods (``select_output_channels`` /
``select_input_channels``) that rebuild their parameter arrays around a kept
subset of channels. Filter pruning in :mod:`repro.core.surgery` and all the
baselines are implemented on top of these primitives, so the physical
removal logic lives in exactly one place.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, conv, ops
from ..tensor.tensor import _tape_active
from . import init as init_mod
from .module import Module

__all__ = [
    "Linear", "Conv2d", "BatchNorm2d", "ReLU", "MaxPool2d", "AvgPool2d",
    "GlobalAvgPool2d", "Flatten", "Dropout", "Identity",
]


class Identity(Module):
    """No-op layer; useful as a placeholder when a block is pruned away."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class Flatten(Module):
    """Flatten all dimensions after the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.flatten(x, start_dim=1)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return conv.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return conv.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class GlobalAvgPool2d(Module):
    """Average over the spatial extent, producing ``(N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return conv.global_avg_pool2d(x)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep).astype(np.float32) / keep
        return ops.dropout_mask(x, mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Linear(Module):
    """Fully connected layer ``y = x Wᵀ + b`` with weight ``(out, in)``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init_mod.kaiming_uniform((out_features, in_features), rng),
                             requires_grad=True, name="weight")
        if bias:
            self.bias = Tensor(init_mod.zeros((out_features,)),
                               requires_grad=True, name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.matmul(x, ops.transpose(self.weight))
        if self.bias is not None:
            out = ops.add(out, self.bias)
        return out

    # -- surgery --------------------------------------------------------
    def select_output_channels(self, keep: np.ndarray) -> None:
        """Keep only the listed output units, in the given order."""
        keep = np.asarray(keep, dtype=np.intp)
        self.weight.data = np.ascontiguousarray(self.weight.data[keep])
        self.weight.zero_grad()
        if self.bias is not None:
            self.bias.data = np.ascontiguousarray(self.bias.data[keep])
            self.bias.zero_grad()
        self.out_features = len(keep)

    def select_input_channels(self, keep: np.ndarray, group_size: int = 1) -> None:
        """Keep only the listed input channels.

        ``group_size`` handles a flattened convolutional feature map feeding
        the layer: each retained channel keeps a contiguous block of
        ``group_size`` input columns (spatial positions).
        """
        keep = np.asarray(keep, dtype=np.intp)
        if group_size == 1:
            cols = keep
        else:
            cols = (keep[:, None] * group_size + np.arange(group_size)[None, :]).reshape(-1)
        self.weight.data = np.ascontiguousarray(self.weight.data[:, cols])
        self.weight.zero_grad()
        self.in_features = self.weight.data.shape[1]

    def __repr__(self) -> str:
        return (f"Linear(in_features={self.in_features}, "
                f"out_features={self.out_features}, bias={self.bias is not None})")


class Conv2d(Module):
    """2-D convolution with weight ``(out_channels, in_channels, kh, kw)``."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Tensor(init_mod.kaiming_normal(shape, rng),
                             requires_grad=True, name="weight")
        if bias:
            self.bias = Tensor(init_mod.zeros((out_channels,)),
                               requires_grad=True, name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv.conv2d(x, self.weight, self.bias,
                           stride=self.stride, padding=self.padding)

    # -- surgery --------------------------------------------------------
    def select_output_channels(self, keep: np.ndarray) -> None:
        """Keep only the listed filters (output channels)."""
        keep = np.asarray(keep, dtype=np.intp)
        self.weight.data = np.ascontiguousarray(self.weight.data[keep])
        self.weight.zero_grad()
        if self.bias is not None:
            self.bias.data = np.ascontiguousarray(self.bias.data[keep])
            self.bias.zero_grad()
        self.out_channels = len(keep)

    def select_input_channels(self, keep: np.ndarray) -> None:
        """Keep only the listed input channels of every filter."""
        keep = np.asarray(keep, dtype=np.intp)
        self.weight.data = np.ascontiguousarray(self.weight.data[:, keep])
        self.weight.zero_grad()
        self.in_channels = len(keep)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, "
                f"padding={self.padding}, bias={self.bias is not None})")


def _channel_sums(a: np.ndarray, c: int) -> np.ndarray:
    """Per-channel sums of channels-last ``a``: one GEMV over its rows."""
    return np.ones(a.size // c, dtype=a.dtype) @ a.reshape(-1, c)


class BatchNorm2d(Module):
    """Batch normalisation over the channel axis of NCHW tensors.

    One ``batch_norm`` tape node with a closed-form backward, in train and
    eval mode alike, over channels-last memory (one copy for an
    NCHW-contiguous input); the output is an NCHW view over NHWC memory.
    Eval mode is one per-channel affine, ``x·(γσ⁻¹) + (β − μγσ⁻¹)``, whose
    input gradient is ``g·(γσ⁻¹)``; an eval-mode backward with frozen γ/β
    computes no parameter sums.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Tensor(init_mod.ones((num_features,)),
                             requires_grad=True, name="weight")
        self.bias = Tensor(init_mod.zeros((num_features,)),
                           requires_grad=True, name="bias")
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        n, c, h, w = x.shape
        # (N, H·W·C) rows against vectors tiled H·W times: image-long inner loops.
        rows = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1)).reshape(n, -1)
        count = n * h * w

        def tiled(*vectors):
            """The vectors tiled H·W times, by one ``np.repeat`` (none at 1x1)."""
            if h * w == 1:
                return vectors
            return np.repeat(np.array(vectors)[:, None], h * w,
                             axis=1).reshape(len(vectors), -1)
        gamma = self.weight.data
        if self.training:
            mean = _channel_sums(rows, c) / count
            normed = rows - tiled(mean)[0]
            var = _channel_sums(normed * normed, c) / count
            # Update running statistics outside the graph.
            m = self.momentum
            unbiased = var * count / max(count - 1, 1)
            object.__setattr__(self, "running_mean",
                               (1 - m) * self.running_mean + m * mean)
            object.__setattr__(self, "running_var",
                               (1 - m) * self.running_var + m * unbiased)
            inv_std = (var + np.float32(self.eps)) ** -0.5
            inv_t, gamma_t, beta_t = tiled(inv_std, gamma, self.bias.data)
            normed *= inv_t
            out = normed * gamma_t
            out += beta_t
        else:
            mean = np.asarray(self.running_mean, dtype=np.float32)
            inv_std = np.asarray(1.0 / np.sqrt(self.running_var + self.eps),
                                 dtype=np.float32)
            scale = gamma * inv_std
            scale_t, shift_t = tiled(scale, self.bias.data - mean * scale)
            out = rows * scale_t
            out += shift_t
            normed = None
        out = out.reshape(n, h, w, c).transpose(0, 3, 1, 2)
        parents = (x, self.weight, self.bias)
        if not _tape_active(*parents):
            return Tensor._make(out, (), "batch_norm", None)
        weight, bias, training = self.weight, self.bias, self.training
        if normed is None and weight.requires_grad:     # x̂ for γ's gradient
            mean_t, inv_t = tiled(mean, inv_std)
            normed = rows - mean_t
            normed *= inv_t

        def backward(grad):
            g = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(n, -1)
            gw = (_channel_sums(g * normed, c)
                  if training or weight.requires_grad else None)
            gb = _channel_sums(g, c) if training or bias.requires_grad else None
            gx = None
            if x.requires_grad:
                if training:
                    # d/dx of (x - mean(x)) / std(x) over the batch:
                    # (γ/σ)·(g − mean(g) − x̂·mean(g·x̂)).
                    gb_t, gw_t, gscale_t = tiled(gb / count, gw / count,
                                                 gamma * inv_std)
                    gx = g - gb_t
                    gx -= normed * gw_t
                    gx *= gscale_t
                else:
                    gx = g * scale_t
                gx = gx.reshape(n, h, w, c).transpose(0, 3, 1, 2)
            return (gx,
                    gw if weight.requires_grad else None,
                    gb if bias.requires_grad else None)

        return Tensor._make(out, parents, "batch_norm", backward)

    # -- surgery --------------------------------------------------------
    def select_channels(self, keep: np.ndarray) -> None:
        """Keep only the listed channels (affine params + running stats)."""
        keep = np.asarray(keep, dtype=np.intp)
        self.weight.data = np.ascontiguousarray(self.weight.data[keep])
        self.bias.data = np.ascontiguousarray(self.bias.data[keep])
        self.weight.zero_grad()
        self.bias.zero_grad()
        object.__setattr__(self, "running_mean",
                           np.ascontiguousarray(self.running_mean[keep]))
        object.__setattr__(self, "running_var",
                           np.ascontiguousarray(self.running_var[keep]))
        self.num_features = len(keep)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features}, eps={self.eps}, momentum={self.momentum})"
