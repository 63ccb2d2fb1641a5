"""Post-training weight quantization.

The paper positions pruning among the software-level compression
techniques next to quantization [5][6]. This module provides the minimal
quantization substrate so the two can be *composed* — prune first, then
quantize the survivors — which is how deployments actually stack them.

Implemented: uniform symmetric fake-quantization of conv/linear weights
(per-tensor or per-output-channel scales), with compression accounting.
"Fake" means weights are stored dequantized in float32 so the unmodified
engine executes them; the values are exactly representable on an
``bits``-wide integer grid, which is what determines accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn import Conv2d, Linear, Module

__all__ = ["quantize_array", "dequantize_array", "quantize_model",
           "QuantizationReport", "model_size_bytes"]


def quantize_array(values: np.ndarray, bits: int,
                   per_channel: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Uniform symmetric quantization.

    Parameters
    ----------
    values:
        Weight array; for ``per_channel`` the first axis indexes channels.
    bits:
        Integer width (2–16); one value is reserved for symmetry, so the
        grid is ``[-(2^{b-1}-1), 2^{b-1}-1]``.

    Returns
    -------
    (q, scale):
        Integer grid codes (int32) and the per-tensor (scalar array) or
        per-channel scale such that ``values ≈ q * scale``.

    Edge cases are handled explicitly rather than leaking through the
    arithmetic: non-finite inputs raise (a NaN or inf weight would turn
    into a NaN/inf scale and poison every code in its channel), an
    all-zero tensor or channel gets scale 1.0 (its codes are exactly 0, so
    any finite scale round-trips it), and asymmetric ranges are clamped
    onto the symmetric grid — the scale comes from ``max |x|``, so the
    dominant side is exactly representable and the other side saturates
    at ``-qmax`` instead of wrapping.
    """
    if not 2 <= bits <= 16:
        raise ValueError("bits must be in [2, 16]")
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("cannot quantize an empty array")
    if not np.isfinite(values).all():
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise ValueError(
            f"cannot quantize non-finite values ({bad} NaN/inf element(s); "
            "a non-finite weight would produce a non-finite scale)")
    qmax = 2 ** (bits - 1) - 1
    if per_channel:
        flat = np.abs(values.reshape(values.shape[0], -1))
        amax = flat.max(axis=1)
        shape = (-1,) + (1,) * (values.ndim - 1)
        scale = np.where(amax > 0, amax / qmax, 1.0).reshape(shape)
    else:
        amax = float(np.abs(values).max())
        scale = np.array(amax / qmax if amax > 0 else 1.0)
    q = np.clip(np.round(values / scale), -qmax, qmax).astype(np.int32)
    return q, scale.astype(np.float32)


def dequantize_array(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_array`."""
    return (q.astype(np.float32) * scale).astype(np.float32)


@dataclass
class QuantizationReport:
    """What was quantized and what it costs to store."""

    bits: int
    per_channel: bool
    layers: list[str] = field(default_factory=list)
    float_bytes: int = 0
    quant_bytes: int = 0

    @property
    def compression(self) -> float:
        """Storage ratio float32 / quantized (≈ 32 / bits)."""
        if self.quant_bytes == 0:
            raise ValueError("nothing was quantized")
        return self.float_bytes / self.quant_bytes


def quantize_model(model: Module, bits: int = 8,
                   per_channel: bool = True) -> QuantizationReport:
    """Fake-quantize every conv/linear weight in place.

    Biases and batch-norm parameters stay in float32 (their storage is
    negligible and standard practice keeps them high-precision).
    """
    report = QuantizationReport(bits=bits, per_channel=per_channel)
    for path, module in model.named_modules():
        if not isinstance(module, (Conv2d, Linear)):
            continue
        w = module.weight.data
        q, scale = quantize_array(w, bits, per_channel=per_channel)
        module.weight.data = dequantize_array(q, scale)
        report.layers.append(path)
        report.float_bytes += w.size * 4
        report.quant_bytes += (w.size * bits + 7) // 8 + scale.size * 4
    if not report.layers:
        raise ValueError("model contains no quantizable layers")
    return report


def model_size_bytes(model: Module, bits: int = 32) -> int:
    """Storage of all trainable parameters at the given weight width.

    Non-conv/linear parameters (BN affines) are always counted at 32 bits.
    """
    total = 0
    quantizable = set()
    for path, module in model.named_modules():
        if isinstance(module, (Conv2d, Linear)):
            quantizable.add(id(module.weight))
    for p in model.parameters():
        width = bits if id(p) in quantizable else 32
        total += (p.size * width + 7) // 8
    return total
