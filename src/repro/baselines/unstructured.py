"""Unstructured (individual-weight) pruning.

The paper's Background (Sec. II-A) contrasts its structured approach with
unstructured pruning [9]–[12]: removing individual weights reaches higher
sparsity at equal accuracy, but "the resulting sparse weight matrix is not
friendly for hardware platforms". This module supplies that comparator:

* magnitude masking (Han et al. [9]) — global or per-layer;
* gradient-magnitude masking (|w·∂L/∂w|, the criterion family of [10]/[12]);
* mask-preserving fine-tuning (masks re-applied after every optimizer
  step via the trainer's ``post_step`` hook);
* sparsity accounting.

``benchmarks/bench_hardware.py`` combines this with the systolic-array
cost model to reproduce the paper's motivating claim quantitatively:
unstructured sparsity barely reduces array cycles without zero-skipping
hardware, while structured pruning's reduction tracks its ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.trainer import Trainer, TrainingConfig, evaluate_model
from ..data import Dataset
from ..nn import Conv2d, Linear, Module, cross_entropy
from ..tensor import Tensor

__all__ = ["magnitude_masks", "gradient_masks", "apply_masks",
           "sparsity_report", "UnstructuredResult", "UnstructuredPruner"]


def _prunable_layers(model: Module) -> list[tuple[str, Module]]:
    return [(path, m) for path, m in model.named_modules()
            if isinstance(m, (Conv2d, Linear))]


def _masks_from_scores(scores: dict[str, np.ndarray],
                       sparsity: float) -> dict[str, np.ndarray]:
    """Remove exactly ``floor(total · sparsity)`` lowest-scoring weights.

    Rank-based rather than quantile-threshold-based so heavy score ties
    (e.g. many exactly-zero gradient products) cannot overshoot the target.
    """
    paths = list(scores)
    flat = np.concatenate([scores[p].reshape(-1) for p in paths])
    total = flat.size
    remove = int(np.floor(total * sparsity))
    keep_flat = np.ones(total, dtype=np.float32)
    if remove > 0:
        victims = np.argpartition(flat, remove - 1)[:remove]
        keep_flat[victims] = 0.0
    masks: dict[str, np.ndarray] = {}
    offset = 0
    for path in paths:
        size = scores[path].size
        masks[path] = keep_flat[offset:offset + size].reshape(
            scores[path].shape)
        offset += size
    return masks


def magnitude_masks(model: Module, sparsity: float,
                    scope: str = "global") -> dict[str, np.ndarray]:
    """Binary keep-masks zeroing the smallest-magnitude weights.

    Parameters
    ----------
    sparsity:
        Target fraction of weights to remove, in ``[0, 1)``.
    scope:
        ``"global"`` ranks all weights together (Han et al. style);
        ``"layer"`` removes the same fraction from every layer.
    """
    if not 0 <= sparsity < 1:
        raise ValueError("sparsity must be in [0, 1)")
    if scope not in ("global", "layer"):
        raise ValueError(f"unknown scope {scope!r}")
    layers = _prunable_layers(model)
    if scope == "global":
        return _masks_from_scores(
            {path: np.abs(m.weight.data) for path, m in layers}, sparsity)
    masks: dict[str, np.ndarray] = {}
    for path, module in layers:
        masks.update(_masks_from_scores(
            {path: np.abs(module.weight.data)}, sparsity))
    return masks


def gradient_masks(model: Module, dataset: Dataset, sparsity: float,
                   num_images: int = 64, seed: int = 0) -> dict[str, np.ndarray]:
    """Keep-masks ranking weights by ``|w · ∂L/∂w|`` on a data batch."""
    if not 0 <= sparsity < 1:
        raise ValueError("sparsity must be in [0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(dataset), size=min(num_images, len(dataset)),
                     replace=False)
    images, labels = dataset.gather(idx)
    was_training = model.training
    model.eval()
    try:
        model.zero_grad()
        logits = model(Tensor(images))
        cross_entropy(logits, labels, reduction="sum").backward()
        layers = _prunable_layers(model)
        scores = {path: np.abs(m.weight.data * m.weight.grad)
                  for path, m in layers}
    finally:
        model.zero_grad()
        model.train(was_training)
    return _masks_from_scores(scores, sparsity)


def apply_masks(model: Module, masks: dict[str, np.ndarray]) -> None:
    """Zero masked weights in place (mask 0 = removed)."""
    for path, mask in masks.items():
        module = model.get_module(path)
        if mask.shape != module.weight.data.shape:
            raise ValueError(f"mask shape {mask.shape} does not match "
                             f"{path!r} weights {module.weight.data.shape}")
        module.weight.data = module.weight.data * mask


def sparsity_report(model: Module) -> dict[str, float]:
    """Fraction of exactly-zero weights per prunable layer plus 'total'."""
    report = {}
    zeros = 0
    total = 0
    for path, module in _prunable_layers(model):
        w = module.weight.data
        layer_zeros = int((w == 0).sum())
        report[path] = layer_zeros / w.size
        zeros += layer_zeros
        total += w.size
    report["total"] = zeros / total if total else 0.0
    return report


@dataclass
class UnstructuredResult:
    """Outcome of one unstructured pruning run."""

    criterion: str
    target_sparsity: float
    achieved_sparsity: float
    baseline_accuracy: float
    final_accuracy: float
    per_layer_sparsity: dict[str, float] = field(default_factory=dict)

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.final_accuracy


class UnstructuredPruner:
    """One-shot unstructured pruning with mask-preserving fine-tuning."""

    def __init__(self, model: Module, train_dataset: Dataset,
                 test_dataset: Dataset, criterion: str = "magnitude",
                 training: TrainingConfig | None = None):
        if criterion not in ("magnitude", "gradient"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.model = model
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.criterion = criterion
        self.training = training or TrainingConfig()

    def run(self, sparsity: float, finetune_epochs: int = 2,
            scope: str = "global") -> UnstructuredResult:
        _, baseline = evaluate_model(self.model, self.test_dataset,
                                     self.training.batch_size)
        if self.criterion == "magnitude":
            masks = magnitude_masks(self.model, sparsity, scope=scope)
        else:
            masks = gradient_masks(self.model, self.train_dataset, sparsity)
        apply_masks(self.model, masks)
        if finetune_epochs > 0:
            trainer = Trainer(self.model, self.train_dataset,
                              self.test_dataset, self.training,
                              post_step=lambda: apply_masks(self.model, masks))
            trainer.train(epochs=finetune_epochs)
        _, final = evaluate_model(self.model, self.test_dataset,
                                  self.training.batch_size)
        per_layer = sparsity_report(self.model)
        return UnstructuredResult(
            criterion=self.criterion,
            target_sparsity=sparsity,
            achieved_sparsity=per_layer["total"],
            baseline_accuracy=baseline,
            final_accuracy=final,
            per_layer_sparsity={k: v for k, v in per_layer.items()
                                if k != "total"},
        )
