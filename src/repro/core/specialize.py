"""Class-subset specialisation — a natural extension of class-aware scores.

The per-class importance matrix (Eq. 5–7) tells us *which* classes each
filter serves, not just how many. That makes a new operation possible that
magnitude- or activation-based criteria cannot express: **specialising** a
trained N-class network to a subset of classes by removing every filter
that is unimportant for all retained classes, and shrinking the classifier
to the retained logits.

This is the "different classes trigger different neuron paths" motivation
of the paper (Sec. II-B) taken to its operational conclusion, and is
covered by ``benchmarks/bench_specialize.py`` as an extension experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data import Dataset, Subset
from ..flops import ModelProfile, flops_reduction, profile_model, pruning_ratio
from ..models.pruning_spec import PrunableModel
from ..nn import Linear, Module
from .importance import ImportanceConfig, ImportanceEvaluator
from .surgery import group_sizes, prune_groups
from .trainer import Trainer, TrainingConfig, evaluate_model

__all__ = ["SpecializationConfig", "SpecializationResult", "specialize",
           "class_subset"]


def class_subset(dataset: Dataset, classes: list[int]) -> Subset:
    """View of a dataset restricted to ``classes``, labels remapped to 0..k-1."""
    classes = list(classes)
    indices = np.flatnonzero(np.isin(dataset.labels, classes))
    remap = np.zeros(max(classes, default=-1) + 1, dtype=np.intp)
    remap[classes] = np.arange(len(classes))

    class _Remapped(Subset):
        def __getitem__(self, index):
            image, label = super().__getitem__(index)
            return image, int(remap[label])

        def gather(self, indices):
            images, labels = super().gather(indices)
            return images, remap[labels]

        @property
        def labels(self):
            return remap[super().labels]

    return _Remapped(dataset, indices)


@dataclass(frozen=True)
class SpecializationConfig:
    """Hyperparameters of class-subset specialisation.

    Attributes
    ----------
    min_class_score:
        A filter survives when its importance for at least one retained
        class reaches this value (in [0, 1]; Eq. 7 per-class scores).
    finetune_epochs:
        Fine-tuning on the remapped subset after surgery.
    importance:
        Score-evaluation settings.
    """

    min_class_score: float = 0.5
    finetune_epochs: int = 3
    importance: ImportanceConfig = field(default_factory=ImportanceConfig)


@dataclass
class SpecializationResult:
    """Outcome of one specialisation."""

    model: Module
    classes: list[int]
    accuracy_before_finetune: float
    accuracy: float
    original_profile: ModelProfile
    final_profile: ModelProfile
    removed_per_group: dict[str, int] = field(default_factory=dict)

    @property
    def pruning_ratio(self) -> float:
        return pruning_ratio(self.original_profile, self.final_profile)

    @property
    def flops_reduction(self) -> float:
        return flops_reduction(self.original_profile, self.final_profile)


def specialize(model: Module, train_dataset: Dataset, test_dataset: Dataset,
               num_classes: int, classes: list[int],
               input_shape: tuple[int, int, int],
               config: SpecializationConfig | None = None,
               training: TrainingConfig | None = None,
               classifier_path: str = "classifier") -> SpecializationResult:
    """Specialise a trained N-class model to a subset of classes.

    Steps: score filters per class on the *full* task, drop filters that
    no retained class needs, shrink the classifier to the retained rows,
    then fine-tune on the remapped subset.

    The model is mutated in place and afterwards classifies
    ``len(classes)`` outputs, ordered as in ``classes``.
    """
    if not isinstance(model, PrunableModel):
        raise TypeError(
            f"{type(model).__name__} does not expose prunable_groups()")
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one retained class")
    if len(set(classes)) != len(classes):
        raise ValueError("duplicate classes in subset")
    if any(c < 0 or c >= num_classes for c in classes):
        raise ValueError(f"classes must be in [0, {num_classes})")
    config = config or SpecializationConfig()
    training = training or TrainingConfig()

    original_profile = profile_model(model, input_shape)
    groups = model.prunable_groups()
    evaluator = ImportanceEvaluator(model, train_dataset, num_classes,
                                    config.importance)
    report = evaluator.evaluate([g.conv for g in groups])

    sizes = group_sizes(model, groups)
    keep_indices: dict[str, np.ndarray] = {}
    removed_per_group: dict[str, int] = {}
    for group in groups:
        per_class = report.per_class[group.conv][:, classes]
        keep = np.flatnonzero(per_class.max(axis=1) >= config.min_class_score)
        if len(keep) < group.min_channels:
            # Keep the filters most important for the retained classes.
            order = np.argsort(-per_class.max(axis=1), kind="stable")
            keep = np.sort(order[:group.min_channels])
        if len(keep) < sizes[group.name]:
            keep_indices[group.name] = keep
            removed_per_group[group.name] = sizes[group.name] - len(keep)
    if keep_indices:
        prune_groups(model, groups, keep_indices)

    # Shrink the classifier to the retained logits (in subset order).
    classifier = model.get_module(classifier_path)
    if not isinstance(classifier, Linear):
        raise TypeError(f"{classifier_path!r} is not a Linear classifier")
    weight = classifier.weight.data[classes].copy()
    bias = classifier.bias.data[classes].copy() if classifier.bias is not None else None
    classifier.select_output_channels(np.arange(len(classes)))
    classifier.weight.data = weight
    if bias is not None:
        classifier.bias.data = bias
    if hasattr(model, "num_classes"):
        model.num_classes = len(classes)

    subset_train = class_subset(train_dataset, classes)
    subset_test = class_subset(test_dataset, classes)
    _, acc_before = evaluate_model(model, subset_test, training.batch_size)
    if config.finetune_epochs > 0:
        Trainer(model, subset_train, subset_test, training).train(
            epochs=config.finetune_epochs)
    _, acc = evaluate_model(model, subset_test, training.batch_size)

    return SpecializationResult(
        model=model,
        classes=classes,
        accuracy_before_finetune=acc_before,
        accuracy=acc,
        original_profile=original_profile,
        final_profile=profile_model(model, input_shape),
        removed_per_group=removed_per_group,
    )
