"""The paper's contribution: class-aware filter pruning.

Public pipeline:

* :class:`ModifiedLoss` — the Eq. 1 training objective;
* :class:`ImportanceEvaluator` — per-class filter importance (Eq. 3–7);
* :class:`CombinedStrategy` & friends — pruning selection (Sec. III-C);
* :func:`prune_groups` — physical filter surgery;
* :class:`ClassAwarePruningFramework` — the Fig. 5 loop tying it together.
"""

from .framework import (ClassAwarePruningFramework, FrameworkConfig,
                        IterationRecord, PruningResult)
from .hooks import ActivationRecorder, activation_mask
from .distill import DistillationLoss, distill_finetune, kl_divergence
from .masking import (FilterMasks, group_mask_paths, masked_accuracy,
                      simulate_decision)
from .specialize import (SpecializationConfig, SpecializationResult,
                         class_subset, specialize)
from .importance import (ImportanceConfig, ImportanceEvaluator,
                         ImportanceReport, aggregate_scores)
from .pruner import (CombinedStrategy, PercentageStrategy, PruningDecision,
                     PruningStrategy, ThresholdStrategy, apply_pruning,
                     strategy_from_name)
from .regularizers import (LossTerms, ModifiedLoss, l1_regularizer,
                           orthogonality_term)
from .surgery import SurgeryRecord, group_sizes, prune_groups
from .taylor import ExactZeroingEngine, FusedTaylorScorer, TaylorScoreEngine
from .toeplitz import toeplitz_indices, toeplitz_matrix, toeplitz_matrix_tensor
from .trainer import (EpochStats, Trainer, TrainingConfig, TrainingHistory,
                      evaluate_model)

__all__ = [
    "ModifiedLoss", "LossTerms", "l1_regularizer", "orthogonality_term",
    "toeplitz_indices", "toeplitz_matrix", "toeplitz_matrix_tensor",
    "ActivationRecorder", "activation_mask",
    "TaylorScoreEngine", "FusedTaylorScorer", "ExactZeroingEngine",
    "ImportanceConfig", "ImportanceEvaluator", "ImportanceReport",
    "aggregate_scores",
    "PruningStrategy", "ThresholdStrategy", "PercentageStrategy",
    "CombinedStrategy", "PruningDecision", "apply_pruning",
    "strategy_from_name",
    "SurgeryRecord", "prune_groups", "group_sizes",
    "Trainer", "TrainingConfig", "TrainingHistory", "EpochStats",
    "evaluate_model",
    "ClassAwarePruningFramework", "FrameworkConfig", "IterationRecord",
    "PruningResult",
    "FilterMasks", "group_mask_paths", "masked_accuracy", "simulate_decision",
    "SpecializationConfig", "SpecializationResult", "specialize",
    "class_subset",
    "DistillationLoss", "distill_finetune", "kl_divergence",
]
