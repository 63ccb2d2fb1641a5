"""Training and fine-tuning with the modified cost function (Sec. III-A).

One :class:`Trainer` serves both phases of the paper's framework: the
initial training that polarises the importance-score distribution, and the
fine-tuning after each pruning iteration ("the neural network is fine-tuned
with the modified cost function in Equation 1").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..data import DataLoader, Dataset, EmptyDatasetError
from ..nn import Module, accuracy, cross_entropy
from ..optim import SGD, MultiStepLR
from ..resilience.sentinels import (HealthMonitor, NumericalHealthError,
                                    SentinelConfig, SentinelEvent)
from ..tensor import Tensor, inference_mode
from .regularizers import FusedRegularizer, ModifiedLoss

__all__ = ["TrainingConfig", "EpochStats", "TrainingHistory", "Trainer",
           "evaluate_model"]


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation hyperparameters.

    Defaults follow the paper's recipe (Sec. IV): SGD, lr 0.01, batch 256,
    weight decay 5e-4, momentum 0.9, λ1 = 1e-4, λ2 = 1e-2. Benchmarks
    override epochs/batch size to fit the CPU budget.
    """

    epochs: int = 10
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 256
    lambda1: float = 1e-4
    lambda2: float = 1e-2
    orth_mode: str = "kernel"
    lr_milestones: tuple[int, ...] = ()
    lr_gamma: float = 0.1
    seed: int = 0

    def loss(self) -> ModifiedLoss:
        """The modified cost function this config describes."""
        return ModifiedLoss(lambda1=self.lambda1, lambda2=self.lambda2,
                            orth_mode=self.orth_mode)


@dataclass
class EpochStats:
    """Aggregated metrics of one training epoch."""

    epoch: int
    train_loss: float
    cross_entropy: float
    l1: float
    orth: float
    train_accuracy: float
    test_accuracy: float | None
    lr: float


@dataclass
class TrainingHistory:
    """Sequence of epoch statistics for one training run.

    ``sentinel_events`` records every numerical-health trip (NaN/Inf loss,
    NaN gradient, loss explosion) together with the action taken —
    ``"rewind"`` when the trainer restored the last healthy weights and
    backed off the learning rate, ``"abort"`` when the retry budget ran
    out and :class:`~repro.resilience.NumericalHealthError` was raised.
    """

    epochs: list[EpochStats] = field(default_factory=list)
    sentinel_events: list[SentinelEvent] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float | None:
        for stats in reversed(self.epochs):
            if stats.test_accuracy is not None:
                return stats.test_accuracy
        return None

    @property
    def best_test_accuracy(self) -> float | None:
        values = [s.test_accuracy for s in self.epochs
                  if s.test_accuracy is not None]
        return max(values) if values else None


def evaluate_model(model: Module, dataset: Dataset,
                   batch_size: int = 256) -> tuple[float, float]:
    """Return ``(mean CE loss, top-1 accuracy)`` on a dataset (eval mode).

    Runs the define-by-run forward under
    :func:`~repro.tensor.inference_mode` (no backward closures are built).
    """
    if len(dataset) == 0:
        raise EmptyDatasetError(
            "evaluate_model received an empty dataset — accuracy over zero "
            "samples is undefined")
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    was_training = model.training
    model.eval()
    total_loss = 0.0
    total_correct = 0.0
    total = 0
    try:
        with inference_mode():
            for images, labels in loader:
                logits = model(Tensor(images))
                loss = cross_entropy(logits, labels, reduction="sum")
                total_loss += float(loss.data)
                total_correct += accuracy(logits, labels) * len(labels)
                total += len(labels)
    finally:
        model.train(was_training)
    if total == 0:
        raise EmptyDatasetError("empty evaluation dataset")
    return total_loss / total, total_correct / total


class Trainer:
    """SGD training loop over the modified objective.

    Parameters
    ----------
    model:
        Network to optimise (mutated in place).
    train_dataset / test_dataset:
        Data; the test set is evaluated once per epoch when provided.
    config:
        Hyperparameters; ``config.loss()`` supplies the objective so the
        regularisation ablations of Table III are a config change.
    sentinel:
        Optional :class:`~repro.resilience.SentinelConfig` enabling the
        numerical-health watchdog: NaN/Inf losses, NaN gradients and loss
        explosions are caught *before* the optimiser step, the last
        healthy weights are restored, the learning rate backs off, and the
        epoch is retried. When the retry budget is exhausted the trainer
        restores the last healthy weights and raises
        :class:`~repro.resilience.NumericalHealthError` — so the caller
        always gets back the best recoverable model.
    """

    def __init__(self, model: Module, train_dataset: Dataset,
                 test_dataset: Dataset | None = None,
                 config: TrainingConfig | None = None,
                 loss_fn: ModifiedLoss | None = None,
                 post_step: Callable[[], None] | None = None,
                 sentinel: SentinelConfig | None = None):
        self.model = model
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.config = config or TrainingConfig()
        self.sentinel = sentinel
        # Baselines (SSS, TPP, OrthConv) and distillation substitute their
        # own regularised objectives here; anything with the ModifiedLoss
        # call signature works, and runs through autograd. So do the
        # conv/toeplitz orthogonality forms, which have no closed form.
        self.loss_fn = loss_fn if loss_fn is not None else self.config.loss()
        cfg = self.config
        if loss_fn is None and (cfg.orth_mode == "kernel" or cfg.lambda2 == 0):
            self._fused = FusedRegularizer(cfg.lambda1, cfg.lambda2,
                                           cfg.orth_mode)
        else:
            self._fused = None
        # Called after every optimizer step; unstructured pruning uses it
        # to re-apply weight masks so masked entries stay zero.
        self.post_step = post_step
        self.optimizer = SGD(model.parameters(), lr=self.config.lr,
                             momentum=self.config.momentum,
                             weight_decay=self.config.weight_decay)
        self.scheduler = (MultiStepLR(self.optimizer,
                                      list(self.config.lr_milestones),
                                      self.config.lr_gamma)
                          if self.config.lr_milestones else None)

    def rebind(self) -> None:
        """Re-attach the optimizer to the model's current parameters.

        Must be called after surgery replaced parameter arrays; fresh
        momentum buffers are allocated for resized tensors.
        """
        self.optimizer.rebind(self.model.parameters())

    def _backward(self, logits: Tensor, labels) -> tuple[float, float,
                                                         float, float]:
        """Backpropagate one batch's objective into the parameters' grads.

        Returns the ``(total, cross entropy, l1, orth)`` values. The
        default Eq. 1 objective backpropagates cross entropy through the
        tape, then :class:`~repro.core.regularizers.FusedRegularizer`
        adds the closed-form Eq. 2 penalty gradients, skipping a per-batch
        penalty graph over every weight; its penalty values fall out of
        the gradient computation. Any other objective runs through
        autograd.
        """
        if self._fused is None:
            terms = self.loss_fn(self.model, logits, labels)
            terms.total.backward()
            return (float(terms.total.data), terms.cross_entropy, terms.l1,
                    terms.orth)
        ce = cross_entropy(logits, labels)
        ce.backward()
        l1, orth = self._fused.accumulate(self.model)
        ce_value = float(ce.data)
        cfg = self.config
        return (ce_value + cfg.lambda1 * l1 + cfg.lambda2 * orth, ce_value,
                l1, orth)

    def _run_epoch(self, loader: DataLoader, epoch: int,
                   monitor: HealthMonitor | None):
        """One optimisation epoch.

        Returns ``(sums, batches)`` on success, or the
        :class:`SentinelEvent` that aborted the epoch. Sentinel checks run
        between ``backward`` and the optimiser step, so a poisoned update
        is never applied to the weights.
        """
        sums = {"loss": 0.0, "ce": 0.0, "l1": 0.0, "orth": 0.0, "acc": 0.0}
        batches = 0
        for step, (images, labels) in enumerate(loader):
            self.optimizer.zero_grad()
            logits = self.model(Tensor(images))
            total, ce, l1, orth = self._backward(logits, labels)
            if monitor is not None:
                event = (monitor.observe_loss(total, epoch, step)
                         or monitor.observe_gradients(
                             self.model.named_parameters(), epoch, step))
                if event is not None:
                    return event
            self.optimizer.step()
            if self.post_step is not None:
                self.post_step()
            sums["loss"] += total
            sums["ce"] += ce
            sums["l1"] += l1
            sums["orth"] += orth
            sums["acc"] += accuracy(logits, labels)
            batches += 1
        return sums, batches

    def _rewind(self, healthy_state, monitor: HealthMonitor) -> None:
        """Restore the last healthy weights and back off the learning rate."""
        self.model.load_state_dict(healthy_state)
        self.optimizer.lr *= self.sentinel.lr_backoff
        if self.scheduler is not None:
            # Schedulers recompute from base_lr; shrink it too or the next
            # scheduler step would undo the backoff.
            self.scheduler.base_lr *= self.sentinel.lr_backoff
        self.optimizer.reset_state()
        monitor.reset()

    def train(self, epochs: int | None = None,
              log: bool = False) -> TrainingHistory:
        """Run the loop for ``epochs`` (default: config.epochs)."""
        epochs = epochs if epochs is not None else self.config.epochs
        history = TrainingHistory()
        if epochs > 0 and len(self.train_dataset) == 0:
            raise EmptyDatasetError(
                "Trainer received an empty training dataset")
        loader = DataLoader(self.train_dataset, batch_size=self.config.batch_size,
                            shuffle=True, seed=self.config.seed)
        monitor = (HealthMonitor(self.sentinel)
                   if self.sentinel is not None else None)
        healthy = self.model.state_dict() if monitor is not None else None
        retries = 0
        epoch = 0
        while epoch < epochs:
            self.model.train()
            outcome = self._run_epoch(loader, epoch, monitor)
            if isinstance(outcome, SentinelEvent):
                retries += 1
                if retries > self.sentinel.max_retries:
                    outcome.action = "abort"
                    history.sentinel_events.append(outcome)
                    self.model.load_state_dict(healthy)
                    raise NumericalHealthError(
                        f"retry budget ({self.sentinel.max_retries}) "
                        f"exhausted; last fault: {outcome.describe()} — "
                        "weights restored to the last healthy epoch",
                        events=history.sentinel_events)
                outcome.action = "rewind"
                history.sentinel_events.append(outcome)
                self._rewind(healthy, monitor)
                if log:
                    print(f"sentinel: {outcome.describe()} "
                          f"(retry {retries}/{self.sentinel.max_retries}, "
                          f"lr -> {self.optimizer.lr:.2e})")
                continue  # retry the same epoch index
            sums, batches = outcome
            test_acc = None
            if self.test_dataset is not None:
                _, test_acc = evaluate_model(self.model, self.test_dataset,
                                             self.config.batch_size)
            stats = EpochStats(
                epoch=epoch,
                train_loss=sums["loss"] / batches,
                cross_entropy=sums["ce"] / batches,
                l1=sums["l1"] / batches,
                orth=sums["orth"] / batches,
                train_accuracy=sums["acc"] / batches,
                test_accuracy=test_acc,
                lr=self.optimizer.lr,
            )
            history.epochs.append(stats)
            if self.scheduler is not None:
                self.scheduler.step()
            if log:
                acc_str = f" test_acc={test_acc:.3f}" if test_acc is not None else ""
                print(f"epoch {epoch:3d} loss={stats.train_loss:.4f} "
                      f"ce={stats.cross_entropy:.4f} acc={stats.train_accuracy:.3f}"
                      f"{acc_str}")
            if monitor is not None:
                healthy = self.model.state_dict()
            epoch += 1
        return history
