"""The overall class-aware pruning framework (Sec. III-D, Fig. 5).

Orchestrates the full loop:

1. (optionally) train the network with the modified cost function;
2. evaluate per-class importance scores of all prunable filters;
3. prune with the threshold + percentage strategy;
4. fine-tune to recover accuracy;
5. repeat until either no filter falls below the threshold or the accuracy
   drop cannot be recovered (in which case the last recoverable model is
   restored).

The loop is **journaled and crash-resumable** when given a run directory:
every completed iteration commits a checksummed checkpoint plus a journal
record (see :mod:`repro.resilience.journal`), and
``run(resume_from=<run_dir>)`` reconstructs the exact mid-loop state —
seeded, an interrupted-and-resumed run produces a *bit-identical*
:class:`PruningResult` to the same run executed uninterrupted. Corrupt or
truncated checkpoints are detected and resume falls back to the previous
recovery point instead of dying.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..data import Dataset
from ..flops import ModelProfile, flops_reduction, profile_model, pruning_ratio
from ..io import CheckpointCorruptError, load_model, save_model
from ..models.pruning_spec import FilterGroup, PrunableModel
from ..nn import Module
from ..resilience.journal import RunDirectory, decode_payload
from ..resilience.retry import RetryingDataset
from ..resilience.sentinels import NumericalHealthError, SentinelConfig
from ..resilience.transaction import ModelSnapshot
from .importance import (ImportanceConfig, ImportanceEvaluator,
                         ImportanceReport, sample_class_images)
from .pruner import (CombinedStrategy, PruningStrategy, apply_pruning,
                     strategy_from_name)
from .trainer import Trainer, TrainingConfig, evaluate_model

__all__ = ["FrameworkConfig", "IterationRecord", "PruningResult",
           "ClassAwarePruningFramework", "ResumeError", "STOP_REASONS"]


#: Every way the Fig. 5 loop can terminate, with its human explanation.
STOP_REASONS = {
    "converged": "no filter scored below the threshold",
    "accuracy": "accuracy drop could not be recovered; last good model "
                "restored",
    "max_iterations": "iteration budget exhausted",
    "sentinel-abort": "numerical-health sentinel exhausted its retry "
                      "budget during fine-tuning",
}


class ResumeError(RuntimeError):
    """A run directory cannot be resumed (no journal, no usable state)."""


def _check_serial_journal(run_dir: Path, journal, start: dict) -> None:
    """Refuse a journal whose trajectory the serial loop cannot replay.

    Older versions could fine-tune and score on worker shards
    (``training.workers > 0`` in ``run_start``) and degrade to serial
    mid-run (a ``parallel_degrade`` record). Their gradients depended on
    the shard count, so a serial resume would silently fork the run.
    """
    workers = int(start["training"].get("workers", 0))
    if workers > 0:
        raise ResumeError(
            f"{run_dir} was recorded with workers={workers}; worker-sharded "
            "runs cannot be resumed serially — restart the run")
    if journal.last_event("parallel_degrade") is not None:
        raise ResumeError(
            f"{run_dir} holds a parallel_degrade record from a worker pool; "
            "it cannot be resumed serially — restart the run")


@dataclass(frozen=True)
class FrameworkConfig:
    """Hyperparameters of the iterative framework.

    Attributes
    ----------
    score_threshold:
        Class-count threshold under which a filter is prunable; the paper
        uses 3 for 10-class tasks and 30 for 100-class tasks (i.e. ~30% of
        the class count).
    max_fraction_per_iteration:
        Percentage cap per pruning iteration (paper: 10%).
    strategy:
        ``"percentage+threshold"`` (paper default), ``"threshold"``, or
        ``"percentage"`` — the Table II ablation axis.
    finetune_epochs:
        Retraining epochs after each pruning iteration (paper: up to 130;
        benchmark configs use far fewer).
    accuracy_drop_tolerance:
        Maximum tolerated drop (absolute, in [0,1]) of test accuracy below
        the pre-pruning baseline; exceeding it after fine-tuning terminates
        the loop and restores the last acceptable model.
    max_iterations:
        Safety bound on pruning iterations.
    finetune_lr:
        Learning rate for the per-iteration fine-tuning; ``None`` keeps
        the training config's rate. A pruned network is already near a
        good optimum, so fine-tuning at the full initial rate can *undo*
        training — a fraction of it (e.g. the paper's 0.01) recovers
        instead of destabilising.
    importance:
        Score-evaluation settings (M images per class, τ, aggregation).
    sentinel:
        Optional numerical-health policy threaded into every fine-tuning
        :class:`Trainer`. When the watchdog's retry budget is exhausted
        the loop terminates with ``stop_reason="sentinel-abort"``, keeping
        the best recoverable model (the paper's termination rule).
    loader_retries:
        When positive, both datasets are wrapped in a
        :class:`~repro.resilience.RetryingDataset` so transient read
        faults are retried this many times before surfacing.
    """

    score_threshold: float = 3.0
    max_fraction_per_iteration: float = 0.1
    strategy: str = "percentage+threshold"
    finetune_epochs: int = 2
    accuracy_drop_tolerance: float = 0.02
    max_iterations: int = 20
    finetune_lr: float | None = None
    importance: ImportanceConfig = field(default_factory=ImportanceConfig)
    sentinel: SentinelConfig | None = None
    loader_retries: int = 0


@dataclass
class IterationRecord:
    """Outcome of one prune + fine-tune iteration."""

    iteration: int
    removed_per_group: dict[str, int]
    num_removed: int
    accuracy_after_prune: float
    accuracy_after_finetune: float
    params: int
    flops: int
    report: ImportanceReport


@dataclass
class PruningResult:
    """Everything the framework produced.

    ``model`` is the final pruned network. ``stop_reason`` is one of the
    :data:`STOP_REASONS` keys: ``"converged"`` (no prunable filter left),
    ``"accuracy"`` (drop could not be recovered; model restored to the
    last good iteration), ``"max_iterations"``, or ``"sentinel-abort"``
    (numerical-health watchdog gave up during fine-tuning).
    ``termination`` is the full sentence explaining *why and where* the
    loop stopped (iteration index, measured drop, sentinel fault, …).
    """

    model: Module
    baseline_accuracy: float
    final_accuracy: float
    original_profile: ModelProfile
    final_profile: ModelProfile
    iterations: list[IterationRecord] = field(default_factory=list)
    report_before: ImportanceReport | None = None
    report_after: ImportanceReport | None = None
    stop_reason: str = ""
    termination: str = ""

    @property
    def pruning_ratio(self) -> float:
        """Fraction of parameters removed (Table I, column 4)."""
        return pruning_ratio(self.original_profile, self.final_profile)

    @property
    def flops_reduction(self) -> float:
        """Fraction of FLOPs removed (Table I, column 5)."""
        return flops_reduction(self.original_profile, self.final_profile)

    @property
    def accuracy_drop(self) -> float:
        """Baseline minus final accuracy (positive = degradation)."""
        return self.baseline_accuracy - self.final_accuracy

    def summary_row(self, label: str = "") -> str:
        """One Table-I style line: accuracies, ratio, FLOPs, stop reason."""
        return (f"{label:<24} orig={self.baseline_accuracy * 100:6.2f}% "
                f"pruned={self.final_accuracy * 100:6.2f}% "
                f"ratio={self.pruning_ratio * 100:5.1f}% "
                f"flops_red={self.flops_reduction * 100:5.1f}% "
                f"stop={self.stop_reason or '?'}")


def _encode_report(report: ImportanceReport) -> dict:
    return {"num_classes": report.num_classes,
            "total": dict(report.total),
            "per_class": dict(report.per_class)}


def _decode_report(payload: dict) -> ImportanceReport:
    return ImportanceReport(total=dict(payload["total"]),
                            per_class=dict(payload["per_class"]),
                            num_classes=int(payload["num_classes"]))


def _decode_iteration(payload: dict) -> IterationRecord:
    return IterationRecord(
        iteration=int(payload["iteration"]),
        removed_per_group={k: int(v)
                           for k, v in payload["removed_per_group"].items()},
        num_removed=int(payload["num_removed"]),
        accuracy_after_prune=float(payload["accuracy_after_prune"]),
        accuracy_after_finetune=float(payload["accuracy_after_finetune"]),
        params=int(payload["params"]),
        flops=int(payload["flops"]),
        report=_decode_report(payload["report"]),
    )


def _accuracy_before(iterations: list[IterationRecord], iteration: int,
                     baseline_acc: float) -> float | None:
    """Measured accuracy of the model a rollback of ``iteration``
    restores, or ``None`` when that iteration's record is gone."""
    if iteration == 0:
        return baseline_acc
    return next((it.accuracy_after_finetune for it in iterations
                 if it.iteration == iteration - 1), None)


class ClassAwarePruningFramework:
    """Iterative class-aware pruning of a prunable model (Fig. 5).

    Parameters
    ----------
    model:
        A model exposing ``prunable_groups()`` (every zoo model does).
    train_dataset / test_dataset:
        Training data feeds both importance evaluation and fine-tuning;
        test data defines the accuracy-recovery criterion.
    num_classes:
        Class count of the task (sets the score range).
    input_shape:
        ``(C, H, W)`` — needed to profile params/FLOPs.
    config / training:
        Framework and fine-tuning hyperparameters.
    """

    def __init__(self, model: Module, train_dataset: Dataset,
                 test_dataset: Dataset, num_classes: int,
                 input_shape: tuple[int, int, int],
                 config: FrameworkConfig | None = None,
                 training: TrainingConfig | None = None):
        if not isinstance(model, PrunableModel):
            raise TypeError(
                f"{type(model).__name__} does not expose prunable_groups()")
        self.model = model
        self.config = config or FrameworkConfig()
        if self.config.loader_retries > 0:
            train_dataset = RetryingDataset(train_dataset,
                                            self.config.loader_retries)
            test_dataset = RetryingDataset(test_dataset,
                                           self.config.loader_retries)
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.num_classes = num_classes
        self.input_shape = tuple(input_shape)
        self.training = training or TrainingConfig()
        self.strategy: PruningStrategy = strategy_from_name(
            self.config.strategy, self.config.score_threshold,
            self.config.max_fraction_per_iteration)
        self.finetune_training = (
            dataclasses.replace(self.training, lr=self.config.finetune_lr)
            if self.config.finetune_lr is not None else self.training)
        self._class_bank = None

    # ------------------------------------------------------------------
    def pretrain(self, epochs: int | None = None, log: bool = False):
        """Phase 1 of Fig. 5: train with the modified cost function."""
        trainer = Trainer(self.model, self.train_dataset, self.test_dataset,
                          self.training, sentinel=self.config.sentinel)
        return trainer.train(epochs=epochs, log=log)

    def evaluate_importance(self) -> ImportanceReport:
        """Score all prunable groups on the current model (one class bank per run)."""
        cfg = self.config.importance
        self._class_bank = self._class_bank or sample_class_images(
            self.train_dataset, self.num_classes, cfg.images_per_class, cfg.seed)
        evaluator = ImportanceEvaluator(self.model, self.train_dataset,
                                        self.num_classes, cfg)
        return evaluator.evaluate(
            [g.conv for g in self.model.prunable_groups()],
            sample=self._class_bank)

    # ------------------------------------------------------------------
    # Journaling helpers
    # ------------------------------------------------------------------
    def _require_arch(self) -> dict:
        arch = getattr(self.model, "arch", None)
        if arch is None or "name" not in arch:
            raise ValueError(
                "journaled runs need an architecture recipe to checkpoint "
                "the model: build it via repro.models.build_model or set "
                "model.arch = {'name': ..., **kwargs}")
        return arch

    def _commit_checkpoint(self, rundir: RunDirectory, tag: str) -> None:
        save_model(self.model, rundir.checkpoint_path(tag),
                   arch=self._require_arch())

    # ------------------------------------------------------------------
    def run(self, log: bool = False, run_dir: str | Path | None = None,
            resume_from: str | Path | None = None,
            post_iteration=None, meta: dict | None = None) -> PruningResult:
        """Execute the iterative prune/fine-tune loop on a trained model.

        The model is expected to be trained already (call :meth:`pretrain`
        first when starting from scratch); the loop then only fine-tunes.

        Parameters
        ----------
        run_dir:
            When given, every completed iteration commits a checksummed
            checkpoint plus a journal record under this directory, making
            the run resumable after a crash.
        resume_from:
            Path to the run directory of an interrupted journaled run.
            The loop reconstructs the last committed state (falling back
            past corrupt checkpoints) and continues; seeded, the final
            result is bit-identical to an uninterrupted run. A directory
            whose journal already holds ``run_end`` is reconstructed
            without re-running anything.
        post_iteration:
            Optional callback ``(iteration:int) -> None`` invoked after an
            iteration is committed and accepted; the fault-injection tests
            use it to simulate crashes at exact loop positions.
        meta:
            Caller-defined JSON-serialisable dict stored verbatim in the
            ``run_start`` journal record (the CLI stores its dataset recipe
            there so ``repro run --resume`` is self-contained).
        """
        self._class_bank = None
        if resume_from is not None:
            return self._resume(Path(resume_from), log=log,
                                post_iteration=post_iteration)

        rundir = RunDirectory(run_dir) if run_dir is not None else None
        cfg = self.config
        original_profile = profile_model(self.model, self.input_shape)
        _, baseline_acc = evaluate_model(self.model, self.test_dataset,
                                         self.training.batch_size)
        report_before = self.evaluate_importance()
        if rundir is not None:
            self._commit_checkpoint(rundir, "baseline")
            rundir.journal.append(
                "run_start",
                baseline_accuracy=baseline_acc,
                arch=self._require_arch(),
                num_classes=self.num_classes,
                input_shape=list(self.input_shape),
                config=dataclasses.asdict(cfg),
                training=dataclasses.asdict(self.training),
                meta=meta or {},
                report_before=_encode_report(report_before))
        return self._loop(0, [], baseline_acc, original_profile,
                          report_before, rundir, log, post_iteration)

    # ------------------------------------------------------------------
    def _loop(self, start_iteration: int, iterations: list[IterationRecord],
              baseline_acc: float, original_profile: ModelProfile,
              report_before: ImportanceReport, rundir: RunDirectory | None,
              log: bool, post_iteration) -> PruningResult:
        cfg = self.config
        # Test accuracy of ``self.model`` as last measured: every state
        # the loop can end on (accepted, restored, kept) was evaluated
        # once already, so the epilogue reuses that reading.
        model_acc = (iterations[-1].accuracy_after_finetune if iterations
                     else baseline_acc)
        stop_reason = "max_iterations"
        termination = (f"stopped after reaching "
                       f"max_iterations={cfg.max_iterations}")

        for iteration in range(start_iteration, cfg.max_iterations):
            groups = self.model.prunable_groups()
            report = (report_before if iteration == 0
                      else self.evaluate_importance())
            snapshot = ModelSnapshot(self.model)
            record = apply_pruning(self.model, groups, report, self.strategy)
            if record.num_removed == 0:
                stop_reason = "converged"
                termination = (f"converged at iteration {iteration}: no "
                               f"filter scored below the threshold")
                if log:
                    print(f"iter {iteration}: nothing below threshold — stop")
                break

            _, acc_pruned = evaluate_model(self.model, self.test_dataset,
                                           self.training.batch_size)
            # No test set: the end-of-epoch accuracy would be discarded.
            trainer = Trainer(self.model, self.train_dataset, None,
                              self.finetune_training,
                              sentinel=cfg.sentinel)
            try:
                trainer.train(epochs=cfg.finetune_epochs)
            except NumericalHealthError as exc:
                # The trainer already restored the last healthy weights;
                # keep them if they are within tolerance, otherwise fall
                # back to the pre-iteration snapshot (last recoverable).
                _, acc_now = evaluate_model(self.model, self.test_dataset,
                                            self.training.batch_size)
                if baseline_acc - acc_now > cfg.accuracy_drop_tolerance:
                    snapshot.restore(self.model)
                else:
                    model_acc = acc_now
                stop_reason = "sentinel-abort"
                termination = (f"numerical-health sentinel aborted "
                               f"fine-tuning at iteration {iteration}: {exc}")
                if rundir is not None:
                    rundir.journal.append("sentinel_abort",
                                          iteration=iteration,
                                          detail=str(exc))
                if log:
                    print(f"iter {iteration}: {termination}")
                break

            _, acc_finetuned = evaluate_model(self.model, self.test_dataset,
                                              self.training.batch_size)
            profile = profile_model(self.model, self.input_shape)
            iter_record = IterationRecord(
                iteration=iteration,
                removed_per_group={k: len(v) for k, v in record.removed.items()},
                num_removed=record.num_removed,
                accuracy_after_prune=acc_pruned,
                accuracy_after_finetune=acc_finetuned,
                params=profile.total_params,
                flops=profile.total_flops,
                report=report,
            )
            iterations.append(iter_record)
            if rundir is not None:
                # The checkpoint goes first, the journal record second: the
                # record is the commit point, so a crash in between leaves
                # an orphan checkpoint that is simply rewritten on resume.
                tag = RunDirectory.iteration_tag(iteration)
                self._commit_checkpoint(rundir, tag)
                rundir.journal.append(
                    "iteration",
                    checkpoint=tag,
                    iteration=iteration,
                    removed_per_group=iter_record.removed_per_group,
                    num_removed=iter_record.num_removed,
                    accuracy_after_prune=acc_pruned,
                    accuracy_after_finetune=acc_finetuned,
                    params=iter_record.params,
                    flops=iter_record.flops,
                    report=_encode_report(report))
            if log:
                print(f"iter {iteration}: removed {record.num_removed:4d} "
                      f"acc {acc_pruned:.3f} -> {acc_finetuned:.3f} "
                      f"params {profile.total_params}")

            if baseline_acc - acc_finetuned > cfg.accuracy_drop_tolerance:
                # Accuracy could not be recovered: restore the snapshot
                # taken before this iteration and terminate (Fig. 5).
                snapshot.restore(self.model)
                stop_reason = "accuracy"
                termination = (
                    f"accuracy drop {baseline_acc - acc_finetuned:.4f} "
                    f"exceeded tolerance {cfg.accuracy_drop_tolerance:.4f} "
                    f"at iteration {iteration}; restored the model from "
                    f"before that iteration")
                if rundir is not None:
                    rundir.journal.append("rollback", iteration=iteration)
                if log:
                    print(f"iter {iteration}: drop "
                          f"{baseline_acc - acc_finetuned:.3f} exceeds "
                          f"tolerance — restored previous model")
                break

            model_acc = acc_finetuned
            if post_iteration is not None:
                post_iteration(iteration)

        return self._finalize(iterations, baseline_acc, original_profile,
                              report_before, stop_reason, termination, rundir,
                              final_acc=model_acc)

    # ------------------------------------------------------------------
    def _finalize(self, iterations, baseline_acc, original_profile,
                  report_before, stop_reason, termination,
                  rundir: RunDirectory | None,
                  final_acc: float | None = None) -> PruningResult:
        """Build (and journal) the result for the current ``self.model``.

        ``final_acc`` is the model's already measured test accuracy; it is
        evaluated here only when unknown (``None``).
        """
        final_profile = profile_model(self.model, self.input_shape)
        if final_acc is None:
            _, final_acc = evaluate_model(self.model, self.test_dataset,
                                          self.training.batch_size)
        report_after = self.evaluate_importance()
        if rundir is not None:
            self._commit_checkpoint(rundir, "final")
            rundir.journal.append(
                "run_end",
                stop_reason=stop_reason,
                termination=termination,
                final_accuracy=final_acc,
                report_after=_encode_report(report_after))
        return PruningResult(
            model=self.model,
            baseline_accuracy=baseline_acc,
            final_accuracy=final_acc,
            original_profile=original_profile,
            final_profile=final_profile,
            iterations=iterations,
            report_before=report_before,
            report_after=report_after,
            stop_reason=stop_reason,
            termination=termination,
        )

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _resume(self, run_dir: Path, log: bool,
                post_iteration) -> PruningResult:
        rundir = RunDirectory(run_dir, create=False)
        journal = rundir.journal
        start_record = journal.last_event("run_start")
        if start_record is None:
            raise ResumeError(
                f"{run_dir} has no usable run_start journal record "
                f"(journal truncated at record {len(journal.records)})")

        payload = decode_payload(start_record)
        baseline_acc = float(payload["baseline_accuracy"])
        report_before = _decode_report(payload["report_before"])
        _check_serial_journal(run_dir, journal, payload)

        # The baseline checkpoint is the root recovery point: without it
        # neither the original profile nor a full rollback is possible.
        try:
            baseline_model = load_model(rundir.checkpoint_path("baseline"),
                                        input_shape=self.input_shape)
        except (CheckpointCorruptError, FileNotFoundError) as exc:
            raise ResumeError(
                f"{run_dir}: baseline checkpoint unusable ({exc}); the run "
                "cannot be resumed — restart from the pretrained model") from exc
        original_profile = profile_model(baseline_model, self.input_shape)

        # Reconstruct committed iterations, dropping any whose checkpoint
        # no longer verifies (crash-corrupted tail): resume falls back to
        # the previous recovery point and recomputes from there.
        iter_payloads = [decode_payload(r) for r in journal.events("iteration")]
        dropped = 0
        model: Module | None = None
        while iter_payloads:
            tag = iter_payloads[-1]["checkpoint"]
            try:
                model = load_model(rundir.checkpoint_path(tag),
                                   input_shape=self.input_shape)
                break
            except (CheckpointCorruptError, FileNotFoundError) as exc:
                if log:
                    print(f"resume: dropping {tag} ({exc})")
                iter_payloads.pop()
                dropped += 1
        iterations = [_decode_iteration(p) for p in iter_payloads]
        if model is None:
            model = baseline_model
        self.model = model
        journal.append("resume",
                       completed_iterations=len(iterations),
                       dropped_checkpoints=dropped)
        if log:
            print(f"resume: {len(iterations)} committed iterations"
                  + (f", {dropped} corrupt checkpoint(s) dropped" if dropped
                     else ""))

        end_record = journal.last_event("run_end")
        if end_record is not None and dropped == 0:
            # The run already finished — reconstruct the result verbatim.
            end = decode_payload(end_record)
            try:
                self.model = load_model(rundir.checkpoint_path("final"),
                                        input_shape=self.input_shape)
            except (CheckpointCorruptError, FileNotFoundError):
                # Final checkpoint damaged: recompute the epilogue from the
                # last good iterate instead of failing the whole resume.
                return self._finalize(iterations, baseline_acc,
                                      original_profile, report_before,
                                      end["stop_reason"], end["termination"],
                                      rundir)
            return PruningResult(
                model=self.model,
                baseline_accuracy=baseline_acc,
                final_accuracy=float(end["final_accuracy"]),
                original_profile=original_profile,
                final_profile=profile_model(self.model, self.input_shape),
                iterations=iterations,
                report_before=report_before,
                report_after=_decode_report(end["report_after"]),
                stop_reason=end["stop_reason"],
                termination=end["termination"],
            )

        cfg = self.config

        def _restore_previous(bad_iteration: int) -> None:
            """Load the recovery point preceding ``bad_iteration``."""
            if bad_iteration > 0:
                tag = RunDirectory.iteration_tag(bad_iteration - 1)
                self.model = load_model(rundir.checkpoint_path(tag),
                                        input_shape=self.input_shape)
            else:
                self.model = load_model(rundir.checkpoint_path("baseline"),
                                        input_shape=self.input_shape)

        # A rollback/abort that was journaled but whose run_end was lost:
        # redo only the epilogue, not the loop.
        rollback = journal.last_event("rollback")
        if rollback is not None and dropped == 0:
            bad = int(rollback["iteration"])
            _restore_previous(bad)
            bad_acc = next(
                (float(r["accuracy_after_finetune"]) for r in iter_payloads
                 if int(r["iteration"]) == bad), baseline_acc)
            last_drop = baseline_acc - bad_acc
            termination = (
                f"accuracy drop {last_drop:.4f} "
                f"exceeded tolerance {cfg.accuracy_drop_tolerance:.4f} "
                f"at iteration {bad}; restored the model from "
                f"before that iteration")
            return self._finalize(iterations, baseline_acc, original_profile,
                                  report_before, "accuracy", termination,
                                  rundir, _accuracy_before(
                                      iterations, bad, baseline_acc))

        # The uninterrupted loop applies the tolerance check *after*
        # committing the iteration record; a crash in that window means the
        # last committed iteration may still need its verdict.
        if iterations:
            last = iterations[-1]
            drop = baseline_acc - last.accuracy_after_finetune
            if drop > cfg.accuracy_drop_tolerance:
                _restore_previous(last.iteration)
                journal.append("rollback", iteration=last.iteration)
                termination = (
                    f"accuracy drop {drop:.4f} exceeded tolerance "
                    f"{cfg.accuracy_drop_tolerance:.4f} at iteration "
                    f"{last.iteration}; restored the model from before "
                    f"that iteration")
                return self._finalize(iterations, baseline_acc,
                                      original_profile, report_before,
                                      "accuracy", termination, rundir,
                                      _accuracy_before(iterations,
                                                       last.iteration,
                                                       baseline_acc))

        start = iterations[-1].iteration + 1 if iterations else 0
        return self._loop(start, iterations, baseline_acc, original_profile,
                          report_before, rundir, log, post_iteration)
