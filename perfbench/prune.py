"""prune: the paper's algorithm, one ``ClassAwarePruningFramework.run``
per op, on a seeded 100-class synthetic task.

Set-up generates the task from the seed and pretrains a seeded vgg11
with the modified cost function; every op prunes a fresh copy of that
pretrained network (score -> prune -> fine-tune -> re-score). With 100
classes the per-class Taylor scoring of ``core.importance`` carries most
of each op and the fine-tuning of ``core.trainer`` most of the rest;
``infer`` and ``serve`` are not used.

Correctness: every op must reproduce the reference run made at set-up
from the same pretrained network and seed -- the same removals, the same
accuracies and bitwise the same pruned weights -- its final accuracy must
stay within the configured drop tolerance of the baseline (a restatement
of the framework's own rollback guarantee, kept as the paper's stopping
rule), and its compiled engine must match its eager forward within
``models.ATOL``. Set-up is repeated, and each repeat must reproduce the
previous one's pretrained weights and reference run.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro.core import (ClassAwarePruningFramework, FrameworkConfig,
                        ImportanceConfig, ImportanceEvaluator, Trainer,
                        TrainingConfig)
from repro.core import framework as framework_module
from repro.data import SyntheticConfig, SyntheticImageClassification
from repro.flops import profile_model
from repro.infer import compile_model
from repro.models import build_model
from repro.tensor import Tensor, no_grad

import harness
import models

TASK = dict(num_classes=100, image_size=8, samples_per_class=4,
            test_per_class=2, width=0.125, pretrain_epochs=4)
TINY_TASK = dict(num_classes=10, image_size=8, samples_per_class=3,
                 test_per_class=2, width=0.125, pretrain_epochs=1)
TOLERANCE = 0.1
CHECK_BATCH = 32


def _configs(task: dict, seed: int):
    framework = FrameworkConfig(
        score_threshold=0.3 * task["num_classes"],
        max_fraction_per_iteration=0.1,
        finetune_epochs=1,
        accuracy_drop_tolerance=TOLERANCE,
        max_iterations=1,
        finetune_lr=0.01,
        importance=ImportanceConfig(images_per_class=2, seed=seed))
    training = TrainingConfig(epochs=task["pretrain_epochs"], batch_size=64,
                              lr=0.05, weight_decay=0.0, seed=seed)
    return framework, training


class Setup:
    """Seeded task and pretrained network."""

    def __init__(self, ctx: harness.Context, previous: "Setup | None"):
        task = TINY_TASK if ctx.tiny else TASK
        size, classes = task["image_size"], task["num_classes"]
        self.task = task
        self.shape = (3, size, size)
        self.train = SyntheticImageClassification(SyntheticConfig(
            num_classes=classes, image_size=size,
            samples_per_class=task["samples_per_class"], seed=ctx.seed))
        self.test = SyntheticImageClassification(SyntheticConfig(
            num_classes=classes, image_size=size,
            samples_per_class=task["test_per_class"], seed=ctx.seed),
            train=False)
        self.config, self.training = _configs(task, ctx.seed)
        model = build_model("vgg11", num_classes=classes, image_size=size,
                            width=task["width"], seed=ctx.seed)
        ClassAwarePruningFramework(
            model, self.train, self.test, classes, self.shape,
            config=self.config, training=self.training).pretrain()
        self.pretrained = model
        self.dense_macs = profile_model(model, self.shape).total_macs
        self.check_input = self.test.images[:CHECK_BATCH]
        self.reference = self.framework().run()
        self.failures = []
        if previous is not None:
            if not _same_weights(model, previous.pretrained):
                self.failures.append("seeded pretraining is not repeatable")
            elif _differs(self.reference, previous.reference):
                self.failures.append("reference prune run is not "
                                     "repeatable")

    def framework(self) -> ClassAwarePruningFramework:
        """A framework over a fresh copy of the pretrained network."""
        return ClassAwarePruningFramework(
            copy.deepcopy(self.pretrained), self.train, self.test,
            self.task["num_classes"], self.shape, config=self.config,
            training=self.training)


def _same_weights(a, b) -> bool:
    sa, sb = a.state_dict(), b.state_dict()
    return sa.keys() == sb.keys() and all(np.array_equal(sa[k], sb[k])
                                          for k in sa)


def _trajectory(result) -> list:
    return [(it.removed_per_group, it.accuracy_after_prune,
             it.accuracy_after_finetune) for it in result.iterations]


def _differs(result, reference) -> str | None:
    """How ``result`` differs from ``reference``, or None."""
    if (_trajectory(result) != _trajectory(reference)
            or result.final_accuracy != reference.final_accuracy):
        return "removals or accuracies differ from the reference run"
    if not _same_weights(result.model, reference.model):
        return "pruned weights differ from the reference run"
    return None


def _check(setup: Setup, result, plant: bool) -> str | None:
    """Reason the op's output is wrong, or None."""
    differs = _differs(result, setup.reference)
    if differs:
        return differs
    if result.accuracy_drop > setup.config.accuracy_drop_tolerance:
        return "accuracy drop beyond tolerance"
    model = result.model.eval()
    engine = compile_model(model, setup.check_input, validate=False)
    with no_grad():
        eager = model(Tensor(setup.check_input)).data
    compiled = engine.run(setup.check_input)
    if plant:
        compiled = compiled + 1.0
    if not np.max(np.abs(compiled - eager)) <= models.ATOL:
        return "compiled engine differs from eager"
    return None


def run(ctx: harness.Context) -> harness.Outcome:
    setup, setup_times = harness.timed_setups(lambda prev: Setup(ctx, prev))
    classes = setup.task["num_classes"]
    tracer = harness.Tracer()
    tracer.wrap(ImportanceEvaluator, "evaluate", "core.importance")
    tracer.wrap(Trainer, "train", "core.trainer",
                annotate=lambda args, kw, out: {
                    "epochs": kw.get("epochs", args[1] if len(args) > 1
                                     else args[0].config.epochs),
                    "samples": len(args[0].train_dataset)})
    tracer.wrap(framework_module, "apply_pruning", "core.pruner")
    tracer.wrap(framework_module, "evaluate_model", "core.eval")

    log = harness.OpLog()
    untraced, traced = [], []
    reductions, iterations, removed = [], [], []
    log.start()
    deadline = log.window_start + ctx.seconds
    i = 0
    try:
        while time.perf_counter() < deadline:
            # Traced and untraced ops alternate: each takes about a second.
            in_trace = ctx.trace and i % 2 == 1
            if in_trace != tracer.installed:
                (tracer.install if in_trace else tracer.remove)()
            framework = setup.framework()
            start = time.perf_counter()
            try:
                result = framework.run()
            except Exception as exc:  # noqa: BLE001 - counted as failed op
                log.fail(f"run raised {type(exc).__name__}")
                i += 1
                continue
            end = time.perf_counter()
            try:
                reason = _check(setup, result, harness.planted(ctx, i))
            except Exception as exc:  # noqa: BLE001 - a failed check
                reason = f"check raised {type(exc).__name__}"
            latency = (end - start) * 1e3
            log.record(end, latency, reason is None, reason)
            (traced if in_trace else untraced).append(latency)
            reductions.append(1.0 - profile_model(
                result.model, setup.shape).total_macs / setup.dense_macs)
            iterations.append(len(result.iterations))
            removed.append(sum(it.num_removed for it in result.iterations))
            i += 1
    finally:
        if tracer.installed:
            tracer.remove()

    outcome = harness.Outcome(
        oplog=log, throughput_label="prune runs/s", setup_times=setup_times,
        flops_reduction=float(np.median(reductions)) if reductions else 0.0,
        peak_rss_mb=harness.peak_rss_mb(), setup_failures=setup.failures,
        untraced_ms=untraced, traced_ms=traced)
    if ctx.trace:
        importance = tracer.durations_ms("core.importance")
        epoch_ms, samples_per_s = [], []
        for ms, attrs in zip(tracer.durations_ms("core.trainer"),
                             tracer.attrs("core.trainer")):
            epoch_ms.append(ms / attrs["epochs"])
            samples_per_s.append(attrs["samples"] * attrs["epochs"]
                                 / (ms / 1e3))
        outcome.per_layer = {
            "core.importance.ms_per_call": harness.median_or_zero(importance),
            "core.importance.ms_per_class":
                harness.median_or_zero(importance) / classes,
            "core.trainer.ms_per_epoch": harness.median_or_zero(epoch_ms),
            "core.trainer.samples_per_s":
                harness.median_or_zero(samples_per_s),
            "core.pruner.ms_per_call": harness.median_or_zero(
                tracer.durations_ms("core.pruner")),
            "core.eval.ms_per_call": harness.median_or_zero(
                tracer.durations_ms("core.eval")),
            "prune.iterations": harness.median_or_zero(iterations),
            "prune.channels_removed": harness.median_or_zero(removed),
        }
    return outcome
