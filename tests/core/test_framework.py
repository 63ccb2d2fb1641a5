"""The iterative class-aware pruning framework (Fig. 5)."""

import numpy as np
import pytest

from repro.core import (ClassAwarePruningFramework, FrameworkConfig,
                        ImportanceConfig, TrainingConfig)
from repro.flops import profile_model
from repro.models import MLP, vgg11


def make_framework(model, train, test, **overrides):
    fw_kwargs = dict(
        score_threshold=overrides.pop("score_threshold", 1.0),
        max_fraction_per_iteration=overrides.pop("max_fraction", 0.2),
        finetune_epochs=overrides.pop("finetune_epochs", 1),
        accuracy_drop_tolerance=overrides.pop("tolerance", 0.5),
        max_iterations=overrides.pop("max_iterations", 2),
        importance=ImportanceConfig(images_per_class=3),
    )
    training = TrainingConfig(epochs=overrides.pop("epochs", 2),
                              batch_size=32, lr=0.05, lambda1=1e-4,
                              lambda2=1e-2, weight_decay=0.0)
    return ClassAwarePruningFramework(model, train, test, num_classes=3,
                                      input_shape=(3, 8, 8),
                                      config=FrameworkConfig(**fw_kwargs),
                                      training=training)


class TestFrameworkRun:
    def test_end_to_end_reduces_parameters(self, tiny_vgg, tiny_dataset,
                                           tiny_test_dataset):
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset)
        fw.pretrain(epochs=2)
        result = fw.run()
        assert result.final_profile.total_params < \
            result.original_profile.total_params
        assert 0 < result.pruning_ratio < 1
        assert 0 < result.flops_reduction < 1

    def test_result_metrics_consistent(self, tiny_vgg, tiny_dataset,
                                       tiny_test_dataset):
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset)
        fw.pretrain(epochs=2)
        result = fw.run()
        expected_ratio = 1 - (result.final_profile.total_params
                              / result.original_profile.total_params)
        assert result.pruning_ratio == pytest.approx(expected_ratio)
        assert result.accuracy_drop == pytest.approx(
            result.baseline_accuracy - result.final_accuracy)

    def test_reports_before_and_after(self, tiny_vgg, tiny_dataset,
                                      tiny_test_dataset):
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset)
        fw.pretrain(epochs=1)
        result = fw.run()
        assert result.report_before is not None
        assert result.report_after is not None
        # After surgery the per-group score arrays match the new sizes.
        for g in result.model.prunable_groups():
            n = result.model.get_module(g.conv).out_channels
            assert len(result.report_after.total[g.conv]) == n

    def test_iteration_records(self, tiny_vgg, tiny_dataset,
                               tiny_test_dataset):
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset)
        fw.pretrain(epochs=1)
        result = fw.run()
        assert len(result.iterations) >= 1
        first = result.iterations[0]
        assert first.num_removed == sum(first.removed_per_group.values())
        assert first.params > 0

    def test_converged_stop_when_no_filter_below_threshold(
            self, tiny_vgg, tiny_dataset, tiny_test_dataset):
        # With a threshold below any attainable positive score, only
        # exactly-dead filters (score 0) are candidates; with frozen
        # weights (no fine-tuning) that set drains in a few iterations and
        # the loop must report convergence.
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset,
                            score_threshold=1e-9, finetune_epochs=0,
                            max_iterations=30)
        fw.pretrain(epochs=1)
        result = fw.run()
        assert result.stop_reason == "converged"

    def test_accuracy_guard_restores_model(self, tiny_dataset,
                                           tiny_test_dataset):
        # Zero tolerance and aggressive pruning with no fine-tuning budget:
        # the framework must stop on the accuracy rule and hand back a
        # model no worse than the tolerance (the restored snapshot).
        model = vgg11(num_classes=3, image_size=8, width=0.25, seed=3)
        fw = make_framework(model, tiny_dataset, tiny_test_dataset,
                            score_threshold=3.1, max_fraction=0.5,
                            tolerance=-1.0,  # any drop is fatal
                            finetune_epochs=1, max_iterations=3)
        fw.pretrain(epochs=3)
        result = fw.run()
        assert result.stop_reason == "accuracy"
        # The returned model is the snapshot from before the bad iteration.
        profile = profile_model(result.model, (3, 8, 8))
        assert profile.total_params == result.final_profile.total_params

    def test_max_iterations_stop(self, tiny_vgg, tiny_dataset,
                                 tiny_test_dataset):
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset,
                            score_threshold=3.1, max_iterations=1)
        fw.pretrain(epochs=1)
        result = fw.run()
        assert result.stop_reason in ("max_iterations", "accuracy",
                                      "converged")
        assert len(result.iterations) <= 1

    def test_works_on_mlp(self, tiny_mlp, tiny_dataset, tiny_test_dataset):
        fw = make_framework(tiny_mlp, tiny_dataset, tiny_test_dataset)
        fw.pretrain(epochs=2)
        result = fw.run()
        assert result.final_profile.total_params <= \
            result.original_profile.total_params

    def test_summary_row_format(self, tiny_mlp, tiny_dataset,
                                tiny_test_dataset):
        fw = make_framework(tiny_mlp, tiny_dataset, tiny_test_dataset)
        fw.pretrain(epochs=1)
        result = fw.run()
        row = result.summary_row("mlp-test")
        assert "mlp-test" in row
        assert "ratio=" in row

    def test_rejects_non_prunable_model(self, tiny_dataset,
                                        tiny_test_dataset):
        from repro.nn import Linear, Sequential
        model = Sequential(Linear(192, 3))
        with pytest.raises(TypeError):
            ClassAwarePruningFramework(model, tiny_dataset, tiny_test_dataset,
                                       num_classes=3, input_shape=(3, 8, 8))


class TestRollbackRestoresState:
    """Both rollbacks restore the pre-iteration model in place: weights,
    BN running statistics and channel counts, on the same module objects
    the caller passed in (``result.model is framework.model``)."""

    @staticmethod
    def capture(model):
        widths = {name: (getattr(m, "in_channels", None),
                         getattr(m, "out_channels", None),
                         getattr(m, "num_features", None),
                         getattr(m, "in_features", None))
                  for name, m in model.named_modules()}
        return model.state_dict(), widths, model.training

    def assert_restored(self, model, before):
        state, widths, training = self.capture(model)
        assert state.keys() == before[0].keys()
        for key, value in before[0].items():
            assert state[key].tobytes() == value.tobytes(), key
        assert widths == before[1]
        assert training == before[2]

    def test_accuracy_rollback(self, tiny_vgg, tiny_dataset,
                               tiny_test_dataset):
        # Iteration 0 is rolled back, so the restored state is the model
        # as the run received it.
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset,
                            score_threshold=3.1, max_fraction=0.5,
                            tolerance=-1.0, max_iterations=3)
        before = self.capture(tiny_vgg)
        result = fw.run()
        assert result.stop_reason == "accuracy"
        assert result.iterations[0].num_removed > 0
        assert result.model is fw.model is tiny_vgg
        self.assert_restored(tiny_vgg, before)

    def test_sentinel_abort(self, monkeypatch, tiny_vgg, tiny_dataset,
                            tiny_test_dataset):
        # Fine-tuning scribbles over the pruned weights and BN statistics
        # before the sentinel gives up; zero tolerance forces the restore.
        from repro.core import framework as framework_module
        from repro.resilience import NumericalHealthError
        before = self.capture(tiny_vgg)
        pruned = []

        def abort(self, epochs=None, log=False):
            pruned.append(self.model.state_dict())
            for p in self.model.parameters():
                p.data = p.data + 1.0
            for m in self.model.modules():
                if hasattr(m, "running_mean"):
                    m.running_mean = m.running_mean + 1.0
            raise NumericalHealthError("injected abort", events=[])

        monkeypatch.setattr(framework_module.Trainer, "train", abort)
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset,
                            score_threshold=3.1, tolerance=-1.0)
        result = fw.run()
        assert result.stop_reason == "sentinel-abort"
        assert any(pruned[0][k].shape != v.shape for k, v in before[0].items())
        assert result.model is fw.model is tiny_vgg
        self.assert_restored(tiny_vgg, before)


class TestClassBankOncePerRun:
    def test_one_draw_and_unchanged_reports(self, monkeypatch, tiny_vgg,
                                            tiny_dataset, tiny_test_dataset):
        # Two evaluations per run (before and after), one draw; each
        # report equals one from an evaluator that draws its own bank.
        from repro.core import ImportanceEvaluator
        from repro.core import framework as framework_module
        draws = []
        real = framework_module.sample_class_images

        def counted(*args, **kwargs):
            draws.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(framework_module, "sample_class_images", counted)
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset,
                            score_threshold=3.1, tolerance=1.0,
                            max_iterations=1)
        before = ImportanceEvaluator(
            tiny_vgg, tiny_dataset, 3, fw.config.importance).evaluate(
            [g.conv for g in tiny_vgg.prunable_groups()])
        result = fw.run()
        assert len(draws) == 1
        after = ImportanceEvaluator(
            result.model, tiny_dataset, 3, fw.config.importance).evaluate(
            [g.conv for g in result.model.prunable_groups()])
        for got, want in ((result.report_before, before),
                          (result.report_after, after)):
            assert got.per_class.keys() == want.per_class.keys()
            for path, scores in want.per_class.items():
                assert got.per_class[path].tobytes() == scores.tobytes()
        fw.run()
        assert len(draws) == 2


class TestStrategySelection:
    @pytest.mark.parametrize("name", ["percentage", "threshold",
                                      "percentage+threshold"])
    def test_table2_strategies_all_runnable(self, name, tiny_vgg,
                                            tiny_dataset, tiny_test_dataset):
        fw = ClassAwarePruningFramework(
            tiny_vgg, tiny_dataset, tiny_test_dataset, num_classes=3,
            input_shape=(3, 8, 8),
            config=FrameworkConfig(score_threshold=1.0,
                                   max_fraction_per_iteration=0.2,
                                   strategy=name, finetune_epochs=1,
                                   accuracy_drop_tolerance=0.5,
                                   max_iterations=1,
                                   importance=ImportanceConfig(images_per_class=2)),
            training=TrainingConfig(epochs=1, batch_size=32, lr=0.05))
        fw.pretrain(epochs=1)
        result = fw.run()
        assert result.stop_reason in ("max_iterations", "converged",
                                      "accuracy")


class TestFinetuneLR:
    def test_finetune_lr_overrides_training_lr(self, tiny_vgg, tiny_dataset,
                                               tiny_test_dataset):
        fw = ClassAwarePruningFramework(
            tiny_vgg, tiny_dataset, tiny_test_dataset, num_classes=3,
            input_shape=(3, 8, 8),
            config=FrameworkConfig(finetune_lr=0.001,
                                   importance=ImportanceConfig(
                                       images_per_class=2)),
            training=TrainingConfig(epochs=1, lr=0.5))
        assert fw.finetune_training.lr == pytest.approx(0.001)
        # The pretraining configuration keeps the full rate.
        assert fw.training.lr == pytest.approx(0.5)

    def test_default_keeps_training_lr(self, tiny_vgg, tiny_dataset,
                                       tiny_test_dataset):
        fw = ClassAwarePruningFramework(
            tiny_vgg, tiny_dataset, tiny_test_dataset, num_classes=3,
            input_shape=(3, 8, 8),
            training=TrainingConfig(epochs=1, lr=0.5))
        assert fw.finetune_training is fw.training


class TestEvaluatesEachStateOnce:
    """The loop measures every model state it can end on exactly once, and
    the result's ``final_accuracy`` is that measurement — equal to a fresh
    evaluation of ``result.model`` for every stop reason."""

    @pytest.fixture
    def eval_calls(self, monkeypatch):
        from repro.core import framework as framework_module
        from repro.core import trainer as trainer_module
        calls = []
        real = trainer_module.evaluate_model

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(framework_module, "evaluate_model", counted)
        monkeypatch.setattr(trainer_module, "evaluate_model", counted)
        return calls

    @staticmethod
    def fresh_accuracy(fw, result):
        from repro.core.trainer import evaluate_model
        return evaluate_model(result.model, fw.test_dataset,
                              fw.training.batch_size)[1]

    def test_accepted_iteration_evaluates_three_times(
            self, eval_calls, tiny_vgg, tiny_dataset, tiny_test_dataset):
        # Baseline, after pruning, after fine-tuning; the trainer gets no
        # test set and the epilogue reuses the fine-tuned reading.
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset,
                            score_threshold=3.1, tolerance=1.0,
                            max_iterations=1)
        result = fw.run()
        assert result.stop_reason == "max_iterations"
        assert len(result.iterations) == 1
        assert len(eval_calls) == 3
        assert result.final_accuracy == \
            result.iterations[0].accuracy_after_finetune
        assert result.final_accuracy == self.fresh_accuracy(fw, result)

    def test_converged_reuses_last_reading(self, eval_calls, tiny_vgg,
                                           tiny_dataset, tiny_test_dataset):
        # Only exactly-dead filters fall under the threshold, so the loop
        # converges once they are gone.
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset,
                            score_threshold=1e-9, finetune_epochs=0,
                            max_iterations=30)
        result = fw.run()
        assert result.stop_reason == "converged"
        assert len(eval_calls) == 1 + 2 * len(result.iterations)
        last = (result.iterations[-1].accuracy_after_finetune
                if result.iterations else result.baseline_accuracy)
        assert result.final_accuracy == last
        assert result.final_accuracy == self.fresh_accuracy(fw, result)

    def test_accuracy_rollback_reuses_restored_reading(
            self, eval_calls, tiny_vgg, tiny_dataset, tiny_test_dataset):
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset,
                            score_threshold=3.1, max_fraction=0.5,
                            tolerance=-1.0, max_iterations=3)
        result = fw.run()
        assert result.stop_reason == "accuracy"
        assert len(eval_calls) == 3
        assert result.final_accuracy == result.baseline_accuracy
        assert result.final_accuracy == self.fresh_accuracy(fw, result)

    @pytest.mark.parametrize("tolerance", [1.0, -1.0])
    def test_sentinel_abort_reuses_kept_or_restored_reading(
            self, eval_calls, monkeypatch, tolerance, tiny_vgg, tiny_dataset,
            tiny_test_dataset):
        # tolerance 1.0 keeps the aborted iteration's weights (acc_now);
        # -1.0 falls back to the pre-iteration snapshot.
        from repro.core import framework as framework_module
        from repro.resilience import NumericalHealthError

        def abort(self, epochs=None, log=False):
            raise NumericalHealthError("injected abort", events=[])

        monkeypatch.setattr(framework_module.Trainer, "train", abort)
        fw = make_framework(tiny_vgg, tiny_dataset, tiny_test_dataset,
                            score_threshold=3.1, tolerance=tolerance)
        result = fw.run()
        assert result.stop_reason == "sentinel-abort"
        assert len(eval_calls) == 3
        assert result.final_accuracy == self.fresh_accuracy(fw, result)
        if tolerance < 0:
            assert result.final_accuracy == result.baseline_accuracy

    def test_resumed_journaled_run(self, tmp_path, eval_calls):
        from repro.data import make_cifar_like
        from repro.models import build_model
        from repro.resilience import SimulatedCrash

        def journaled():
            model = build_model("vgg11", num_classes=3, image_size=8,
                                width=0.25, seed=0)
            train, test = make_cifar_like(num_classes=3, image_size=8,
                                          samples_per_class=12, seed=0)
            return make_framework(model, train, test, score_threshold=3.1,
                                  tolerance=1.0, max_iterations=2)

        def crash(iteration):
            raise SimulatedCrash(f"killed after iteration {iteration}")

        run_dir = tmp_path / "run"
        with pytest.raises(SimulatedCrash):
            journaled().run(run_dir=run_dir, post_iteration=crash)
        del eval_calls[:]
        fw = journaled()
        result = fw.run(resume_from=run_dir)
        assert result.stop_reason == "max_iterations"
        assert len(result.iterations) == 2
        # Only the resumed iteration's two readings: after pruning and
        # after fine-tuning.
        assert len(eval_calls) == 2
        assert result.final_accuracy == \
            result.iterations[-1].accuracy_after_finetune
        assert result.final_accuracy == self.fresh_accuracy(fw, result)
