"""Class-aware importance aggregation (Eq. 5–7) and the evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (FusedTaylorScorer, ImportanceConfig,
                        ImportanceEvaluator, ImportanceReport,
                        TaylorScoreEngine, aggregate_scores)
from repro.core import importance as importance_module
from repro.data import Subset, make_cifar_like, per_class_images
from repro.models import MLP, build_model, vgg11
from repro.models.registry import MODEL_REGISTRY
from repro.nn import BatchNorm2d


class TestAggregateScores:
    def test_eq5_binarisation(self):
        # One image, one filter, two activations around the threshold.
        taylor = np.array([[[1e-60, 1e-3]]])  # (M=1, C=1, Z=2)
        out = aggregate_scores(taylor, tau=1e-50)
        np.testing.assert_allclose(out, [1.0])  # max over activations

    def test_eq6_average_over_images(self):
        # Activation important for 1 of 2 images -> s_ave = 0.5.
        taylor = np.array([[[1.0]], [[0.0]]])   # (M=2, C=1, Z=1)
        out = aggregate_scores(taylor, tau=1e-50)
        np.testing.assert_allclose(out, [0.5])

    def test_eq7_max_over_activations(self):
        # Filter with one always-important activation scores 1 even when
        # the others are dead.
        taylor = np.zeros((3, 1, 5))
        taylor[:, 0, 2] = 1.0
        out = aggregate_scores(taylor, tau=1e-50)
        np.testing.assert_allclose(out, [1.0])

    def test_mean_aggregation_option(self):
        taylor = np.zeros((1, 1, 4))
        taylor[0, 0, 0] = 1.0
        out = aggregate_scores(taylor, tau=1e-50, aggregation="mean")
        np.testing.assert_allclose(out, [0.25])

    def test_linear_layer_scores(self):
        # (M, F) scores: each unit has exactly one activation.
        taylor = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = aggregate_scores(taylor, tau=1e-50)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_spatial_scores(self):
        taylor = np.random.default_rng(0).random((2, 3, 4, 4))
        out = aggregate_scores(taylor, tau=0.5)
        assert out.shape == (3,)

    def test_segments_match_single_class_calls(self):
        # One call over back-to-back class segments (of unequal length,
        # with a threshold per segment) is the single-class call per
        # segment, bit for bit.
        rng = np.random.default_rng(1)
        taylor = (rng.random((6, 3, 2, 2)) ** 4).astype(np.float32)
        counts, taus = [3, 1, 2], [0.1, 0.3, 0.05]
        for aggregation in ("max", "mean"):
            rows = aggregate_scores(taylor, taus, aggregation, counts)
            assert rows.shape == (3, 3)
            start = 0
            for k, (m, tau) in enumerate(zip(counts, taus)):
                np.testing.assert_array_equal(
                    rows[k], aggregate_scores(taylor[start:start + m], tau,
                                              aggregation))
                start += m

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("counts", [[2, 2, 2, 2], [3, 1, 2, 4],
                                        None])
    @pytest.mark.parametrize("per_class_tau", [False, True])
    @pytest.mark.parametrize("aggregation", ["max", "mean"])
    def test_matches_reduceat_reference(self, aggregation, per_class_tau,
                                        counts, layout):
        # Equal segments (reshape-sum), ragged ones (reduceat) and the
        # single-class call, a scalar or per-class τ (the quantile mode),
        # against the float64 indicator mean per segment, bitwise.
        rng = np.random.default_rng(len(counts or []) + per_class_tau)
        b = sum(counts) if counts else 5
        taylor = np.where(rng.random((b, 6, 3, 3)) < 0.4, 0.0,
                          rng.random((b, 6, 3, 3)) ** 4).astype(np.float32)
        if layout == "channels_last":
            taylor = np.ascontiguousarray(
                taylor.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        segments = counts or [b]
        taus = ([float(t) for t in rng.random(len(segments)) * 0.1]
                if per_class_tau and counts else [1e-50] * len(segments))
        got = aggregate_scores(taylor, taus if per_class_tau and counts
                               else 1e-50, aggregation, counts)
        bounds = np.cumsum([0] + segments)
        expected = []
        for k, tau in enumerate(taus):
            seg = taylor[bounds[k]:bounds[k + 1]]
            s_ave = (seg > np.float32(tau)).astype(np.float64).mean(axis=0)
            flat = s_ave.reshape(len(s_ave), -1)
            expected.append(flat.max(axis=1) if aggregation == "max"
                            else flat.mean(axis=1))
        expected = np.array(expected)
        assert got.tobytes() == (expected if counts else expected[0]).tobytes()

    def test_rejects_empty_segment(self):
        with pytest.raises(ValueError, match="zero images"):
            aggregate_scores(np.ones((2, 3)), 0.5, counts=[2, 0])

    def test_rejects_scalar_input(self):
        with pytest.raises(ValueError):
            aggregate_scores(np.array([1.0]), tau=0.1)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (4, 3, 5),
                  elements=st.floats(min_value=0, max_value=1)),
           st.floats(min_value=1e-6, max_value=0.9))
    def test_scores_bounded_in_unit_interval(self, taylor, tau):
        out = aggregate_scores(taylor, tau=tau)
        assert (out >= 0).all() and (out <= 1).all()

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 2, 4),
                  elements=st.floats(min_value=0, max_value=1)))
    def test_monotone_in_tau(self, taylor):
        # Raising the threshold can only lower scores.
        low = aggregate_scores(taylor, tau=0.1)
        high = aggregate_scores(taylor, tau=0.5)
        assert (high <= low + 1e-12).all()

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 2, 4),
                  elements=st.floats(min_value=0, max_value=1)))
    def test_max_dominates_mean(self, taylor):
        mx = aggregate_scores(taylor, tau=0.3, aggregation="max")
        mn = aggregate_scores(taylor, tau=0.3, aggregation="mean")
        assert (mx >= mn - 1e-12).all()


class TestImportanceConfig:
    def test_defaults_follow_paper(self):
        cfg = ImportanceConfig()
        assert cfg.images_per_class == 10
        assert cfg.tau == 1e-50
        assert cfg.aggregation == "max"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ImportanceConfig(images_per_class=0)
        with pytest.raises(ValueError):
            ImportanceConfig(aggregation="median")


class TestEvaluator:
    def test_report_structure(self, tiny_vgg, tiny_dataset):
        groups = tiny_vgg.prunable_groups()
        evaluator = ImportanceEvaluator(
            tiny_vgg, tiny_dataset, num_classes=3,
            config=ImportanceConfig(images_per_class=3))
        report = evaluator.evaluate([g.conv for g in groups])
        assert report.num_classes == 3
        for g in groups:
            n = tiny_vgg.get_module(g.conv).out_channels
            assert report.total[g.conv].shape == (n,)
            assert report.per_class[g.conv].shape == (n, 3)

    def test_total_is_sum_of_per_class(self, tiny_vgg, tiny_dataset):
        path = tiny_vgg.conv_layer_paths()[0]
        evaluator = ImportanceEvaluator(
            tiny_vgg, tiny_dataset, num_classes=3,
            config=ImportanceConfig(images_per_class=3))
        report = evaluator.evaluate([path])
        np.testing.assert_allclose(report.total[path],
                                   report.per_class[path].sum(axis=1))

    def test_scores_bounded_by_num_classes(self, tiny_vgg, tiny_dataset):
        path = tiny_vgg.conv_layer_paths()[0]
        evaluator = ImportanceEvaluator(
            tiny_vgg, tiny_dataset, num_classes=3,
            config=ImportanceConfig(images_per_class=2))
        report = evaluator.evaluate([path])
        assert (report.total[path] >= 0).all()
        assert (report.total[path] <= 3.0 + 1e-9).all()

    def test_deterministic_given_seed(self, tiny_vgg, tiny_dataset):
        path = tiny_vgg.conv_layer_paths()[0]
        cfg = ImportanceConfig(images_per_class=2, seed=9)
        r1 = ImportanceEvaluator(tiny_vgg, tiny_dataset, 3, cfg).evaluate([path])
        r2 = ImportanceEvaluator(tiny_vgg, tiny_dataset, 3, cfg).evaluate([path])
        np.testing.assert_array_equal(r1.total[path], r2.total[path])

    def test_works_on_mlp_units(self, tiny_mlp, tiny_dataset):
        groups = tiny_mlp.prunable_groups()
        evaluator = ImportanceEvaluator(
            tiny_mlp, tiny_dataset, num_classes=3,
            config=ImportanceConfig(images_per_class=2))
        report = evaluator.evaluate([g.conv for g in groups])
        assert report.total[groups[0].conv].shape == (16,)

    def test_zeroed_filter_gets_zero_score(self, tiny_dataset):
        # A filter whose weights are zero produces constant-zero activations
        # -> Taylor scores 0 -> importance 0 for every class.
        model = vgg11(num_classes=3, image_size=8, width=0.125, seed=2)
        path = model.conv_layer_paths()[0]
        conv = model.get_module(path)
        conv.weight.data[1] = 0.0
        if conv.bias is not None:
            conv.bias.data[1] = 0.0
        # Also kill the BN affine response of that channel so downstream
        # activation is exactly zero.
        bn = model.get_module(model.prunable_groups()[0].bn)
        bn.weight.data[1] = 0.0
        bn.bias.data[1] = 0.0
        evaluator = ImportanceEvaluator(
            model, tiny_dataset, num_classes=3,
            config=ImportanceConfig(images_per_class=2))
        report = evaluator.evaluate([path])
        assert report.total[path][1] == pytest.approx(0.0, abs=1e-9)


def _unfused_reference(model, dataset, num_classes, cfg, paths):
    """The paper's loop, literally: one Taylor pass per class, Eq. 5-7.

    Samples and scores one class at a time with the plain
    TaylorScoreEngine and averages the float64 indicator (no counting
    shortcut), so it shares neither the fused scorer nor the chunk loop
    with the code under test.
    """
    engine = TaylorScoreEngine(model, paths)
    rng = np.random.default_rng(cfg.seed)
    per_class = {}
    for c in range(num_classes):
        images = per_class_images(dataset, c, cfg.images_per_class, rng)
        taylor = engine.scores(images, np.full(len(images), c, np.intp))
        if cfg.tau_mode == "quantile":
            tau = float(np.quantile(
                np.concatenate([taylor[p].reshape(-1) for p in paths]),
                cfg.tau_quantile))
        else:
            tau = cfg.tau
        for p in paths:
            s_ave = (taylor[p] > tau).astype(np.float64).mean(axis=0)
            if s_ave.ndim == 1:
                col = s_ave
            elif cfg.aggregation == "max":
                col = s_ave.reshape(len(s_ave), -1).max(axis=1)
            else:
                col = s_ave.reshape(len(s_ave), -1).mean(axis=1)
            per_class.setdefault(p, np.zeros((len(col), num_classes)))
            per_class[p][:, c] = col
    return per_class


def pass_images(monkeypatch, model, paths, images):
    """Size scoring passes to hold ``images`` images of ``model``."""
    image_bytes = FusedTaylorScorer(model, paths, (3, 8, 8)).image_bytes
    monkeypatch.setattr(importance_module, "_PASS_BYTES",
                        images * image_bytes)


class TestFusedEvaluator:
    """The fused, weight-grad-free evaluator against the unfused loop.

    Serial and worker scoring share the fused code, so this reference
    comparison is what anchors their correctness.
    """

    @pytest.mark.parametrize("tau_mode", ["absolute", "quantile"])
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_bitwise_equal_to_unfused_per_class_loop(self, name, tau_mode,
                                                     monkeypatch):
        # 5 classes of M=2 at a budget of 4 images: three passes, the
        # last one partial.
        model = build_model(name, num_classes=5, image_size=8, width=0.25,
                            seed=0)
        train, _ = make_cifar_like(num_classes=5, image_size=8,
                                   samples_per_class=6, seed=0)
        paths = [g.conv for g in model.prunable_groups()]
        pass_images(monkeypatch, model, paths, 4)
        cfg = ImportanceConfig(images_per_class=2, tau_mode=tau_mode,
                               tau_quantile=0.5, seed=3)
        expected = _unfused_reference(model, train, 5, cfg, paths)
        report = ImportanceEvaluator(model, train, 5, cfg).evaluate(paths)
        assert list(report.per_class) == paths
        for p in paths:
            np.testing.assert_array_equal(report.per_class[p], expected[p])
            np.testing.assert_array_equal(report.total[p],
                                          expected[p].sum(axis=1))

    @pytest.mark.parametrize("aggregation", ["max", "mean"])
    @pytest.mark.parametrize("tau_mode", ["absolute", "quantile"])
    def test_short_classes_bitwise_equal_to_unfused_loop(
            self, tau_mode, aggregation, monkeypatch):
        # Classes 1 and 3 hold fewer than M=3 images (1 and 2), so the
        # fused passes hold segments of 3, 1, 3 rows, then 2, 3 rows.
        model = vgg11(num_classes=5, image_size=8, width=0.125, seed=1)
        full, _ = make_cifar_like(num_classes=5, image_size=8,
                                  samples_per_class=4, seed=1)
        keep = {1: 1, 3: 2}
        seen: dict[int, int] = {}
        indices = []
        for i, label in enumerate(full.labels):
            seen[label] = seen.get(label, 0) + 1
            if seen[label] <= keep.get(label, 4):
                indices.append(i)
        train = Subset(full, np.array(indices))
        paths = [g.conv for g in model.prunable_groups()]
        pass_images(monkeypatch, model, paths, 9)
        cfg = ImportanceConfig(images_per_class=3, tau_mode=tau_mode,
                               tau_quantile=0.5, aggregation=aggregation,
                               seed=4)
        expected = _unfused_reference(model, train, 5, cfg, paths)
        report = ImportanceEvaluator(model, train, 5, cfg).evaluate(paths)
        for p in paths:
            np.testing.assert_array_equal(report.per_class[p], expected[p])

    @pytest.mark.parametrize("training", [True, False])
    def test_scoring_leaves_the_model_as_it_found_it(self, training,
                                                     tiny_dataset):
        model = vgg11(num_classes=3, image_size=8, width=0.125, seed=0)
        bns = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
        rng = np.random.default_rng(0)
        for bn in bns:   # non-trivial statistics a train-mode pass would move
            bn.running_mean = rng.normal(size=bn.running_mean.shape
                                         ).astype(np.float32)
            bn.running_var = rng.uniform(0.5, 2.0, bn.running_var.shape
                                         ).astype(np.float32)
        params = [p for _, p in model.named_parameters()]
        params[1].requires_grad = False
        model.train(training)
        flags = [p.requires_grad for p in params]
        stats = [(bn.running_mean.copy(), bn.running_var.copy())
                 for bn in bns]
        ImportanceEvaluator(
            model, tiny_dataset, 3, ImportanceConfig(images_per_class=2)
        ).evaluate([g.conv for g in model.prunable_groups()])
        assert model.training is training
        assert [p.requires_grad for p in params] == flags
        for bn, (mean, var) in zip(bns, stats):
            np.testing.assert_array_equal(bn.running_mean, mean)
            np.testing.assert_array_equal(bn.running_var, var)


class TestReport:
    def test_all_scores_concatenates(self):
        report = ImportanceReport(num_classes=5)
        report.total = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
        np.testing.assert_array_equal(report.all_scores(), [1.0, 2.0, 3.0])

    def test_layer_means(self):
        report = ImportanceReport(num_classes=5)
        report.total = {"a": np.array([1.0, 3.0])}
        assert report.layer_means() == {"a": 2.0}

    def test_empty_report(self):
        report = ImportanceReport()
        assert report.all_scores().size == 0
