"""Parallel importance scoring must be bit-identical to the serial loop.

For every model in the zoo, fanning the per-class Taylor evaluations
across worker processes returns byte-for-byte the same
:class:`ImportanceReport` as the serial evaluator — same totals, same
per-class score matrices. Serial and worker paths share one fused scorer
and chunk loop, so agreement here shows the process plumbing (sampling,
shared memory, sharding, column gathering) is sound, not that the scores
are right: ``TestFusedEvaluator`` in ``tests/core/test_importance.py``,
which checks the fused scorer against an unfused per-class reference
loop, anchors correctness.
"""

import numpy as np
import pytest

from repro.core.importance import ImportanceConfig, ImportanceEvaluator
from repro.data import make_cifar_like
from repro.models import build_model
from repro.models.registry import MODEL_REGISTRY


def _tiny(name):
    model = build_model(name, num_classes=3, image_size=8, width=0.25,
                        seed=0)
    train, _ = make_cifar_like(num_classes=3, image_size=8,
                               samples_per_class=6, seed=0)
    return model, train


def _groups(model):
    return [g.conv for g in model.prunable_groups()]


def _assert_identical(serial, parallel):
    assert set(serial.total) == set(parallel.total)
    for path in serial.total:
        np.testing.assert_array_equal(serial.total[path],
                                      parallel.total[path])
        np.testing.assert_array_equal(serial.per_class[path],
                                      parallel.per_class[path])


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_parallel_report_bit_identical_to_serial(name):
    model, train = _tiny(name)
    groups = _groups(model)
    cfg = ImportanceConfig(images_per_class=2, tau_mode="quantile",
                           tau_quantile=0.5, seed=0)
    serial = ImportanceEvaluator(model, train, 3, cfg).evaluate(groups)
    evaluator = ImportanceEvaluator(model, train, 3, cfg, workers=2)
    try:
        _assert_identical(serial, evaluator.evaluate(groups))
    finally:
        evaluator.close()


def test_absolute_tau_mode_matches_too():
    model, train = _tiny("vgg11")
    groups = _groups(model)
    cfg = ImportanceConfig(images_per_class=2, tau_mode="absolute", seed=0)
    serial = ImportanceEvaluator(model, train, 3, cfg).evaluate(groups)
    evaluator = ImportanceEvaluator(model, train, 3, cfg, workers=3)
    try:
        _assert_identical(serial, evaluator.evaluate(groups))
    finally:
        evaluator.close()


def test_exact_zeroing_engine_matches_in_workers():
    model, train = _tiny("vgg11")
    groups = _groups(model)[:2]
    cfg = ImportanceConfig(images_per_class=2, use_exact=True, seed=0)
    serial = ImportanceEvaluator(model, train, 3, cfg).evaluate(groups)
    evaluator = ImportanceEvaluator(model, train, 3, cfg, workers=2)
    try:
        _assert_identical(serial, evaluator.evaluate(groups))
    finally:
        evaluator.close()


def test_session_reuse_and_weight_refresh():
    """A reused pool sees updated weights and stays bit-identical."""
    model, train = _tiny("resnet20")
    groups = _groups(model)
    cfg = ImportanceConfig(images_per_class=2, tau_mode="quantile",
                           tau_quantile=0.5, seed=0)
    evaluator = ImportanceEvaluator(model, train, 3, cfg, workers=2)
    try:
        first = evaluator.evaluate(groups)
        _assert_identical(first, evaluator.evaluate(groups))
        # Perturb the weights: the session refreshes shared memory in
        # place and must track the serial evaluator exactly.
        for _, param in model.named_parameters():
            param.data = param.data + np.float32(0.01)
        serial = ImportanceEvaluator(model, train, 3, cfg).evaluate(groups)
        _assert_identical(serial, evaluator.evaluate(groups))
    finally:
        evaluator.close()


def test_worker_count_does_not_change_the_report():
    model, train = _tiny("vgg11")
    groups = _groups(model)
    cfg = ImportanceConfig(images_per_class=2, tau_mode="quantile",
                           tau_quantile=0.5, seed=0)
    reports = []
    for workers in (1, 2, 3):
        evaluator = ImportanceEvaluator(model, train, 3, cfg,
                                        workers=workers)
        try:
            reports.append(evaluator.evaluate(groups))
        finally:
            evaluator.close()
    _assert_identical(reports[0], reports[1])
    _assert_identical(reports[0], reports[2])
