"""Fused analytic regularizer gradients vs the autograd penalty graph."""

import numpy as np
import pytest

from repro.core.regularizers import (FusedRegularizer, ModifiedLoss, _eye,
                                     l1_regularizer, orthogonality_term)
from repro.core.trainer import Trainer, TrainingConfig
from repro.data import make_cifar_like
from repro.models import build_model
from repro.tensor import Tensor, ops
from repro.verify import numerical_grad


def _tiny_model(seed=0):
    return build_model("vgg11", num_classes=3, image_size=8, width=0.25,
                       seed=seed)


def _autograd_penalty_grads(model, lambda1, lambda2):
    model.zero_grad()
    total = ops.mul(Tensor(np.float32(lambda1)), l1_regularizer(model))
    orth = orthogonality_term(model, mode="kernel")
    total = ops.add(total, ops.mul(Tensor(np.float32(lambda2)), orth))
    total.backward()
    grads = {name: np.array(p.grad, copy=True)
             for name, p in model.named_parameters() if p.grad is not None}
    model.zero_grad()
    return grads


def test_eye_tensors_are_cached_by_size():
    assert _eye(4) is _eye(4)
    assert _eye(4) is not _eye(5)
    np.testing.assert_array_equal(_eye(3).data, np.eye(3, dtype=np.float32))


def test_fused_gradients_match_autograd():
    model = _tiny_model()
    lambda1, lambda2 = 1e-4, 1e-2
    expected = _autograd_penalty_grads(model, lambda1, lambda2)

    model.zero_grad()
    fused = FusedRegularizer(lambda1=lambda1, lambda2=lambda2)
    l1_value, orth_value = fused.accumulate(model)

    params = dict(model.named_parameters())
    for name, grad in expected.items():
        np.testing.assert_allclose(params[name].grad, grad,
                                   rtol=2e-3, atol=1e-6, err_msg=name)
    # Penalty values agree with the autograd scalars.
    assert l1_value == pytest.approx(float(l1_regularizer(model).data),
                                     rel=1e-5)
    assert orth_value == pytest.approx(
        float(orthogonality_term(model, mode="kernel").data), rel=1e-5)


def test_fused_accumulate_adds_to_existing_grads():
    model = _tiny_model()
    fused = FusedRegularizer(lambda1=1e-3, lambda2=0.0)
    model.zero_grad()
    fused.accumulate(model)
    once = {name: np.array(p.grad, copy=True)
            for name, p in model.named_parameters() if p.grad is not None}
    fused.accumulate(model)
    for name, grad in once.items():
        np.testing.assert_allclose(dict(model.named_parameters())[name].grad,
                                   2 * grad, rtol=1e-6)


def test_closed_form_orth_gradient_against_finite_differences():
    """gradcheck of df/dŴ = 2DŴ/f on a small weight matrix."""
    rng = np.random.default_rng(0)
    weight = Tensor(rng.normal(size=(4, 6)).astype(np.float32) * 0.5,
                    requires_grad=True)

    def orth(w):
        gram = ops.matmul(w, ops.transpose(w))
        diff = ops.sub(gram, _eye(4))
        return ops.sqrt(ops.add(ops.sum(ops.mul(diff, diff)),
                                Tensor(np.float32(1e-12))))

    numerical = numerical_grad(orth, [weight], 0, eps=1e-3)
    flat = weight.data
    d = flat @ flat.T
    d[np.diag_indices_from(d)] -= np.float32(1.0)
    value = np.sqrt(np.sum(d * d) + np.float32(1e-12))
    analytic = (np.float32(2.0) / value) * (d @ flat)
    np.testing.assert_allclose(analytic, numerical, rtol=1e-2, atol=1e-2)


def test_non_kernel_orth_mode_rejected():
    with pytest.raises(ValueError, match="kernel"):
        FusedRegularizer(lambda2=1e-2, orth_mode="conv")
    # λ2 = 0 makes the orth mode irrelevant.
    FusedRegularizer(lambda2=0.0, orth_mode="conv")


def test_track_terms_off_keeps_the_total_gradients():
    model_a = _tiny_model()
    model_b = _tiny_model()
    images = np.random.default_rng(1).normal(
        size=(4, 3, 8, 8)).astype(np.float32)
    targets = np.array([0, 1, 2, 0], dtype=np.intp)

    def grads(model, track):
        loss = ModifiedLoss(lambda1=1e-4, lambda2=1e-2, track_terms=track)
        model.zero_grad()
        terms = loss(model, model(Tensor(images)), targets)
        terms.total.backward()
        return terms, {name: np.array(p.grad, copy=True)
                       for name, p in model.named_parameters()
                       if p.grad is not None}

    terms_on, grads_on = grads(model_a, True)
    terms_off, grads_off = grads(model_b, False)
    assert terms_off.l1 == 0.0 and terms_off.orth == 0.0
    assert terms_on.l1 > 0.0
    np.testing.assert_array_equal(terms_on.total.data, terms_off.total.data)
    for name, grad in grads_on.items():
        np.testing.assert_array_equal(grads_off[name], grad, err_msg=name)


def _train_one_epoch(fused_reg):
    model = _tiny_model()
    train, _ = make_cifar_like(num_classes=3, image_size=8,
                               samples_per_class=12, seed=0)
    config = TrainingConfig(epochs=1, batch_size=16, lr=0.05, seed=0,
                            fused_reg=fused_reg)
    return model, Trainer(model, train, config=config).train()


def _history_rows(history):
    return [(e.train_loss, e.cross_entropy, e.l1, e.orth, e.train_accuracy)
            for e in history.epochs]


def test_fused_trainer_epoch_matches_autograd_and_reproduces():
    fused_model, fused_history = _train_one_epoch(True)
    again_model, again_history = _train_one_epoch(True)
    auto_model, auto_history = _train_one_epoch(False)

    # Bitwise reproducible across two seeded runs.
    assert _history_rows(fused_history) == _history_rows(again_history)
    again = again_model.state_dict()
    for key, value in fused_model.state_dict().items():
        np.testing.assert_array_equal(value, again[key], err_msg=key)

    # Within float rounding of the autograd epoch: history to 1e-5
    # relative, weights to 1e-4 absolute (about 7e-6 observed).
    for fused, auto in zip(_history_rows(fused_history),
                           _history_rows(auto_history)):
        assert fused == pytest.approx(auto, rel=1e-5)
    auto = auto_model.state_dict()
    for key, value in fused_model.state_dict().items():
        np.testing.assert_allclose(value, auto[key], rtol=0, atol=1e-4,
                                   err_msg=key)


def test_custom_loss_fn_rejected_with_fused_reg():
    model = _tiny_model()
    train, _ = make_cifar_like(num_classes=3, image_size=8,
                               samples_per_class=2, seed=0)
    with pytest.raises(ValueError, match="loss_fn"):
        Trainer(model, train, config=TrainingConfig(fused_reg=True),
                loss_fn=lambda m, logits, targets: None)


def test_non_kernel_orth_rejected_with_fused_reg():
    model = _tiny_model()
    train, _ = make_cifar_like(num_classes=3, image_size=8,
                               samples_per_class=2, seed=0)
    with pytest.raises(ValueError, match="kernel"):
        Trainer(model, train,
                config=TrainingConfig(fused_reg=True, orth_mode="conv"))
