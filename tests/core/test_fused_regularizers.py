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


def _train_one_epoch(fused, samples_per_class=12, **overrides):
    """One seeded epoch; ``fused=False`` passes the config's own
    ModifiedLoss explicitly, which runs it through autograd."""
    model = _tiny_model()
    train, _ = make_cifar_like(num_classes=3, image_size=8,
                               samples_per_class=samples_per_class, seed=0)
    config = TrainingConfig(epochs=1, batch_size=16, lr=0.05, seed=0,
                            **overrides)
    loss_fn = None if fused else config.loss()
    return model, Trainer(model, train, config=config,
                          loss_fn=loss_fn).train()


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


@pytest.fixture
def objective_calls(monkeypatch):
    """Count per-batch calls of the fused and the autograd objective."""
    calls = {"fused": 0, "autograd": 0}
    accumulate = FusedRegularizer.accumulate
    modified = ModifiedLoss.__call__

    def counted_accumulate(self, model):
        calls["fused"] += 1
        return accumulate(self, model)

    def counted_modified(self, *args):
        calls["autograd"] += 1
        return modified(self, *args)

    monkeypatch.setattr(FusedRegularizer, "accumulate", counted_accumulate)
    monkeypatch.setattr(ModifiedLoss, "__call__", counted_modified)
    return calls


def test_default_runs_fused_objective(objective_calls):
    _, history = _train_one_epoch(True, samples_per_class=6)
    assert objective_calls == {"fused": 2, "autograd": 0}   # 18 samples
    assert history.epochs[0].orth > 0 and history.epochs[0].l1 > 0


def test_custom_loss_fn_runs_autograd_objective(objective_calls):
    model = _tiny_model()
    train, _ = make_cifar_like(num_classes=3, image_size=8,
                               samples_per_class=6, seed=0)
    seen = []

    def loss_fn(m, logits, targets):
        seen.append(len(targets))
        return ModifiedLoss(lambda1=0.0, lambda2=0.0)(m, logits, targets)

    history = Trainer(model, train,
                      config=TrainingConfig(epochs=1, batch_size=16),
                      loss_fn=loss_fn).train()
    assert seen == [16, 2]
    assert objective_calls == {"fused": 0, "autograd": 2}
    assert history.epochs[0].l1 == 0.0 and history.epochs[0].orth == 0.0


def test_non_kernel_orth_runs_autograd_objective(objective_calls):
    _, history = _train_one_epoch(True, samples_per_class=6,
                                  orth_mode="conv")
    assert objective_calls == {"fused": 0, "autograd": 2}
    assert history.epochs[0].orth > 0
    # λ2 = 0 makes the orth form irrelevant: the fused objective runs.
    _train_one_epoch(True, samples_per_class=6, orth_mode="conv",
                     lambda2=0.0)
    assert objective_calls == {"fused": 2, "autograd": 2}
