"""Per-activation sensitivity scores (Eq. 3 and Eq. 4 of the paper).

Two definitions of the same quantity, the first in two implementations:

* :class:`TaylorScoreEngine` — the first-order approximation
  ``Θ'(a, x) = |a · ∂L/∂a|`` computed for *every* activation of every
  monitored layer with a single forward + backward pass per batch: the
  plain per-batch reference.
* :class:`FusedTaylorScorer` — the same ``Θ'`` bit for bit, for batches
  that mix several classes, with every weight gradient skipped. This is
  what the importance evaluation uses, serial and in workers alike.
* :class:`ExactZeroingEngine` — the literal definition
  ``Θ(a, x) = |L(x) − L(x; a←0)|``, one extra forward pass per activation.
  Exponentially slower; kept as ground truth for validating the Taylor
  approximation (and benchmarked against it in ``bench_kernels.py``).

The loss used is the plain cross entropy of the pre-trained network by
default — sensitivities are taken on "the cost function of the pre-trained
neural network" — but any callable mapping logits/targets to a scalar
tensor can be substituted.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from ..nn import Module, cross_entropy
from ..tensor import Tensor
from .hooks import ActivationRecorder, activation_mask

__all__ = ["TaylorScoreEngine", "FusedTaylorScorer", "ExactZeroingEngine"]

LossFn = Callable[[Tensor, np.ndarray], Tensor]


def _per_sample_ce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Summed (not averaged) cross entropy.

    Summing keeps every sample's gradient independent of batch size, so a
    single backward pass yields each image's own ∂L(x_j)/∂a on its slice of
    the batched activation tensor.
    """
    return cross_entropy(logits, targets, reduction="sum")


class TaylorScoreEngine:
    """Batched first-order Taylor sensitivities (Eq. 4).

    Parameters
    ----------
    model:
        Network under evaluation (left in eval mode during scoring so batch
        statistics are not perturbed).
    layer_paths:
        Dotted paths of the layers whose output activations are scored —
        the producers of the prunable filter groups.
    loss_fn:
        Scalar loss; defaults to summed cross entropy (see module doc).
    """

    def __init__(self, model: Module, layer_paths: list[str],
                 loss_fn: LossFn | None = None):
        self.model = model
        self.layer_paths = list(layer_paths)
        self.loss_fn = loss_fn or _per_sample_ce

    def scores(self, images: np.ndarray,
               targets: np.ndarray) -> dict[str, np.ndarray]:
        """Taylor score of every activation, for every image in the batch.

        Returns
        -------
        Mapping from layer path to an array shaped like the layer's output
        ``(M, C, H, W)`` (or ``(M, F)`` for linear layers): entry
        ``[j, ...]`` is ``Θ'(a, x_j)``.
        """
        was_training = self.model.training
        self.model.eval()
        try:
            return _taylor_pass(self.model, self.layer_paths,
                                Tensor(np.asarray(images, dtype=np.float32)),
                                targets, self.loss_fn)
        finally:
            self.model.train(was_training)


def _taylor_pass(model: Module, layer_paths: list[str], x: Tensor,
                 targets: np.ndarray, loss_fn: LossFn) -> dict[str, np.ndarray]:
    """``|a · ∂L/∂a|`` of every monitored activation: one forward/backward."""
    model.zero_grad()
    with ActivationRecorder(model, layer_paths) as recorder:
        loss_fn(model(x), np.asarray(targets, dtype=np.intp)).backward()
        result = {}
        for path in layer_paths:
            act = recorder.activations[path]
            if act.grad is None:
                raise RuntimeError(
                    f"activation of {path!r} received no gradient; "
                    "is the layer on the path to the loss?")
            result[path] = np.abs(act.data * act.grad)
    model.zero_grad()
    return result


@contextlib.contextmanager
def _rooted(model: Module, root_path: str | None):
    """Eval mode with every parameter frozen; the output of ``root_path``
    becomes a leaf that requires grad, so the graph starts there.

    Restores ``model.training`` and every ``requires_grad`` on exit.
    """
    was_training = model.training
    params = [p for _, p in model.named_parameters()]
    saved = [p.requires_grad for p in params]
    handle = None
    model.eval()
    try:
        for p in params:
            p.requires_grad = False
        if root_path is not None:
            handle = model.get_module(root_path).register_forward_hook(
                lambda module, args, out: setattr(out, "requires_grad", True))
        yield
    finally:
        if handle is not None:
            handle.remove()
        for p, s in zip(params, saved):
            p.requires_grad = s
        model.train(was_training)


class FusedTaylorScorer:
    """Taylor scores for a batch mixing several classes, weight-grad free.

    Numerically identical to running :class:`TaylorScoreEngine` on each
    class slice (summed CE keeps per-sample gradients independent), but a
    single pass scores the whole batch, parameters are frozen so backward
    never computes a weight gradient, and when the probe at construction
    allows it (``root_path``) the graph starts at the first monitored
    layer's output, so the stem layers and that layer itself run no
    backward at all.

    Parameters
    ----------
    model, layer_paths:
        As for :class:`TaylorScoreEngine`; the loss is always summed CE.
    input_shape:
        Shape of one input image, for the root probe.
    """

    def __init__(self, model: Module, layer_paths: list[str],
                 input_shape: tuple[int, ...]):
        self.model = model
        self.layer_paths = list(layer_paths)
        self.root_path, self.image_bytes = self._probe_root(tuple(input_shape))

    def _probe_root(self, input_shape: tuple[int, ...]
                    ) -> tuple[str | None, int]:
        """Check whether rooting at the first monitored layer reaches all.

        Every monitored activation must be downstream of that layer for
        the rooted fast path to be exact; exotic topologies fall back to
        rooting at the input (which is always correct, and still skips
        all weight gradients). The probe forward runs in eval mode, so
        BatchNorm running statistics are left untouched. Also returns one
        image's monitored activation bytes (the input's if the probe fails).
        """
        candidate = self.layer_paths[0]
        try:
            with _rooted(self.model, candidate), \
                    ActivationRecorder(self.model, self.layer_paths) as rec:
                self.model(Tensor(np.zeros((1,) + input_shape, np.float32)))
                acts = [rec.activations[p] for p in self.layer_paths]
                ok = all(a.requires_grad for a in acts)
                image_bytes = sum(a.data.nbytes for a in acts)
        except Exception:  # noqa: BLE001 - any probe failure means fallback
            ok, image_bytes = False, 4 * int(np.prod(input_shape))
        return (candidate if ok else None), image_bytes

    def scores(self, images: np.ndarray,
               targets: np.ndarray) -> dict[str, np.ndarray]:
        """Same contract as :meth:`TaylorScoreEngine.scores`."""
        with _rooted(self.model, self.root_path):
            x = Tensor(np.asarray(images, dtype=np.float32),
                       requires_grad=self.root_path is None)
            return _taylor_pass(self.model, self.layer_paths, x, targets,
                                _per_sample_ce)


class ExactZeroingEngine:
    """Literal ablation sensitivities (Eq. 3); O(#activations) forwards.

    Only practical for tiny layers — the raison d'être of the Taylor
    approximation. Evaluates one image at a time.
    """

    #: Passes of any size hold one image's activations at a time.
    image_bytes = 1

    def __init__(self, model: Module, layer_paths: list[str],
                 loss_fn: LossFn | None = None):
        self.model = model
        self.layer_paths = list(layer_paths)
        self.loss_fn = loss_fn or _per_sample_ce

    def _loss_value(self, image: np.ndarray, target: int) -> float:
        logits = self.model(Tensor(image[None]))
        return float(self.loss_fn(logits, np.array([target])).data)

    def scores(self, images: np.ndarray,
               targets: np.ndarray) -> dict[str, np.ndarray]:
        """Exact Θ for every activation and image (same layout as Taylor)."""
        from ..tensor import inference_mode
        was_training = self.model.training
        self.model.eval()
        try:
            with inference_mode():
                # Shapes of each monitored activation, via one probe pass.
                with ActivationRecorder(self.model, self.layer_paths) as rec:
                    self.model(Tensor(images[:1].astype(np.float32)))
                    shapes = {p: rec.activations[p].shape[1:]
                              for p in self.layer_paths}
                result = {p: np.zeros((len(images),) + s, dtype=np.float32)
                          for p, s in shapes.items()}
                for j, (image, target) in enumerate(zip(images, targets)):
                    base = self._loss_value(image, int(target))
                    for path in self.layer_paths:
                        shape = shapes[path]
                        flat = int(np.prod(shape))
                        for idx in range(flat):
                            mask = np.ones((1,) + shape, dtype=np.float32)
                            mask.reshape(-1)[idx] = 0.0
                            with activation_mask(self.model, path, mask):
                                ablated = self._loss_value(image, int(target))
                            result[path][j].reshape(-1)[idx] = abs(base - ablated)
            return result
        finally:
            self.model.train(was_training)
