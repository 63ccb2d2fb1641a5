"""Activation capture and ablation utilities.

The importance engine needs two capabilities on top of the module system:

* **recording** — grab the output tensor of selected layers during a
  forward pass and mark it with ``retain_grad`` so a subsequent backward
  pass leaves ``∂L/∂a`` on it (Taylor scores, Eq. 4);
* **ablation** — re-run a forward pass with a chosen activation forced to
  zero (the exact sensitivity definition, Eq. 3).

Both are context managers so hooks can never leak into later training.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from ..nn import Module
from ..tensor import Tensor, ops

__all__ = ["ActivationRecorder", "activation_mask"]


class ActivationRecorder(contextlib.AbstractContextManager):
    """Record the output tensors of selected submodules.

    Parameters
    ----------
    model:
        Root module.
    paths:
        Dotted paths of the layers whose outputs to capture (the producers
        of prunable filter groups).

    Usage::

        with ActivationRecorder(model, paths) as rec:
            loss = loss_fn(model(x))
            loss.backward()
            act = rec.activations["features.0"]    # Tensor
            grad = rec.gradients["features.0"]     # ndarray
    """

    def __init__(self, model: Module, paths: list[str]):
        self.model = model
        self.paths = list(paths)
        self.activations: dict[str, Tensor] = {}
        self._handles = []

    def __enter__(self) -> "ActivationRecorder":
        for path in self.paths:
            module = self.model.get_module(path)

            def hook(mod, args, out, path=path):
                out.retain_grad()
                self.activations[path] = out

            self._handles.append(module.register_forward_hook(hook))
        return self

    def __exit__(self, *exc) -> None:
        for handle in self._handles:
            handle.remove()
        self._handles.clear()

    @property
    def gradients(self) -> dict[str, np.ndarray]:
        """Gradient array of each recorded activation (after backward)."""
        grads = {}
        for path, act in self.activations.items():
            if act.grad is None:
                raise RuntimeError(
                    f"no gradient recorded for {path!r}; run backward() first")
            grads[path] = act.grad
        return grads


@contextlib.contextmanager
def activation_mask(model: Module, path: str,
                    mask: np.ndarray) -> Iterator[None]:
    """Force the output of ``path`` to ``output * mask`` during forwards.

    Setting a single entry of ``mask`` to zero implements the paper's
    ``a ← 0`` ablation (Eq. 3).
    """
    module = model.get_module(path)
    mask_t = Tensor(np.asarray(mask, dtype=np.float32))

    def hook(mod, args, out):
        return ops.mul(out, mask_t)

    handle = module.register_forward_hook(hook)
    try:
        yield
    finally:
        handle.remove()
