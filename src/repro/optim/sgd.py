"""Stochastic gradient descent, matching the paper's training recipe.

The paper trains with SGD, initial learning rate 0.01, momentum 0.9 and
weight decay 5e-4 (Sec. IV). Weight decay is applied as the classic L2 term
added to the gradient (PyTorch semantics), independent of the explicit L1
regulariser that belongs to the modified cost function itself.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..tensor import Tensor

__all__ = ["SGD"]


class SGD:
    """SGD with momentum and (decoupled-from-loss) L2 weight decay.

    Parameters
    ----------
    params:
        Iterable of trainable tensors (typically ``model.parameters()``).
    lr:
        Learning rate; mutable through :attr:`lr` (used by schedulers).
    momentum:
        Classical momentum coefficient; 0 disables the velocity buffer.
    weight_decay:
        L2 penalty coefficient added to gradients before the update.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"invalid learning rate {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update to every parameter that received a gradient.

        Parameters whose shape changed since the last step (filter surgery
        rebuilds weight arrays) automatically get a fresh velocity buffer.
        """
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel = self._velocity.get(id(p))
                if vel is None or vel.shape != grad.shape:
                    vel = np.zeros_like(p.data)
                vel = self.momentum * vel + grad
                self._velocity[id(p)] = vel
                update = vel
            else:
                update = grad
            p.data = p.data - self.lr * update

    def reset_state(self) -> None:
        """Drop all velocity buffers.

        Used by the numerical-health rewind: after restoring the last
        healthy weights, momentum accumulated on the poisoned trajectory
        must not steer the retry.
        """
        self._velocity.clear()

    def rebind(self, params: Iterable[Tensor]) -> None:
        """Point the optimizer at a new parameter list (after surgery).

        Velocity buffers for retained tensors survive when their shapes are
        unchanged; everything else is reset.
        """
        self.params = list(params)
        live = {id(p) for p in self.params}
        self._velocity = {k: v for k, v in self._velocity.items() if k in live}
