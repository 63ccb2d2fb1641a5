"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the reproduction: the paper's class-aware
pruning criterion needs per-activation gradients (Taylor scores, Eq. 4 of the
paper), which requires a full autograd engine since PyTorch is not available
in this environment.

The design is a define-by-run tape: every operation returns a new
:class:`Tensor` holding references to its parents and a closure that
accumulates gradients into them. Calling :meth:`Tensor.backward` performs a
topological sort of the recorded graph and runs the closures in reverse
order.

All tensors store ``float32`` data by default (matching common deep-learning
practice); gradient checking utilities promote to ``float64`` where needed.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "inference_mode", "is_grad_enabled", "tensor"]


# Grad mode is per-thread (as in torch): an inference thread running under
# no_grad must not switch off tape recording for a training or tracing
# thread that shares the process — the serving layer's eager fallbacks and
# hot-swap compilations run exactly that mix. Fresh threads start with
# gradients enabled.
_GRAD_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (this thread only).

    Used for evaluation loops and for the weight updates inside optimisers,
    exactly like ``torch.no_grad()``.
    """
    previous = _grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def inference_mode():
    """Forward-only context: no graph recording, no backward closures.

    Alias of :func:`no_grad` kept as a distinct name (mirroring
    ``torch.inference_mode``) to mark call sites that are pure inference.
    Inside the context the hot ops in :mod:`repro.tensor.ops` and
    :mod:`repro.tensor.conv` take a fast path that skips building their
    backward closures entirely rather than building and discarding them.
    """
    return no_grad()


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded on the tape."""
    return _grad_enabled()


def _tape_active(*parents: "Tensor") -> bool:
    """True when an op over ``parents`` would be recorded on the tape.

    Ops use this to skip constructing their backward closure (and any
    arrays it would capture) when the result cannot require gradients.
    """
    if not _grad_enabled():
        return False
    for p in parents:
        if p.requires_grad:
            return True
    return False


def _as_array(value, dtype=np.float32) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing numpy broadcasting.

    Broadcasting may have added leading axes and/or stretched axes of size
    one; the adjoint of broadcasting is summation over those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like initial value; converted to ``float32`` unless an ndarray
        of another float dtype is explicitly supplied with ``dtype=None``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional label used in debugging and in module parameter registries.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "name",
        "_backward",
        "_parents",
        "_op",
        "_retains_grad",
    )

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=np.float32):
        self.data: np.ndarray = _as_array(data, dtype) if dtype is not None else np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self.name = name
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op: str = "leaf"
        self._retains_grad = False

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, op={self._op}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out.name = self.name
        out._backward = None
        out._parents = ()
        out._op = "detach"
        out._retains_grad = False
        return out

    def retain_grad(self) -> "Tensor":
        """Keep the gradient of this (possibly non-leaf) tensor after backward.

        The Taylor-score evaluation of the paper (Eq. 4) needs gradients with
        respect to *activations*, which are interior nodes of the graph; this
        mirrors ``torch.Tensor.retain_grad``.
        """
        self._retains_grad = True
        return self

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], op: str,
              backward: Callable[[np.ndarray], tuple] | None) -> "Tensor":
        """Create an interior graph node.

        ``backward`` receives the gradient flowing into the node and must
        return one gradient array (or ``None``) per entry of ``parents``.
        """
        requires = _grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = requires
        out.name = None
        out._retains_grad = False
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        else:
            out._parents = ()
            out._backward = None
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or not grad.flags.owndata else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (only sensible for scalar outputs, which is the
            usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, self.data.dtype)

        # Topological sort (iterative to avoid recursion limits on deep nets).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.is_leaf or node._retains_grad:
                node._accumulate(node_grad)
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                if pid in grads:
                    grads[pid] = grads[pid] + pgrad
                else:
                    grads[pid] = pgrad

    # ------------------------------------------------------------------
    # Operator implementations (delegated to repro.tensor.ops)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from . import ops
        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import ops
        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops
        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops
        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import ops
        return ops.div(self, other)

    def __rtruediv__(self, other):
        from . import ops
        return ops.div(other, self)

    def __neg__(self):
        from . import ops
        return ops.neg(self)

    def __pow__(self, exponent: float):
        from . import ops
        return ops.pow(self, exponent)

    def __matmul__(self, other):
        from . import ops
        return ops.matmul(self, other)

    def __getitem__(self, index):
        from . import ops
        return ops.getitem(self, index)

    # Convenience method forms -----------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from . import ops
        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from . import ops
        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        from . import ops
        return ops.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from . import ops
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes):
        from . import ops
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return ops.transpose(self, axes or None)

    def flatten(self, start_dim: int = 0):
        from . import ops
        return ops.flatten(self, start_dim)

    def relu(self):
        from . import ops
        return ops.relu(self)

    def exp(self):
        from . import ops
        return ops.exp(self)

    def log(self):
        from . import ops
        return ops.log(self)

    def sqrt(self):
        from . import ops
        return ops.sqrt(self)

    def abs(self):
        from . import ops
        return ops.abs(self)


def tensor(data, requires_grad: bool = False, name: str | None = None) -> Tensor:
    """Factory mirroring ``torch.tensor`` for readability at call sites."""
    return Tensor(data, requires_grad=requires_grad, name=name)
