"""Deterministic fault injection (the chaos harness).

Every recovery path in this repo is *proven* by planting the fault it
recovers from:

* :func:`plant_numerical_fault` — NaN/Inf in an activation, NaN in the
  gradient stream, or a sudden activation blow-up, at an exact forward
  call — exercises the trainer sentinels;
* :func:`sabotage_method` — make a surgery method raise after N successful
  calls — exercises the transactional rollback;
* :func:`corrupt_checkpoint` — truncate or bit-flip checkpoint bytes —
  exercises tamper detection and resume fallback;
* :class:`FlakyDataset` — items fail the first K reads — exercises the
  bounded-retry loader.

All faults are deterministic (counters, not randomness), so the tests and
the ``python -m repro.verify`` drills are reproducible.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

import numpy as np

from ..data import Dataset
from ..nn import HookHandle, Module
from ..tensor import Tensor

__all__ = ["ChaosError", "SimulatedCrash", "plant_numerical_fault",
           "sabotage_method", "corrupt_checkpoint", "FlakyDataset"]


class ChaosError(RuntimeError):
    """Base class of every injected fault."""


class SimulatedCrash(ChaosError):
    """Stand-in for process death (kill -9, OOM, power loss)."""


# ----------------------------------------------------------------------
# Numerical faults
# ----------------------------------------------------------------------
def _poison_gradient(out: Tensor, value: float) -> Tensor:
    """Identity in the forward pass; contaminates the backward stream."""
    def backward(grad: np.ndarray):
        poisoned = np.array(grad, copy=True)
        poisoned.flat[0] = value
        return (poisoned,)
    return Tensor._make(out.data, (out,), "chaos-grad-poison", backward)


def plant_numerical_fault(module: Module, at_call: int = 0,
                          mode: str = "activation",
                          value: float = np.nan) -> HookHandle:
    """Arm a one-shot numerical fault on a module's forward pass.

    Parameters
    ----------
    module:
        Layer to poison.
    at_call:
        Zero-based forward-call index at which the fault fires (exactly
        once; later calls are clean again — a *transient* fault).
    mode:
        ``"activation"`` writes ``value`` (default NaN) into the output
        tensor, so loss and gradients go non-finite;
        ``"gradient"`` leaves the forward clean and plants ``value`` into
        the gradient flowing back through the module — the loss stays
        finite, only the gradient sentinel can catch it;
        ``"scale"`` multiplies the output by ``value`` (pass e.g. ``1e6``)
        to provoke a finite loss explosion.
    """
    if mode not in ("activation", "gradient", "scale"):
        raise ValueError(f"unknown chaos mode {mode!r}")
    state = {"calls": 0}

    def hook(_module, _args, out):
        index = state["calls"]
        state["calls"] += 1
        if index != at_call:
            return None
        if mode == "activation":
            out.data.flat[0] = value
            return None
        if mode == "gradient":
            return _poison_gradient(out, value)
        return out * float(value)  # "scale"

    return module.register_forward_hook(hook)


# ----------------------------------------------------------------------
# Surgery faults
# ----------------------------------------------------------------------
@contextlib.contextmanager
def sabotage_method(module: Module, method: str, after_calls: int = 0,
                    error: type[Exception] = ChaosError):
    """Make ``module.<method>`` raise after ``after_calls`` successes.

    With ``after_calls=1`` on a consumer's surgery method, the producer is
    already shrunk when the fault fires — the exact half-mutated state the
    transactional guard must roll back.
    """
    original = getattr(module, method)
    state = {"calls": 0}

    def saboteur(*args, **kwargs):
        index = state["calls"]
        state["calls"] += 1
        if index >= after_calls:
            raise error(f"injected fault in {method} (call {index})")
        return original(*args, **kwargs)

    object.__setattr__(module, method, saboteur)
    try:
        yield
    finally:
        object.__delattr__(module, method)


# ----------------------------------------------------------------------
# Storage faults
# ----------------------------------------------------------------------
def corrupt_checkpoint(path: str | Path, mode: str = "flip",
                       seed: int = 0) -> None:
    """Damage a checkpoint file in place.

    ``"flip"`` inverts a handful of bytes in the middle of the file (a
    bit-rot / torn-write stand-in); ``"truncate"`` drops the second half
    (a crash during a non-atomic write). Both must be caught by
    :func:`repro.io.load_model` as ``CheckpointCorruptError``.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if len(data) < 8:
        raise ValueError(f"{path} too small to corrupt meaningfully")
    if mode == "truncate":
        path.write_bytes(bytes(data[:len(data) // 2]))
    elif mode == "flip":
        rng = np.random.default_rng(seed)
        # Stay away from the zip end-of-central-directory so the damage
        # lands in array payload bytes, the hardest case for detection.
        positions = rng.integers(len(data) // 4, len(data) // 2, size=16)
        for pos in positions:
            data[int(pos)] ^= 0xFF
        path.write_bytes(bytes(data))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


class FlakyDataset(Dataset):
    """Dataset whose items fail their first ``failures`` reads.

    Deterministic: every index keeps its own attempt counter, so
    ``failures=2`` means reads 0 and 1 of each item raise ``error`` and
    read 2 succeeds — a transient storage fault. Wrap with
    :class:`~repro.resilience.retry.RetryingDataset` to recover.
    """

    def __init__(self, dataset: Dataset, failures: int = 1,
                 error: type[Exception] = ChaosError):
        if failures < 0:
            raise ValueError("failures must be >= 0")
        self.dataset = dataset
        self.failures = failures
        self.error = error
        self._attempts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.dataset)

    def __getitem__(self, index: int):
        seen = self._attempts.get(index, 0)
        if seen < self.failures:
            self._attempts[index] = seen + 1
            raise self.error(f"flaky read of item {index} "
                             f"(attempt {seen + 1}/{self.failures})")
        return self.dataset[index]

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.labels
