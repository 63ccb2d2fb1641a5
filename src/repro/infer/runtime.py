"""Compiled inference runtime: preallocated buffers + a flat program.

The engine turns a (typically optimized) :class:`~repro.infer.plan.Plan`
into a list of kernel binders over a buffer arena. Every value in the
plan owns at most one buffer, allocated once at ``(max_batch, *tail)``
capacity; the caller's batch is copied into the plan input's buffer on
every run. The first run at batch size ``n <= max_batch`` binds a program
for ``n`` (every kernel's slices of the leading axis, computed once) and
keeps it; later runs at that size only call its closures and perform no
large allocations. Batches larger than the capacity are processed in
chunks transparently.

Entry point: :func:`compile_model`, which captures, optimizes, builds, and
(by default) validates the compiled engine against the eager model on the
example input before returning it.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module
from ..tensor import Tensor, no_grad
from .kernels import alloc_value, build_step
from .optimize import OptimizationReport, optimize_plan, quantize_weights
from .plan import Plan, capture_plan

__all__ = ["BufferArena", "InferenceEngine", "CompileValidationError",
           "compile_model"]


class CompileValidationError(RuntimeError):
    """Compiled outputs diverged from eager outputs on the example input."""


class BufferArena:
    """Owns every preallocated float32 array of one engine.

    Value buffers are keyed by value id and follow
    :func:`~repro.infer.kernels.alloc_value`: 4-D values are NHWC memory
    behind an NCHW view. The plan input's buffer alone is plain NCHW, the
    caller's layout. Scratch arrays are keyed by the owning step's output
    id and a name.
    """

    def __init__(self):
        self._buffers: dict[int, np.ndarray] = {}
        self._scratch: dict[tuple[int, str], np.ndarray] = {}

    def input(self, vid: int, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers[vid] = np.zeros(shape, np.float32)
        return buf

    def buffer(self, vid: int, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(vid)
        if buf is None:
            buf = alloc_value(shape)
            self._buffers[vid] = buf
        return buf

    def scratch(self, owner: int, name: str, shape: tuple[int, ...],
                zero: bool = False) -> np.ndarray:
        key = (owner, name)
        buf = self._scratch.get(key)
        if buf is None:
            buf = (np.zeros if zero else np.empty)(shape, dtype=np.float32)
            self._scratch[key] = buf
        return buf

    @property
    def nbytes(self) -> int:
        return (sum(b.nbytes for b in self._buffers.values())
                + sum(b.nbytes for b in self._scratch.values()))

    def __len__(self) -> int:
        return len(self._buffers) + len(self._scratch)


class _BuildContext:
    """Per-step facade over the arena handed to kernel builders."""

    def __init__(self, engine: "InferenceEngine"):
        self._engine = engine
        self._step = None
        self._producers = {step.output: step for step in engine.plan.steps}
        self.rebinds = False

    def _bind(self, step):
        self._step = step
        self.rebinds = False

    @property
    def max_batch(self) -> int:
        return self._engine.max_batch

    def shape(self, vid: int) -> tuple[int, ...]:
        return self._engine._capacity_shape(vid)

    def getter(self, vid: int):
        if vid in self._engine._copies:
            self.rebinds = True
        return self._engine._getter(vid)

    def producer(self, vid: int):
        """The step computing ``vid`` (None for the input and constants)."""
        return self._producers.get(vid)

    def out(self, vid: int) -> np.ndarray:
        return self._engine.arena.buffer(vid,
                                         self._engine._capacity_shape(vid))

    def alias(self, vid: int, fn, copies: bool = False) -> None:
        self._engine._aliases[vid] = fn
        if copies or self.rebinds:
            self._engine._copies.add(vid)

    def scratch(self, name: str, shape: tuple[int, ...],
                zero: bool = False) -> np.ndarray:
        return self._engine.arena.scratch(self._step.output, name, shape,
                                          zero)


def _rebound_per_run(bind, n: int):
    """``run()`` for a kernel reading a copy made on every read: binds it
    at batch size ``n`` again on every call."""
    return lambda: bind(n)()


class InferenceEngine:
    """Executable form of a plan: flat kernel program over a buffer arena."""

    def __init__(self, plan: Plan, max_batch: int | None = None):
        self.plan = plan
        self.max_batch = int(plan.example_batch if max_batch is None
                             else max_batch)
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.arena = BufferArena()
        self.optimization: OptimizationReport | None = None
        self._aliases: dict[int, callable] = {}
        self._copies: set[int] = set()        # aliases that copy when read
        self._binders: list = []              # (bind, rebinds per run)
        self._programs: dict[int, tuple] = {}   # n -> (input view, runs)
        # An int8 plan stores its weights as codes (quantize_weights);
        # the engine runs the same fp32 kernels over them.
        self.quantized = any("weight_q" in step.params
                             for step in plan.steps)

        self._input = self.arena.input(plan.input_id,
                                       self._capacity_shape(plan.input_id))
        self._sample_shape = tuple(plan.shapes[plan.input_id][1:])
        self._out_tail = tuple(plan.shapes[plan.output_id][1:])
        ctx = _BuildContext(self)
        for step in plan.steps:
            ctx._bind(step)
            bind = build_step(step, ctx)
            if bind is not None:
                self._binders.append((bind, ctx.rebinds))
        self._output = self._getter(plan.output_id)

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """Shape of one input sample (the plan's input, batch axis off)."""
        return self._sample_shape

    # -- value plumbing -------------------------------------------------

    def _capacity_shape(self, vid: int) -> tuple[int, ...]:
        if vid in self.plan.constants:
            return tuple(self.plan.shapes[vid])
        return (self.max_batch,) + tuple(self.plan.shapes[vid][1:])

    def _getter(self, vid: int):
        if vid in self.plan.constants:
            const = np.asarray(self.plan.constants[vid], dtype=np.float32)
            return lambda n: const
        alias = self._aliases.get(vid)
        if alias is not None:
            return alias
        buf = self.arena.buffer(vid, self._capacity_shape(vid))
        return lambda n: buf[:n]

    # -- execution ------------------------------------------------------

    def _bind_program(self, n: int) -> tuple:
        """The program for batch size ``n``: the input buffer's first
        ``n`` rows and one closure per kernel.

        Every value is arena memory, or a view of it, except an alias
        that copies when read (a reshape its input's memory order does
        not allow as a view); a kernel reading one is bound again on
        every run, since a kept copy would go stale.
        """
        return self._input[:n], tuple(
            _rebound_per_run(bind, n) if rebinds else bind(n)
            for bind, rebinds in self._binders)

    def _run_chunk(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        program = self._programs.get(n)
        if program is None:
            program = self._programs[n] = self._bind_program(n)
        x_in, runs = program
        np.copyto(x_in, x)
        for run in runs:
            run()
        return self._output(n)

    def run(self, x) -> np.ndarray:
        """Execute the compiled network on a batch (or single sample).

        Accepts arrays or :class:`~repro.tensor.Tensor` inputs. A sample
        missing the batch axis is promoted to a batch of one and returned
        without it. Batches larger than ``max_batch`` are chunked.
        """
        return self.run_observing(x, {})

    __call__ = run

    def run_observing(self, x, hooks: dict[int, callable]) -> np.ndarray:
        """:meth:`run`, feeding selected intermediate values to hooks.

        ``hooks`` maps value ids to callables receiving the value's array
        after each chunk (a read-only slice of the arena buffer, valid
        until the next run; an NCHW view over NHWC memory for 4-D
        values). Works because every plan value owns its own buffer —
        nothing is overwritten within a chunk, so intermediate values can
        be read without instrumenting kernels.
        """
        if isinstance(x, Tensor):
            x = x.data
        x = np.asarray(x, dtype=np.float32)
        sample_shape = self._sample_shape
        single = x.shape == sample_shape
        if single:
            x = x[None]
        elif x.shape[1:] != sample_shape:
            raise ValueError(
                f"input shape {x.shape} does not match compiled sample "
                f"shape {sample_shape} (leading batch axis excepted)")
        n = x.shape[0]
        getters = {vid: self._getter(vid) for vid in hooks}
        out = np.empty((n,) + self._out_tail, dtype=np.float32)
        for lo in range(0, n, self.max_batch):
            hi = min(lo + self.max_batch, n)
            out[lo:hi] = self._run_chunk(x[lo:hi])
            for vid, hook in hooks.items():
                hook(getters[vid](hi - lo))
        return out[0] if single else out

    def describe(self) -> str:
        lines = [f"InferenceEngine: {len(self._binders)} kernels, "
                 f"max_batch={self.max_batch}, "
                 f"arena={len(self.arena)} buffers "
                 f"({self.arena.nbytes / 1e6:.2f} MB)"]
        if self.optimization is not None:
            lines.append(f"  optimization: {self.optimization.summary()}")
        lines.append(self.plan.summary())
        return "\n".join(lines)


def compile_model(model: Module, example_input, *, optimize: bool = True,
                  max_batch: int | None = None, validate: bool = True,
                  rtol: float = 1e-4, atol: float = 1e-5,
                  quantize: str | None = None, calibrate=None
                  ) -> InferenceEngine:
    """Capture, optimize, and build a compiled engine for ``model``.

    Parameters
    ----------
    model:
        Eval-mode :class:`~repro.nn.Module` built from traceable ops.
    example_input:
        Batched example defining the frozen sample shape.
    optimize:
        Run BatchNorm folding and ReLU fusion on the captured plan.
    max_batch:
        Buffer capacity (defaults to the example batch size). Larger
        inputs are chunked at runtime.
    validate:
        Compare compiled vs eager outputs on the example input and raise
        :class:`CompileValidationError` on mismatch. Under ``quantize``
        the check runs on the float plan, before its weights become int8
        codes; the error the codes add is judged by whoever deploys the
        engine (the serving registry's top-1 agreement gate).
    quantize:
        ``None`` (float weights) or ``"int8"``: store every conv and
        linear weight as per-output-channel int8 codes plus a float32
        scale (:func:`repro.infer.optimize.quantize_weights`). The engine
        dequantizes them once when it is built and runs the fp32 kernels;
        the plan, and its ``.rplan`` artifact, keep one byte per weight.
    calibrate:
        Ignored. Int8 plans quantize weights only, so they need no
        calibration data; the parameter stays so that existing callers
        that pass it keep working.
    """
    if quantize is not None and quantize != "int8":
        raise ValueError(f"quantize must be None or 'int8', got {quantize!r}")
    plan = capture_plan(model, example_input)
    report = OptimizationReport(steps_before=len(plan.steps),
                                steps_after=len(plan.steps))
    if optimize:
        plan, report = optimize_plan(plan)

    engine = InferenceEngine(plan, max_batch=max_batch)
    if validate:
        x = (example_input.data if isinstance(example_input, Tensor)
             else np.asarray(example_input, dtype=np.float32))
        with no_grad():
            eager = model(Tensor(x)).data
        compiled = engine.run(x)
        if not np.allclose(compiled, eager, rtol=rtol, atol=atol):
            worst = float(np.max(np.abs(compiled - eager)))
            raise CompileValidationError(
                f"compiled output diverges from eager (max abs diff "
                f"{worst:.3e}, rtol={rtol}, atol={atol})")
    if quantize is not None:
        engine = InferenceEngine(quantize_weights(plan), max_batch=max_batch)
        report.notes.append("int8: conv and linear weights stored as "
                            "per-channel codes")
    engine.optimization = report
    return engine
