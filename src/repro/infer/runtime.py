"""Compiled inference runtime: preallocated buffers + a flat program.

The engine turns a (typically optimized) :class:`~repro.infer.plan.Plan`
into a list of kernel closures bound to a buffer arena. Every value in the
plan owns at most one buffer, allocated once at ``(max_batch, *tail)``
capacity; running a batch of ``n <= max_batch`` samples slices the leading
axis and performs no large allocations. Batches larger than the capacity
are processed in chunks transparently.

Entry point: :func:`compile_model`, which captures, optimizes, builds, and
(by default) validates the compiled engine against the eager model on the
example input before returning it.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module
from ..tensor import Tensor, no_grad
from .kernels import alloc_value, build_step
from .optimize import OptimizationReport, optimize_plan
from .plan import Plan, capture_plan

__all__ = ["BufferArena", "InferenceEngine", "CompileValidationError",
           "compile_model"]


class CompileValidationError(RuntimeError):
    """Compiled outputs diverged from eager outputs on the example input."""


class BufferArena:
    """Owns every preallocated array of one engine, keyed by value id.

    Buffers default to float32; quantized plans allocate int8 activation
    buffers and float64 accumulator scratch by passing ``dtype``. The
    first allocation of a value id fixes its dtype (the producing step
    allocates before any consumer looks it up). Value buffers follow
    :func:`~repro.infer.kernels.alloc_value`: 4-D float values are NHWC
    memory behind an NCHW view.
    """

    def __init__(self):
        self._buffers: dict[int, np.ndarray] = {}
        self._scratch: dict[tuple[int, str], np.ndarray] = {}

    def buffer(self, vid: int, shape: tuple[int, ...],
               dtype=np.float32) -> np.ndarray:
        buf = self._buffers.get(vid)
        if buf is None:
            buf = alloc_value(shape, dtype)
            self._buffers[vid] = buf
        return buf

    def scratch(self, owner: int, name: str, shape: tuple[int, ...],
                zero: bool = False, dtype=np.float32) -> np.ndarray:
        key = (owner, name)
        buf = self._scratch.get(key)
        if buf is None:
            buf = (np.zeros if zero else np.empty)(shape, dtype=dtype)
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

    def _bind(self, step):
        self._step = step

    @property
    def max_batch(self) -> int:
        return self._engine.max_batch

    def shape(self, vid: int) -> tuple[int, ...]:
        return self._engine._capacity_shape(vid)

    def getter(self, vid: int):
        return self._engine._getter(vid)

    def producer(self, vid: int):
        """The step computing ``vid`` (None for the input and constants)."""
        return self._producers.get(vid)

    def out(self, vid: int) -> np.ndarray:
        dtype = self._step.params.get("out_dtype", "float32")
        return self._engine.arena.buffer(
            vid, self._engine._capacity_shape(vid), dtype=np.dtype(dtype))

    def alias(self, vid: int, fn) -> None:
        self._engine._aliases[vid] = fn

    def scratch(self, name: str, shape: tuple[int, ...],
                zero: bool = False, dtype=np.float32) -> np.ndarray:
        return self._engine.arena.scratch(self._step.output, name, shape,
                                          zero, dtype=dtype)


# Ops lowered by repro.qinfer.kernels; importing that module registers
# them. Lazy so the float path never pays for (or depends on) qinfer.
_QUANT_OPS = frozenset({
    "quantize", "dequantize", "qconv2d", "qlinear", "qmax_pool2d",
    "qrelu", "qadd", "qadd_relu", "qglobal_avg_pool",
})


def _ensure_quant_kernels(plan: Plan) -> bool:
    if any(step.op in _QUANT_OPS for step in plan.steps):
        from ..qinfer import kernels  # noqa: F401  registers Q_BUILDERS
        return True
    return False


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
        self._program: list = []
        self.quantized = _ensure_quant_kernels(plan)

        # The plan input is the caller's (NCHW) batch itself, read in
        # place; a zero batch stands in for it while the kernels build.
        # A one-slot list, not an attribute: a getter closing over the
        # engine would make a reference cycle that outlives the engine.
        self._x = [np.zeros(self._capacity_shape(plan.input_id), np.float32)]
        ctx = _BuildContext(self)
        for step in plan.steps:
            ctx._bind(step)
            run = self._build(step, ctx)
            if run is not None:
                self._program.append(run)
        self._output = self._getter(plan.output_id)

    def _build(self, step, ctx):
        return build_step(step, ctx)

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """Shape of one input sample (the plan's input, batch axis off)."""
        return tuple(self.plan.shapes[self.plan.input_id][1:])

    # -- value plumbing -------------------------------------------------

    def _capacity_shape(self, vid: int) -> tuple[int, ...]:
        if vid in self.plan.constants:
            return tuple(self.plan.shapes[vid])
        return (self.max_batch,) + tuple(self.plan.shapes[vid][1:])

    def _getter(self, vid: int):
        if vid in self.plan.constants:
            const = np.asarray(self.plan.constants[vid], dtype=np.float32)
            return lambda n: const
        if vid == self.plan.input_id:
            slot = self._x
            return lambda n: slot[0][:n]
        alias = self._aliases.get(vid)
        if alias is not None:
            return alias
        buf = self.arena.buffer(vid, self._capacity_shape(vid))
        return lambda n: buf[:n]

    # -- execution ------------------------------------------------------

    def _run_chunk(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        self._x[0] = x
        for run in self._program:
            run(n)
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
        nothing is overwritten within a chunk. Used by calibration to
        observe activation ranges without instrumenting kernels.
        """
        if isinstance(x, Tensor):
            x = x.data
        x = np.asarray(x, dtype=np.float32)
        sample_shape = self.sample_shape
        single = x.shape == sample_shape
        if single:
            x = x[None]
        if x.shape[1:] != sample_shape:
            raise ValueError(
                f"input shape {x.shape} does not match compiled sample "
                f"shape {sample_shape} (leading batch axis excepted)")
        getters = {vid: self._getter(vid) for vid in hooks}
        n = x.shape[0]
        out_tail = tuple(self.plan.shapes[self.plan.output_id][1:])
        out = np.empty((n,) + out_tail, dtype=np.float32)
        for lo in range(0, n, self.max_batch):
            hi = min(lo + self.max_batch, n)
            out[lo:hi] = self._run_chunk(x[lo:hi])
            for vid, hook in hooks.items():
                hook(getters[vid](hi - lo))
        return out[0] if single else out

    def describe(self) -> str:
        lines = [f"InferenceEngine: {len(self._program)} kernels, "
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
                  quantize: str | None = None,
                  calibrate=None, observer="percentile",
                  max_calibration_batches: int | None = None
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
        :class:`CompileValidationError` on mismatch. For quantized
        engines the check is different — and stricter: the engine must
        match the exact-arithmetic reference interpreter
        (:func:`repro.qinfer.reference.run_reference`) *bitwise*, since
        quantization error makes a float tolerance meaningless while the
        kernels' exactness certificate makes bit equality achievable.
    quantize:
        ``None`` (float engine) or ``"int8"`` — rewrite the optimized
        plan through :func:`repro.infer.optimize.quantize_plan` using
        activation scales calibrated from ``calibrate``.
    calibrate:
        Calibration loader (iterable of batches or ``(batch, label)``
        pairs); required when ``quantize`` is set.
    observer:
        Activation-range observer for calibration — ``"minmax"``,
        ``"percentile"``, an :class:`~repro.qinfer.observers.Observer`
        subclass, or an instance (see
        :func:`~repro.qinfer.observers.make_observer`).
    max_calibration_batches:
        Cap on calibration batches drawn from the loader (``None`` uses
        it all).
    """
    if quantize is not None and quantize != "int8":
        raise ValueError(f"quantize must be None or 'int8', got {quantize!r}")
    if quantize is not None and calibrate is None:
        raise ValueError("quantize='int8' requires a calibration loader "
                         "(calibrate=...)")
    if quantize is not None and not optimize:
        raise ValueError("quantize='int8' requires optimize=True "
                         "(BatchNorm must be folded before quantization)")
    plan = capture_plan(model, example_input)
    report = OptimizationReport(steps_before=len(plan.steps),
                                steps_after=len(plan.steps))
    if optimize:
        plan, report = optimize_plan(plan)

    if quantize is not None:
        from ..qinfer.calibrate import collect_scales
        from .optimize import quantize_plan
        scales = collect_scales(plan, calibrate, observer=observer,
                                max_batches=max_calibration_batches)
        plan, qreport = quantize_plan(plan, scales)
        report.steps_after = len(plan.steps)
        report.notes.append(qreport.summary())

    engine = InferenceEngine(plan, max_batch=max_batch)
    engine.optimization = report

    if validate:
        x = (example_input.data if isinstance(example_input, Tensor)
             else np.asarray(example_input, dtype=np.float32))
        if quantize is not None:
            from ..qinfer.reference import run_reference
            compiled = engine.run(x)
            reference = run_reference(plan, x)
            if compiled.dtype != reference.dtype or not np.array_equal(
                    compiled, reference):
                worst = float(np.max(np.abs(
                    compiled.astype(np.float64)
                    - reference.astype(np.float64))))
                raise CompileValidationError(
                    f"quantized engine diverges from the exact reference "
                    f"interpreter (max abs diff {worst:.3e}; bitwise "
                    f"equality is required by the exactness certificate)")
            return engine
        with no_grad():
            eager = model(Tensor(x)).data
        compiled = engine.run(x)
        if not np.allclose(compiled, eager, rtol=rtol, atol=atol):
            worst = float(np.max(np.abs(compiled - eager)))
            raise CompileValidationError(
                f"compiled output diverges from eager (max abs diff "
                f"{worst:.3e}, rtol={rtol}, atol={atol})")
    return engine
