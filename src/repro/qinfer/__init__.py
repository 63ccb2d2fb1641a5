"""Native int8 quantized inference (`repro.qinfer`).

This package executes on real int8 codes inside the compiled
:mod:`repro.infer` runtime: per-channel symmetric weights, per-tensor
calibrated activations, NHWC int8 GEMM kernels with a float32-BLAS
exactness certificate, and an artifact format whose bytes reflect int8
storage. Entry point: ``compile_model(..., quantize="int8",
calibrate=loader)``.

Importing this package registers the quantized kernel builders with the
inference runtime.
"""

from . import kernels  # noqa: F401  (registers Q_BUILDERS with the runtime)
from .artifact import (ArtifactCorruptError, load_plan, plan_size_bytes,
                       save_plan)
from .calibrate import collect_scales, observation_targets
from .kernels import F32_EXACT_LIMIT, QMAX, accumulation_chunks
from .observers import (OBSERVERS, CalibrationError, MinMaxObserver,
                        Observer, PercentileObserver, make_observer)
from .reference import run_reference

__all__ = [
    "ArtifactCorruptError", "load_plan", "save_plan", "plan_size_bytes",
    "collect_scales", "observation_targets",
    "F32_EXACT_LIMIT", "QMAX", "accumulation_chunks",
    "OBSERVERS", "CalibrationError", "MinMaxObserver", "Observer",
    "PercentileObserver", "make_observer",
    "run_reference",
]
