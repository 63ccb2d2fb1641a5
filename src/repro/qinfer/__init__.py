"""Int8 deployables (`repro.qinfer`): plan artifacts and their drills.

``compile_model(..., quantize="int8")`` stores every conv and linear
weight as per-output-channel int8 codes plus a float32 scale; the engine
dequantizes them once when it is built and runs the fp32 kernels. This
package serializes such plans (:func:`save_plan` / :func:`load_plan`,
one byte per weight on disk, digest-checked) and holds the ``quant``
drills of ``python -m repro.verify``.
"""

from .artifact import (ArtifactCorruptError, load_plan, plan_size_bytes,
                       save_plan)

__all__ = ["ArtifactCorruptError", "load_plan", "save_plan",
           "plan_size_bytes"]
