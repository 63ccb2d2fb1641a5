"""The benchmark's model recipe and engine-only timings.

engine-batch and serve-socket serve the same network: vgg11 at the
``repro infer-bench`` size, with realistic BatchNorm statistics, pruned
class-aware style by removing half of every prunable group's channels
with the ``_prune_model`` recipe of ``repro.infer.bench`` (called, not
copied, so the benchmark follows the recipe if it changes).
"""

from __future__ import annotations

import time

import numpy as np

from repro.flops import profile_model
from repro.infer import compile_model
from repro.infer.bench import _prune_model
from repro.models import build_model
from repro.verify.invariants import perturb_batchnorm_stats

MODEL = dict(name="vgg11", num_classes=10, image_size=16, width=0.25, seed=0)
TINY_MODEL = dict(name="vgg11", num_classes=3, image_size=8, width=0.125,
                  seed=0)
ATOL = 1e-3                 # the atol repro.infer.bench compiles with


def model_spec(tiny: bool) -> dict:
    return TINY_MODEL if tiny else MODEL


def sample_shape(spec: dict) -> tuple[int, int, int]:
    return (3, spec["image_size"], spec["image_size"])


def build(spec: dict, pruned: bool):
    """Dense or pruned eval-mode bench model (deterministic)."""
    kwargs = dict(spec)
    name = kwargs.pop("name")
    model = build_model(name, **kwargs)
    perturb_batchnorm_stats(model, seed=spec["seed"])
    if pruned:
        _prune_model(model, spec["seed"])
    model.eval()
    return model


def macs(model, spec: dict) -> int:
    return profile_model(model, sample_shape(spec)).total_macs


def flops_reduction(model, dense, spec: dict) -> float:
    """1 - MACs(model) / MACs(dense), from repro.flops.profile_model."""
    return 1.0 - macs(model, spec) / macs(dense, spec)


def median_run_ms(engines: list, x: np.ndarray, calls: int) -> list[float]:
    """Median ``engine.run(x)`` time of each engine, calls interleaved so
    host drift hits every engine alike."""
    for engine in engines:
        engine.run(x)
    samples = [[] for _ in engines]
    for _ in range(calls):
        for engine, out in zip(engines, samples):
            start = time.perf_counter()
            engine.run(x)
            out.append((time.perf_counter() - start) * 1e3)
    return [float(np.median(s)) for s in samples]


def pruned_speedups(pruned_engine, spec: dict, rng,
                    batches=(1, 32)) -> dict[int, float]:
    """Dense / pruned fp32 engine time per batch size (compiled engines)."""
    dense = build(spec, pruned=False)
    x = rng.normal(size=(max(batches),) + sample_shape(spec)).astype(
        np.float32)
    dense_engine = compile_model(dense, x, max_batch=max(batches), atol=ATOL)
    out = {}
    for batch in batches:
        calls = 200 if batch == 1 else 50
        dense_ms, pruned_ms = median_run_ms([dense_engine, pruned_engine],
                                            x[:batch], calls)
        out[batch] = dense_ms / pruned_ms
    return out
