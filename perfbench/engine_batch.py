"""engine-batch: offline batch-32 inference of the pruned vgg11.

One op runs one batch of 32 images through the compiled fp32 engine and
then through the int8 engine that was saved to, and loaded back from, its
``.rplan`` artifact. Pairing the two keeps their strict alternation and
gives every op the same work: a stream of single-engine ops would mix two
latency modes, whose median falls in the gap between them and jumps
between runs.

Correctness: both outputs of every op must be bitwise equal to the
reference computed at set-up for the same engine and the same batch
(both engines are bitwise repeatable at a fixed batch size).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.infer import InferenceEngine, compile_model
from repro.qinfer import load_plan, save_plan

import harness
import models

BATCH = 32
INPUT_BATCHES = 8
CALIBRATION_BATCHES = 3
BLOCK_S = 0.5


class Setup:
    """Everything built before the first timed op."""

    def __init__(self, ctx: harness.Context):
        spec = models.model_spec(ctx.tiny)
        shape = models.sample_shape(spec)
        rng = np.random.default_rng(ctx.seed)
        self.spec = spec
        self.inputs = [rng.normal(size=(BATCH,) + shape).astype(np.float32)
                       for _ in range(INPUT_BATCHES)]
        calibration = [rng.normal(size=(BATCH,) + shape).astype(np.float32)
                       for _ in range(CALIBRATION_BATCHES)]

        self.model = models.build(spec, pruned=True)
        start = time.perf_counter()
        self.fp32 = compile_model(self.model, self.inputs[0],
                                  max_batch=BATCH, atol=models.ATOL)
        self.compile_fp32_s = time.perf_counter() - start

        start = time.perf_counter()
        int8 = compile_model(self.model, self.inputs[0], max_batch=BATCH,
                             quantize="int8", calibrate=calibration)
        self.compile_int8_s = time.perf_counter() - start

        self.artifact = ctx.run_dir / "engine-batch.rplan"
        save_plan(int8.plan, self.artifact)
        self.artifact_bytes = os.path.getsize(self.artifact)
        start = time.perf_counter()
        plan = load_plan(self.artifact)
        self.load_plan_s = time.perf_counter() - start
        self.int8 = InferenceEngine(plan, max_batch=BATCH)

        self.ref_fp32 = [self.fp32.run(x) for x in self.inputs]
        self.ref_int8 = [self.int8.run(x) for x in self.inputs]
        self.failures = []
        if not all(np.array_equal(int8.run(x), ref)
                   for x, ref in zip(self.inputs, self.ref_int8)):
            self.failures.append("int8 engine loaded from its .rplan "
                                 "differs from the compiled one")


def run(ctx: harness.Context) -> harness.Outcome:
    setup, setup_times = harness.timed_setups(lambda _: Setup(ctx))
    tracer = harness.Tracer()
    tracer.wrap(InferenceEngine, "run", "infer.run",
                annotate=lambda args, kw, out: {
                    "engine": "int8" if args[0].quantized else "fp32"})

    log = harness.OpLog(items_per_op=BATCH)
    untraced, traced = [], []
    blocks = harness.Blocks(tracer, ctx.trace,
                            min(BLOCK_S, ctx.seconds / 10))
    log.start()
    deadline = log.window_start + ctx.seconds
    i = 0
    try:
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            in_trace = blocks.update(now)
            b = i % INPUT_BATCHES
            x = setup.inputs[b]
            start = time.perf_counter()
            y32 = setup.fp32.run(x)
            y8 = setup.int8.run(x)
            end = time.perf_counter()
            if harness.planted(ctx, i):
                y8 = y8.copy()
                y8.flat[0] += 1.0
            ok = (np.array_equal(y32, setup.ref_fp32[b])
                  and np.array_equal(y8, setup.ref_int8[b]))
            latency = (end - start) * 1e3
            log.record(end, latency, ok, reason="output differs from "
                                                "reference")
            (traced if in_trace else untraced).append(latency)
            i += 1
    finally:
        blocks.close()

    dense = models.build(setup.spec, pruned=False)
    outcome = harness.Outcome(
        oplog=log, throughput_label="images/s", setup_times=setup_times,
        flops_reduction=models.flops_reduction(setup.model, dense,
                                               setup.spec),
        peak_rss_mb=harness.peak_rss_mb(),
        setup_failures=setup.failures,
        untraced_ms=untraced, traced_ms=traced)
    if ctx.trace:
        outcome.per_layer = layer_metrics(setup, tracer, ctx)
    return outcome


def layer_metrics(setup: Setup, tracer: harness.Tracer,
                  ctx: harness.Context) -> dict:
    fp32_ms = harness.median_or_zero(tracer.durations_ms("infer.run",
                                                         engine="fp32"))
    int8_ms = harness.median_or_zero(tracer.durations_ms("infer.run",
                                                         engine="int8"))
    work = models.macs(setup.model, setup.spec) * BATCH
    speedup = models.pruned_speedups(setup.fp32, setup.spec,
                                     np.random.default_rng(ctx.seed + 1))
    return {
        "infer.runtime.run_ms.fp32": fp32_ms,
        "qinfer.run_ms.int8": int8_ms,
        "infer.gmacs_per_s.fp32": work / (fp32_ms / 1e3) / 1e9,
        "infer.gmacs_per_s.int8": work / (int8_ms / 1e3) / 1e9,
        "infer.plan_steps.fp32": len(setup.fp32.plan),
        "infer.plan_steps.int8": len(setup.int8.plan),
        "infer.compile_s.fp32": setup.compile_fp32_s,
        "qinfer.compile_s.int8": setup.compile_int8_s,
        "qinfer.load_plan_s": setup.load_plan_s,
        "infer.arena_mb": setup.fp32.arena.nbytes / 2 ** 20,
        "qinfer.artifact_bytes": setup.artifact_bytes,
        "infer.pruned_speedup.b1": speedup[1],
        "infer.pruned_speedup.b32": speedup[32],
    }
