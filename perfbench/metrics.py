"""Catalogue of the metrics the benchmark prints (mirrored in
BENCHMARK.json; the benchmark's tests keep the two in step).

End-to-end metrics: ``(name, unit, better, bound)``. Per-layer metrics:
``(name, unit, better, workloads that exercise the layer)``; a run of a
workload that does not exercise a layer prints 0 for it.
"""

END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("quality", "fraction", "higher", 0.01),
    ("flops_reduction", "fraction", "higher", 0.2),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("success_frac", "fraction", "higher", 0.01),
]

_E, _S, _P = "engine-batch", "serve-socket", "prune"
_ALL = (_E, _S, _P)

PER_LAYER = [
    ("infer.runtime.run_ms.fp32", "ms", "lower", (_E,)),
    ("qinfer.run_ms.int8", "ms", "lower", (_E,)),
    ("infer.gmacs_per_s.fp32", "GMAC/s", "higher", (_E,)),
    ("infer.gmacs_per_s.int8", "GMAC/s", "higher", (_E,)),
    ("infer.plan_steps.fp32", "count", "lower", (_E, _S)),
    ("infer.plan_steps.int8", "count", "lower", (_E,)),
    ("infer.compile_s.fp32", "s", "lower", (_E,)),
    ("qinfer.compile_s.int8", "s", "lower", (_E,)),
    ("qinfer.load_plan_s", "s", "lower", (_E,)),
    ("infer.arena_mb", "MiB", "lower", (_E,)),
    ("qinfer.artifact_bytes", "bytes", "lower", (_E,)),
    ("infer.pruned_speedup.b1", "x", "higher", (_E, _S)),
    ("infer.pruned_speedup.b32", "x", "higher", (_E,)),
    ("serve.server.latency_ms.p50", "ms", "lower", (_S,)),
    ("serve.server.latency_ms.p99", "ms", "lower", (_S,)),
    ("serve.protocol_ms.p50", "ms", "lower", (_S,)),
    ("infer.batcher.mean_batch", "count", "higher", (_S,)),
    ("infer.batcher.batches", "count", "higher", (_S,)),
    ("serve.server.cpu_ms_per_req", "ms", "lower", (_S,)),
    ("serve.loadgen.cpu_ms_per_req", "ms", "lower", (_S,)),
    ("serve.engine_share", "fraction", "higher", (_S,)),
    ("serve.stats.errors", "count", "lower", (_S,)),
    ("serve.stats.rejected", "count", "lower", (_S,)),
    ("serve.stats.fallbacks", "count", "lower", (_S,)),
    ("core.importance.ms_per_call", "ms", "lower", (_P,)),
    ("core.importance.ms_per_class", "ms", "lower", (_P,)),
    ("core.trainer.ms_per_epoch", "ms", "lower", (_P,)),
    ("core.trainer.samples_per_s", "1/s", "higher", (_P,)),
    ("core.pruner.ms_per_call", "ms", "lower", (_P,)),
    ("core.eval.ms_per_call", "ms", "lower", (_P,)),
    ("prune.iterations", "count", "higher", (_P,)),
    ("prune.channels_removed", "count", "higher", (_P,)),
    ("host.ref_ms", "ms", "lower", _ALL),
    ("host.ref_drift", "x", "lower", _ALL),
    ("host.steal_pct", "%", "lower", _ALL),
    ("trace.overhead_ms", "ms", "lower", _ALL),
    ("trace.overhead_pct", "%", "lower", _ALL),
]
