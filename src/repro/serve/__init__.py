"""Async inference service over the compiled engine.

The front door of the repo: an asyncio server (JSON header lines, raw
float32 tensor bodies) that feeds an adaptively micro-batched
:class:`repro.infer.BatchRunner` per deployed model, sheds load
explicitly once its pending queue or latency budget is exceeded, exports
per-request metrics through a ``stats`` verb, and hot-swaps pruned
checkpoints mid-traffic with zero dropped requests (load → validate on
a probe batch → atomic swap → drain the old engine).

Pieces (each importable on its own):

``scheduler``   adaptive batching window: steers ``max_wait`` (and with
                it the batcher's idle gap) from the batch fill fraction
``shedding``    admission control: queue depth + p99 SLO + deadline gates
``metrics``     latency reservoirs, counters, the ``stats`` snapshot
``registry``    name@version model registry, hot-swap, degrade-to-eager
``manifest``    journaled deploy manifest + warm restart (``--resume``)
``wire``        binary tensor frames: NDJSON header + raw float32 body
``server``      the asyncio frontend (deadlines, graceful drain)
``replica``     replica worker processes: per-process registry + engine
                behind a unix socket, heartbeats, bounded respawn
``router``      health-aware dispatch across replicas: least-outstanding
                routing, liveness probes, rid-keyed failover,
                circuit breakers, rolling deploys, degrade
``client``      minimal blocking client (tests, drills, load generator)
``loadgen``     closed-loop load generator behind ``repro serve-bench``
``bench``       the BENCH_serve.json lane
``drills``      ``serve.shed`` / ``serve.swap`` / ``serve.drain`` /
                ``serve.restart`` / ``serve.frame`` /
                ``serve.replica.kill`` / ``serve.replica.hang`` /
                ``serve.replica.rolling`` fault drills for
                ``python -m repro.verify --drills serve``

Typical use::

    from repro.serve import ModelRegistry, InferenceServer, ServeConfig

    registry = ModelRegistry()
    registry.deploy("vgg16", "v1", model=model)
    server = InferenceServer(registry, ServeConfig(port=7071))
    server.run_forever()        # or: ServerThread(server) in tests

See ``docs/serving.md`` for the wire protocol, shedding policy, hot-swap
lifecycle, and the BENCH_serve.json schema.
"""

from .manifest import RestoreReport, ServeManifest, restore_registry
from .metrics import LatencyReservoir, ServerMetrics, sum_counters
from .registry import (DeployReport, ModelRegistry, ModelVersion,
                       NoSuchModelError, SwapValidationError)
from .replica import ReplicaConfig, ReplicaSet, ReplicaSpec
from .router import ReplicaRouter, ReplicasUnavailable
from .scheduler import AdaptiveWindow
from .server import InferenceServer, ServeConfig, ServerThread
from .shedding import AdmissionController, SheddingConfig

__all__ = [
    "AdaptiveWindow",
    "AdmissionController", "SheddingConfig",
    "LatencyReservoir", "ServerMetrics", "sum_counters",
    "DeployReport", "ModelRegistry", "ModelVersion", "NoSuchModelError",
    "SwapValidationError",
    "ServeManifest", "RestoreReport", "restore_registry",
    "ReplicaConfig", "ReplicaSet", "ReplicaSpec",
    "ReplicaRouter", "ReplicasUnavailable",
    "InferenceServer", "ServeConfig", "ServerThread",
]
