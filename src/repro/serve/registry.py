"""Model registry: ``name@version`` routing, hot-swap, degrade-to-eager.

One registry holds every model a server instance exposes. Each *name* is
a serving line with exactly one **active** version; a request addresses
``"name"`` (whatever is active) or pins ``"name@version"`` (rejected once
that version is retired — the client is told, not silently rerouted).

**Hot-swap lifecycle** (``deploy`` on an existing name):

1. *load* — the replacement model arrives in-process (object or
   checkpoint path; checkpoints go through the checksummed
   :func:`repro.io.load_model`);
2. *validate* — the model is compiled and its compiled outputs are
   checked against its own eager forward on a probe batch
   (:func:`repro.infer.compile_model` with ``validate=True``); any
   divergence raises :class:`SwapValidationError` and the old version
   keeps serving, untouched;
3. *swap* — the line's active pointer moves to the new
   :class:`ModelVersion` under the line lock (new submissions route to
   the new engine from that instant);
4. *drain* — the old version's :class:`~repro.infer.BatchRunner` is
   closed, which processes everything already queued before releasing
   the thread, so every request admitted to the old engine still gets
   its answer. Zero requests are dropped by a swap.

**Degrade semantics** (the PR 5 supervisor story, in-process): engine
faults never take a request down with them. A ticket that fails with an
engine error is retried on the *eager* model, serially, under the line's
fallback lock (``fallbacks`` counted); once the batch worker has been
restarted or fallen back more times than the budgets allow, the line is
marked ``degraded`` and all later traffic goes straight to the serial
eager path — slower, bounded by admission control, but correct. Shedding
(rejecting) and serialising are the two degraded modes; dropping is not.
"""

from __future__ import annotations

import threading

import numpy as np

from ..clock import SYSTEM_CLOCK, Clock
from ..infer import BatchRunner, CompileValidationError, compile_model
from ..tensor import Tensor, inference_mode
from .scheduler import AdaptiveWindow
from .shedding import AdmissionController, SheddingConfig

__all__ = ["ModelVersion", "DeployReport", "ModelRegistry",
           "NoSuchModelError", "SwapValidationError"]


class NoSuchModelError(KeyError):
    """The requested name (or pinned name@version) is not being served."""


class SwapValidationError(RuntimeError):
    """A candidate model failed probe validation; the old version stays."""


class ModelVersion:
    """One validated, compiled, batch-served incarnation of a model."""

    def __init__(self, name: str, version: str, model, engine,
                 runner: BatchRunner, window: AdaptiveWindow,
                 probe_max_abs_diff: float):
        self.name = name
        self.version = version
        self.model = model
        self.engine = engine
        self.runner = runner
        self.window = window
        self.probe_max_abs_diff = probe_max_abs_diff

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"

    def snapshot(self) -> dict:
        return {
            "ref": self.ref,
            "probe_max_abs_diff": self.probe_max_abs_diff,
            "batcher": dict(self.runner.stats),
            "window": self.window.snapshot(),
            "max_batch": self.engine.max_batch,
            "quantized": bool(getattr(self.engine, "quantized", False)),
        }


class _Line:
    """Per-name serving state that survives version swaps."""

    def __init__(self, admission: AdmissionController):
        self.current: ModelVersion | None = None
        self.admission = admission
        self.lock = threading.Lock()        # guards the active pointer
        self.eager_lock = threading.Lock()  # serialises fallback forwards
        self.degraded = False
        self.fallbacks = 0
        self.retired: list[str] = []


class DeployReport:
    """What ``deploy`` did: fresh line or validated hot-swap."""

    def __init__(self, name: str, version: str, swapped_from: str | None,
                 probe_max_abs_diff: float, drained_samples: int,
                 quantized: bool = False,
                 top1_agreement: float | None = None,
                 artifact: str | None = None):
        self.name = name
        self.version = version
        self.swapped_from = swapped_from
        self.probe_max_abs_diff = probe_max_abs_diff
        self.drained_samples = drained_samples
        self.quantized = quantized
        self.top1_agreement = top1_agreement
        self.artifact = artifact

    def as_dict(self) -> dict:
        return {"name": self.name, "version": self.version,
                "swapped_from": self.swapped_from,
                "probe_max_abs_diff": self.probe_max_abs_diff,
                "drained_samples": self.drained_samples,
                "quantized": self.quantized,
                "top1_agreement": self.top1_agreement,
                "artifact": self.artifact}


class ModelRegistry:
    """All serving lines of one server; deploys, routes, swaps, degrades."""

    def __init__(self, *, max_batch: int = 32,
                 shedding: SheddingConfig | None = None,
                 clock: Clock = SYSTEM_CLOCK,
                 max_worker_restarts: int = 3,
                 max_fallbacks: int = 8,
                 on_batch=None,
                 manifest_dir=None,
                 metrics=None):
        self.max_batch = int(max_batch)
        self.shedding_config = shedding or SheddingConfig()
        self.clock = clock
        self.max_worker_restarts = int(max_worker_restarts)
        self.max_fallbacks = int(max_fallbacks)
        self.on_batch = on_batch    # callable(name, version, batch, outputs)
        self.metrics = metrics      # ServerMetrics, set by the server
        self._lines: dict[str, _Line] = {}
        self._registry_lock = threading.Lock()
        self.manifest = None
        if manifest_dir is not None:
            from .manifest import ServeManifest
            self.manifest = ServeManifest(manifest_dir)

    # -- deployment -----------------------------------------------------

    def deploy(self, name: str, version: str, *, model=None,
               checkpoint=None, artifact=None, probe=None, input_shape=None,
               probe_batch: int = 4, seed: int = 0,
               validate: bool = True, record: bool = True,
               quantize: str | None = None,
               min_top1_agreement: float = 0.9) -> DeployReport:
        """Load → validate → swap → drain. Raises before touching traffic.

        Exactly one of ``model`` / ``checkpoint`` / ``artifact`` supplies
        the network. ``probe`` (a batched example input) anchors
        compilation and validation; without it one is generated from
        ``input_shape`` (or the checkpoint's recorded architecture, or the
        artifact's input shape) with ``seed``.

        **Quantized deploys** — ``quantize="int8"`` compiles an engine
        whose conv and linear weights are int8 codes
        (:func:`repro.infer.compile_model`); ``artifact=`` deploys a
        serialized plan (:func:`repro.qinfer.load_plan`) directly. Both
        pass the accuracy gate: the engine's probe-batch top-1
        predictions must agree with the float reference (the eager model,
        or the line's currently active engine for artifact deploys) on at
        least ``min_top1_agreement`` of samples — a regression raises
        :class:`SwapValidationError` and the old version keeps serving. A
        corrupted artifact, or one written in an older format version, is
        rejected the same way. Artifact deploys
        have no eager model, so the degrade-to-eager fallback path is
        unavailable for them (:meth:`eager_infer` raises).

        With a ``manifest_dir`` configured, every successful deploy is
        journaled (``record=False`` suppresses this — used when a warm
        restart replays the manifest) so ``repro serve --resume`` can
        rebuild the registry after a process death; in-memory ``model=``
        deploys are snapshotted into the manifest's checkpoint directory
        (quantized ones as plan artifacts) to make them restorable too.
        """
        if sum(x is not None for x in (model, checkpoint, artifact)) != 1:
            raise ValueError(
                "pass exactly one of model=, checkpoint=, or artifact=")
        if artifact is not None and quantize is not None:
            raise ValueError(
                "artifact deploys are already compiled; quantize= only "
                "applies to model=/checkpoint= deploys")
        top1 = None
        if artifact is not None:
            engine, probe, top1 = self._load_artifact(
                name, version, artifact, probe, probe_batch, seed,
                validate, min_top1_agreement)
            probe_diff = 0.0
        else:
            if checkpoint is not None:
                from ..io import load_model
                model = load_model(checkpoint)
            model.eval()
            probe = self._probe_batch(model, probe, input_shape,
                                      probe_batch, seed)
            try:
                engine = compile_model(model, probe,
                                       max_batch=self.max_batch,
                                       validate=validate,
                                       quantize=quantize)
            except CompileValidationError as exc:
                raise SwapValidationError(
                    f"{name}@{version} failed probe validation: "
                    f"{exc}") from exc
            probe_diff = self._probe_diff(model, engine, probe)
            if quantize is not None and validate:
                top1 = self._top1_agreement(
                    self._eager_probe(model, probe), engine.run(probe))
                if top1 < min_top1_agreement:
                    raise SwapValidationError(
                        f"{name}@{version} quantized accuracy gate failed: "
                        f"top-1 agreement {top1:.3f} < "
                        f"{min_top1_agreement:.3f} on the probe batch")

        window = AdaptiveWindow(max_batch=self.max_batch)
        incoming = ModelVersion(name, version, model, engine, runner=None,
                                window=window, probe_max_abs_diff=probe_diff)
        incoming.runner = BatchRunner(
            engine, max_batch=self.max_batch, max_wait=window.current(),
            clock=self.clock,
            on_batch=lambda batch, outputs, v=incoming:
                self._observe_batch(v, batch, outputs),
            on_observer_error=self._note_observer_fault)

        with self._registry_lock:
            line = self._lines.get(name)
            if line is None:
                line = self._lines[name] = _Line(
                    AdmissionController(self.shedding_config))
        with line.lock:
            outgoing, line.current = line.current, incoming
            if outgoing is not None:
                line.retired.append(outgoing.version)
            # A healthy replacement clears a degraded line: the whole
            # point of shipping a fixed checkpoint is to re-enter the
            # batched fast path.
            line.degraded = False
            line.fallbacks = 0
        drained = 0
        if outgoing is not None:
            outgoing.runner.close()     # processes everything already queued
            drained = outgoing.runner.stats["samples"]
        if self.manifest is not None and record:
            if artifact is not None:
                self.manifest.record_deploy(name, version, None,
                                            artifact=artifact)
            elif quantize is not None:
                # Snapshot the compiled plan, not the float weights: a
                # warm restart restores the int8 engine from its codes,
                # without a recompile.
                from ..qinfer.artifact import save_plan
                snapshot = self.manifest.artifact_path(name, version)
                save_plan(engine.plan, snapshot)
                self.manifest.record_deploy(name, version, None,
                                            artifact=snapshot)
            else:
                self._journal_deploy(name, version, model, checkpoint)
        return DeployReport(name, version,
                            outgoing.version if outgoing else None,
                            probe_diff, drained,
                            quantized=bool(engine.quantized),
                            top1_agreement=top1,
                            artifact=None if artifact is None
                            else str(artifact))

    def _load_artifact(self, name, version, artifact, probe, probe_batch,
                       seed, validate, min_top1_agreement):
        """Artifact half of the deploy gate: load, verify, accuracy-check."""
        from ..infer.runtime import InferenceEngine
        from ..qinfer.artifact import ArtifactCorruptError, load_plan
        try:
            plan = load_plan(artifact)
            engine = InferenceEngine(plan, max_batch=self.max_batch)
        except (ArtifactCorruptError, NotImplementedError,
                ValueError) as exc:
            raise SwapValidationError(
                f"{name}@{version} artifact rejected: {exc}") from exc
        if probe is None:
            rng = np.random.default_rng(seed)
            sample = tuple(plan.shapes[plan.input_id][1:])
            probe = rng.normal(size=(probe_batch, *sample)).astype(np.float32)
        else:
            probe = np.asarray(probe, dtype=np.float32)
        top1 = None
        if validate:
            out = engine.run(probe)
            if not np.all(np.isfinite(out)):
                raise SwapValidationError(
                    f"{name}@{version} artifact produced non-finite "
                    "outputs on the probe batch")
            line = self._lines.get(name)
            active = line.current if line is not None else None
            if active is not None:
                top1 = self._top1_agreement(active.engine.run(probe), out)
                if top1 < min_top1_agreement:
                    raise SwapValidationError(
                        f"{name}@{version} artifact accuracy gate failed "
                        f"vs active {active.ref}: top-1 agreement "
                        f"{top1:.3f} < {min_top1_agreement:.3f}")
        return engine, probe, top1

    @staticmethod
    def _eager_probe(model, probe) -> np.ndarray:
        with inference_mode():
            return model(Tensor(probe)).data

    @staticmethod
    def _top1_agreement(reference: np.ndarray, candidate: np.ndarray
                        ) -> float:
        return float(np.mean(reference.argmax(axis=-1)
                             == candidate.argmax(axis=-1)))

    def _journal_deploy(self, name, version, model, checkpoint) -> None:
        """Make this deploy warm-restartable: snapshot if needed, journal."""
        if checkpoint is None:
            from ..io import save_model
            try:
                checkpoint = self.manifest.snapshot_path(name, version)
                save_model(model, checkpoint)
            except ValueError:
                # No architecture recipe — the model cannot be rebuilt
                # from weights. Journal the deploy anyway (the restore
                # report names it) rather than hiding it.
                checkpoint = None
        self.manifest.record_deploy(name, version, checkpoint)

    def _probe_batch(self, model, probe, input_shape, probe_batch, seed):
        if probe is not None:
            return np.asarray(probe, dtype=np.float32)
        if input_shape is None:
            arch = getattr(model, "arch", None) or {}
            size = arch.get("image_size")
            if size is None:
                raise ValueError("deploy needs probe=, input_shape=, or a "
                                 "checkpoint that records image_size")
            input_shape = (arch.get("in_channels", 3), size, size)
        rng = np.random.default_rng(seed)
        return rng.normal(size=(probe_batch, *input_shape)).astype(np.float32)

    def _probe_diff(self, model, engine, probe) -> float:
        with inference_mode():
            eager = model(Tensor(probe)).data
        return float(np.max(np.abs(engine.run(probe) - eager)))

    def _observe_batch(self, version: ModelVersion, batch, outputs) -> None:
        version.runner.max_wait = version.window.observe_batch(len(batch))
        if self.on_batch is not None:
            self.on_batch(version.name, version.version, batch, outputs)

    def _note_observer_fault(self, exc: BaseException) -> None:
        """A batch observer raised; the runner contained it — count it."""
        if self.metrics is not None:
            self.metrics.incr("observer_faults")

    # -- routing --------------------------------------------------------

    def resolve(self, ref: str) -> tuple[_Line, ModelVersion]:
        name, _, pinned = ref.partition("@")
        line = self._lines.get(name)
        if line is None or line.current is None:
            raise NoSuchModelError(f"no model {name!r} is being served")
        version = line.current
        if pinned and version.version != pinned:
            raise NoSuchModelError(
                f"{name}@{pinned} is not active "
                f"(active: {version.ref})")
        return line, version

    def models(self) -> dict[str, dict]:
        out = {}
        for name, line in self._lines.items():
            if line.current is None:
                continue
            out[name] = {
                "active": line.current.ref,
                "degraded": line.degraded,
                "fallbacks": line.fallbacks,
                "retired": list(line.retired),
                **line.current.snapshot(),
                "admission": line.admission.snapshot(),
            }
        return out

    # -- inference ------------------------------------------------------

    def submit(self, ref: str):
        """Admission-checked routing: ``(line, version)`` for one request.

        The caller owns the ticket lifecycle; admission has already been
        charged, so the caller must hand every outcome (including its own
        failures) back to ``line.admission.on_complete``.
        """
        return self.resolve(ref)

    def eager_infer(self, line: _Line, version: ModelVersion,
                    sample: np.ndarray) -> np.ndarray:
        """Serial eager forward — the degraded/fallback path."""
        if version.model is None:
            raise RuntimeError(
                f"{version.ref} was deployed from an artifact and has no "
                "eager model; the degrade-to-eager fallback is unavailable")
        with line.eager_lock:
            with inference_mode():
                out = version.model(Tensor(sample[None])).data[0]
        return np.array(out, copy=True)

    def note_fallback(self, line: _Line, version: ModelVersion) -> None:
        """Record one batched-path fault; maybe degrade the line."""
        line.fallbacks += 1
        if (line.fallbacks >= self.max_fallbacks
                or version.runner.stats["restarts"]
                >= self.max_worker_restarts):
            line.degraded = True

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        for line in self._lines.values():
            with line.lock:
                version, line.current = line.current, None
            if version is not None:
                version.runner.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
