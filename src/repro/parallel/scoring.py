"""Class-parallel importance scoring (the Eq. 5–7 pipeline, sharded).

This module fans the class evaluations of
:meth:`ImportanceEvaluator.evaluate` across a persistent
:class:`~repro.parallel.WorkerPool` and gathers the per-class score
columns into the same :class:`~repro.core.importance.ImportanceReport`,
**bit-identical** to the serial result under a fixed seed. Parent and
workers run the serial path's own code, so the bit-identity is
structural rather than lucky:

1. The parent draws the images with
   :func:`~repro.core.importance.sample_class_images`, exactly as the
   serial path does, and ships them to the workers through shared memory.
2. Each worker scores its classes with
   :func:`~repro.core.importance.score_classes`, the serial path's chunk
   loop. Per-class score columns never interact: each is written into its
   own slot of the ``(F, num_classes)`` matrix, so neither the worker
   count nor the task schedule can reorder any floating-point reduction.

The algebraic speedups — fused class chunks, the rooted weight-grad-free
backward of :class:`~repro.core.taylor.FusedTaylorScorer` and counting
aggregation — belong to that shared code and apply to the serial path
too; the pool adds only multi-core scaling on top.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["ScoringService", "ScoringSession"]


class ScoringService:
    """Worker-side service: score class shards against shared weights.

    Construction happens once per worker process: the model is rebuilt
    from its architecture recipe, shrunk to the checkpointed shapes when
    the parent model has been pruned, and its parameters/buffers are
    *bound* to the shared-memory views — a parent-side
    :meth:`ScoringSession.refresh` is instantly visible here.
    """

    def __init__(self, arch: dict, weight_spec, input_shape, group_paths,
                 config_dict: dict, scores_spec=None):
        from ..core.importance import ImportanceConfig, scoring_engine
        from ..models import build_model
        from .shm import SharedArrayBundle

        self.config = ImportanceConfig(**config_dict)
        self.group_paths = list(group_paths)
        self.input_shape = tuple(input_shape)
        # Output matrices (F, num_classes) live in shared memory too:
        # workers write disjoint columns in place, so per-class score
        # vectors never travel through the (pickling) result queue.
        self._out = (SharedArrayBundle.attach(scores_spec)
                     if scores_spec is not None else None)

        arch = dict(arch)
        model = build_model(arch.pop("name"), **arch)
        self._bundle = SharedArrayBundle.attach(weight_spec)
        state = self._bundle.arrays
        try:
            _bind_state_views(model, state)
        except ValueError:
            # Parent model was pruned: shrink the fresh build to match.
            from ..io.checkpoint import conform_to_state
            conform_to_state(model, dict(state), self.input_shape)
            _bind_state_views(model, state)
        model.eval()
        self._engine = scoring_engine(model, self.group_paths, self.config,
                                      self.input_shape)

    def close(self) -> None:
        """Drop this process's shared-memory mappings (parent-side use)."""
        self._bundle.close()
        if self._out is not None:
            self._out.close()

    # ------------------------------------------------------------------
    def handle(self, task: dict) -> list:
        """Score the task's ``(class, start, stop)`` entries.

        Score columns are written straight into the shared output
        matrices; only the list of completed class indices returns
        through the queue. (Without an output bundle — direct use in
        tests — each pass's blocks come back instead, as
        ``[(class_indices, {path: (K, F) rows}), ...]``.)
        """
        from ..core.importance import score_classes
        from .shm import SharedArrayBundle
        bundle = SharedArrayBundle.attach(task["images"])
        try:
            passes = score_classes(self._engine, bundle.arrays["images"],
                                   task["entries"], self.config)
            if self._out is None:
                return list(passes)
            done = []
            for classes, blocks in passes:
                for path, rows in blocks.items():
                    self._out.arrays[path][:, classes] = rows.T
                done.extend(classes)
            return done
        finally:
            bundle.close()


def _group_width(model, path: str) -> int:
    """Number of prunable units (filters/neurons) of a monitored layer."""
    module = model.get_module(path)
    for attr in ("out_channels", "out_features", "num_features"):
        width = getattr(module, attr, None)
        if width is not None:
            return int(width)
    raise ValueError(f"cannot determine the filter count of {path!r} "
                     f"({type(module).__name__})")


def _bind_state_views(model, state: dict[str, np.ndarray]) -> None:
    """Point every parameter/buffer of ``model`` at the shared views."""

    def bind(module, prefix: str) -> None:
        for name, param in module._parameters.items():
            view = state[f"{prefix}{name}"]
            if view.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {prefix}{name}: shared "
                    f"{view.shape} vs model {param.data.shape}")
            param.data = view
        for name in module._buffers:
            view = state[f"{prefix}{name}"]
            if view.shape != getattr(module, name).shape:
                raise ValueError(
                    f"shape mismatch for buffer {prefix}{name}")
            object.__setattr__(module, name, view)
        for name, sub in module._modules.items():
            bind(sub, f"{prefix}{name}.")

    bind(model, "")


class ScoringSession:
    """Parent-side handle: weights in shared memory + a persistent pool.

    Created lazily by :class:`~repro.core.importance.ImportanceEvaluator`
    and reused across ``evaluate`` calls while the model's shapes are
    unchanged; the weights cross the process boundary once and are
    refreshed in place per evaluation.
    """

    def __init__(self, model, dataset, num_classes: int, config,
                 group_paths: list[str], workers: int,
                 processes: int | None = None, supervision=None,
                 on_event=None):
        from .pool import resolve_processes
        from .shm import SharedArrayBundle
        from .supervisor import SupervisedWorkerPool

        arch = getattr(model, "arch", None)
        if not isinstance(arch, dict) or "name" not in arch:
            raise ValueError(
                "parallel importance scoring rebuilds the model inside "
                "each worker and needs an architecture recipe: build the "
                "model via repro.models.build_model or set model.arch = "
                "{'name': ..., **kwargs}")
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.model = model
        self.num_classes = num_classes
        self.config = config
        self.group_paths = list(group_paths)
        self.workers = workers
        state = model.state_dict()
        self._signature = tuple((k, state[k].shape) for k in sorted(state))
        self._weights = SharedArrayBundle.create(state)
        self._scores = None
        self.pool = None
        try:
            self._scores = SharedArrayBundle.create(
                {p: np.zeros((_group_width(model, p), num_classes),
                             np.float64)
                 for p in self.group_paths})
            input_shape = tuple(np.asarray(dataset[0][0]).shape)
            self.physical_processes = resolve_processes(workers, processes)
            self.pool = SupervisedWorkerPool(
                self.physical_processes, ScoringService,
                (dict(arch), self._weights.spec, input_shape,
                 self.group_paths, dataclasses.asdict(config),
                 self._scores.spec),
                supervision=supervision, on_event=on_event)
        except BaseException:
            # A failed start-up (e.g. a worker raising during attach)
            # must not leak the segments created above: nothing else
            # holds a reference that could ever unlink them.
            self.close()
            raise

    # ------------------------------------------------------------------
    def compatible(self, model, group_paths: list[str], workers: int) -> bool:
        """Can this session score ``model`` without a rebuild?"""
        if (model is not self.model or workers != self.workers
                or list(group_paths) != self.group_paths):
            return False
        state = model.state_dict()
        return self._signature == tuple(
            (k, state[k].shape) for k in sorted(state))

    def refresh(self) -> None:
        """Push the parent model's current weights into shared memory."""
        self._weights.copy_from(self.model.state_dict())

    # ------------------------------------------------------------------
    def evaluate(self, dataset):
        """Parallel equivalent of the serial per-class scoring loop."""
        from ..core.importance import ImportanceReport, sample_class_images
        from .shm import SharedArrayBundle

        cfg = self.config
        self.refresh()
        images, entries = sample_class_images(
            dataset, self.num_classes, cfg.images_per_class, cfg.seed)
        bank = SharedArrayBundle.create({"images": images})
        try:
            # Unlike sharded training, scoring is per-class independent:
            # task granularity is pure scheduling and cannot change the
            # report. Coalesce to one task per physical process so a
            # CPU-starved box does not pay queue round-trips for logical
            # workers it cannot run concurrently.
            n_shards = min(self.workers, len(entries),
                           max(self.physical_processes, 1))
            bounds = [len(entries) * i // n_shards
                      for i in range(n_shards + 1)]
            tasks = [{"images": bank.spec, "entries": entries[a:b]}
                     for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
            results = self.pool.run_tasks(tasks)
        finally:
            bank.unlink()

        done = sorted(c for shard in results for c in shard)
        if done != list(range(self.num_classes)):  # pragma: no cover
            raise RuntimeError(
                f"parallel scoring covered classes {done} instead of all "
                f"{self.num_classes}")
        return ImportanceReport.from_per_class(
            {p: np.array(self._scores.arrays[p], copy=True)
             for p in self.group_paths}, self.num_classes)

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the pool fell back to serial execution (see supervisor)."""
        return self.pool is not None and self.pool.degraded

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        self._weights.unlink()
        if self._scores is not None:
            self._scores.unlink()

    def __enter__(self) -> "ScoringSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
