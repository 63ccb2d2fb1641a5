"""Deployable plan artifacts: serialized compiled plans, honest bytes.

A compiled :class:`~repro.infer.plan.Plan` — float weights or int8
weight codes — serializes to a single compact container: every parameter
array is stored as raw bytes at its **native dtype** (int8 weight codes
stay one byte per element, so an int8 artifact's size on disk reflects
the real compression, not fake-quantized float32), step topology and scalar
params live in a small zlib-compressed JSON manifest, and a SHA-256
digest over the manifest plus every array's bytes makes corruption —
including a flipped scale — a load-time :class:`ArtifactCorruptError`
instead of a silently wrong model.

Array payloads are deliberately *not* compressed: size comparisons
between fp32 and int8 artifacts should measure storage layout, not
zlib's opinion of weight entropy. (The manifest is metadata, so
compressing it is fair game.)

Layout::

    b"RPLAN" | version u8 | digest (64 ascii hex) |
    manifest_len u32le | zlib(manifest JSON) | array bytes...

The manifest records each array's key, dtype, shape, offset, and length
within the payload region.

Version 2 plans hold only ops the fp32 runtime executes. Version 1 plans
could also hold int8-execution steps (``qconv2d``, ``quantize``, ...)
that no longer exist, so :func:`load_plan` refuses them by version.
"""

from __future__ import annotations

import hashlib
import json
import zlib

import numpy as np

from ..infer.plan import Plan, Step

__all__ = ["ArtifactCorruptError", "save_plan", "load_plan",
           "plan_size_bytes"]

_MAGIC = b"RPLAN"
_VERSION = 2


class ArtifactCorruptError(RuntimeError):
    """The artifact's digest or structure does not match its contents."""


def _scalarize(value):
    """Make a non-array param JSON-safe (numpy scalars -> python)."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _digest(manifest_bytes: bytes, payload: bytes) -> str:
    h = hashlib.sha256()
    h.update(manifest_bytes)
    h.update(payload)
    return h.hexdigest()


def save_plan(plan: Plan, path) -> str:
    """Serialize a plan to ``path``; returns the content digest."""
    arrays: list[tuple[str, np.ndarray]] = []
    steps = []
    for i, step in enumerate(plan.steps):
        scalars, array_keys = {}, {}
        for key, value in step.params.items():
            if isinstance(value, np.ndarray):
                npz_key = f"s{i}.{key}"
                arrays.append((npz_key, np.ascontiguousarray(value)))
                array_keys[key] = npz_key
            else:
                scalars[key] = _scalarize(value)
        steps.append({"op": step.op, "inputs": list(step.inputs),
                      "output": step.output, "source": step.source,
                      "params": scalars, "arrays": array_keys})
    for vid in sorted(plan.constants):
        arrays.append((f"c{vid}", np.ascontiguousarray(plan.constants[vid])))

    offset = 0
    index = []
    chunks = []
    for key, arr in arrays:
        data = arr.tobytes()
        index.append({"key": key, "dtype": str(arr.dtype),
                      "shape": list(arr.shape), "offset": offset,
                      "length": len(data)})
        chunks.append(data)
        offset += len(data)

    manifest = {
        "format": "repro-plan", "version": _VERSION,
        "input_id": plan.input_id, "output_id": plan.output_id,
        "example_batch": plan.example_batch,
        "shapes": {str(vid): list(shape)
                   for vid, shape in plan.shapes.items()},
        "constants": {str(vid): f"c{vid}" for vid in plan.constants},
        "steps": steps,
        "arrays": index,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True,
                                separators=(",", ":")).encode()
    payload = b"".join(chunks)
    digest = _digest(manifest_bytes, payload)
    packed = zlib.compress(manifest_bytes, 9)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(digest.encode())
        fh.write(len(packed).to_bytes(4, "little"))
        fh.write(packed)
        fh.write(payload)
    return digest


def load_plan(path) -> Plan:
    """Load a plan artifact, verifying its digest.

    Raises :class:`ArtifactCorruptError` on any mismatch between the
    stored digest and the actual manifest/array bytes (bit flips,
    truncation, tampered scales), or on a structurally invalid file.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ArtifactCorruptError(
            f"unreadable plan artifact {path!r}: {exc}") from exc
    header = len(_MAGIC) + 1 + 64 + 4
    if len(blob) < header or blob[:len(_MAGIC)] != _MAGIC:
        raise ArtifactCorruptError(f"{path!r} is not a repro plan artifact")
    if blob[len(_MAGIC)] != _VERSION:
        raise ArtifactCorruptError(
            f"{path!r}: unsupported artifact version {blob[len(_MAGIC)]}")
    pos = len(_MAGIC) + 1
    stored_digest = blob[pos:pos + 64].decode("ascii", errors="replace")
    pos += 64
    manifest_len = int.from_bytes(blob[pos:pos + 4], "little")
    pos += 4
    try:
        manifest_bytes = zlib.decompress(blob[pos:pos + manifest_len])
        manifest = json.loads(manifest_bytes)
    except (zlib.error, ValueError) as exc:
        raise ArtifactCorruptError(
            f"plan artifact {path!r} has a malformed manifest: "
            f"{exc}") from exc
    payload = blob[pos + manifest_len:]
    if _digest(manifest_bytes, payload) != stored_digest:
        raise ArtifactCorruptError(
            f"plan artifact {path!r} failed its integrity check "
            "(content digest mismatch)")

    try:
        contents: dict[str, np.ndarray] = {}
        for entry in manifest["arrays"]:
            start, length = entry["offset"], entry["length"]
            arr = np.frombuffer(
                payload[start:start + length],
                dtype=np.dtype(entry["dtype"])).reshape(entry["shape"])
            contents[entry["key"]] = arr.copy()   # writable, owns memory
        steps = []
        for entry in manifest["steps"]:
            params = dict(entry["params"])
            for key, array_key in entry["arrays"].items():
                params[key] = contents[array_key]
            steps.append(Step(entry["op"], tuple(entry["inputs"]),
                              entry["output"], params, entry["source"]))
        shapes = {int(vid): tuple(shape)
                  for vid, shape in manifest["shapes"].items()}
        constants = {int(vid): contents[key]
                     for vid, key in manifest["constants"].items()}
        return Plan(steps=steps, input_id=manifest["input_id"],
                    output_id=manifest["output_id"], shapes=shapes,
                    constants=constants,
                    example_batch=manifest["example_batch"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorruptError(
            f"plan artifact {path!r} has an inconsistent manifest: "
            f"{exc}") from exc


def plan_size_bytes(plan: Plan) -> int:
    """Parameter + constant storage of a plan at native dtypes."""
    total = 0
    for step in plan.steps:
        for value in step.params.values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
    for const in plan.constants.values():
        total += np.asarray(const).nbytes
    return total
