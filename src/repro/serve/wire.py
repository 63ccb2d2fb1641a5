"""Binary tensor frames: one NDJSON header line, then raw float32 bytes.

Every serving hop (client → frontend → replica → frontend → client)
speaks the same framing. A frame is one JSON object on a ``\\n``-terminated
line; when that header carries a shape key (``input_shape`` on requests,
``output_shape`` on replies), exactly ``prod(shape) * 4`` bytes of
little-endian float32 follow the newline, C order. Frames without the key
are plain NDJSON, so control ops and legacy ``"input": [...]`` requests
are unchanged.

Raw bytes make the bitwise guarantee trivial: the bytes the engine wrote
are the bytes the client reads, with no float formatting in between.
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np

__all__ = ["DTYPE", "FrameError", "encode", "pack", "unpack", "parse",
           "body_size", "read_frame", "read_frame_async", "refuse_sample"]

DTYPE = np.dtype("<f4")


class FrameError(ValueError):
    """A frame header announces a body that cannot be read: a malformed
    shape, or more bytes than the reader accepts. The stream has lost its
    framing, so the connection must close."""


def encode(header: dict, body=None) -> bytes:
    """Header line plus (optional) body bytes, ready for one write."""
    line = json.dumps(header).encode("utf-8") + b"\n"
    return line if body is None else line + body


def pack(array) -> tuple[list[int], memoryview]:
    """``(shape, raw bytes)`` of ``array`` as a little-endian float32 body.

    No copy when the array already is contiguous ``<f4``.
    """
    array = np.asarray(array, dtype=DTYPE, order="C")
    return list(array.shape), memoryview(array).cast("B")


def unpack(shape, body) -> np.ndarray:
    """The float32 array a body carries (a view of ``body``, no copy)."""
    return np.frombuffer(body, dtype=DTYPE).reshape(shape)


def refuse_sample(sample: np.ndarray, shape: tuple, ref: str
                  ) -> dict | None:
    """``bad-request`` reply fields refusing ``sample``, or None.

    Checked before admission, on the frontend and on every replica: a
    wrong-shape sample would fail its whole batch in ``np.stack``, and a
    NaN or Inf would be served back as a garbage answer.
    """
    if sample.shape != shape:
        return {"error": "bad-request",
                "message": f"input shape {sample.shape} does not match "
                           f"{ref} sample shape {shape}"}
    if not np.isfinite(sample).all():
        return {"error": "bad-request", "reason": "non-finite",
                "message": f"input holds NaN or Inf; {ref} needs a finite "
                           f"sample"}
    return None


def parse(line: bytes) -> dict:
    """Decode one header line; ``ValueError`` unless it is a JSON object."""
    header = json.loads(line)
    if not isinstance(header, dict):
        raise ValueError("request must be a JSON object")
    return header


def body_size(header: dict, key: str, limit: int | None = None
              ) -> int | None:
    """Bytes of the body behind ``header``, or None when it has none.

    Raises :class:`FrameError` when ``header[key]`` is not a list of
    non-negative ints, or announces more than ``limit`` bytes.
    """
    if key not in header:
        return None
    shape = header[key]
    if not isinstance(shape, list) or any(
            isinstance(d, bool) or not isinstance(d, int) or d < 0
            for d in shape):
        raise FrameError(f"{key} must be a list of non-negative ints, "
                         f"got {shape!r}")
    size = math.prod(shape) * DTYPE.itemsize
    if limit is not None and size > limit:
        raise FrameError(f"{key} {shape} announces a {size}-byte body, "
                         f"over the {limit}-byte limit")
    return size


def read_frame(stream, key: str) -> tuple[dict, bytes | None]:
    """Read one frame from a blocking binary file; skips blank lines.

    ``ConnectionError`` on EOF, including EOF inside a body.
    """
    line = b"\n"
    while not line.strip():
        line = stream.readline()
        if not line:
            raise ConnectionError("peer closed the connection")
    header = parse(line)
    size = body_size(header, key)
    if size is None:
        return header, None
    body = stream.read(size)
    if len(body) < size:
        raise ConnectionError("peer closed the connection mid-body")
    return header, body


async def read_frame_async(reader: asyncio.StreamReader, key: str
                           ) -> tuple[dict, bytes | None]:
    """:func:`read_frame` for an asyncio stream."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("peer closed the connection")
    header = parse(line)
    size = body_size(header, key)
    if size is None:
        return header, None
    try:
        return header, await reader.readexactly(size)
    except asyncio.IncompleteReadError:
        raise ConnectionError("peer closed the connection mid-body") from None
