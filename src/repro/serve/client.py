"""Minimal blocking client for the inference server.

Used by the test suite, the fault drills, and the closed-loop load
generator; also handy interactively::

    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", 7071) as client:
        probs = client.infer("vgg16", image)       # np.float32 row
        print(client.stats()["latency"])

One socket, one in-flight request: :meth:`request` writes a frame and
blocks for the answering frame, which matches the server's
one-request-per-connection processing model. Open one client per
concurrent stream.

Float fidelity: ``infer`` sends the sample as raw float32 bytes behind
its header line and gets the output back the same way
(:mod:`repro.serve.wire`), so the returned array is *bitwise equal* to
what the engine computed — the bytes are never formatted as decimals.
The equivalence tests rely on this.
"""

from __future__ import annotations

import socket

import numpy as np

from . import wire

__all__ = ["ServeClient", "ServerError", "Overloaded", "Draining", "Expired"]


class ServerError(RuntimeError):
    """The server answered with ``ok: false``; carries the payload."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("message")
                         or payload.get("reason")
                         or payload.get("error", "server error"))
        self.payload = payload
        self.error = payload.get("error")


class Overloaded(ServerError):
    """Explicit load-shed rejection (``error: "overloaded"``)."""

    @property
    def reason(self) -> str:
        return self.payload.get("reason", "unknown")


class Draining(ServerError):
    """The server is draining and takes no new requests; retry elsewhere
    (or later — a drain usually precedes a warm restart)."""


class Expired(ServerError):
    """The request's ``deadline_ms`` passed before it could be served."""


class ServeClient:
    """One connection to an :class:`~repro.serve.InferenceServer`."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # -- plumbing -------------------------------------------------------

    def request(self, payload: dict, body=None) -> dict:
        """Send one request frame, block for its response frame.

        ``body`` (optional) is a tensor sent as raw float32 bytes behind
        the header (its shape goes into ``payload["input_shape"]``). A
        response that carries a body has it decoded into
        ``response["output"]`` as a float32 ndarray.
        """
        self._next_id += 1
        payload.setdefault("id", self._next_id)
        raw = None
        if body is not None:
            payload["input_shape"], raw = wire.pack(body)
        self._file.write(wire.encode(payload, raw))
        self._file.flush()
        response, out = wire.read_frame(self._file, "output_shape")
        if out is not None:
            response["output"] = wire.unpack(response["output_shape"],
                                             bytearray(out))
        if not response.get("ok", False):
            error = response.get("error")
            if error == "overloaded":
                raise Overloaded(response)
            if error == "draining":
                raise Draining(response)
            if error == "expired":
                raise Expired(response)
            raise ServerError(response)
        return response

    # -- verbs ----------------------------------------------------------

    def infer(self, model: str, sample,
              deadline_ms: float | None = None) -> np.ndarray:
        response = self.infer_verbose(model, sample, deadline_ms)
        return np.asarray(response["output"], dtype=np.float32)

    def infer_verbose(self, model: str, sample,
                      deadline_ms: float | None = None) -> dict:
        payload = {"op": "infer", "model": model}
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        return self.request(payload, body=sample)

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def models(self) -> dict:
        return self.request({"op": "models"})["models"]

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def swap(self, name: str, version: str, checkpoint: str) -> dict:
        return self.request({"op": "swap", "name": name, "version": version,
                             "checkpoint": str(checkpoint)})["swap"]

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
