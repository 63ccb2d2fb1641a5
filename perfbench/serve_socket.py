"""serve-socket: ``python -m repro serve`` driven over its socket.

The server runs as a subprocess with the CLI defaults apart from the port
(``--port 0``, the bound port read from its "listening on" line), serving
the pruned fp32 checkpoint of :mod:`models`. This process drives it in a
closed loop through ``repro.serve.client.ServeClient``, with one thread
and one connection per CPU, at most :data:`CONNECTIONS`. Warm-up requests
are excluded from timing; every attempted request in the window counts,
connection-level failures included. The window is a ``harness.Window``:
when the hypervisor steals from the VM through most of ``--seconds``,
measuring goes on for up to :data:`MAX_EXTENSION` of it longer, because
a stolen run reads its tail far above a quiet one.

Correctness: each response must have the same top-1 as the offline
engine's output for that input, and differ from it by at most
``models.ATOL`` (the server batches 1-2 requests, and fp32 outputs are
not bitwise equal across batch sizes).

Shutdown: after the window, waves of raw probe requests, two queued on
each of :data:`DRAIN_PROBES` fresh connections, are written until the
server's ``stats`` op shows some of them in flight; then it gets
SIGTERM. Its log must report at least one request in flight ("draining
(N in flight"), at least N probes must be answered ``ok``, the others
``draining`` or left unread when the server closed the connection (it
never accepted them), and the server must exit with status 0.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from repro.infer import compile_model
from repro.io import load_model, save_model
from repro.serve.client import Overloaded, ServeClient, ServerError

import harness
import models

MODEL_NAME = "vgg11p"
CONNECTIONS = 2
INPUT_POOL = 64
WARMUP_PER_CONNECTION = 20
BLOCK_S = 1.0
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
MAX_EXTENSION = 2 / 3       # of --seconds, while the host is stolen
DRAIN_PROBES = 32           # below the CLI's --max-pending of 64
DRAIN_PIPELINE = 2          # probes queued per connection, so some stay
DRAIN_WAVES = 20            # in flight while SIGTERM is delivered
_LISTENING = re.compile(r"listening on (\S+):(\d+)")
_DRAINING = re.compile(r"draining \((\d+) in flight")


class Server:
    """One ``repro serve`` subprocess, its log file and its clients."""

    def __init__(self, ctx: harness.Context, checkpoint, tag: str):
        self.log_path = ctx.run_dir / f"serve-{tag}.log"
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(ctx.root / "src"))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--model", f"{MODEL_NAME}={checkpoint}", "--port", "0"],
                cwd=ctx.root, env=env, stdout=log, stderr=subprocess.STDOUT)
        self.terminated = False
        self.host, self.port = self._wait_listening()

    def log(self) -> str:
        return self.log_path.read_text(encoding="utf-8", errors="replace")

    def _wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}:\n{self.log()}")
            time.sleep(0.005)
        raise RuntimeError("repro serve did not start listening in time")

    def terminate(self) -> None:
        """Send SIGTERM once: a second one would kill the draining server
        with the default action instead of letting it finish."""
        if not self.terminated and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        self.terminated = True

    def stop(self) -> int:
        """SIGTERM, wait for the drain; SIGKILL only as a last resort."""
        if self.proc.poll() is None:
            self.terminate()
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


class Setup:
    """Checkpoint, offline reference, running server, open connections."""

    def __init__(self, ctx: harness.Context, tag: str):
        spec = models.model_spec(ctx.tiny)
        rng = np.random.default_rng(ctx.seed)
        self.spec = spec
        self.inputs = rng.normal(size=(INPUT_POOL,) + models.sample_shape(
            spec)).astype(np.float32)
        self.model = models.build(spec, pruned=True)
        self.checkpoint = ctx.run_dir / f"{MODEL_NAME}.npz"
        save_model(self.model, self.checkpoint)
        self.engine = compile_model(load_model(self.checkpoint).eval(),
                                    self.inputs[:32], max_batch=32,
                                    atol=models.ATOL)
        self.reference = np.stack([self.engine.run(x) for x in self.inputs])
        self.server = Server(ctx, self.checkpoint, tag)
        self.clients = []
        try:
            n = max(1, min(CONNECTIONS, len(os.sched_getaffinity(0))))
            for _ in range(n):
                self.clients.append(ServeClient(self.server.host,
                                                self.server.port))
                self.clients[-1].ping()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


def _check(setup: Setup, j: int, output, plant: bool) -> str | None:
    out = np.asarray(output, dtype=np.float32)
    if plant:
        out = out[::-1].copy()
    ref = setup.reference[j]
    if out.shape != ref.shape:
        return "wrong output shape"
    if int(np.argmax(out)) != int(np.argmax(ref)):
        return "top-1 differs from the offline engine"
    if not np.max(np.abs(out - ref)) <= models.ATOL:
        return "output differs from the offline engine beyond atol"
    return None


def _worker(setup: Setup, slot: int, ctx: harness.Context,
            stop: threading.Event, tracer: harness.Tracer,
            log: harness.OpLog, modes: list) -> None:
    client = setup.clients[slot]
    i = 0
    while not stop.is_set():
        j = (slot * 7919 + i) % INPUT_POOL
        in_trace = tracer.installed
        start = time.perf_counter()
        try:
            response = client.infer_verbose(MODEL_NAME, setup.inputs[j])
        except Overloaded as exc:
            log.fail(f"overloaded:{exc.reason}")
        except ServerError as exc:
            log.fail(f"server error:{exc.error}")
        except (OSError, ValueError) as exc:
            log.fail(f"connection:{type(exc).__name__}")
            client.close()
            try:
                client = setup.clients[slot] = ServeClient(
                    setup.server.host, setup.server.port)
            except OSError:
                time.sleep(0.01)
        else:
            end = time.perf_counter()
            reason = _check(setup, j, response["output"],
                            harness.planted(ctx, i))
            log.record(end, (end - start) * 1e3, reason is None, reason)
            modes.append(in_trace)
        i += 1


def _drain_probe(setup: Setup) -> list[str]:
    """SIGTERM with requests in flight; the drain must answer all accepted.

    Returns the failures found (empty when the drain dropped nothing).
    """
    line = (json.dumps({"op": "infer", "model": MODEL_NAME,
                        "input": setup.inputs[0].tolist(), "id": "drain"})
            + "\n").encode()
    control = setup.clients[0]
    socks = [socket.create_connection((setup.server.host, setup.server.port),
                                      timeout=STOP_TIMEOUT_S)
             for _ in range(DRAIN_PROBES)]
    readers = [sock.makefile("rb") for sock in socks]
    replies: list = []
    try:
        for _ in range(DRAIN_WAVES):
            for sock in socks:
                sock.sendall(line * DRAIN_PIPELINE)
            if control.stats()["lifecycle"]["inflight"] > 0:
                setup.server.terminate()
            replies = []
            for reader in readers:
                for _ in range(DRAIN_PIPELINE):
                    try:
                        reply = reader.readline()
                    except OSError:
                        reply = b""
                    replies.append(json.loads(reply) if reply else None)
            if setup.server.terminated:
                break
    finally:
        for reader, sock in zip(readers, socks):
            reader.close()
            sock.close()
        control.close()
    code = setup.server.stop()
    answered = sum(1 for r in replies if r and r.get("ok"))
    refused = sum(1 for r in replies
                  if r and r.get("error") == "draining")
    unread = replies.count(None)
    match = _DRAINING.search(setup.server.log())
    inflight = int(match.group(1)) if match else 0
    harness.emit(f"drain: {inflight if match else '?'} in flight at "
                 f"SIGTERM; of {len(replies)} probes {answered} answered, "
                 f"{refused} refused as draining, {unread} never read "
                 f"before the server closed; exit {code}")
    failures = []
    if code != 0 or match is None or "drained" not in setup.server.log():
        failures.append(f"server did not drain cleanly (exit {code})")
    elif inflight == 0:
        failures.append("drain check had no request in flight at SIGTERM")
    elif answered < inflight:
        failures.append(f"drain dropped {inflight - answered} of "
                        f"{inflight} accepted requests")
    elif answered + refused + unread < len(replies):
        failures.append("drain answered a probe with an error")
    return failures


def run(ctx: harness.Context) -> harness.Outcome:
    count = iter(range(harness.SETUP_REPEATS))
    setup, setup_times = harness.timed_setups(
        lambda _: Setup(ctx, tag=str(next(count))),
        release=lambda prev: prev.close())
    try:
        return _measure(ctx, setup, setup_times)
    finally:
        for client in setup.clients:
            client.close()
        setup.server.stop()


def _measure(ctx: harness.Context, setup: Setup,
             setup_times: list) -> harness.Outcome:
    for client in setup.clients:
        for k in range(WARMUP_PER_CONNECTION):
            client.infer_verbose(MODEL_NAME, setup.inputs[k % INPUT_POOL])
    tracer = harness.Tracer()
    tracer.wrap(ServeClient, "request", "serve.request",
                annotate=lambda args, kw, out: {
                    "op": args[1].get("op"),
                    "server_ms": out.get("latency_ms")})
    pid = setup.server.proc.pid
    batcher_before = setup.clients[0].models()[MODEL_NAME]["batcher"]
    server_cpu, loadgen_cpu = harness.cpu_seconds(pid), harness.cpu_seconds()

    logs = [harness.OpLog() for _ in setup.clients]
    modes = [[] for _ in setup.clients]
    blocks = harness.Blocks(tracer, ctx.trace,
                            min(BLOCK_S, ctx.seconds / 10))
    window = harness.Window(ctx.steal, ctx.seconds,
                            MAX_EXTENSION * ctx.seconds)
    stop = threading.Event()
    threads = [threading.Thread(target=_worker, args=(
        setup, slot, ctx, stop, tracer, logs[slot], modes[slot]))
        for slot in range(len(setup.clients))]
    try:
        for t in threads:
            t.start()
        while window.open():
            blocks.update(time.perf_counter())
            time.sleep(0.005)
    finally:
        end = time.perf_counter()   # not after the joins: a stuck request
        stop.set()                  # would stretch the slices
        for t in threads:
            t.join()
        blocks.close()
    server_cpu = harness.cpu_seconds(pid) - server_cpu
    loadgen_cpu = harness.cpu_seconds() - loadgen_cpu
    harness.emit(f"window: {end - window.start:.1f} s measured, "
                 f"{window.quiet_s(end)} s of it stolen at most "
                 f"{100 * harness.STEAL_QUIET:.0f}%")

    log = harness.OpLog(window_start=window.start,
                        slices=window.slices(end))
    untraced, traced = [], []
    for part, part_modes in zip(logs, modes):
        log.merge(part)
        for latency, in_trace in zip(part.latencies_ms, part_modes):
            (traced if in_trace else untraced).append(latency)
    stats = setup.clients[0].stats()
    batcher = setup.clients[0].models()[MODEL_NAME]["batcher"]
    rss = harness.peak_rss_mb(pid)
    for client in setup.clients[1:]:
        client.close()
    failures = _drain_probe(setup)

    outcome = harness.Outcome(
        oplog=log, throughput_label="requests/s", setup_times=setup_times,
        flops_reduction=models.flops_reduction(
            setup.model, models.build(setup.spec, pruned=False), setup.spec),
        peak_rss_mb=rss, setup_failures=failures,
        untraced_ms=untraced, traced_ms=traced)
    if ctx.trace:
        batches = batcher["batches"] - batcher_before["batches"]
        mean_batch = (batcher["samples"] - batcher_before["samples"]) \
            / max(batches, 1)
        rtt, server_ms = [], []
        for (name, t0, t1, attrs) in tracer.spans:
            if attrs["op"] == "infer" and attrs["server_ms"] is not None:
                rtt.append((t1 - t0) * 1e3)
                server_ms.append(attrs["server_ms"])
        server_p50 = harness.median_or_zero(server_ms)
        counters = stats["counters"]
        completed = max(log.completed, 1)
        outcome.per_layer = {
            "serve.server.latency_ms.p50": server_p50,
            "serve.server.latency_ms.p99": float(np.percentile(server_ms, 99))
            if server_ms else 0.0,
            "serve.protocol_ms.p50": harness.median_or_zero(
                r - s for r, s in zip(rtt, server_ms)),
            "infer.batcher.mean_batch": mean_batch,
            "infer.batcher.batches": batches,
            "serve.server.cpu_ms_per_req": server_cpu * 1e3 / completed,
            "serve.loadgen.cpu_ms_per_req": loadgen_cpu * 1e3 / completed,
            "serve.engine_share": _engine_ms(setup, mean_batch) / server_p50
            if server_p50 else 0.0,
            "serve.stats.errors": counters.get("errors", 0),
            "serve.stats.rejected": counters.get("rejected", 0),
            "serve.stats.fallbacks": counters.get("fallbacks", 0),
            "infer.plan_steps.fp32": len(setup.engine.plan),
            "infer.pruned_speedup.b1": models.pruned_speedups(
                setup.engine, setup.spec,
                np.random.default_rng(ctx.seed + 1), batches=(1,))[1],
        }
    return outcome


def _engine_ms(setup: Setup, mean_batch: float) -> float:
    """Engine-only run time at ``mean_batch``, interpolated between the
    neighbouring whole batch sizes."""
    lo = max(int(np.floor(mean_batch)), 1)
    hi = max(int(np.ceil(mean_batch)), lo)
    lo_ms, hi_ms = (models.median_run_ms([setup.engine],
                                         setup.inputs[:batch], 200)[0]
                    for batch in (lo, hi))
    return lo_ms + (mean_batch - lo) * (hi_ms - lo_ms)
