"""Shared machinery of the repository benchmark.

Everything a workload needs besides its own set-up and op lives here:

* :class:`OpLog` — per-op records (completion time, latency, outcome) and
  the drift-robust aggregation into the end-to-end metrics;
* :class:`Tracer` — spans recorded around calls into the program's public
  entry points, installed and removed from the benchmark's own code;
* :func:`host_record` and :func:`reference_loop_ms` — what the host was,
  and a fixed pure-numpy loop timed at the start and end of each run so a
  slow host can be told apart from a slow program;
* :func:`timed_setups` — repeated set-up with the median reported.

Drift-robust aggregation. On a shared 2-vCPU VM the hypervisor was
measured taking 2-37% of the VM's CPU time ("steal") in episodes of
seconds to minutes, and per-slice serving throughput tracked it with a
correlation of -0.99. So the ops of a run are cut, in completion order,
into up to :data:`SLICES` equal slices; a :class:`StealSampler` thread
reads the VM's steal counter throughout, and the run reports the median
over the quiet slices: those stolen at most 2 points more than the
least-stolen one, and never fewer than half. The selection uses only the
host's own counter, never the program's timings, and a steal episode
covering less than half the run cannot move the result.

A steal episode can also cover a whole run: serve-socket runs stolen
9-21% read their tail 30-50% above runs stolen under 4%. So a workload
may measure through a :class:`Window` that, when less than half of its
``--seconds`` had at most :data:`STEAL_QUIET` stolen, keeps measuring
until it has (up to a cap), with slices of the same length throughout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SLICES = 20
QUIET_MARGIN = 0.02         # steal share within which slices count as quiet
TAIL_BEYOND = 10            # samples a tail percentile must leave beyond it
SETUP_REPEATS = 3
STEAL_QUIET = 0.03          # a second with at most this share stolen is quiet
QUIET_NEEDED = 0.5          # share of --seconds a Window needs quiet


# -- per-op records and end-to-end aggregation ---------------------------

@dataclass
class OpLog:
    """Records of the timed ops of one run.

    ``items_per_op`` converts ops into the workload's throughput unit
    (images per batch pair, 1 for a request or a prune run).
    """

    items_per_op: int = 1
    window_start: float = 0.0
    slices: int = SLICES                            # more when extended
    ends: list = field(default_factory=list)        # perf_counter at finish
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    passed: int = 0                                 # ops whose check passed
    wrong: int = 0                                  # outputs failing checks
    failures: dict = field(default_factory=dict)    # reason -> count

    def start(self) -> None:
        self.window_start = time.perf_counter()

    def record(self, end: float, latency_ms: float, passed: bool,
               reason: str | None = None) -> None:
        """One op that produced an output (checked, pass or fail)."""
        self.attempted += 1
        self.ends.append(end)
        self.latencies_ms.append(latency_ms)
        if passed:
            self.passed += 1
        else:
            self.wrong += 1
            self._count(reason or "wrong output")

    def fail(self, reason: str) -> None:
        """An op that produced no output: refused, errored or timed out."""
        self.attempted += 1
        self._count(reason)

    def _count(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def merge(self, other: "OpLog") -> None:
        """Fold another thread's log into this one."""
        self.ends += other.ends
        self.latencies_ms += other.latencies_ms
        self.attempted += other.attempted
        self.passed += other.passed
        self.wrong += other.wrong
        for reason, count in other.failures.items():
            self.failures[reason] = self.failures.get(reason, 0) + count

    @property
    def completed(self) -> int:
        """Ops that produced an output (checked, pass or fail)."""
        return self.passed + self.wrong

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    def summary(self, steal: "StealSampler") -> dict:
        """Throughput, median and tail over the least-stolen slices.

        Per slice: throughput (items over the slice's wall time), median
        and tail latency, and the share of CPU time stolen from the VM.
        Each metric is the median over the quiet slices: those stolen at
        most :data:`QUIET_MARGIN` more than the least-stolen slice, and
        never fewer than half of :data:`SLICES`.
        When slices are too small for a tail (prune ops take a second),
        the tail is taken over all ops of the run pooled.
        """
        if not self.latencies_ms:
            raise RuntimeError("no op completed in the measuring window")
        order = np.argsort(np.asarray(self.ends), kind="stable")
        ends = np.asarray(self.ends)[order]
        lat = np.asarray(self.latencies_ms)[order]
        n = len(lat)
        k = min(self.slices, n)
        bounds = [round(i * n / k) for i in range(k + 1)]
        slices, prev_end = [], self.window_start
        for lo, hi in zip(bounds, bounds[1:]):
            wall = float(ends[hi - 1] - prev_end)
            slices.append((steal.share(prev_end, ends[hi - 1]), wall,
                           lat[lo:hi]))
            prev_end = ends[hi - 1]
        ranked = sorted(slices, key=lambda s: s[0])
        quiet = [s for s in ranked if s[0] <= ranked[0][0] + QUIET_MARGIN]
        least = (min(k, SLICES) + 1) // 2
        if len(quiet) < least:
            quiet = ranked[:least]
        size = min(len(s[2]) for s in slices)
        if size > 2 * TAIL_BEYOND:
            tails = [tail_of(s[2]) for s in quiet]
            tail = statistics.median(t for t, _ in tails)
            tail_pct = statistics.median(p for _, p in tails)
            tail_n = int(statistics.median(len(s[2]) for s in quiet))
        else:
            tail, tail_pct = tail_of(lat)
            tail_n = n
        return {
            "throughput": statistics.median(
                len(s[2]) * self.items_per_op / s[1] for s in quiet),
            "p50_ms": statistics.median(float(np.median(s[2]))
                                        for s in quiet),
            "tail_ms": tail,
            "tail_percentile": tail_pct,
            "tail_samples": tail_n,
            "slices": k,
            "quiet_slices": len(quiet),
            "ops": n,
            "steal_all": statistics.median(s[0] for s in slices),
            "steal_quiet": max(s[0] for s in quiet),
        }


def tail_of(latencies) -> tuple[float, float]:
    """Highest nearest-rank percentile leaving ``TAIL_BEYOND`` samples
    beyond it: ``(value, percentile)``. Fewer samples give the maximum."""
    ordered = np.sort(np.asarray(latencies, dtype=np.float64))
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0
    rank = n - TAIL_BEYOND                  # 1-based nearest rank
    return float(ordered[rank - 1]), 100.0 * rank / n


@dataclass
class Context:
    """What the command line hands a workload."""

    seed: int
    seconds: float
    trace: bool
    tiny: bool                  # shrunken sizes, for the benchmark's tests
    plant_fault: bool           # corrupt every PLANT_EVERY-th output
    run_dir: Path               # scratch directory inside the checkout
    root: Path                  # checkout root (holds src/)
    steal: "StealSampler"       # running for the whole run


PLANT_EVERY = 4


def planted(ctx: Context, op_index: int) -> bool:
    """Whether this op's output gets the planted fault (tests only)."""
    return ctx.plant_fault and op_index % PLANT_EVERY == PLANT_EVERY - 1


@dataclass
class Outcome:
    """What a workload hands back for reporting."""

    oplog: OpLog
    throughput_label: str               # "images/s", "requests/s", ...
    setup_times: list
    flops_reduction: float
    peak_rss_mb: float
    setup_failures: list = field(default_factory=list)
    per_layer: dict = field(default_factory=dict)
    untraced_ms: list = field(default_factory=list)
    traced_ms: list = field(default_factory=list)


class Blocks:
    """Alternating untraced/traced blocks of ``block_s`` seconds.

    Untraced runs never switch. In a traced run even blocks run without
    spans and odd blocks with them, so the two halves see the same host
    drift and their difference is the tracing overhead.
    """

    def __init__(self, tracer: "Tracer", trace: bool, block_s: float):
        self.tracer = tracer
        self.trace = trace
        self.block_s = block_s
        self.start = time.perf_counter()

    def update(self, now: float) -> bool:
        """Install or remove the tracer for ``now``; True when traced."""
        if not self.trace:
            return False
        want = int((now - self.start) / self.block_s) % 2 == 1
        if want != self.tracer.installed:
            (self.tracer.install if want else self.tracer.remove)()
        return want

    def close(self) -> None:
        if self.tracer.installed:
            self.tracer.remove()


class Window:
    """A measuring window of ``seconds``, extended while the host is stolen.

    :meth:`open` is true for the first ``seconds``; after that it stays
    true, for at most ``extend_s`` more, until :data:`QUIET_NEEDED` of
    ``seconds`` has been quiet (whole seconds stolen at most
    :data:`STEAL_QUIET`).
    """

    RECHECK_S = 0.25

    def __init__(self, steal: "StealSampler", seconds: float,
                 extend_s: float):
        self.steal = steal
        self.seconds = seconds
        self.start = time.perf_counter()
        self.cap = self.start + seconds + extend_s
        self._next_check = self.start + seconds
        self._open = True

    def open(self) -> bool:
        now = time.perf_counter()
        if now < self._next_check:
            return self._open
        self._next_check = now + self.RECHECK_S
        self._open = (now < self.cap and self.quiet_s(now)
                      < QUIET_NEEDED * self.seconds)
        return self._open

    def quiet_s(self, now: float) -> int:
        """Whole seconds of the window up to ``now`` that were quiet."""
        return sum(self.steal.share(t, t + 1.0) <= STEAL_QUIET
                   for t in np.arange(self.start, now - 1.0, 1.0))

    def slices(self, end: float) -> int:
        """Slice count keeping slices as long as in an unextended run."""
        return max(SLICES, round(SLICES * (end - self.start) / self.seconds))


# -- set-up timing ---------------------------------------------------------

def process_age_s() -> float:
    """Seconds since this process was started by the kernel."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])           # field 22: starttime
    with open("/proc/uptime", encoding="ascii") as fh:
        uptime = float(fh.read().split()[0])
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


def timed_setups(build, repeats: int = SETUP_REPEATS, release=None):
    """Run ``build(previous)`` ``repeats`` times; return ``(last state,
    times)``.

    ``build`` receives the previous state (``None`` first) so it can
    compare against it; ``release(previous)``, when given, runs before
    each later build and outside its timing.
    """
    state, times = None, []
    for _ in range(repeats):
        if state is not None and release is not None:
            release(state)
        start = time.perf_counter()
        state = build(state)
        times.append(time.perf_counter() - start)
    return state, times


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MB (this process, or ``pid``)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def steal_seconds() -> float:
    """CPU time the hypervisor took from this VM, summed over its CPUs."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class StealSampler:
    """Background thread reading the VM's steal counter every
    ``period_s``; :meth:`share` interpolates it over any interval."""

    def __init__(self, period_s: float = 0.05):
        self.period_s = period_s
        self._times: list[float] = []
        self._steal: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-steal")

    def _sample(self) -> None:
        self._times.append(time.perf_counter())
        self._steal.append(steal_seconds())

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample()

    def __enter__(self) -> "StealSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def share(self, start: float, end: float) -> float:
        """Stolen CPU time over ``[start, end]`` as a share of all CPUs."""
        n = len(self._steal)            # _sample appends _times first
        stolen = np.interp([start, end], self._times[:n], self._steal[:n])
        cpus = len(os.sched_getaffinity(0))
        return float(stolen[1] - stolen[0]) / max(end - start, 1e-9) / cpus

    def overall(self) -> float:
        return self.share(self._times[0], self._times[-1])


def cpu_seconds(pid: int | None = None) -> float:
    """User + system CPU seconds (this process with its threads, or
    ``pid``)."""
    if pid is None:
        t = os.times()
        return t.user + t.system
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- host record and drift sentinel ---------------------------------------

def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_record(root: Path) -> dict:
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - informational only
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(root),
    }


def reference_loop_ms(repeats: int = 5) -> list[float]:
    """Time a fixed pure-numpy loop; independent of the program."""
    rng = np.random.default_rng(1234)
    a = rng.standard_normal((96, 96)).astype(np.float32)
    b = rng.standard_normal((96, 96)).astype(np.float32)
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = a
        for _ in range(200):
            acc = np.tanh(acc @ b * 0.01)
        float(acc.sum())
        out.append((time.perf_counter() - start) * 1e3)
    return out


# -- tracing ---------------------------------------------------------------

class Tracer:
    """Spans around calls into the program's public entry points.

    ``wrap(owner, attr, name)`` registers a function or method to be
    timed; :meth:`install` swaps the wrappers in and :meth:`remove`
    restores the originals, so traced and untraced blocks can alternate
    within one run. A span records its name, start, end and a few
    attributes that ``annotate`` may derive from the call's arguments
    and result.
    """

    def __init__(self):
        self._targets = []
        self.spans: list[tuple[str, float, float, dict]] = []
        self.installed = False

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        self._targets.append((owner, attr, name, annotate,
                              owner.__dict__[attr]))

    def install(self) -> None:
        spans = self.spans
        for owner, attr, name, annotate, original in self._targets:
            def traced(*args, _fn=original, _name=name, _annotate=annotate,
                       **kwargs):
                start = time.perf_counter()
                result = _fn(*args, **kwargs)
                end = time.perf_counter()
                attrs = _annotate(args, kwargs, result) if _annotate else {}
                spans.append((_name, start, end, attrs))
                return result
            setattr(owner, attr, traced)
        self.installed = True

    def remove(self) -> None:
        for owner, attr, _, _, original in self._targets:
            setattr(owner, attr, original)
        self.installed = False

    def durations_ms(self, name: str, **match) -> list[float]:
        return [(end - start) * 1e3 for n, start, end, attrs in self.spans
                if n == name and all(attrs.get(k) == v
                                     for k, v in match.items())]

    def attrs(self, name: str) -> list[dict]:
        return [attrs for n, _, _, attrs in self.spans if n == name]


def median_or_zero(values) -> float:
    """Median of ``values``; 0.0 when the layer did no work in this run."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def trace_overhead(untraced_ms, traced_ms) -> dict:
    """Traced minus untraced median op latency, absolute and relative."""
    base = statistics.median(untraced_ms)
    delta = statistics.median(traced_ms) - base
    return {"trace.overhead_ms": delta,
            "trace.overhead_pct": 100.0 * delta / base}


# -- output ----------------------------------------------------------------

def emit(line: str = "") -> None:
    print(line, flush=True)


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    payload = {"correct": bool(correct), "attempted": int(attempted),
               "failed": int(failed),
               "metrics": {name: {"value": float(value), "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
