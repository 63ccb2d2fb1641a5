"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload engine-batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
``--trace 0`` measures the end-to-end metrics with no spans installed;
``--trace 1`` alternates untraced and traced blocks and prints the
per-layer metrics with the tracing overhead. Human-readable lines come
first; the last line of standard output is the result object. The exit
status is 0 only when every correctness check passed. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"engine-batch": "engine_batch", "serve-socket": "serve_socket",
             "prune": "prune"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken models and task (benchmark tests)")
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt every 4th output before its check "
                             "(benchmark tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run it from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import metrics
    workload = importlib.import_module(WORKLOADS[args.workload])
    imports_s = harness.process_age_s()

    harness.emit("host " + json.dumps(harness.host_record(ROOT)))
    ref_start = harness.reference_loop_ms()
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        with harness.StealSampler() as steal:
            outcome = workload.run(harness.Context(
                seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                tiny=args.tiny, plant_fault=args.plant_fault,
                run_dir=run_dir, root=ROOT, steal=steal))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass                # another run still uses it
    ref_end = harness.reference_loop_ms()

    log = outcome.oplog
    summary = log.summary(steal)
    values = {
        "setup_s": imports_s + statistics.median(outcome.setup_times),
        "throughput": summary["throughput"],
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "quality": log.passed / max(log.completed, 1),
        "flops_reduction": outcome.flops_reduction,
        "peak_rss_mb": outcome.peak_rss_mb,
        "success_frac": log.passed / max(log.attempted, 1),
    }
    quiet = (f"{summary['quiet_slices']} least-stolen of "
             f"{summary['slices']} slices")
    notes = {
        "setup_s": f"process start to imports {imports_s:.3f} s + median "
                   f"of {len(outcome.setup_times)} set-ups "
                   f"{[round(t, 3) for t in outcome.setup_times]}",
        "tail_ms": f"p{summary['tail_percentile']:.2f} of "
                   f"{summary['tail_samples']} samples" + (
                       f" per slice, median of the {quiet}"
                       if summary["tail_samples"] < summary["ops"]
                       else ", all ops pooled"),
        "p50_ms": f"{summary['ops']} ops; median of the {quiet}",
        "throughput": f"{outcome.throughput_label}; median of the {quiet}",
    }
    ref_ms = ref_start + ref_end
    steal_pct = 100.0 * steal.overall()
    harness.emit(f"host.ref_ms start {statistics.median(ref_start):.3f} "
                 f"end {statistics.median(ref_end):.3f}; host.steal_pct "
                 f"{steal_pct:.2f} over the run, median slice "
                 f"{100 * summary['steal_all']:.2f}, quiet slices at most "
                 f"{100 * summary['steal_quiet']:.2f}")
    for reason, count in sorted(log.failures.items()):
        harness.emit(f"FAILED {count} op(s): {reason}")
    for failure in outcome.setup_failures:
        harness.emit(f"FAILED check: {failure}")

    if args.trace:
        layer = {name: 0.0 for name, *_ in metrics.PER_LAYER}
        layer.update(outcome.per_layer)
        layer["host.ref_ms"] = statistics.median(ref_ms)
        layer["host.ref_drift"] = (statistics.median(ref_end)
                                   / statistics.median(ref_start))
        layer["host.steal_pct"] = steal_pct
        if outcome.untraced_ms and outcome.traced_ms:
            layer.update(harness.trace_overhead(outcome.untraced_ms,
                                                outcome.traced_ms))
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        report = {name: (layer[name], units[name]) for name in units}
    else:
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
        report = {name: (values[name], units[name]) for name in units}
    exercised = {name for name, *_, where in metrics.PER_LAYER
                 if args.workload in where}
    for name, (value, unit) in report.items():
        note = notes.get(name, "")
        if args.trace and name not in exercised:
            note = "(layer not exercised by this workload)"
        harness.emit(f"{args.workload:<13} {name:<30} {value:>14.6g} "
                     f"{unit:<9} {note}")

    # Refusals and errors lower success_frac; a wrong output or a failed
    # run-level check (repeatable set-up, clean drain) makes the run
    # incorrect.
    correct = (log.wrong == 0 and not outcome.setup_failures
               and log.completed > 0)
    harness.emit_result(correct, log.attempted, log.failed, report)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
