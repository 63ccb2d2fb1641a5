"""Closed-loop serving benchmark: latency/throughput vs offered load.

Boots a real socket server with dense, channel-pruned, and int8
quantized-artifact variants of the bench model (``--variant`` selects a
subset), sweeps concurrent connections against each, and records
p50/p99 latency and sustained throughput to ``BENCH_serve.json`` at the
repo root (schema in ``docs/serving.md``):

    python benchmarks/bench_serve.py              # full sweep
    python benchmarks/bench_serve.py --smoke      # tiny CI variant

Smoke mode additionally asserts the serving contract — zero dropped
requests, zero errors, finite positive p99 — at every sweep point, and
finite ``engine`` and ``return`` stage times in the server's ``stats``.
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.serve.bench import (_VARIANTS, format_table, run_bench,  # noqa: E402
                               write_bench)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connections", default="1,4,16",
                        help="comma-separated offered-load sweep")
    parser.add_argument("--variant", action="append", choices=_VARIANTS,
                        help="benchmark only these variants "
                             "(default: all of %s)" % (_VARIANTS,))
    parser.add_argument("--requests", type=int, default=40,
                        help="requests per connection at each sweep point")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny model and short sweep, for CI")
    parser.add_argument("--replicas", type=int, default=0,
                        help="bench the replicated tier: N replica worker "
                             "processes behind the health-probed router "
                             "(0 = the in-process server)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_serve.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    connections = tuple(int(c) for c in args.connections.split(","))
    results = run_bench(smoke=args.smoke, seed=args.seed,
                        connections=connections,
                        requests_per_connection=args.requests,
                        max_batch=args.max_batch,
                        variants=tuple(args.variant) if args.variant
                        else _VARIANTS,
                        replicas=args.replicas)
    print(format_table(results))
    write_bench(results, args.out)
    print(f"\nresults written to {args.out}")

    top = max(results["connection_sweep"])
    rps = {e["variant"]: e["throughput_rps"] for e in results["entries"]
           if e["connections"] == top}
    if "dense" in rps and "pruned" in rps and rps["dense"] > 0:
        print(f"pruned/dense throughput at {top} connections: "
              f"{rps['pruned'] / rps['dense']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
