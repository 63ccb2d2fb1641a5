"""Command-line driver: ``python -m repro.verify``.

Runs the three verification layers in order —

1. coverage audit (every public differentiable op must have a fuzz spec),
2. property-based gradient fuzzing (:mod:`repro.verify.fuzz`),
3. semantic invariants (:mod:`repro.verify.invariants`),
4. golden regression fixtures (:mod:`repro.verify.golden`),
5. resilience drills (:mod:`repro.resilience.drills` — fault injection
   against every recovery path),

prints a per-check report, and exits non-zero on any failure. ``--quick``
is the CI tier: single fuzz round over the representative spec subset,
trimmed invariant trials, all golden fixtures — a few seconds end to end.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import fuzz, golden, invariants

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Property-based gradient fuzzing, pruning invariants "
                    "and golden regression checks.")
    parser.add_argument("--quick", action="store_true",
                        help="fast CI subset (single fuzz round, trimmed "
                             "invariant trials)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for the fuzzer and invariants")
    def positive_int(value: str) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return n

    parser.add_argument("--rounds", type=positive_int, default=2,
                        help="fuzz rounds per op spec (ignored with --quick)")
    parser.add_argument("--select", type=str, default=None,
                        help="substring filter on fuzz spec names "
                             "(e.g. 'conv' or 'ops.matmul')")
    parser.add_argument("--skip-fuzz", action="store_true",
                        help="run only invariants and golden checks")
    parser.add_argument("--skip-invariants", action="store_true",
                        help="run only the fuzzer and golden checks")
    parser.add_argument("--skip-golden", action="store_true",
                        help="run only the fuzzer and invariants")
    parser.add_argument("--skip-resilience", action="store_true",
                        help="skip the fault-injection recovery drills")
    parser.add_argument("--drills", type=str, default=None,
                        help="substring filter on resilience drill names "
                             "(e.g. 'serve' runs the serving drills, "
                             "replica failover included, 'replica' only "
                             "the replica-fleet drills, 'quant' the int8 "
                             "deploy drills)")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate the golden fixtures and exit")
    parser.add_argument("--list", action="store_true", dest="list_specs",
                        help="list registered fuzz specs and coverage, "
                             "then exit")
    return parser


def _print_list() -> int:
    required = fuzz.required_coverage()
    gaps = fuzz.coverage_gaps()
    print(f"{len(fuzz.OP_SPECS)} fuzz specs covering "
          f"{len(required) - len(gaps)}/{len(required)} required names\n")
    for name in sorted(fuzz.OP_SPECS):
        spec = fuzz.OP_SPECS[name]
        quick = " [quick]" if name in fuzz.QUICK_SPECS else ""
        covers = ""
        if set(spec.covers) != {name}:
            covers = f" -> {', '.join(spec.covers)}"
        print(f"  {name}{quick}{covers}")
    if gaps:
        print("\nUNCOVERED:")
        for name in sorted(gaps):
            print(f"  {name}")
        return 1
    return 0


def _report(title: str, rows) -> bool:
    """Print one section; returns True when every row passed."""
    print(f"\n== {title} ==")
    ok = True
    for row in rows:
        passed = row.passed
        ok &= passed
        status = "ok  " if passed else "FAIL"
        name = getattr(row, "spec", None) or row.name
        detail = getattr(row, "detail", "") or ""
        cases = getattr(row, "cases", None)
        if cases is not None:
            detail = f"{cases} cases"
        print(f"  [{status}] {name:<34} {detail} ({row.seconds:.2f}s)")
        for failure in row.failures:
            print(f"         - {failure}")
    return ok


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_specs:
        return _print_list()

    if args.write_golden:
        for path in golden.write_golden():
            print(f"wrote {path}")
        return 0

    start = time.perf_counter()
    ok = True

    gaps = fuzz.coverage_gaps()
    print(f"== coverage ==\n  {len(fuzz.OP_SPECS)} specs, "
          f"{len(fuzz.required_coverage())} required names, "
          f"{len(gaps)} uncovered")
    if gaps:
        ok = False
        for name in sorted(gaps):
            print(f"         - uncovered: {name}")

    if not args.skip_fuzz:
        results = fuzz.run_fuzzer(seed=args.seed, rounds=args.rounds,
                                  quick=args.quick, select=args.select)
        if args.select is not None and not results:
            # A typo'd filter must not masquerade as a clean pass.
            print(f"\nerror: --select {args.select!r} matched no fuzz specs "
                  "(see --list)")
            ok = False
        ok &= _report("gradient fuzzing", results)

    if not args.skip_invariants:
        ok &= _report("invariants",
                      invariants.run_invariants(seed=args.seed,
                                                quick=args.quick))

    if not args.skip_golden:
        ok &= _report("golden fixtures", golden.run_golden())

    if not args.skip_resilience:
        # Imported lazily: drills needs repro.core, which the resilience
        # package itself must not import.
        from ..resilience import drills
        ok &= _report("resilience drills",
                      drills.run_drills(seed=args.seed, quick=args.quick,
                                        only=args.drills))

    elapsed = time.perf_counter() - start
    print(f"\n{'PASS' if ok else 'FAIL'} in {elapsed:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
