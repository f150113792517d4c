#!/usr/bin/env python3
"""Compare a bench_micro JSON run against the checked-in baseline.

Usage:
    build/bench/bench_micro \
        --benchmark_filter='PredicateEval|GoidProbe' \
        --benchmark_repetitions=5 \
        --benchmark_format=json --benchmark_out=now.json
    python3 tools/check_bench_micro.py now.json

Each check reads a benchmark's median over its repetitions.

Three kinds of checks, from tools/bench_micro_baseline.json:

  * ratios — machine-relative invariants between two benchmarks' rates
    (batched vs unordered_map GOid probes, columnar vs row predicate
    evaluation at 100K rows). These are the load-bearing performance
    contracts of docs/PERFORMANCE.md and always FAIL the run when violated,
    on any machine.
  * paired — the same kind of contract, read from a ratio counter that one
    benchmark measures by timing both sides alternately in one process
    (columnar vs row predicate evaluation at 1M rows), so the load of
    other tenants falls on both sides alike. Always enforced.
  * absolutes — items_per_second floors recorded on the baseline machine.
    Other machines differ, so by default a miss only WARNs; pass --strict
    to make absolute misses fail too (e.g. on the machine that recorded
    the baseline, or in a pinned CI runner).

Exit status: 0 when every enforced check passes, 1 otherwise, 2 on usage
errors. Re-record the baseline with --update after an intentional change.
"""

import argparse
import json
import statistics
import sys


def load_medians(data, field):
    """Median of `field` per benchmark name over its iteration rows.

    Under --benchmark_repetitions=N every repetition is a row with the same
    name; the median keeps one noisy repetition from deciding a check.
    """
    samples = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        value = bench.get(field)
        if value:
            samples.setdefault(bench["name"], []).append(float(value))
    return {name: statistics.median(values)
            for name, values in samples.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="bench_micro --benchmark_out JSON")
    parser.add_argument("--baseline", default="tools/bench_micro_baseline.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="absolute floor = tolerance * baseline rate (default 0.5)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="absolute misses fail instead of warning",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline's absolute rates of the benchmarks in "
        "this run (the others keep their recorded rates)",
    )
    args = parser.parse_args()

    with open(args.results) as f:
        results = json.load(f)
    rates = load_medians(results, "items_per_second")
    if not rates:
        print(f"error: no rate-carrying benchmarks in {args.results}",
              file=sys.stderr)
        return 2
    with open(args.baseline) as f:
        baseline = json.load(f)

    if args.update:
        absolutes = dict(baseline.get("absolutes", {}))
        absolutes.update(rates)
        baseline["absolutes"] = dict(sorted(absolutes.items()))
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"baseline absolutes of {len(rates)} benchmarks rewritten "
              f"from {args.results}")
        return 0

    failed = False

    for check in baseline.get("ratios", []):
        num, den = check["numerator"], check["denominator"]
        if num not in rates or den not in rates:
            print(f"SKIP  ratio {num} / {den}: benchmark missing from run "
                  f"(filter too narrow?)")
            continue
        ratio = rates[num] / rates[den]
        ok = ratio >= check["min"]
        print(f"{'PASS' if ok else 'FAIL'}  {num} / {den} = {ratio:.2f}x "
              f"(need >= {check['min']}x) — {check['why']}")
        failed = failed or not ok

    for check in baseline.get("paired", []):
        name, counter = check["benchmark"], check["counter"]
        ratio = load_medians(results, counter).get(name)
        if ratio is None:
            print(f"SKIP  paired {name} {counter}: benchmark missing from "
                  f"run (filter too narrow?)")
            continue
        ok = ratio >= check["min"]
        print(f"{'PASS' if ok else 'FAIL'}  {name} {counter} = {ratio:.2f}x "
              f"(median of repetitions, need >= {check['min']}x) — "
              f"{check['why']}")
        failed = failed or not ok

    for name, expected in baseline.get("absolutes", {}).items():
        if name not in rates:
            continue
        floor = expected * args.tolerance
        ok = rates[name] >= floor
        verdict = "PASS" if ok else ("FAIL" if args.strict else "WARN")
        print(f"{verdict}  {name}: {rates[name] / 1e6:.2f} M/s "
              f"(floor {floor / 1e6:.2f} M/s = {args.tolerance} x baseline)")
        if args.strict:
            failed = failed or not ok

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
