#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them against BENCHMARK.json.

  python3 perfbench/compare.py collect --workload W --seeds 1-10 --out DIR
      Runs the benchmark once per seed (trace 0, BENCHMARK.json's
      run_seconds) and stores each run's result line as DIR/W-<seed>.json
      and its as-measured host figures as DIR/W-<seed>.raw.

  python3 perfbench/compare.py compare DIR_A [DIR_B]
      For every workload and end-to-end metric, prints the median of each
      set and its spread: the distance between the first and third quartile
      as a share of the median. With two sets it also prints how far B's
      median moved from A's, in the direction the metric calls worse.
      Flags a spread beyond the metric's bound and a move beyond it, and
      exits 1 when anything is flagged. The host metrics are then shown
      again as measured, before the speed probe's scaling, against the same
      bounds; those lines are for reading and flag nothing.

Run from the repository root.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    bench = load_bench()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"run failed: workload {args.workload} seed {seed}")
        (out / f"{args.workload}-{seed}.json").write_text(lines[-1] + "\n")
        (out / f"{args.workload}-{seed}.raw").write_text(lines[-2] + "\n")
        print(f"{args.workload} seed {seed}: done", flush=True)


def load_set(directory, suffix, key):
    """{workload: [the `key` member of each run's stored line]}."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*" + suffix)):
        workload = path.stem.rsplit("-", 1)[0]
        runs.setdefault(workload, []).append(
            json.loads(path.read_text())[key])
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worsening(first, second, better):
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def compare_set(bench, sets, workload):
    """Prints one line per metric the runs hold; returns whether any spread
    or move is beyond its bound."""
    flagged = False
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians, cells = [], []
        for runs in sets:
            values = [r[name]["value"] for r in runs.get(workload, [])
                      if name in r]
            if len(values) < 2:
                cells.append("  (too few runs)")
                medians.append(None)
                continue
            s = spread(values)
            bad = s > bound
            flagged |= bad
            medians.append(statistics.median(values))
            cells.append(f"median {medians[-1]:14.6g} spread {s:7.4f}"
                         f"{' OVER' if bad else '     '}")
        if medians == [None] * len(sets):
            continue
        line = f"  {name:24s} bound {bound:5.3f}  " + "  ".join(cells)
        if len(medians) == 2 and None not in medians:
            w = worsening(medians[0], medians[1], metric["better"])
            bad = w > bound
            flagged |= bad
            line += f"  worse by {w:+.4f}{' OVER' if bad else ''}"
        print(line)
    return flagged


def compare(args):
    bench = load_bench()
    sets = [load_set(d, ".json", "metrics") for d in args.dirs]
    raw_sets = [load_set(d, ".raw", "as_measured") for d in args.dirs]
    flagged = False
    for workload in sorted(sets[0]):
        print(f"== {workload}")
        flagged |= compare_set(bench, sets, workload)
        if any(raw_sets):
            print("  -- host metrics as measured (not gated)")
            compare_set(bench, raw_sets, workload)
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("dirs", nargs="+")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    if len(args.dirs) > 2:
        parser.error("compare takes one or two directories")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
