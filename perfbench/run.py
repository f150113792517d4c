#!/usr/bin/env python3
"""Build the isomer benchmark program from source, then run one workload.

  python3 perfbench/run.py --workload paper-mix|impute-heavy|serve-open \
      --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark program under .bench_build/perfbench (a few
minutes); later calls only check that the build is current. Build output
goes to stderr; the program's result object is the last line of stdout. A
traced run also writes its spans to
.bench_build/spans-<workload>-<seed>.jsonl. Exits non-zero, without
printing a result, when the build fails.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"),
                        "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    args = sys.argv[1:]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    flags = dict(zip(args[::2], args[1::2]))
    if flags.get("--trace") == "1":
        name = f"spans-{flags.get('--workload')}-{flags.get('--seed')}.jsonl"
        args += ["--spans", str(ROOT / ".bench_build" / name)]
    program = str(BUILD / "perfbench")
    return subprocess.run([program] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
