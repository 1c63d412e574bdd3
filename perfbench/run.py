#!/usr/bin/env python3
"""Build and run the CALLOC end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-b3-fp32 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest     # the benchmark's arithmetic tests

The benchmark package (perfbench/CMakeLists.txt) builds the library from
the repository's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The last line of
stdout is the result object printed by calloc_perfbench.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fixed_layout():
    """Run the benchmark without address-space randomisation: heap and
    stack placement then repeat from run to run, which removes a source
    of run-to-run spread in the allocation-heavy forward pass."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        addr_no_randomize = 0x0040000
        libc.personality(addr_no_randomize)
    except (OSError, AttributeError):
        pass  # not Linux: keep the default layout


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no CALLOC sources next to perfbench/ "
              "(expected src/CMakeLists.txt)", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return subprocess.run([build("perfbench_harness_test")]).returncode
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        binary = build("calloc_perfbench")
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", os.path.join(build_dir(), "out")]
    start = time.monotonic()
    try:
        # subprocess.run kills the child on timeout and waits for it.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s "
              f"({time.monotonic() - start:.0f} s)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
