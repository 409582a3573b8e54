#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (and the library sources it compiles) into the directory named by
CARGO_TARGET_DIR, default .bench_build; later calls only check the build is
current. Build output and the program's own progress go to stderr; the last
line on stdout is the program's JSON result. The exit code is the program's:
0 only when every job was verified correct. With --trace 1 the spans are
also written as Chrome trace-event JSON under <build dir>/traces/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the program stops its own timed phase long
# before this.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures on first use, then brings the program up to date."""
    configured = any(os.path.exists(os.path.join(out_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        program = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(out_dir, "work")]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]
    # Own session, so a timeout can stop the program and its shard workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: the run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
