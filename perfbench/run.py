#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <sieve|churn|detect> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the
repository root) and its log to standard error.  Standard output is the
benchmark's JSON records; the last line is the result.  Exits non-zero,
without a result, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Runs cmd to completion in a process group of its own; on timeout
    kills the whole group (cmd and any process it started) and reaps cmd."""
    with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, out


def capture(cmd):
    """First line of cmd's output, or 'unknown'."""
    try:
        code, out = run(cmd, 30, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.strip().splitlines()
    return lines[0] if code == 0 and lines else "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        code, _ = run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            BUILD_TIMEOUT_S,
            env=env,
            stdout=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    env["PERFBENCH_GIT_REV"] = capture(["git", "rev-parse", "HEAD"])
    binary = os.path.join(target, "release", "perfbench")
    try:
        code, out = run(
            [binary] + sys.argv[1:], RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, text=True
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if code != 0:
        print(f"perfbench: run exited with {code}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
