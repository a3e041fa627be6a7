#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `tdq` and the `perfbench` package
(into $CARGO_TARGET_DIR, default `.bench_build`), then hands the run to
`perfbench run`, whose last stdout line is the JSON result. Exits non-zero
without a result when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold_easy", "warm_repeat", "hard_search", "serve_mixed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", "src/lib.rs", "perfbench/Cargo.toml"):
        if not os.path.isfile(needed):
            sys.exit(f"run.py: {needed} is missing; run from a full checkout of the repository")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "tdq"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    )
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")

    release = os.path.join(target, "release")
    work = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [
        os.path.join(release, "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tdq", os.path.join(release, "tdq"),
        "--work", work,
    ]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
