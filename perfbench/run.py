#!/usr/bin/env python3
"""Build and run the ksan replay benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (its own Cargo package, depending on the repository's
crates by path) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs one measurement. Workloads: hot_pairs,
zipf_splay, zipf_lazy, boundary_reshard. `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of the traced run.
The last line of standard output is the JSON result; build output goes to
standard error. Exits non-zero, printing no result, if the benchmark
cannot be built or fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git revision when run in a git checkout, plus a digest of the
    sources the benchmark builds, so results from exports are traceable."""
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            paths += [
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith((".rs", ".toml", ".lock", ".py"))
            ]
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    rev = "src-" + digest.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if git.returncode == 0:
            rev = git.stdout.strip() + "+" + rev
    return rev


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [
            binary,
            "run",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--work", os.path.join(target, "perfbench-work"),
            "--rev", revision(),
        ],
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
