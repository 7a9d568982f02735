#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # the benchmark's own unit tests

Run from the repository root. The library and the benchmark are built from
source into .bench_build/ (Release) before every run; an up-to-date build
costs about a second. The benchmark's report goes to stdout and its last line
is the result JSON. Exits nonzero, without a result, when the library sources
are missing or the build fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "perfbench"
WORKLOADS = ["singlebyte-grid", "digraph-campaign", "tkip-attack", "cookie-attack"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT} (CMakeLists.txt and src/ are needed)")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return BUILD_DIR / target


def revision():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.test:
        sys.exit(subprocess.run([str(build("perfbench_test"))], cwd=ROOT).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    spans = BUILD / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", str(BUILD / "work"),
        "--digests", str(ROOT / "perfbench" / "expected_digests.txt"),
        "--revision", revision(),
    ]
    if args.trace == "1":
        command += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
