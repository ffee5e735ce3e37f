#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark for one workload.

    python3 perfbench/run.py --workload solo_cold|churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
reuse the build. Build output goes to stderr, so the benchmark's own
result line stays the last line of stdout. Exits non-zero, printing no
result, when the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def run_logged(cmd, **kwargs):
    # Build tools write to stderr only: stdout is reserved for the result.
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)


def build(build_dir: Path) -> Path:
    binary = build_dir / "srs_perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise SystemExit("run.py: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", str(build_dir), "-j", jobs]).returncode:
        raise SystemExit("run.py: build failed")
    return binary


def source_version() -> str:
    """The git sha when the tree is a repository, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")

    scratch = target / f"perfbench-scratch-{args.workload}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--scratch", str(scratch),
           "--git-sha", source_version()]
    if args.trace == "1":
        # One file per workload, replaced by each traced run.
        spans = target / "perfbench-spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}.jsonl")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; killed")
        return 1


if __name__ == "__main__":
    sys.exit(main())
