#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

One workload run (the last stdout line is the result JSON):

    python3 perfbench/run.py --workload region_lfp --seed 1 --seconds 20 \
        --trace 0

Every workload, every metric, answers checked, deterministic counters
compared across two traced runs with the same seed:

    python3 perfbench/run.py --self-test --seed 1 --seconds 1

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the checkout root. Build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["region_lfp", "element_symbolic", "decomp_cold", "short_queries"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; nothing to build",
              file=sys.stderr)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + generator, stdout=sys.stderr).returncode:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench")


def commit_id():
    """The git commit, or a hash of the benchmarked sources outside git."""
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True)
        lines = head.stdout.split()
        if head.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "data"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, commit):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", os.path.join(ROOT, "data"), "--commit", commit]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def self_test(binary, seed, seconds, commit):
    """Runs every workload untraced and twice traced with one seed."""
    ok = True
    for workload in WORKLOADS:
        code, _ = run(binary, workload, seed, seconds, 0, commit)
        ok = ok and code == 0
        counts = []
        for _ in range(2):
            code, result = run(binary, workload, seed, seconds, 1, commit)
            ok = ok and code == 0 and result is not None
            if result is not None:
                counts.append({name: m["value"]
                               for name, m in result["metrics"].items()
                               if m["unit"] == "count"})
        if len(counts) == 2 and counts[0] != counts[1]:
            ok = False
            for name in counts[0]:
                if counts[0][name] != counts[1].get(name):
                    print(f"# {workload}: {name} not deterministic: "
                          f"{counts[0][name]} vs {counts[1].get(name)}")
    print(f"# self-test {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    binary = build()
    if binary is None:
        return 2
    commit = commit_id()
    if args.self_test:
        return self_test(binary, args.seed, args.seconds, commit)
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace,
                  commit)
    return code


if __name__ == "__main__":
    sys.exit(main())
