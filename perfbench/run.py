#!/usr/bin/env python3
"""Build and run the cluert benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the library and the benchmark binary
as Release (CLUERT_TRACE off) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. The binary's last stdout
line is the result object; it is checked against BENCHMARK.json (same
metric names and units, in the catalogue of the requested mode) before it
is printed. Build output goes to stderr. Exits non-zero, printing no
result, when the build, the self-tests or the run fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    # The ceiling stops git from reporting an enclosing repository's HEAD
    # when the checkout itself is not a git repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def check_result(line, trace):
    """The result line must carry exactly the catalogue BENCHMARK.json names."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        raise ValueError("failed must be a whole number")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        want = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            raise ValueError(f"metrics differ from BENCHMARK.json: "
                             f"missing {missing}, extra {extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    t0 = time.monotonic()
    if not build(bdir):
        log("build failed; no result")
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f}s")
    binary = os.path.join(bdir, "perfbench")

    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode

    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    env["PERFBENCH_SCRATCH"] = os.path.join(bdir, "scratch")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s; no result")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0:
        log(f"benchmark exited {run.returncode}; no result")
        return 1
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        log(f"malformed result: {e}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
