#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 absbench/run.py --workload dense-tts --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout. It builds the `absbench` binary
(absbench/CMakeLists.txt, which pulls in the `absqubo` library from the
parent directory) into `.bench_build` (or $CARGO_TARGET_DIR), runs the
workload in its own process, adds the host fingerprint, writes the full
record with every raw sample to `.bench_out/`, and prints as its last
line the JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1. Exits non-zero when an answer fails its check or the
build or run fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dense-tts", "sparse-tts")
RUN_TIMEOUT_S = 170


def fail(message):
    print("absbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    step = ["cmake", "--build", build_dir, "--target", "absbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "absbench")


def tree_hash(root):
    """sha256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(HERE, root)):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def listed_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short self-test run (no minimum sample counts)")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one bit of one answer before it is checked")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the root of a source checkout (missing %s)" % needed)

    binary = build(root)
    out_dir = os.path.join(root, ".bench_out")
    work_dir = os.path.join(out_dir, "work-" + args.workload)
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = os.path.join(out_dir, stem + ".raw.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", work_dir, "--out", raw_path]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(out_dir, args.workload + ".trace.json")]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt:
        command.append("--corrupt")

    if os.path.exists(raw_path):
        os.remove(raw_path)
    started = time.time()
    try:
        run = subprocess.run(command, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not os.path.exists(raw_path):
        fail("workload run failed (exit %d)" % run.returncode)
    with open(raw_path) as handle:
        record = json.load(handle)
    os.remove(raw_path)

    facts = record["facts"]
    record["fingerprint"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": facts.get("compiler"),
        "cxx_flags": facts.get("cxx_flags"),
        "build_type": facts.get("build_type"),
        "git_sha": git_sha(root),
        "source_hash": tree_hash(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(time.time() - started, 3),
    }
    with open(os.path.join(out_dir, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    names = listed_metrics(root, args.trace)
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        fail("workload did not report " + ", ".join(missing))
    print("%-28s %16s  %-10s %s" % ("metric", "value", "unit", "samples"))
    for name in names:
        m = record["metrics"][name]
        value = m["value"]
        shown = "%16.6g" % value if value is not None else "%16s" % "none"
        print("%-28s %s  %-10s %d" % (name, shown, m["unit"], m["count"]))
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    line = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {n: {"value": record["metrics"][n]["value"],
                        "unit": record["metrics"][n]["unit"]} for n in names},
    }
    print(json.dumps(line))
    return 0 if record["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
