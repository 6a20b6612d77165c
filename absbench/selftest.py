#!/usr/bin/env python3
"""Self-test of the benchmark: a short smoke run of every workload.

    python3 absbench/selftest.py

Run from the root of a source checkout. For every workload it checks that
the untraced run prints every end-to-end metric of BENCHMARK.json and the
traced run every per-layer metric, each with its unit, on a last line with
exactly the keys correct/attempted/failed/metrics; that the correctness
gate fires (result line with correct false, non-zero exit) when one bit of
one returned answer is flipped; and that in a directory holding only
BENCHMARK.json and the benchmark's own files the command fails without
printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=None):
    proc = subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc


def check_line(line, expected, workload, label):
    result = json.loads(line)
    assert set(result) == KEYS, "%s %s: keys %s" % (workload, label,
                                                     sorted(result))
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    got = result["metrics"]
    assert set(got) == set(expected), "%s %s: metrics differ: %s" % (
        workload, label, sorted(set(got) ^ set(expected)))
    for name, unit in expected.items():
        assert got[name]["unit"] == unit, "%s %s: %s unit %r, want %r" % (
            workload, label, name, got[name]["unit"], unit)
        assert isinstance(got[name]["value"], (int, float)), name
    return result


def main():
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    smoke = ["--seed", "1", "--seconds", "2", "--smoke"]

    for workload in [w["name"] for w in spec["workloads"]]:
        code, line, proc = run(["--workload", workload, "--trace", "0"] + smoke)
        assert code == 0, "%s untraced exit %d\n%s" % (workload, code,
                                                        proc.stderr[-3000:])
        result = check_line(line, end_to_end, workload, "trace 0")
        assert result["correct"] and result["failed"] == 0, result
        for name in end_to_end:
            assert result["metrics"][name]["value"] > 0, (workload, name)

        code, line, proc = run(["--workload", workload, "--trace", "1"] + smoke)
        assert code == 0, "%s traced exit %d\n%s" % (workload, code,
                                                      proc.stderr[-3000:])
        result = check_line(line, per_layer, workload, "trace 1")
        assert result["metrics"]["obs.trace_dropped"]["value"] == 0

        code, line, proc = run(["--workload", workload, "--trace", "0",
                                "--corrupt"] + smoke)
        assert code != 0, "%s: corrupted answer passed the gate" % workload
        result = json.loads(line)
        assert result["correct"] is False and result["failed"] >= 1, result
        print("ok  %s" % workload)

    # Without the program's sources the command must fail, printing no
    # result.
    bare = os.path.join(".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    code, line, _ = run(["--workload", spec["workloads"][0]["name"], "--seed",
                         "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not line.startswith("{"), (code, line)
    print("ok  bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
