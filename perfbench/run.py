#!/usr/bin/env python3
"""Builds the benchmark and the binaries it drives, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default: .bench_build). The last line of standard output is the JSON
result: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Per-layer metrics of layers the chosen workload never
calls read 0, so every run reports the full set named in BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "lcl-bench", "--bin", "classify-server",
         "-p", "lcl-procshard", "--bin", "shard-worker"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    build(env)
    exe = os.path.join(target, "release", "perfbench")
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    spec = declared(trace)
    unknown = sorted(set(metrics) - {m["name"] for m in spec})
    if unknown:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
    out = {}
    for m in spec:
        if m["name"] in metrics:
            out[m["name"]] = metrics[m["name"]]
        elif trace:
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            sys.exit(f"perfbench: end-to-end metric {m['name']} not measured")
    result["metrics"] = out
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
