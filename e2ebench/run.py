#!/usr/bin/env python3
"""Build the Hobbit end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload campaign --seed 1 --seconds 24 --trace 0

Run from the repository root.  The first call configures and builds the
libraries under src/ plus the benchmark binary into .bench_build (or
$CARGO_TARGET_DIR when set).  The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  The line before it, "stamp {...}", names the
hardware and build the numbers came from.  The exit code is 0 only when
every output check passed.  --quick runs a tiny version of the workload
(for the benchmark's own tests); --fault reply|block injects a wrong
answer the checks must catch.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Hobbit sources under src/ -- nothing to build")
        return None
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out_dir, "--target", "e2ebench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out_dir, "e2ebench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def binary_args(workload, args, out_dir):
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if workload not in config["workloads"]:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {sorted(config['workloads'])}")
    params = dict(config["common"])
    params.update(config["workloads"][workload])
    seconds = args.seconds
    if args.quick:
        quick = dict(config["quick"])
        seconds = quick.pop("seconds")
        if params["census"] == 0:
            del quick["census"]  # that workload serves its campaign's map
        params.update(quick)
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
            "--work-dir", os.path.join(out_dir, "work"),
            "--fault", args.fault]
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        argv += [f"--{key}", str(value)]
    return argv


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def add_overhead(trace_path, traced, untraced_path):
    """Tracing overhead: traced minus untraced blocks_per_s and p50_us."""
    if not (os.path.isfile(trace_path) and os.path.isfile(untraced_path)):
        return
    with open(untraced_path) as f:
        untraced = json.load(f)["metrics"]
    with open(trace_path) as f:
        spans = json.load(f)
    spans["overhead"] = {
        "blocks_per_s": traced["campaign.traced_blocks_per_s"]["value"]
        - untraced["blocks_per_s"]["value"],
        "p50_us": traced["serve.traced_p50_us"]["value"]
        - untraced["p50_us"]["value"],
    }
    with open(trace_path, "w") as f:
        json.dump(spans, f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--fault", choices=("none", "reply", "block"),
                        default="none")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        log("build failed")
        return 2
    argv = [binary] + binary_args(args.workload, args, out_dir)
    tag = f"{args.workload}-{args.seed}"
    for sub in ("work", "results", "traces"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    trace_path = os.path.join(out_dir, "traces", f"{tag}.json")
    if args.trace:
        argv += ["--trace-out", trace_path]
    ticks_before = cpu_ticks()
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    # A killed run leaves its served snapshot files behind.
    work = os.path.join(out_dir, "work")
    for name in os.listdir(work):
        if name.endswith(".snap"):
            os.remove(os.path.join(work, name))
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"e2ebench exited {proc.returncode} without a result")
        return proc.returncode or 3
    result = json.loads(lines[-1])
    stamp = {}
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    stamp.update({"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                  "build_type": BUILD_TYPE, "commit": commit(),
                  "source_sha256": source_digest(),
                  "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "quick": args.quick})
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # Share of CPU time the hypervisor gave to others during the run:
        # tail latencies on a VM track it.
        stamp["host_steal_frac"] = round(
            (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1]), 4)

    declared = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(got))}, extra "
            f"{sorted(set(got) - set(declared))}, units "
            f"{sorted(k for k in got if k in declared and got[k] != declared[k])}")
        return 3
    with open(os.path.join(out_dir, "results",
                           f"{tag}-trace{args.trace}.json"), "w") as f:
        json.dump({"stamp": stamp, **result}, f, indent=1)
    if args.trace:
        add_overhead(trace_path, result["metrics"],
                     os.path.join(out_dir, "results", f"{tag}-trace0.json"))
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
