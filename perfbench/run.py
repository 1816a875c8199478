#!/usr/bin/env python3
"""perfbench: the sparsedet benchmark.

Builds sparsedet and the benchmark harness from the source tree around this
directory, runs one workload in fresh processes and prints its metrics. The
last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run. --workload all runs every workload both ways and prints
every metric. See perfbench/README.md for what each workload and metric is.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-hot", "study-cold", "optimize-grid", "adapt-closed-loop"]
# Fresh processes that only set up, per run; with the measured run itself
# they give the median setup_s.
SETUP_REPEATS = {"serve-hot": 6, "study-cold": 8, "optimize-grid": 8,
                 "adapt-closed-loop": 8}
RUN_LIMIT_S = 170
SOURCE_MARKERS = ["CMakeLists.txt", os.path.join("src", "engine", "engine.h"),
                  os.path.join("src", "cli", "main.cc")]


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, log_path):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        code = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT)
    if code != 0:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        raise RuntimeError("command failed: " + " ".join(cmd))


def build(out_dir):
    """Builds sparsedet (its own CMake project, its own flags) and the
    harness that links its libraries. Returns (harness, sparsedet)."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    repo_build = os.path.join(out_dir, "repo")
    bench_build = os.path.join(out_dir, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(repo_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", repo_build] + generator +
                   ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log_path)
    run_logged(["cmake", "--build", repo_build, "--target", "sparsedet",
                "-j", jobs], log_path)
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bench_build] + generator +
                   ["-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DSPARSEDET_BUILD_DIR=" + repo_build], log_path)
    run_logged(["cmake", "--build", bench_build, "-j", jobs], log_path)
    return (os.path.join(bench_build, "perfbench_harness"),
            os.path.join(repo_build, "src", "cli", "sparsedet"))


def build_facts(out_dir):
    facts = {"build_type": "unknown", "compiler_path": "unknown"}
    cache = os.path.join(out_dir, "repo", "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                facts["build_type"] = line.split("=", 1)[1].strip()
            elif line.startswith("CMAKE_CXX_COMPILER:"):
                facts["compiler_path"] = line.split("=", 1)[1].strip()
    try:
        facts["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        facts["commit"] = "none (not a git checkout)"
    digest = hashlib.sha256()
    for base in ["src", "CMakeLists.txt"]:
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    facts["source_sha256"] = digest.hexdigest()[:16]
    return facts


def harness_run(harness, sparsedet, workload, seed, seconds, trace,
                setup_only, spans=None):
    """One fresh harness process. Returns (setup_s, report lines, result
    dict or None, exit code)."""
    cmd = [harness, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--sparsedet", sparsedet, "--setup-only", "1" if setup_only else "0"]
    if spans:
        cmd += ["--spans", spans]
    # Its own process group, so a run that outlives the limit is killed
    # together with the server it started, and yields no result.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_LIMIT_S, kill_group)
    timer.start()
    setup_s = None
    lines = []
    code = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("READY") and setup_s is None:
                setup_s = float(line.split()[1])
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_group()
        proc.wait()
        proc.stdout.close()
        if code != 0:
            # Whatever the killed run left in its group (its server).
            kill_group()
            for _ in range(50):
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.1)
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    return setup_s, lines, result, code


def run_workload(harness, sparsedet, facts, workload, seed, seconds, trace):
    """Runs one workload; returns (result, exit code) and prints its report."""
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS[workload] - 1):
            setup_s, _, _, code = harness_run(harness, sparsedet, workload,
                                              seed, seconds, 0, True)
            if code != 0 or setup_s is None:
                log("set-up run of %s failed (exit %s)" % (workload, code))
                return None, 1
            setups.append(setup_s)
    spans = None
    if trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        # One file per workload, overwritten by its next traced run.
        spans = os.path.join(trace_dir, workload + ".jsonl")
    setup_s, lines, result, code = harness_run(
        harness, sparsedet, workload, seed, seconds, trace, False, spans)
    print("# workload %s seed %d trace %d" % (workload, seed, trace))
    for line in lines:
        if line.startswith("HOST "):
            host = json.loads(line[5:])
            host.update(facts)
            print("# host: " + json.dumps(host, sort_keys=True))
        else:
            print(line)
    if result is None:
        log("%s printed no result (exit %s)" % (workload, code))
        return None, 1
    if setup_s is not None:
        setups.append(setup_s)
    if not trace and result["correct"] and setups:
        print("# setup_s samples: " + " ".join("%.4f" % s for s in setups))
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    if spans:
        print("# spans: " + os.path.relpath(spans, ROOT))
    for name, metric in result["metrics"].items():
        print("# %-36s %18.6f %s" % (name, metric["value"], metric["unit"]))
    return result, 0 if code == 0 and result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    missing = [m for m in SOURCE_MARKERS
               if not os.path.exists(os.path.join(ROOT, m))]
    if missing:
        log("no sparsedet source tree around perfbench/ (missing %s)"
            % ", ".join(missing))
        return 2
    try:
        harness, sparsedet = build(build_dir())
        facts = build_facts(build_dir())
    except (RuntimeError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    if args.workload != "all":
        result, code = run_workload(harness, sparsedet, facts, args.workload,
                                    args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": result["metrics"]}))
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, run_code = run_workload(harness, sparsedet, facts,
                                            workload, args.seed, args.seconds,
                                            trace)
            code = code or run_code
            if result is None:
                merged["correct"] = False
                continue
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
