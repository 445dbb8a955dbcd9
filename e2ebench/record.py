#!/usr/bin/env python3
"""Runs the benchmark on seeds 1-10 over every workload of BENCHMARK.json
and writes the run record (e2ebench/RUN_RECORD.json): per workload and
end-to-end metric the median, the quartiles and the spread (interquartile
distance over the median) next to the metric's bound, plus the machine and
build the numbers were measured on. Workloads are interleaved (each seed
runs every workload in turn), so a slow drift of the host's speed spreads
over all workloads instead of landing on whichever ran during it.

  python3 e2ebench/record.py

Exits 1 unless every spread but setup_s's is below a third of its bound and
no run failed.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def cmake_cache(key):
    build = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def compiler():
    path = cmake_cache("CMAKE_CXX_COMPILER")
    if not path:
        return ""
    out = subprocess.run([path, "--version"], capture_output=True, text=True).stdout
    return out.splitlines()[0] if out else path


def git_commit():
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    record = {
        "seeds": SEEDS,
        "run_seconds": bench["run_seconds"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "compiler": compiler(),
        "git_commit": git_commit(),
        "workloads": {},
    }
    values = {w: {} for w in workloads}
    failed = {w: 0 for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                failed[workload] += 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    steady = True
    for workload in workloads:
        entry = {"failed_runs": failed[workload], "metrics": {}}
        print(workload, flush=True)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            q1, _, q3 = statistics.quantiles(values[workload][name], n=4)
            median = statistics.median(values[workload][name])
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"unit": metric["unit"], "median": median, "q1": q1,
                                      "q3": q3, "spread": spread, "bound": metric["bound"]}
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady = steady and ok and failed[workload] == 0
            print("  %-16s median %-12.6g spread %.4f bound %.2f %s" % (
                name, median, spread, metric["bound"], "" if ok else "<- above bound/3"),
                flush=True)
        record["workloads"][workload] = entry
    with open(os.path.join(HERE, "RUN_RECORD.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
