#!/usr/bin/env python3
"""End-to-end benchmark of cprisk: bundle-to-report latency, scenarios per
second and verdict correctness over four workloads, plus a traced run that
attributes each operation's wall time to the program's layers.

Run from the repository root:

  python3 e2ebench/run.py --workload casestudy_batch --seed 1 --seconds 20 --trace 0
  python3 e2ebench/run.py --selfcheck      # tiny sizes, all workloads, gate test
  python3 e2ebench/run.py --pin            # re-create expected/casestudy.json

The first call builds the library and the harness (e2ebench/CMakeLists.txt)
into $CARGO_TARGET_DIR, or .bench_build when unset. Inputs are generated
from --seed under that directory and removed afterwards. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
End-to-end metrics come from untraced runs (--trace 0); --trace 1 reports
the per-layer metrics instead.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import gen  # noqa: E402

SETUP_REPEATS = 9  # fresh processes per run; setup_s is their median
SEARCH_SIZES = [10, 12, 14, 16]  # components per search_heavy bundle
FRONTIER_SIZES = [10, 11]  # fault modes per frontier_mixed bundle
# Serve mix: each client sends bursts of requests for one bundle (burst
# lengths below) in a seeded order. With two hot models for three bundles
# the first request of a burst may miss and evict, the rest hit, so every
# bundle's latency is dominated by hits and misses stay a steady minority.
SERVE_BURSTS = [("watertank", 4), ("search", 3), ("reactor", 3)]
SERVE_CLIENTS = 2

WORKLOADS = {
    # The paper's case studies: grounding and the absint prefilter do the
    # step-4/5 work, the Pareto front adds mitigation solves.
    "casestudy_batch": {"horizon": 24, "max_faults": 3, "attack_scenarios": True,
                        "use_cegar": True, "pareto": True},
    # Generated loop-bank/pigeonhole bundles: the CDCL solver is the
    # largest layer.
    "search_heavy": {"horizon": 6, "max_faults": 2, "attack_scenarios": True,
                     "use_cegar": True},
    # Generated non-monotone bundles: the frontier enumerates the whole
    # fault lattice with no pruning.
    "frontier_mixed": {"horizon": 6, "max_faults": 2, "exhaustive": True},
    # Two clients against an in-process daemon: protocol, admission,
    # model-cache hits and misses, warm ground-once bases.
    "serve_mixed": {"horizon": 12, "max_faults": 2},
}

# Metric names and units are defined once, in BENCHMARK.json at the root.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]

# Layer self times (ms per traced op) that make up an op's wall time.
SELF_TIMES = ["core.load_ms", "security.space_ms", "asp.ground_ms", "asp.absint_ms",
              "asp.solve_ms", "epa.evaluate_ms", "epa.frontier_ms", "hierarchy.cegar_ms",
              "hierarchy.stage_setup_ms", "risk.rate_ms", "mitigation.optimize_ms",
              "mitigation.pareto_ms", "core.report_ms", "serve.acquire_ms"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("e2ebench: " + message)
    sys.exit(1)


# --- Build ------------------------------------------------------------------

def build_dir():
    return os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures (once) and builds the harness; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    build_log = os.path.join(out_dir, "build.log")
    with open(build_log, "w") as logfile:
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=logfile, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(os.path.join(out_dir, "CMakeFiles"), ignore_errors=True)
                try:
                    os.remove(os.path.join(out_dir, "CMakeCache.txt"))
                except OSError:
                    pass
                fail("cmake configure failed, see " + build_log)
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", out_dir, "--target", "e2e_harness", "-j", jobs],
                           stdout=logfile, stderr=subprocess.STDOUT) != 0:
            fail("build failed, see " + build_log)
    return os.path.join(out_dir, "e2e_harness")


# --- Inputs -----------------------------------------------------------------

def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def load_pins():
    with open(os.path.join(HERE, "expected", "casestudy.json")) as f:
        return json.load(f)


def casestudy_bundles(work, pins, key):
    out = []
    for name in ["watertank", "reactor"]:
        path = os.path.join(work, name + ".cpm")
        shutil.copyfile(os.path.join(HERE, "bundles", name + ".cpm"), path)
        entry = {"name": name, "path": path}
        entry.update(pins[key][name])
        out.append(entry)
    return out


def generated_bundles(work, family, seed, sizes, max_faults=2):
    out = []
    for name, text, expected in gen.generate(family, seed, sizes, max_faults):
        path = os.path.join(work, name + ".cpm")
        write(path, text)
        entry = {"name": name, "path": path}
        entry.update(expected)
        out.append(entry)
    return out


def serve_schedule(seed):
    """Per-client request sequences: seeded shuffles of one burst per
    bundle, so every seed sends the same mix and only the order varies."""
    rng = random.Random("serve:%d" % seed)
    bursts = [[i] * length for i, (_, length) in enumerate(SERVE_BURSTS)]
    schedule = []
    for _ in range(SERVE_CLIENTS):
        sequence = []
        for _ in range(400):
            rng.shuffle(bursts)
            sequence += [i for burst in bursts for i in burst]
        schedule.append(sequence)
    return schedule


def make_manifest(workload, seed, work, quick=False):
    manifest = {"workload": workload, "config": WORKLOADS[workload]}
    search_sizes = [6, 7] if quick else SEARCH_SIZES
    frontier_sizes = [9] if quick else FRONTIER_SIZES
    if workload == "casestudy_batch":
        bundles = casestudy_bundles(work, load_pins(), "batch")  # fixed inputs, seed unused
    elif workload == "search_heavy":
        bundles = generated_bundles(work, "search", seed, search_sizes)
    elif workload == "frontier_mixed":
        bundles = generated_bundles(work, "frontier", seed, frontier_sizes)
    else:
        pinned = {b["name"]: b for b in casestudy_bundles(work, load_pins(), "serve")}
        search = generated_bundles(work, "search", seed, search_sizes[1:2])[0]
        by_name = {"watertank": pinned["watertank"], "reactor": pinned["reactor"],
                   "search": search}
        bundles = [by_name[name] for name, _ in SERVE_BURSTS]
        manifest["schedule"] = serve_schedule(seed)
        manifest["socket"] = os.path.join(work, "serve.sock")
    manifest["bundles"] = bundles
    path = os.path.join(work, "manifest.json")
    write(path, json.dumps(manifest))
    return path


# --- Running the harness ----------------------------------------------------

def harness(binary, manifest, phase, seconds=0.0, trace=0, max_rounds=None, timeout=170):
    """Runs one harness phase; returns (exit code, parsed last line or None)."""
    cmd = [binary, "--manifest", manifest, "--phase", phase, "--seconds", str(seconds),
           "--trace", str(trace)]
    if max_rounds is not None:
        cmd += ["--max-rounds", str(max_rounds)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("harness %s phase timed out" % phase)
    if err.strip():
        log(err.strip())
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        return proc.returncode, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except ValueError:
        return proc.returncode, None


def median_of_bundles(samples, bundles):
    """Mean over the mix's bundles of each bundle's median op latency. The
    mix is multi-modal (bundles differ in size), so the plain median of all
    samples would sit between two modes and jump between them run to run."""
    groups = {}
    for ms, b in zip(samples, bundles):
        groups.setdefault(b, []).append(ms)
    return statistics.fmean(statistics.median(g) for g in groups.values())


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def per_op(value, ops):
    return value / ops if ops else 0.0


def layer_metrics(res):
    ops = res["traced_ops"]
    self_ms = res["self_ms"]
    ctr = res["counters"]
    extra = res["extra"]

    def c(name):
        return per_op(ctr.get(name, 0.0), ops)

    m = {name: per_op(self_ms.get(name, 0.0), ops) for name in SELF_TIMES}
    static = ctr.get("epa.absint.static_safe", 0.0) + ctr.get("epa.absint.static_hazard", 0.0)
    evaluations = res["evaluate_spans"]
    hits, misses = ctr.get("epa.ground_cache.hits", 0.0), ctr.get("epa.ground_cache.misses", 0.0)
    m.update({
        "security.scenarios": c("assess.scenarios"),
        "asp.ground.atoms": c("asp.ground.atoms"),
        "asp.ground.rules": c("asp.ground.rules"),
        "epa.absint.static_fraction": static / evaluations if evaluations else 0.0,
        "epa.absint.rules_deleted": c("epa.absint.rules_deleted"),
        "epa.evaluate.count": per_op(res["evaluate_spans"], ops),
        "epa.ground_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.report_bytes": c("core.report_bytes"),
    })
    for name in ["asp.solve.calls", "asp.solve.decisions", "asp.solve.conflicts",
                 "asp.solve.propagations", "asp.solve.learned_clauses",
                 "asp.solve.reused_propagations", "epa.frontier.candidates",
                 "epa.frontier.evaluated", "epa.frontier.pruned", "cegar.scenarios.spurious",
                 "mitigation.pareto.solves", "mitigation.optimize.nodes"]:
        m[name] = c(name)
    completed = extra.get("serve.requests.completed", 0.0)
    daemon_hits = extra.get("serve.cache.hits", 0.0)
    daemon_misses = extra.get("serve.cache.misses", 0.0)
    untraced = res["samples_ms"]
    m.update({
        "serve.parse_us": per_op(extra.get("serve.parse_us_total", 0.0), ops),
        "serve.acquire_hit_ms": per_op(extra.get("serve.acquire_hit_ms_total", 0.0),
                                       extra.get("serve.acquire_hits", 0.0)),
        "serve.acquire_miss_ms": per_op(extra.get("serve.acquire_miss_ms_total", 0.0),
                                        extra.get("serve.acquire_misses", 0.0)),
        "serve.overhead_ms": (per_op(extra["serve.client_ms_total"], extra["serve.client_ops"])
                              - statistics.fmean(untraced)) if "serve.client_ops" in extra
                             and untraced else 0.0,
        "serve.cache.hit_ratio": daemon_hits / (daemon_hits + daemon_misses)
                                 if daemon_hits + daemon_misses else 0.0,
        "serve.cache.evictions": per_op(extra.get("serve.cache.evictions", 0.0), completed),
        "serve.requests.overloaded": per_op(extra.get("serve.requests.overloaded", 0.0),
                                            completed),
    })
    traced_op = per_op(res["traced_wall_ms"], ops)
    m["traced_op_ms"] = traced_op
    m["unattributed_ms"] = traced_op - sum(m[name] for name in SELF_TIMES)
    traced = res["traced_ms"]
    m["trace_overhead"] = (median_of_bundles(traced, res["traced_bundle"])
                           / median_of_bundles(untraced, res["sample_bundle"])
                           if traced and untraced else 0.0)
    return m


def print_layers(workload, m):
    wall = m["traced_op_ms"]
    print("%s: layer self time per traced op (op wall %.3f ms)" % (workload, wall))
    for name in SELF_TIMES + ["unattributed_ms"]:
        if name in m and m[name] != 0.0:
            share = 100.0 * m[name] / wall if wall else 0.0
            print("  %-26s %10.3f ms  %5.1f%%" % (name, m[name], share))
    for name, unit in PER_LAYER:
        if unit != "ms" or name not in SELF_TIMES + ["unattributed_ms"]:
            print("  %-30s %.6g %s" % (name, m[name], unit))


def run_workload(binary, workload, seed, seconds, trace, work, quick=False):
    """One benchmark run: returns the result object of the last stdout line."""
    manifest = make_manifest(workload, seed, work, quick)
    attempted = failed = 0
    errors = []
    setups = []
    for _ in range(1 if quick else SETUP_REPEATS):
        code, res = harness(binary, manifest, "setup")
        if res is None:
            fail("setup phase of %s produced no result (exit %d)" % (workload, code))
        attempted += res["attempted"]
        failed += res["failed"]
        errors += res["errors"]
        setups.append(res["setup_s"])
    code, res = harness(binary, manifest, "measure", seconds, trace, 1 if quick else None,
                        timeout=seconds + 150)
    if res is None:
        fail("measure phase of %s produced no result (exit %d)" % (workload, code))
    attempted += res["attempted"]
    failed += res["failed"]
    errors += res["errors"]
    for error in errors[:5]:
        log("verdict gate: " + error)

    if trace:
        metrics = layer_metrics(res)
        print_layers(workload, metrics)
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        samples = res["samples_ms"]
        if not samples:
            fail("no timed operations in %s" % workload)
        tail_ms, tail_pct, n = tail(samples)
        values = {
            "op_p50_ms": median_of_bundles(samples, res["sample_bundle"]),
            "op_tail_ms": tail_ms,
            "ops_per_s": len(samples) / res["wall_s"],
            "scenarios_per_s": res["scenarios"] / res["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print("%s seed %d: %d ops in %.3f s, %d failed" % (workload, seed, res["attempted"],
                                                          res["wall_s"], res["failed"]))
        for name, unit in END_TO_END:
            note = " (p%.1f of %d samples)" % (tail_pct, n) if name == "op_tail_ms" else ""
            print("  %-16s %.6g %s%s" % (name, values[name], unit, note))
        print("  %-16s %.6g ratio" % ("error_rate", failed / attempted if attempted else 0.0))
        out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0 and code == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


# --- Self-check and pin -----------------------------------------------------

def selfcheck(binary, out_dir):
    """Runs every workload once at tiny sizes, then feeds one deliberately
    wrong expected answer and requires the verdict gate to report it."""
    ok = True
    for workload in WORKLOADS:
        work = fresh_dir(out_dir, "selfcheck-" + workload)
        res = run_workload(binary, workload, 1, 1, 0, work, quick=True)
        good = res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
        log("selfcheck %-16s %s" % (workload, "ok" if good else "FAILED"))
        ok = ok and good
        shutil.rmtree(work, ignore_errors=True)

    work = fresh_dir(out_dir, "selfcheck-corrupt")
    manifest_path = make_manifest("search_heavy", 1, work, quick=True)
    with open(manifest_path) as f:
        manifest = json.load(f)
    hazard = manifest["bundles"][0]["hazards"][0]
    hazard["violated"] = hazard["violated"] + ["r_not_violated"]
    write(manifest_path, json.dumps(manifest))
    code, res = harness(binary, manifest_path, "measure", 1, 0, 1)
    caught = code != 0 and res is not None and res["failed"] >= 1
    log("selfcheck corrupted answer %s" % ("reported as a failure" if caught else "NOT CAUGHT"))
    shutil.rmtree(work, ignore_errors=True)
    return ok and caught


def pin(binary, out_dir):
    """Re-creates expected/casestudy.json; the harness refuses the pin when
    the prefilter-off, DPLL or ground-once-off paths disagree."""
    pins = {}
    for key, workload in [("batch", "casestudy_batch"), ("serve", "serve_mixed")]:
        work = fresh_dir(out_dir, "pin-" + key)
        manifest = {"workload": workload, "config": WORKLOADS[workload], "bundles": []}
        for name in ["watertank", "reactor"]:
            manifest["bundles"].append(
                {"name": name, "path": os.path.join(HERE, "bundles", name + ".cpm")})
        path = os.path.join(work, "manifest.json")
        write(path, json.dumps(manifest))
        code, res = harness(binary, path, "pin")
        if code != 0 or res is None:
            fail("pin refused for %s" % key)
        pins[key] = res
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    write(os.path.join(HERE, "expected", "casestudy.json"), json.dumps(pins, indent=1) + "\n")


def fresh_dir(out_dir, name):
    path = os.path.join(out_dir, "work", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    if sorted(w["name"] for w in BENCHMARK["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py's WORKLOADS")
    out_dir = build_dir()
    binary = build(out_dir)
    if args.selfcheck:
        sys.exit(0 if selfcheck(binary, out_dir) else 1)
    if args.pin:
        pin(binary, out_dir)
        return
    if args.workload is None:
        parser.error("--workload is required")
    work = fresh_dir(out_dir, "%s-%d" % (args.workload, args.seed))
    try:
        result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
