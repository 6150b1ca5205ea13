#!/usr/bin/env python3
"""Benchmark of the Unimem simulator's sweep layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig13 --seed 1 --seconds 20 --trace 0

Builds perfbench/driver.cc (and the repository's libraries it links) with
CMake, then runs the workload's sweep spec through sweep::SweepEngine::run,
one driver process per pass, until --seconds have passed.  With --trace 0 it
reports the end-to-end metrics over the passes (host times from the least
disturbed pass, the rest as medians); with --trace 1 it also makes one
traced pass and reports the per-layer metrics.  Every pass is
gated: all points ok, checksums equal within each (workload, class, ranks)
group, and identical simulated results on every pass of the same seed.  The
last line of standard output is one JSON object; everything else goes to
standard error.  `--self-test` checks the gate on synthetic rows and exits.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig13", "tier_ladder", "replan_drift")
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
# Set-up-only driver spawns after each pass: more setup_s samples for the
# median at a few milliseconds each.
SETUP_SPAWNS_PER_PASS = 4
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def gate(rows):
    """Indices of the rows that fail the gate.

    A row fails when it is not ok, when its simulated time or checksum is
    missing or not finite, or when its checksum differs from the majority of
    its (workload, class, ranks) group: placement never changes what a
    workload computes, so every policy and machine of a group must agree.
    A group without a strict majority fails as a whole.
    """
    bad = set()
    groups = collections.defaultdict(list)
    for r in rows:
        if not r["ok"] or not finite(r["checksum"]) or not finite(r["time_s"]) \
                or r["time_s"] <= 0:
            bad.add(r["index"])
        else:
            groups[(r["workload"], r["cls"], r["nranks"])].append(r)
    for members in groups.values():
        ranked = collections.Counter(r["checksum"] for r in members).most_common()
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            bad.update(r["index"] for r in members)
        else:
            bad.update(r["index"] for r in members if r["checksum"] != ranked[0][0])
    return bad


def self_test():
    """Feed the gate clean rows, one flipped checksum and one failed row."""
    def row(index, checksum, ok=True):
        return {"index": index, "workload": "cg", "cls": "C", "nranks": 4,
                "ok": ok, "time_s": 0.5, "checksum": checksum}

    clean = [row(i, 1234.5) for i in range(4)]
    flipped = row(4, math.nextafter(1234.5, math.inf))
    failed = row(5, 0.0, ok=False)
    failures = []
    if gate(clean):
        failures.append("clean rows were rejected")
    if gate(clean + [flipped, failed]) != {4, 5}:
        failures.append("flipped checksum or failed row not caught")
    if gate([row(0, 1.0), row(1, 2.0)]) != {0, 1}:
        failures.append("a group without a majority was not rejected")
    return failures


# ---------------------------------------------------------------------------
# Build and driver passes
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the repository's sources (CMakeLists.txt, src/) "
                         "are not beside perfbench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def driver_json(cmd, timeout):
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(cmd))
    if p.stderr:
        sys.stderr.write(p.stderr)
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError("driver exited with %d: %s" % (p.returncode, " ".join(cmd)))
    return json.loads(p.stdout.strip().splitlines()[-1])


def spawn(driver, mode, workload, seed):
    # The driver measures setup_s from this CLOCK_MONOTONIC reading.
    spawn_ns = time.monotonic_ns()
    return driver_json([driver, mode, workload, str(seed), str(spawn_ns)],
                       PASS_TIMEOUT_S)


def steal_s():
    """Seconds the hypervisor ran other guests on this machine's CPUs (the
    steal column of /proc/stat, summed over CPUs), or None without it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def sweep_pass(driver, workload, seed):
    before = steal_s()
    p = spawn(driver, "sweep", workload, seed)
    after = steal_s()
    p["steal_s"] = after - before if before is not None and after is not None \
        else float("nan")
    p["setup_samples"] = [p["setup_s"]] + [
        spawn(driver, "setup", workload, seed)["setup_s"]
        for _ in range(SETUP_SPAWNS_PER_PASS)]
    return p


def simulated(rows):
    """The simulated outcome of a pass: identical on every pass of a seed."""
    return [(r["index"], r["ok"], r["time_s"], r["checksum"], r["normalized"],
             r["migrations"], r["bytes_moved"]) for r in rows]


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end_values(passes):
    """The end-to-end metrics of a run.

    wall_s and cpu_s come from the pass with the least of each, because
    other guests on a shared host only ever add time (as steal time, and as
    slower user and system time while they run).  Over a run's passes the
    minimum moves far less with that load than the median.  setup_s is the
    median of all set-up samples, peak_rss_mib the median over passes; the
    simulated geomean is the same on every pass.
    """
    unimem = [r["normalized"] for r in passes[0]["rows"]
              if r["policy"] == "Unimem" and r["ok"] and finite(r["normalized"])
              and r["normalized"] > 0]
    cpu = min(p["cpu_s"] for p in passes)
    return {
        "worlds_per_cpu_s": passes[0]["worlds"] / cpu,
        "wall_s": min(p["wall_s"] for p in passes),
        "cpu_s": cpu,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "setup_s": statistics.median(
            s for p in passes for s in p["setup_samples"]),
        "unimem_norm_time_geomean": geomean(unimem) if unimem else float("nan"),
    }


def log_passes(passes):
    """Per-pass host figures on stderr, to tell host load from program cost."""
    for i, p in enumerate(passes):
        log("  pass %2d wall %.4f s cpu %.4f s (user %.4f sys %.4f) "
            "minflt %d steal %.2f s rss %.1f MiB"
            % (i, p["wall_s"], p["cpu_s"], p["user_s"], p["sys_s"],
               p["minflt"], p["steal_s"], p["peak_rss_mib"]))
    log("  median of %d passes: wall %.4f s cpu %.4f s; %d setup_s samples"
        % (len(passes), statistics.median(p["wall_s"] for p in passes),
           statistics.median(p["cpu_s"] for p in passes),
           sum(len(p["setup_samples"]) for p in passes)))


def run_passes(driver, workload, seed, seconds, min_passes):
    deadline = time.monotonic() + seconds
    passes = []
    while len(passes) < min_passes or time.monotonic() < deadline:
        passes.append(sweep_pass(driver, workload, seed))
    return passes


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    failures = self_test()
    if failures:
        log("perfbench: gate self-test failed: " + "; ".join(failures))
        return 1
    if args.self_test:
        log("perfbench: gate self-test passed")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        end_to_end, per_layer = metric_specs()
        driver = build()
        log("perfbench: %s seed %d, %d s, trace %d"
            % (args.workload, args.seed, args.seconds, args.trace))
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = run_passes(driver, args.workload, args.seed, seconds,
                            MIN_TRACE_PASSES if args.trace else MIN_PASSES)
        traced = (driver_json([driver, "traced", args.workload, str(args.seed)],
                              PASS_TIMEOUT_S) if args.trace else None)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: " + str(e))
        return 1

    problems = []
    attempted = sum(len(p["rows"]) for p in passes)
    failed = sum(len(gate(p["rows"])) for p in passes)
    reference = simulated(passes[0]["rows"])
    if any(simulated(p["rows"]) != reference or p["worlds"] != passes[0]["worlds"]
           for p in passes[1:]):
        problems.append("passes of one seed disagree on simulated results")

    log_passes(passes)
    cpu_median = statistics.median(p["cpu_s"] for p in passes)
    if traced is None:
        values = end_to_end_values(passes)
        specs = end_to_end
    else:
        attempted += len(traced["rows"])
        failed += len(gate(traced["rows"]))
        if simulated(traced["rows"]) != reference:
            problems.append("traced rows differ from untraced rows")
        log("perfbench: traced pass: %d of %d worlds verified, %d mismatches, "
            "hook coverage %.17g, %d uncovered ranks, vt residual max %.3g vs"
            % (traced["worlds_verified"], traced["worlds"],
               traced["equivalence_mismatches"], traced["hook_coverage"],
               traced["uncovered_ranks"], traced["vt_residual_max_vs"]))
        if traced["equivalence_mismatches"] or \
                traced["worlds_verified"] != traced["worlds"]:
            problems.append("traced worlds differ from exp::run_once")
        if traced["uncovered_ranks"] or traced["hook_coverage"] != 1:
            problems.append("PMPI hooks did not see every minimpi operation")
        if not traced["vt_residual_max_vs"] <= traced["vt_tolerance_vs"]:
            problems.append("virtual-time ledger does not add up")
        values = dict(traced["metrics"])
        values["trace_overhead_pct"] = 100.0 * (traced["cpu_s"] - cpu_median) / cpu_median
        specs = per_layer
    if failed:
        problems.append("%d of %d points failed the gate" % (failed, attempted))
    if any(not finite(values.get(m["name"])) for m in specs):
        problems.append("a metric is missing or not finite")

    metrics = {}
    for m in specs:
        v = values.get(m["name"])
        metrics[m["name"]] = {"value": v if finite(v) else None, "unit": m["unit"]}
        log("  %-32s %16.6g %s" % (m["name"], v if finite(v) else float("nan"),
                                   m["unit"]))
    log("perfbench: %d passes, %d of %d points failed (failed_frac %.4g)"
        % (len(passes), failed, attempted, failed / attempted))
    for p in problems:
        log("perfbench: FAIL: " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
