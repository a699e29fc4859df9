#!/usr/bin/env python3
"""NetRS benchmark: builds the simulator from source, runs one workload and
prints its metrics.

    python3 perfbench/run.py --workload ilp-k8 --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout. --trace 0 measures the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced deployment
and prints the per-layer metrics plus the wall-time reconciliation. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. perfbench/README.md describes the workloads and metrics.
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
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing next to the sources

import ledger  # noqa: E402

# Set-up runs per benchmark run, each in a fresh process; setup_s is their
# median.
SETUP_RUNS = 7


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds netrs_perfbench; returns its path."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, base, "perfbench-release")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return bdir, os.path.join(bdir, "netrs_perfbench")


def source_digest():
    """SHA-256 over the simulator sources and the benchmark's own files, so
    a result names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names
                      if not n.endswith(".pyc")]
    files.append(os.path.join(ROOT, "bench", "alloc_shim.hpp"))
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def child(argv):
    """Runs one netrs_perfbench process; returns (lines, peak_rss_mb)."""
    out, rc, rss = ledger.run_child(argv)
    if rc != 0:
        raise ledger.BenchError(f"{' '.join(argv[1:3])} exited with {rc}")
    return ledger.parse_lines(out), rss


def provenance(binary, args):
    lines, _ = child([binary, "info", "--workload", args.workload,
                      "--seed", str(args.seed)])
    info = ledger.of_kind(lines, "info")[0]
    cell = ledger.of_kind(lines, "cell")[0]
    for d in (info, cell):
        del d["kind"]
    return dict(info, nproc=os.cpu_count(), git_sha=git_sha(),
                source_sha256=source_digest(), workload=args.workload,
                seed=args.seed, cell=cell)


def end_to_end(binary, args, obs_dir):
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--obs-dir", obs_dir]
    setup_runs = []
    setup_cals = []
    for _ in range(SETUP_RUNS):
        lines, _ = child([binary, "setup"] + common)
        setup_runs += ledger.of_kind(lines, "setup")
        setup_cals.append(ledger.of_kind(lines, "cal"))
    for s in setup_runs:
        lost = ledger.lost_share(s["issued"], s["completed"])
        if args.workload in ledger.FAULT_FREE and lost != 0:
            raise ledger.BenchError("a set-up run lost requests")
    lines, rss = child([binary, "run", "--seconds", str(args.seconds)]
                       + common)
    reps = ledger.of_kind(lines, "rep")
    cals = ledger.of_kind(lines, "cal")
    ledger.check_reps(args.workload, reps)
    if reps[0]["trace_events"]:
        ledger.check_obs_files(obs_dir)
    raw, _ = ledger.rates(reps, cals)
    slow = ledger.slowdowns(cals, len(reps))
    raw_setup, _ = ledger.setup_times(setup_runs, setup_cals)
    print(f"{len(setup_runs)} set-up runs, median "
          f"{ledger.median(raw_setup):.6g} wall s; {len(reps)} measured "
          f"calls, after the warm-up call: "
          f"median {ledger.median(raw[1:]):.0f} requests per wall-second, "
          f"host slowdown x{ledger.median(slow[1:]):.3f} against the "
          f"reference")
    metrics = ledger.end_to_end(setup_runs, setup_cals, reps, cals, rss)
    return metrics, len(setup_runs) + len(reps)


def traced(binary, args, obs_dir):
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--obs-dir", obs_dir]
    per_metric = {}
    untraced = []
    recon = []
    attempted = 0
    t0 = time.monotonic()
    while not recon or time.monotonic() - t0 < args.seconds:
        lines, _ = child([binary, "trace"] + common)
        attempted += sum(len(ledger.of_kind(lines, k)) for k in (
            "cold", "untraced", "untraced_noobs", "traced"))
        u = ledger.of_kind(lines, "untraced")[0]
        sizes = ledger.check_obs_files(obs_dir) if u["trace_events"] else None
        m, r = ledger.layer_metrics(args.workload, lines, sizes)
        untraced.append(u)
        recon.append(r)
        for k, v in m.items():
            per_metric.setdefault(k, []).append(v)
    ledger.check_reps(args.workload, untraced)
    metrics = {k: ledger.median(v) for k, v in per_metric.items()}
    print("set-up trace of the last cold traced run (constructor group, us, "
          "RSS growth KiB):")
    for g in ledger.of_kind(lines, "ctor"):
        print(f"  {g['name']:<24} {g['ns'] / 1e3:12.1f} {g['rss_kb']:10.0f}")
    print_reconciliation(args.workload, recon, metrics)
    return metrics, attempted


def print_reconciliation(workload, recon, metrics):
    """Median per-request rows of the traced runs (see ledger.reconcile)."""
    print(f"reconciliation, {workload}, host ns/request, median of "
          f"{len(recon)} traced runs:")
    for name in recon[0][0]:
        v = ledger.median([r[0][name] for r in recon])
        print(f"  {name:<24} {v:12.1f}")
    rows = [("= traced total", 1), ("- tracing overhead", 2),
            ("= untraced host", 3)]
    for label, i in rows:
        print(f"  {label:<24} {ledger.median([r[i] for r in recon]):12.1f}")
    obs = metrics["obs.host_ns_per_request"]
    if obs:
        print(f"  {'+ obs record+write':<24} {obs:12.1f}")
        print(f"  {'= with obs on':<24} "
              f"{metrics['harness.host_ns_per_request']:12.1f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        p.error(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        bdir, binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    print(json.dumps({"provenance": provenance(binary, args)}), flush=True)
    obs_dir = os.path.join(bdir, f"obs-{os.getpid()}")
    os.makedirs(obs_dir, exist_ok=True)
    attempted = 0
    try:
        if args.trace:
            values, attempted = traced(binary, args, obs_dir)
        else:
            values, attempted = end_to_end(binary, args, obs_dir)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise ledger.BenchError(f"metrics not measured: {missing}")
    except ledger.BenchError as e:
        log(f"perfbench: FAILED: {e}")
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(obs_dir, ignore_errors=True)
    metrics = {}
    for m in wanted:
        v = values[m["name"]]
        print(f"{m['name']:<40} {v:16.6g} {m['unit']}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
