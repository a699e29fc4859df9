"""Arithmetic and output checks of the NetRS benchmark (perfbench/run.py).

Everything here is pure: it turns the JSON lines that netrs_perfbench
prints into metrics, and raises BenchError when an output is wrong.
perfbench/test_ledger.py tests it.
"""

import csv
import json
import os
import statistics
import subprocess

# At least this many samples must lie beyond a percentile before it is
# reported.
MIN_BEYOND = 10

# Workloads whose runs must lose no request.
FAULT_FREE = ("ilp-k8", "clirs-r95-k8", "tor-k16-sh4")

# Fields of one run_experiment call that are fixed by the seed: every run of
# a workload at one seed must report them identically.
DETERMINISTIC = ("issued", "completed", "redundant", "events", "samples",
                 "p50_ms", "p99_ms", "p999_ms", "beyond_p999",
                 "forwards_per_request", "wire_bytes_per_request",
                 "doomed_picks", "fault_events_fired")

OBS_FILES = ("trace.json", "metrics.csv", "attribution.csv", "decisions.csv")

# Wall seconds of netrs_perfbench's calibration kernel on the reference host
# (about its median on a quiet 4-vCPU x86-64 VM, gcc 12, Release), by the
# number of threads it runs on. requests_per_s and setup_s are stated at
# this host speed.
REF_CALIBRATION_S = {1: 0.17, 4: 0.22}


class BenchError(Exception):
    """An output of the program, or of the benchmark itself, is wrong."""


def parse_lines(text):
    """The JSON objects of netrs_perfbench's stdout, in order."""
    return [json.loads(line) for line in text.splitlines()
            if line.startswith("{")]


def of_kind(lines, kind):
    return [d for d in lines if d["kind"] == kind]


def median(values):
    if not values:
        raise BenchError("median of no values")
    return statistics.median(values)


def samples_beyond(n, q):
    """Samples strictly above the q-quantile of n distinct samples, with the
    quantile interpolated at rank q * (n - 1) (sim::LatencyRecorder's rule)."""
    if n <= 0:
        return 0
    return n - 1 - int(q * (n - 1))


def check_tail(samples, beyond, q=0.999):
    """Raises unless the q-quantile has >= MIN_BEYOND samples beyond it.

    `beyond` is the count the program measured on its sorted samples (ties
    can make it smaller than samples_beyond(samples, q))."""
    expected = samples_beyond(samples, q)
    if beyond > expected:
        raise BenchError(f"{beyond} samples beyond p{q * 100:g} of "
                         f"{samples} exceeds the possible {expected}")
    if beyond < MIN_BEYOND:
        raise BenchError(f"p{q * 100:g} has {beyond} samples beyond it "
                         f"(< {MIN_BEYOND}): too few to report")


def lost_share(issued, completed):
    """(issued - completed) / issued; raises on impossible counts."""
    if issued <= 0:
        raise BenchError("no request was issued")
    if completed > issued:
        raise BenchError(f"completed {completed} > issued {issued}")
    return (issued - completed) / issued


def peak_rss_mb(ru_maxrss_kb):
    """Peak resident set in MiB from getrusage's ru_maxrss (KiB on Linux)."""
    return ru_maxrss_kb / 1024.0


def run_child(argv, cwd=None):
    """Runs argv to completion; returns (stdout, returncode, peak_rss_mb).

    The peak RSS is the child's own high-water mark, read with wait4, so
    every measured process reports only its own memory."""
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, peak_rss_mb(usage.ru_maxrss)


def check_reps(workload, reps, keys=DETERMINISTIC):
    """Output checks on the run_experiment calls of one workload and seed;
    `keys` must read identically in every call."""
    if not reps:
        raise BenchError("no measured run")
    first = reps[0]
    for i, r in enumerate(reps[1:], start=1):
        for key in keys:
            if r[key] != first[key]:
                raise BenchError(f"run {i} of {workload} reports {key}="
                                 f"{r[key]}, run 0 reported {first[key]}")
    for r in reps:
        lost = lost_share(r["issued"], r["completed"])
        if workload in FAULT_FREE and lost != 0:
            raise BenchError(f"{workload} lost {r['issued'] - r['completed']}"
                             " requests on a fault-free run")
        if r["samples"] > r["completed"]:
            raise BenchError("more latency samples than completions")
        check_tail(r["samples"], r["beyond_p999"])
        if not r["p50_ms"] <= r["p99_ms"] <= r["p999_ms"]:
            raise BenchError("latency percentiles out of order")
        if r["wall_s"] <= 0:
            raise BenchError("non-positive wall time")


def _check_csv(path, min_columns):
    with open(path, newline="") as f:
        rows = csv.reader(f)
        header = next(rows, None)
        if header is None or len(header) < min_columns:
            raise BenchError(f"{path}: missing or short header")
        n = 0
        for n, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise BenchError(f"{path}: row {n} has {len(row)} fields, "
                                 f"header has {len(header)}")
        if n == 0:
            raise BenchError(f"{path}: header only, no rows")


def check_obs_files(obs_dir):
    """The four obs outputs exist, are non-empty and are well-formed; returns
    their sizes in bytes by file name."""
    sizes = {}
    for name in OBS_FILES:
        path = os.path.join(obs_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            raise BenchError(f"obs output {name} is missing or empty")
        sizes[name] = os.path.getsize(path)
    with open(os.path.join(obs_dir, "trace.json")) as f:
        try:
            trace = json.load(f)
        except json.JSONDecodeError as e:
            raise BenchError(f"trace.json is not JSON: {e}") from None
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not events or not all("ph" in e for e in events):
        raise BenchError("trace.json holds no trace events")
    for name in OBS_FILES[1:]:
        _check_csv(os.path.join(obs_dir, name), min_columns=4)
    return sizes


def slowdowns(cals, calls):
    """How much slower than the reference host the host ran during each of
    `calls` calls: the mean of the calibration times just before and just
    after the call, each over its REF_CALIBRATION_S. `cals` are the "cal"
    lines of the child, one before each call and one after the last."""
    if len(cals) != calls + 1:
        raise BenchError(f"{len(cals)} calibration runs around {calls} calls")
    ratios = []
    for c in cals:
        ref = REF_CALIBRATION_S.get(c["threads"])
        if ref is None:
            raise BenchError(f"no reference time for {c['threads']} "
                             "calibration threads")
        if c["wall_s"] <= 0:
            raise BenchError("non-positive calibration time")
        ratios.append(c["wall_s"] / ref)
    return [(a + b) / 2 for a, b in zip(ratios, ratios[1:])]


def rates(reps, cals):
    """(raw, normalized) requests per wall-second of each call; normalized
    multiplies out the host's slowdown during the call (see slowdowns)."""
    raw = [r["completed"] / r["wall_s"] for r in reps]
    return raw, [x * s for x, s in zip(raw, slowdowns(cals, len(reps)))]


def setup_times(setup_runs, setup_cals):
    """(raw, normalized) wall seconds of each set-up run; normalized divides
    out the host's slowdown, from the calibration runs around it."""
    raw = [s["wall_s"] for s in setup_runs]
    if len(setup_cals) != len(raw):
        raise BenchError("a set-up run has no calibration")
    return raw, [w / slowdowns(c, 1)[0] for w, c in zip(raw, setup_cals)]


def end_to_end(setup_runs, setup_cals, reps, cals, peak_rss):
    """The end-to-end metrics of one --trace 0 run. `cals` are the
    calibration lines around the measured calls (see slowdowns);
    `setup_cals` holds the two around each set-up run.

    The first measured call is a warm-up: it pays the fresh process's first
    touch of every page, which setup_s already measures, so the rate and
    allocation medians are taken over the calls after it."""
    first = reps[0]
    warm = reps[1:] or reps
    _, normalized = rates(reps, cals)
    return {
        "requests_per_s": median(normalized[1:] or normalized),
        "setup_s": median(setup_times(setup_runs, setup_cals)[1]),
        "peak_rss_mb": peak_rss,
        "allocs_per_request": median([r["allocs"] / r["completed"]
                                      for r in warm]),
        "sim_p50_ms": first["p50_ms"],
        "sim_p99_ms": first["p99_ms"],
        "sim_p999_ms": first["p999_ms"],
        "completed_share": 1.0 - lost_share(first["issued"],
                                            first["completed"]),
    }


def _span(lines, name):
    for d in of_kind(lines, "span"):
        if d["name"] == name:
            return d
    raise BenchError(f"no span {name}")


def _ctor(lines, *names):
    groups = [d for d in of_kind(lines, "ctor") if d["name"] in names]
    return sum(d["ns"] for d in groups), sum(d["rss_kb"] for d in groups)


def _per(x, n):
    return x / n if n else 0.0


def check_agreement(untraced, traced):
    """The composed traced deployment mirrors the harness's RNG derivation,
    so it must agree exactly on the counts it shares with the untraced run."""
    for key in ("issued", "completed", "events"):
        if traced[key] != untraced[key]:
            raise BenchError(f"traced run {key}={traced[key]} differs from "
                             f"the untraced run's {untraced[key]}")
    fwd = _per(traced["forwards_sum"], traced["measured"])
    if traced["measured"] != untraced["samples"] or \
            abs(fwd - untraced["forwards_per_request"]) > 1e-9 * fwd:
        raise BenchError(f"traced forwards/request {fwd} differs from the "
                         f"untraced {untraced['forwards_per_request']}")


def reconcile(base_wall_s, traced, selector_ns, rs_ns, switch_ns):
    """Per-request wall-time rows of the traced run, in ns.

    The rows sum to the traced run's host ns/request; `overhead` (traced
    minus untraced) turns that sum into the untraced host ns/request. On a
    sharded run the layer spans are thread time summed over shards; they
    are divided by the shard count (a wall-time share, assuming balanced
    shards), and the residual also holds the time shards wait on each
    other."""
    n = traced["completed"]
    shards = max(1, traced["shards"])
    rows = {
        "harness.setup": traced["setup_ns"] / n,
        "net.switch": switch_ns / shards / n,
        "netrs.selector.self": (selector_ns - rs_ns) / shards / n,
        "rs": rs_ns / shards / n,
    }
    layers = sum(rows.values()) - rows["harness.setup"]
    rows["sim.run.residual"] = traced["run_ns"] / n - layers
    rows["harness.harvest"] = traced["harvest_ns"] / n
    traced_total = sum(rows.values())
    untraced = base_wall_s * 1e9 / n
    return rows, traced_total, traced_total - untraced, untraced


def check_reconciliation(rows, traced_total, overhead, untraced):
    if abs(sum(rows.values()) - traced_total) > 1e-6 * traced_total:
        raise BenchError("reconciliation rows do not sum to the traced total")
    if abs(traced_total - overhead - untraced) > 1e-6 * untraced:
        raise BenchError("traced total minus overhead is not the untraced "
                         "host time")
    for name, v in rows.items():
        if v < 0:
            raise BenchError(f"reconciliation row {name} is negative ({v})")


def layer_metrics(workload, lines, obs_sizes=None):
    """The per-layer metrics and reconciliation rows of one trace child."""
    untraced = of_kind(lines, "untraced")[0]
    noobs = of_kind(lines, "untraced_noobs")
    base = noobs[0] if noobs else untraced
    traced = of_kind(lines, "traced")[0]
    # Obs is observation-only: turning it off changes no simulated count,
    # except the doomed picks, which are tallied from the obs decisions.
    check_reps(workload, [untraced] + noobs,
               keys=[k for k in DETERMINISTIC if k != "doomed_picks"])
    check_agreement(base, traced)
    n = untraced["completed"]
    sw = _span(lines, "net.switch")
    sel = _span(lines, "netrs.selector")
    rs = [_span(lines, k) for k in ("rs.select", "rs.on_send",
                                    "rs.on_response")]
    rs_ns = sum(s["ns"] for s in rs)
    rows, traced_total, overhead, base_host = reconcile(
        base["wall_s"], traced, sel["ns"], rs_ns, sw["ns"])
    check_reconciliation(rows, traced_total, overhead, base_host)
    op_ns, op_rss = _ctor(lines, "netrs.operators")
    ep_ns, _ = _ctor(lines, "kv.servers", "kv.clients")
    lanes = traced["lane_events"]
    shards = traced["shards"] if traced["windows"] else 0
    m = {
        "harness.host_ns_per_request": untraced["wall_s"] * 1e9 / n,
        "harness.setup_share": traced["setup_ns"] / (
            traced["setup_ns"] + traced["run_ns"] + traced["harvest_ns"]),
        "harness.trace_overhead_ns_per_request": overhead,
        "sim.events_per_request": untraced["events"] / n,
        "sim.events_per_s": untraced["events"] / untraced["wall_s"],
        "sim.shard.stall_share": _per(traced["stall_ns"],
                                      traced["stall_ns"] + traced["exec_ns"]),
        "sim.shard.events_per_window": _per(lanes, traced["windows"]),
        "sim.shard.imbalance": _per(traced["max_lane_events"] * shards, lanes),
        "sim.fault.events_fired": untraced["fault_events_fired"],
        "sim.run.residual_ns_per_request": rows["sim.run.residual"],
        "net.forwards_per_request": untraced["forwards_per_request"],
        "net.wire_bytes_per_request": untraced["wire_bytes_per_request"],
        "net.switch.ns_per_call": _per(sw["ns"], sw["calls"]),
        "net.switch.calls_per_request": sw["calls"] / n,
        "net.switch.allocs_per_call": _per(sw["allocs"], sw["calls"]),
        "net.switch.ns_per_request": rows["net.switch"],
        "netrs.selector.ns_per_call": _per(sel["ns"], sel["calls"]),
        "netrs.selector.calls_per_request": sel["calls"] / n,
        "netrs.selector.allocs_per_call": _per(sel["allocs"], sel["calls"]),
        "netrs.selector.self_ns_per_request": rows["netrs.selector.self"],
        "netrs.rsnodes": untraced["rsnodes"],
        "netrs.plans_deployed": untraced["plans_deployed"],
        "netrs.accel.utilization": traced["accel_utilization"],
        "netrs.operator.ctor_us": op_ns / 1e3,
        "netrs.operator.rss_kb": op_rss,
        "kv.endpoint_ctor_us": ep_ns / 1e3,
        "kv.redundant_share": untraced["redundant"] / untraced["issued"],
        "ilp.solve_ms": traced["ilp_solve_ms"],
        "rs.select_ns": _per(rs[0]["ns"], rs[0]["calls"]),
        "rs.on_response_ns": _per(rs[2]["ns"], rs[2]["calls"]),
        "rs.calls_per_request": sum(s["calls"] for s in rs) / n,
        "rs.ns_per_request": rows["rs"],
        "rs.load_oscillation": untraced["load_oscillation"],
        "rs.doomed_picks": untraced["doomed_picks"],
        "harness.setup_ns_per_request": rows["harness.setup"],
        "harness.harvest_ns_per_request": rows["harness.harvest"],
    }
    sizes = obs_sizes or {}
    for name in OBS_FILES:
        key = "obs.bytes_per_request." + name.split(".")[0]
        m[key] = sizes.get(name, 0) / n
    total_trace = untraced["trace_events"] + untraced["trace_dropped"]
    m["obs.trace_dropped_share"] = _per(untraced["trace_dropped"], total_trace)
    m["obs.host_ns_per_request"] = (
        (untraced["wall_s"] - noobs[0]["wall_s"]) * 1e9 / n if noobs else 0.0)
    return m, (rows, traced_total, overhead, base_host)
