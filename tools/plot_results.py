#!/usr/bin/env python3
"""Plot the benches' CSV output as paper-style figures.

Usage:
    python3 tools/plot_results.py bench_results.csv [more.csv ...] [outdir]

Each input CSV is classified by its header:
  - `bench_results.csv` rows (figure,sweep,scheme,panel,value) become one
    PNG per (figure, metric panel): sweep on the x-axis, one line per
    scheme, mirroring the bar groups of the paper's Figs. 4-7;
  - attribution CSVs (`--attribution` / NETRS_ATTRIBUTION, DESIGN.md
    §8.4, one row per request) become one stacked-component bar per file:
    mean ms per latency component, so "where did the latency go" is one
    glance (attribution_means() computes the bars without matplotlib);
  - decision CSVs (`--decisions` / NETRS_DECISIONS, DESIGN.md §8.5)
    become one oracle-regret CDF curve per file;
  - failover timeline CSVs (written by bench/fig_failover, one row per
    100 ms bucket per scheme) become a two-panel figure per file: p99
    latency and mean decision staleness over time, one line per scheme,
    with the fault window shaded — the recovery behaviour of
    docs/SCENARIOS.md's failover walkthrough at a glance;
  - shard-telemetry CSVs (`--shard-telemetry` / NETRS_SHARD_TELEMETRY,
    DESIGN.md §8.6) become a shard-timeline figure per file: one stacked
    execute-vs-stall wall-time bar per shard (is the parallel engine
    balanced, or is one shard dragging the window?) plus the per-shard
    events-per-window timeline from the bucket series.

A trailing argument that is not an existing file is taken as the output
directory (default `plots`). Requires matplotlib; the simulation itself
has no Python dependency.
"""
import collections
import csv
import os
import sys

ATTRIBUTION_HEADER = (
    "repeat,req,complete_us,server,dup,via_rs,dup_wait,wire_cli_rs,"
    "accel_queue,accel_serv,wire_rs_srv,srv_queue,srv_serv,wire_return,total"
)
# The eight latency components, in the CSV's (chronological) column order.
ATTRIBUTION_COMPONENTS = ATTRIBUTION_HEADER.split(",")[6:-1]
# The earlier long format: nine rows per request, one per component plus
# the total. Rejected with a message rather than misread.
LONG_ATTRIBUTION_HEADER = "repeat,req,complete_us,server,dup,via_rs,component,ns"
DECISION_HEADER = (
    "repeat,time_us,node,chosen,candidates,score,regret_ns,staleness_ns,herd"
)
FAILOVER_HEADER = (
    "scheme,bucket_start_ms,mean_ms,p99_ms,samples,stale_mean_ms,doomed,"
    "fault_start_ms,fault_end_ms"
)
SHARD_TELEMETRY_HEADER = (
    "repeat,shard,bucket_start_us,windows,events,advance_ns,exec_ns,stall_ns"
)


def file_label(path):
    return os.path.splitext(os.path.basename(path))[0]


def plot_bench(path, outdir, plt):
    # figure -> metric -> scheme -> [(sweep, value)]
    data = collections.defaultdict(
        lambda: collections.defaultdict(lambda: collections.defaultdict(list))
    )
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if len(row) != 5:
                continue
            figure, sweep, scheme, metric, value = row
            data[figure][metric][scheme].append((sweep, float(value)))

    for figure, metrics in data.items():
        for metric, schemes in metrics.items():
            plt.figure(figsize=(5, 3.2))
            for scheme, points in schemes.items():
                xs = [p[0] for p in points]
                ys = [p[1] for p in points]
                plt.plot(xs, ys, marker="o", label=scheme)
            plt.title(f"{figure}\n{metric} latency")
            plt.ylabel("latency (ms)")
            plt.grid(True, alpha=0.3)
            plt.legend(fontsize=7)
            plt.tight_layout()
            slug = (
                f"{figure}_{metric}".lower()
                .replace(" ", "_")
                .replace("/", "-")
                .replace("%", "pct")
            )
            slug = "".join(c for c in slug if c.isalnum() or c in "_-")
            out = os.path.join(outdir, f"{slug}.png")
            plt.savefig(out, dpi=140)
            plt.close()
            print("wrote", out)


def attribution_means(path):
    """Mean ms per latency component over every request row of an
    attribution CSV, as {component: mean_ms} in column order (all 0.0 for a
    file with no rows). Raises ValueError for any other header, naming the
    long format (one row per component) that earlier versions wrote."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = ",".join(next(reader, []))
        if header == LONG_ATTRIBUTION_HEADER:
            raise ValueError(
                f"{path}: long-format attribution CSV (one row per "
                "component); re-run the simulator to get the one-row-per-"
                "request schema"
            )
        if header != ATTRIBUTION_HEADER:
            raise ValueError(f"{path}: not an attribution CSV: {header!r}")
        first = 6  # repeat,req,complete_us,server,dup,via_rs
        sums = [0] * len(ATTRIBUTION_COMPONENTS)
        rows = 0
        for row in reader:
            for i in range(len(sums)):
                sums[i] += int(row[first + i])
            rows += 1
    return {
        c: (s / rows / 1e6 if rows else 0.0)
        for c, s in zip(ATTRIBUTION_COMPONENTS, sums)
    }


def plot_attribution(means, outdir, plt):
    """One stacked bar per attribution CSV: mean ms per component.
    `means` maps each path to its attribution_means()."""
    paths = list(means)
    plt.figure(figsize=(max(4.0, 1.2 * len(paths) + 2.0), 3.6))
    xs = range(len(paths))
    bottoms = [0.0] * len(paths)
    for comp in ATTRIBUTION_COMPONENTS:
        heights = [means[p][comp] for p in paths]
        plt.bar(xs, heights, bottom=bottoms, width=0.6, label=comp)
        bottoms = [b + h for b, h in zip(bottoms, heights)]
    plt.xticks(list(xs), [file_label(p) for p in paths], rotation=20,
               ha="right", fontsize=7)
    plt.ylabel("mean latency (ms)")
    plt.title("Latency attribution (stacked component means)")
    plt.legend(fontsize=7)
    plt.grid(True, axis="y", alpha=0.3)
    plt.tight_layout()
    out = os.path.join(outdir, "attribution_components.png")
    plt.savefig(out, dpi=140)
    plt.close()
    print("wrote", out)


def plot_decisions(paths, outdir, plt):
    """One oracle-regret CDF curve per decision CSV."""
    plt.figure(figsize=(5, 3.2))
    for path in paths:
        regrets = []
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                r = float(row["regret_ns"])
                if r >= 0.0:  # -1 marks "no regret computed"
                    regrets.append(r / 1e6)
        if not regrets:
            continue
        regrets.sort()
        n = len(regrets)
        ys = [(i + 1) / n for i in range(n)]
        plt.plot(regrets, ys, label=f"{file_label(path)} (n={n})")
    plt.xlabel("oracle regret (ms)")
    plt.ylabel("fraction of decisions")
    plt.title("Selection-decision regret CDF")
    plt.grid(True, alpha=0.3)
    plt.legend(fontsize=7)
    plt.tight_layout()
    out = os.path.join(outdir, "decision_regret_cdf.png")
    plt.savefig(out, dpi=140)
    plt.close()
    print("wrote", out)


def plot_failover(path, outdir, plt):
    """Two stacked panels: p99 latency and mean decision staleness over
    time, one line per scheme, the fault window shaded on both."""
    # scheme -> [(bucket_start_ms, p99_ms, stale_mean_ms)]
    series = collections.defaultdict(list)
    window = None
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            series[row["scheme"]].append(
                (
                    float(row["bucket_start_ms"]),
                    float(row["p99_ms"]),
                    float(row["stale_mean_ms"]),
                )
            )
            window = (float(row["fault_start_ms"]), float(row["fault_end_ms"]))
    if not series:
        return

    fig, (ax_lat, ax_stale) = plt.subplots(
        2, 1, sharex=True, figsize=(6, 4.6)
    )
    for scheme, points in series.items():
        points.sort()
        ts = [p[0] / 1000.0 for p in points]
        ax_lat.plot(ts, [p[1] for p in points], label=scheme, linewidth=1.2)
        ax_stale.plot(ts, [p[2] for p in points], label=scheme, linewidth=1.2)
    if window is not None:
        for ax in (ax_lat, ax_stale):
            ax.axvspan(
                window[0] / 1000.0,
                window[1] / 1000.0,
                color="tab:red",
                alpha=0.12,
                label="fault window",
            )
    ax_lat.set_ylabel("p99 latency (ms)")
    ax_lat.set_title(f"Failover timeline ({file_label(path)})")
    ax_lat.legend(fontsize=7)
    ax_stale.set_ylabel("mean staleness (ms)")
    ax_stale.set_xlabel("time (s)")
    for ax in (ax_lat, ax_stale):
        ax.grid(True, alpha=0.3)
    fig.tight_layout()
    out = os.path.join(outdir, f"{file_label(path)}.png")
    fig.savefig(out, dpi=140)
    plt.close(fig)
    print("wrote", out)


def plot_shard_telemetry(path, outdir, plt):
    """Two stacked panels per telemetry CSV: per-shard execute-vs-stall
    wall-time bars (summed over repeats and buckets), and the events
    timeline — events per bucket over simulated time, one line per
    shard."""
    exec_ns = collections.defaultdict(float)  # shard -> wall ns
    stall_ns = collections.defaultdict(float)
    # shard -> {bucket_start_us: events} (summed across repeats)
    timeline = collections.defaultdict(lambda: collections.defaultdict(float))
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            shard = int(row["shard"])
            exec_ns[shard] += float(row["exec_ns"])
            stall_ns[shard] += float(row["stall_ns"])
            timeline[shard][float(row["bucket_start_us"])] += float(
                row["events"]
            )
    if not exec_ns:
        return

    shards = sorted(exec_ns)
    fig, (ax_bar, ax_ev) = plt.subplots(2, 1, figsize=(6, 5.0))
    execs = [exec_ns[s] / 1e6 for s in shards]
    stalls = [stall_ns[s] / 1e6 for s in shards]
    ax_bar.bar(shards, execs, width=0.6, label="execute", color="tab:blue")
    ax_bar.bar(shards, stalls, bottom=execs, width=0.6, label="stall",
               color="tab:orange")
    ax_bar.set_xticks(shards)
    ax_bar.set_xticklabels([f"shard {s}" for s in shards], fontsize=8)
    ax_bar.set_ylabel("wall time (ms)")
    ax_bar.set_title(f"Shard timeline ({file_label(path)})")
    ax_bar.legend(fontsize=7)

    for shard in shards:
        points = sorted(timeline[shard].items())
        ts = [p[0] / 1e3 for p in points]
        ax_ev.plot(ts, [p[1] for p in points], label=f"shard {shard}",
                   linewidth=1.0)
    ax_ev.set_xlabel("simulated time (ms)")
    ax_ev.set_ylabel("events / bucket")
    ax_ev.legend(fontsize=7)
    for ax in (ax_bar, ax_ev):
        ax.grid(True, alpha=0.3)
    fig.tight_layout()
    out = os.path.join(outdir, f"{file_label(path)}.png")
    fig.savefig(out, dpi=140)
    plt.close(fig)
    print("wrote", out)


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    args = sys.argv[1:]
    outdir = "plots"
    if len(args) > 1 and not os.path.isfile(args[-1]):
        outdir = args.pop()
    if not args:
        print(__doc__)
        return 2

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; install it to plot", file=sys.stderr)
        return 1

    bench, attribution, decisions, failover, telemetry = [], [], [], [], []
    for path in args:
        with open(path, newline="") as f:
            header = f.readline().strip()
        if header in (ATTRIBUTION_HEADER, LONG_ATTRIBUTION_HEADER):
            attribution.append(path)
        elif header == DECISION_HEADER:
            decisions.append(path)
        elif header == FAILOVER_HEADER:
            failover.append(path)
        elif header == SHARD_TELEMETRY_HEADER:
            telemetry.append(path)
        else:
            bench.append(path)

    try:
        means = {path: attribution_means(path) for path in attribution}
    except ValueError as e:
        print(e, file=sys.stderr)
        return 1

    os.makedirs(outdir, exist_ok=True)
    for path in bench:
        plot_bench(path, outdir, plt)
    if means:
        plot_attribution(means, outdir, plt)
    if decisions:
        plot_decisions(decisions, outdir, plt)
    for path in failover:
        plot_failover(path, outdir, plt)
    for path in telemetry:
        plot_shard_telemetry(path, outdir, plt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
