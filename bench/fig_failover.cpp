// Failover figure: tail latency and decision-auditor staleness traced
// through a failure episode for CliRS vs NetRS-ToR vs NetRS-ILP
// (EXPERIMENTS.md "fig_failover", docs/SCENARIOS.md walkthrough).
//
// One pinned cell per scheme — k=8 fat-tree, 20 servers, 64 clients, 70%
// utilization, seed 17 — with the committed fault plan: at 1/3 of the
// nominal run (5 s at the default request count) server 0 crashes AND
// server 3 degrades to 8x service time; both repair at 2/3 (10 s). The
// crash exercises lost requests, doomed picks, and the staleness spike;
// the slow node is the latency-visible half (open-loop clients never
// queue on a dead server, so a pure crash barely moves p99). The run
// emits:
//   - the per-phase (pre/during/post-fault) latency, regret, and
//     staleness windows on stdout (print_fault_phases),
//   - a latency timeline CSV (100 ms buckets) for plot_results.py's
//     latency-through-failure panel,
//   - a separately fingerprinted "failover" section spliced into the
//     BENCH_<n>.json perf record (bench/macro writes the base record;
//     tools/bench_gate.py gates each scheme's requests_per_sec).
//
// Fault times are derived from the nominal duration (fractions 1/3 and
// 2/3), so NETRS_BENCH_FAILOVER_REQUESTS can shrink the cell for smoke
// tests while keeping the fault inside the run; the request count is part
// of the fingerprint, so differently-scaled records are never compared.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "sim/time.hpp"

namespace {

using namespace netrs;

constexpr int kFatTreeK = 8;
constexpr int kNumServers = 20;
constexpr int kNumClients = 64;
// 70% utilization x 20 servers x 4 cores / 4 ms = 14 000 req/s, so the
// default cell runs 15 s of simulated time: crash at 5 s, recover at 10 s.
constexpr std::uint64_t kRequests = 210'000;
constexpr std::uint64_t kSeed = 17;
constexpr double kUtilization = 0.70;
const std::vector<harness::Scheme> kSchemes = {
    harness::Scheme::kCliRS, harness::Scheme::kNetRSToR,
    harness::Scheme::kNetRSIlp};

harness::ExperimentConfig cell_config(std::uint64_t requests) {
  // Built from scratch (not default_config()) so NETRS_* env overrides
  // cannot silently change the canonical cell.
  harness::ExperimentConfig cfg;
  cfg.fat_tree_k = kFatTreeK;
  cfg.num_servers = kNumServers;
  cfg.num_clients = kNumClients;
  cfg.utilization = kUtilization;
  cfg.total_requests = requests;
  cfg.repeats = 3;
  cfg.seed = kSeed;
  cfg.jobs = 1;
  cfg.timeline_bucket = sim::millis(100);
  cfg.obs.record_decisions = true;  // regret + staleness, no CSV
  // The committed failure event (server 0 crashes, recovers 5 s later;
  // tests/fault_injection_test.cpp pins the same plan's digests) plus a
  // slow-node episode on server 3 over the same window: the crash shows
  // lost requests, doomed picks, and the staleness spike; the slow node
  // shows the tail inflation each scheme carries until its replica
  // selection routes around the degraded server.
  const sim::Duration nominal = cfg.nominal_duration();
  char plan[256];
  std::snprintf(plan, sizeof(plan),
                "at %lldns crash server 0; at %lldns slow server 3 x8; "
                "at %lldns recover server 0; at %lldns slow server 3 x1",
                static_cast<long long>(nominal / 3),
                static_cast<long long>(nominal / 3),
                static_cast<long long>(2 * (nominal / 3)),
                static_cast<long long>(2 * (nominal / 3)));
  cfg.fault_plan = plan;
  return cfg;
}

/// A scheme "detects" the fault when its during-fault decision staleness
/// rises at least this factor above the pre-fault mean. CliRS (~82 ms
/// baseline staleness) and NetRS-ToR (~40 ms) never cross it — their
/// feedback is already staler than the signal; NetRS-ILP (~6 ms) spikes
/// 5-6x while the crashed server's last report ages out.
constexpr double kDetectRatio = 1.5;

/// Staleness recovery: ms from the fault-window end until the scheme's
/// per-bucket mean decision staleness is back within 1.25x of its
/// pre-fault mean for two consecutive buckets. Returns -1 when the scheme
/// never detected the fault (kDetectRatio) — re-convergence of a signal
/// that never deviated is meaningless, and the report prints "blind".
double stale_recovery_ms(const harness::ExperimentResult& r) {
  const harness::FaultPhaseStats& f = r.fault;
  if (r.timeline_bucket_ms <= 0.0 || f.staleness_ms[0].empty() ||
      f.staleness_ms[1].empty()) {
    return -1.0;
  }
  const double pre = f.staleness_ms[0].mean();
  if (pre <= 0.0 || f.staleness_ms[1].mean() < kDetectRatio * pre) {
    return -1.0;
  }
  const double band = 1.25 * pre;
  const auto first = static_cast<std::size_t>(f.window_end_ms /
                                              r.timeline_bucket_ms);
  for (std::size_t b = first; b + 1 < r.stale_timeline.size(); ++b) {
    const sim::LatencyRecorder& cur = r.stale_timeline[b];
    const sim::LatencyRecorder& nxt = r.stale_timeline[b + 1];
    if (cur.empty() || nxt.empty()) continue;
    if (cur.mean() <= band && nxt.mean() <= band) {
      return static_cast<double>(b) * r.timeline_bucket_ms - f.window_end_ms;
    }
  }
  return static_cast<double>(r.stale_timeline.size()) * r.timeline_bucket_ms -
         f.window_end_ms;  // never re-converged before the run ended
}

/// Splices `section` (",\n  \"failover\": {...}\n") into an existing JSON
/// record before its final '}', or writes a minimal standalone record.
bool write_bench_section(const std::string& path,
                         const std::string& section) {
  std::string base;
  if (std::FILE* in = std::fopen(path.c_str(), "r")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      base.append(buf, n);
    }
    std::fclose(in);
  }
  while (!base.empty() &&
         (base.back() == '\n' || base.back() == ' ' || base.back() == '\r')) {
    base.pop_back();
  }
  if (!base.empty() && base.back() == '}') {
    base.pop_back();  // re-open the record; section re-closes it
    base += ",";
  } else {
    base = "{\n  \"schema\": 1,\n  \"bench\": \"netrs-failover\",";
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "%s\n%s}\n", base.c_str(), section.c_str());
  std::fclose(out);
  return true;
}

// The request count in environment variable `name`: `fallback` when it is
// unset, empty or 0. A value that is not a whole count ends the program
// with "<program>: <reason>" and exit status 2, before anything runs.
std::uint64_t requests_from_env(const char* program, const char* name,
                                std::uint64_t fallback) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  try {
    const std::uint64_t n = harness::parse_count(
        name, e, std::numeric_limits<std::uint64_t>::max());
    return n == 0 ? fallback : n;
  } catch (const std::invalid_argument& ex) {
    std::fprintf(stderr, "%s: %s\n", program, ex.what());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_9.json";
  std::string csv_path = "failover_timeline.csv";
  if (argc > 1) out_path = argv[1];
  if (argc > 2) csv_path = argv[2];

  const std::uint64_t requests = requests_from_env(
      "fig_failover", "NETRS_BENCH_FAILOVER_REQUESTS", kRequests);

  struct Cell {
    harness::Scheme scheme;
    harness::ExperimentResult res;
    double wall_seconds;
    double recovery_ms;  ///< stale_recovery_ms(); -1 = never detected
  };
  std::vector<Cell> cells;

  const harness::ExperimentConfig proto = cell_config(requests);
  std::FILE* csv = std::fopen(csv_path.c_str(), "w");
  if (csv == nullptr) {
    std::fprintf(stderr, "fig_failover: cannot open %s\n", csv_path.c_str());
    return 1;
  }
  std::fprintf(csv, "scheme,bucket_start_ms,mean_ms,p99_ms,samples,"
                    "stale_mean_ms,doomed,fault_start_ms,fault_end_ms\n");

  for (const harness::Scheme scheme : kSchemes) {
    const harness::ExperimentConfig cfg = cell_config(requests);
    std::printf("[failover] scheme=%s requests=%llu plan=\"%s\" ...\n",
                harness::scheme_name(scheme),
                static_cast<unsigned long long>(cfg.total_requests),
                cfg.fault_plan.c_str());
    std::fflush(stdout);
    // netrs-lint: allow(wall-clock): benchmark throughput is measured in wall time by definition; nothing simulated depends on it.
    const auto t0 = std::chrono::steady_clock::now();
    harness::ExperimentResult res = harness::run_experiment(scheme, cfg);
    // netrs-lint: allow(wall-clock): benchmark throughput is measured in wall time by definition; nothing simulated depends on it.
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();

    harness::print_fault_phases(harness::scheme_name(scheme), res);
    const double rec = stale_recovery_ms(res);
    std::printf("[failover] %s: %llu doomed picks; %llu requests lost\n",
                harness::scheme_name(scheme),
                static_cast<unsigned long long>(res.doomed_picks),
                static_cast<unsigned long long>(res.issued - res.completed));

    for (std::size_t b = 0; b < res.timeline.size(); ++b) {
      const sim::LatencyRecorder& bucket = res.timeline[b];
      if (bucket.empty()) continue;
      const bool has_stale = b < res.stale_timeline.size() &&
                             !res.stale_timeline[b].empty();
      const std::uint64_t doomed =
          b < res.doomed_timeline.size() ? res.doomed_timeline[b] : 0;
      std::fprintf(csv, "%s,%.1f,%.4f,%.4f,%zu,%.4f,%llu,%.1f,%.1f\n",
                   harness::scheme_name(scheme),
                   static_cast<double>(b) * res.timeline_bucket_ms,
                   bucket.mean(), bucket.percentile(0.99), bucket.count(),
                   has_stale ? res.stale_timeline[b].mean() : 0.0,
                   static_cast<unsigned long long>(doomed),
                   res.fault.window_start_ms, res.fault.window_end_ms);
    }
    cells.push_back({scheme, std::move(res), wall, rec});
  }
  std::fclose(csv);

  std::string section;
  char line[768];
  std::snprintf(line, sizeof(line), "  \"failover\": {\n");
  section += line;
  std::snprintf(line, sizeof(line),
                "    \"fingerprint\": \"failover-k%d-s%d-c%d-r%llu-seed%llu-"
                "u%d\",\n",
                kFatTreeK, kNumServers, kNumClients,
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(kSeed),
                static_cast<int>(kUtilization * 100.0));
  section += line;
  std::snprintf(line, sizeof(line), "    \"fault_start_ms\": %.1f,\n",
                cells.front().res.fault.window_start_ms);
  section += line;
  std::snprintf(line, sizeof(line), "    \"fault_end_ms\": %.1f,\n",
                cells.front().res.fault.window_end_ms);
  section += line;
  section += "    \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const harness::FaultPhaseStats& f = c.res.fault;
    auto p99 = [](const sim::LatencyRecorder& r) {
      return r.empty() ? 0.0 : r.percentile(0.99);
    };
    auto mean = [](const sim::LatencyRecorder& r) {
      return r.empty() ? 0.0 : r.mean();
    };
    const double pre_p99 = p99(f.latency_ms[0]);
    const double pre_stale = mean(f.staleness_ms[0]);
    std::snprintf(
        line, sizeof(line),
        "      {\"scheme\": \"%s\", \"completed\": %llu, \"lost\": %llu, "
        "\"wall_seconds\": %.3f, \"requests_per_sec\": %.1f,\n"
        "       \"pre_p99_ms\": %.4f, \"during_p99_ms\": %.4f, "
        "\"post_p99_ms\": %.4f,\n"
        "       \"pre_stale_ms\": %.4f, \"during_stale_ms\": %.4f, "
        "\"post_stale_ms\": %.4f,\n"
        "       \"doomed_picks\": %llu, \"p99_recovery_ratio\": %.4f, "
        "\"stale_detect_ratio\": %.2f, \"stale_recovery_ms\": %.1f}%s\n",
        harness::scheme_name(c.scheme),
        static_cast<unsigned long long>(c.res.completed),
        static_cast<unsigned long long>(c.res.issued - c.res.completed),
        c.wall_seconds,
        c.wall_seconds > 0.0
            ? static_cast<double>(c.res.completed) / c.wall_seconds
            : 0.0,
        pre_p99, p99(f.latency_ms[1]), p99(f.latency_ms[2]),
        pre_stale, mean(f.staleness_ms[1]), mean(f.staleness_ms[2]),
        static_cast<unsigned long long>(c.res.doomed_picks),
        pre_p99 > 0.0 ? p99(f.latency_ms[2]) / pre_p99 : 0.0,
        pre_stale > 0.0 ? mean(f.staleness_ms[1]) / pre_stale : 0.0,
        c.recovery_ms, i + 1 < cells.size() ? "," : "");
    section += line;
  }
  section += "    ]\n  }\n";
  if (!write_bench_section(out_path, section)) {
    std::fprintf(stderr, "fig_failover: cannot write %s\n", out_path.c_str());
    return 1;
  }

  std::printf("\n[failover] %s + %s written\n", out_path.c_str(),
              csv_path.c_str());
  // No "[" prefix on the summary block: the EXPERIMENTS.md assembler
  // strips [tag]-prefixed progress lines, and these are the results.
  std::printf("\n-- Recovery metrics --\n");
  for (const Cell& c : cells) {
    const harness::FaultPhaseStats& f = c.res.fault;
    const double pre_p99 =
        f.latency_ms[0].empty() ? 0.0 : f.latency_ms[0].percentile(0.99);
    const double post_p99 =
        f.latency_ms[2].empty() ? 0.0 : f.latency_ms[2].percentile(0.99);
    char rec[32];
    if (c.recovery_ms < 0.0) {
      std::snprintf(rec, sizeof(rec), "%8s", "blind");
    } else {
      std::snprintf(rec, sizeof(rec), "%5.0f ms", c.recovery_ms);
    }
    std::printf("%-10s during-p99 %8.3f ms | post/pre p99 %.4f | "
                "stale recovery %s | lost %5llu | doomed %5llu\n",
                harness::scheme_name(c.scheme),
                f.latency_ms[1].empty() ? 0.0
                                        : f.latency_ms[1].percentile(0.99),
                pre_p99 > 0.0 ? post_p99 / pre_p99 : 0.0, rec,
                static_cast<unsigned long long>(c.res.issued -
                                                c.res.completed),
                static_cast<unsigned long long>(c.res.doomed_picks));
  }
  return 0;
}
