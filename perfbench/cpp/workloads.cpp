#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

using netrs::harness::ExperimentConfig;
using netrs::harness::Scheme;

// Requests per cell. Each is large enough that the measured phase holds
// well over 10,000 samples (so p99.9 has >= 10 samples beyond it) and that
// one run_experiment call lasts one to two seconds on a 4-core x86 host,
// so a 20 s run makes ten or more calls to take the median of.
constexpr std::uint64_t kK8Requests = 300'000;
constexpr std::uint64_t kCrashObsRequests = 100'000;
constexpr std::uint64_t kTorRequests = 300'000;

// The k=8 cell of bench/macro at 90% utilization (the paper's §V-A ratios
// on a 128-host tree). Built from scratch, not default_config(), so no
// NETRS_* environment variable can change it.
ExperimentConfig k8_cell(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 8;
  cfg.num_servers = 32;
  cfg.num_clients = 64;
  cfg.utilization = 0.9;
  cfg.total_requests = kK8Requests;
  cfg.repeats = 1;
  cfg.jobs = 1;
  cfg.shards = 1;
  cfg.seed = seed;
  return cfg;
}

// The crash half of bench/fig_failover's committed fault plan, timed
// against this cell's nominal run: server 0 is down over its middle third.
// The plan's slow-node half (server 3 x8) is left out: which keys the slow
// server holds depends on the seed, and it moved p99.9 between 40 and 72 ms
// over five seeds, too far for any regression bound.
std::string failover_plan(const ExperimentConfig& cfg) {
  const netrs::sim::Duration nominal = cfg.nominal_duration();
  char plan[128];
  std::snprintf(plan, sizeof(plan),
                "at %lldns crash server 0; at %lldns recover server 0",
                static_cast<long long>(nominal / 3),
                static_cast<long long>(2 * (nominal / 3)));
  return plan;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& obs_dir) {
  if (name == "ilp-k8") return {name, Scheme::kNetRSIlp, k8_cell(seed)};
  if (name == "clirs-r95-k8") {
    return {name, Scheme::kCliRSR95, k8_cell(seed)};
  }
  if (name == "tor-k16-sh4") {
    // bench/macro's scale cell: 1024-host tree partitioned by pod into 4
    // shards, one worker thread each. Zipf 0.8, not the paper's 0.99: at
    // this cell's 179k req/s the 0.99 hot keys ask more of their replica
    // groups than 3 servers serve, so the tail grows with run length (p99
    // 757 ms at 300k requests) and spreads 18% over seeds.
    ExperimentConfig cfg;
    cfg.zipf_exponent = 0.8;
    cfg.fat_tree_k = 16;
    cfg.num_servers = 256;
    cfg.num_clients = 700;
    cfg.utilization = 0.7;
    cfg.total_requests = kTorRequests;
    cfg.repeats = 1;
    cfg.jobs = 1;
    cfg.shards = 4;
    cfg.seed = seed;
    return {name, Scheme::kNetRSToR, cfg};
  }
  if (name == "ilp-k8-crash-obs") {
    ExperimentConfig cfg = k8_cell(seed);
    cfg.total_requests = kCrashObsRequests;
    cfg.fault_plan = failover_plan(cfg);
    // Doomed picks are tallied on the latency timeline.
    cfg.timeline_bucket = netrs::sim::millis(100);
    cfg.obs.trace_path = obs_dir + "/trace.json";
    cfg.obs.metrics_path = obs_dir + "/metrics.csv";
    cfg.obs.attribution_path = obs_dir + "/attribution.csv";
    cfg.obs.decision_path = obs_dir + "/decisions.csv";
    return {name, Scheme::kNetRSIlp, cfg};
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Workload cut_to(Workload w, std::uint64_t requests) {
  w.cfg.total_requests = requests;
  return w;
}

Workload without_obs(Workload w) {
  w.cfg.obs = netrs::obs::ObsConfig{};
  return w;
}

}  // namespace perfbench
